//! Figure 9: latency under a *limited* memory budget (a narrow sweep just
//! below and around √(F·‖R‖)), uniform and Zipf(1.0) correlations.
//!
//! This is where NOCAP's rounded hash pays off even without skew: GHJ/DHH's
//! uniform partitioning produces partitions slightly larger than a chunk and
//! pays a full extra pass, while rounded hash keeps most partitions
//! chunk-aligned.

use nocap_bench::harness::{print_series_block, Algo, Cell, Sweep};
use nocap_model::JoinSpec;
use nocap_storage::{DeviceProfile, SimDevice};
use nocap_workload::{synthetic, Correlation, SyntheticConfig};

fn main() {
    for (name, correlation) in [
        ("uniform", Correlation::Uniform),
        ("zipf_1.0", Correlation::Zipf { alpha: 1.0 }),
    ] {
        let config = SyntheticConfig::scaled_default(correlation);
        let workload = synthetic::generate(SimDevice::new_ref(), &config).expect("workload");
        let pages_r = JoinSpec::paper_synthetic(config.record_bytes, 64).pages_r(config.n_r);
        let sqrt_r = ((pages_r as f64) * 1.02_f64).sqrt().ceil() as usize;

        // The paper sweeps 128–512 pages for ‖R‖ = 250K (√ ≈ 505); keep the
        // same ratio: from ~0.4·√ to ~1.4·√ in even steps.
        let budgets: Vec<usize> = (0..7)
            .map(|i| ((0.4 + 0.17 * i as f64) * sqrt_r as f64).round() as usize)
            .collect();

        let sweep = Sweep::run(&workload, config.record_bytes, &budgets, &Algo::ALL);
        print_series_block(
            &format!("Figure 9 — correlation = {name}: #I/Os under limited memory"),
            &sweep.names(),
            &sweep.panel(&[Cell::Ios]),
        );
        print_series_block(
            &format!("Figure 9 — correlation = {name}: latency (s) under limited memory"),
            &sweep.names(),
            &sweep.panel(&[Cell::Latency(DeviceProfile::osync_off())]),
        );
    }
}
