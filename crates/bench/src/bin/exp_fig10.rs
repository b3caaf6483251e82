//! Figure 10: robustness to noisy MCV statistics.
//!
//! Gaussian noise with σ = n_S / n_R is added to every CT entry before the
//! MCVs are extracted; NOCAP, DHH and Histojoin are then run with the noisy
//! statistics and compared against the exact-statistics run.

use nocap_bench::harness::{budget_grid, print_series_block, Algo, Cell, Sweep};
use nocap_storage::{DeviceProfile, SimDevice};
use nocap_workload::{noisy_mcvs, synthetic, Correlation, SyntheticConfig};

fn main() {
    let latency = [Cell::Latency(DeviceProfile::osync_off())];
    let algos = [Algo::Nocap, Algo::Dhh, Algo::Histojoin];

    for (name, correlation) in [
        ("uniform", Correlation::Uniform),
        ("zipf_0.7", Correlation::Zipf { alpha: 0.7 }),
    ] {
        let config = SyntheticConfig::scaled_default(correlation);
        let sigma = config.n_s as f64 / config.n_r as f64;
        let mut workload = synthetic::generate(SimDevice::new_ref(), &config).expect("workload");
        let budgets = budget_grid(config.record_bytes, config.n_r, 0.5);

        let exact = Sweep::run(&workload, config.record_bytes, &budgets, &algos);
        workload.mcvs = noisy_mcvs(&workload.ct, config.mcv_count, sigma, 0xF16);
        let noisy = Sweep::run(&workload, config.record_bytes, &budgets, &algos);
        print_series_block(
            &format!("Figure 10 — correlation = {name}: latency (s) with exact MCVs"),
            &exact.names(),
            &exact.panel(&latency),
        );
        print_series_block(
            &format!(
                "Figure 10 — correlation = {name}: latency (s) with noisy MCVs (sigma = {sigma})"
            ),
            &noisy.names(),
            &noisy.panel(&latency),
        );
    }
}
