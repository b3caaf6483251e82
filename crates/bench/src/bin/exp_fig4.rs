//! Figure 4: number of chunk passes charged to each CT-sorted record —
//! uniform (GHJ-style) partitioning vs. the optimal partitioning, for a
//! uniform and a Zipfian correlation, with the buffer below √(F·‖R‖).
//!
//! Prints, per correlation, a down-sampled table of
//! `(ct_sorted_index, ct_value, ghj_passes, optimal_passes)`.

use nocap::partition_dp;
use nocap_bench::harness::Flags;
use nocap_model::{JoinSpec, Partitioning};
use nocap_workload::{synthetic, Correlation, SyntheticConfig};

fn main() {
    Flags::from_args(&[], &[]);
    for (name, correlation) in [
        ("uniform", Correlation::Uniform),
        ("zipf_1.0", Correlation::Zipf { alpha: 1.0 }),
    ] {
        let config = SyntheticConfig::scaled_default(correlation);
        // Buffer below √(F·‖R‖): ‖R‖ ≈ 1334 pages → √ ≈ 37; use 32 pages.
        let spec = JoinSpec::paper_synthetic(config.record_bytes, 32);
        let c_r = spec.c_r();
        let m = spec.buffer_pages - 1;
        let counts = synthetic::correlation_counts(&config);
        let ct = nocap_model::CorrelationTable::from_counts(counts);

        // GHJ: uniform hash partitioning, ignoring the correlation.
        let ghj = Partitioning::uniform_hash(ct.len(), m);
        let ghj_passes = ghj.passes_per_record(c_r);

        // Optimal: the OCAP DP without caching (the Figure 4 setting).
        let dp = partition_dp(&ct, m, c_r);
        let optimal = Partitioning::from_boundaries(&dp.boundaries, ct.len());
        let opt_passes = optimal.passes_per_record(c_r);

        println!(
            "# Figure 4 — correlation = {name} (B = {} pages, c_R = {c_r})",
            spec.buffer_pages
        );
        println!("ct_sorted_index,ct_value,ghj_passes,optimal_passes");
        let step = (ct.len() / 40).max(1);
        for i in (0..ct.len()).step_by(step) {
            println!("{i},{},{},{}", ct.count_at(i), ghj_passes[i], opt_passes[i]);
        }
        let ghj_cost: u128 = ghj.join_cost(&ct, c_r);
        let opt_cost: u128 = optimal.join_cost(&ct, c_r);
        println!(
            "# total probe cost (record units): GHJ = {ghj_cost}, optimal = {opt_cost}, savings = {:.1}%",
            100.0 * (1.0 - opt_cost as f64 / ghj_cost as f64)
        );
        println!();
    }
}
