//! Figure 1: the conceptual I/O-vs-memory graph comparing DHH, NOCAP and
//! OCAP for a low-skew and a high-skew correlation.
//!
//! This figure is analytic in the paper; here it is regenerated from the
//! cost models: the `g_DHH` estimate for DHH, the planner's estimate for
//! NOCAP, and the OCAP sweep for the lower bound, all over a memory range
//! from below √(F·‖R‖) to beyond ‖R‖ (no join is executed).
//!
//! `g_DHH` prices NOCAP's own residual partitioner, so the "DHH" curve is
//! NOCAP planning without statistics: every key residual, resident-first
//! staging quotas (`nocap_model::staging_quotas` — between √(F·‖R‖) and
//! ‖R‖·F the leading partitions stay in memory and the curve falls to zero
//! extra I/O, in steps of one partition) and the light optimizer's
//! recursion below √(F·‖R‖).

use nocap::{ocap, plan_nocap, OcapConfig, PlannerConfig};
use nocap_bench::harness::print_series_block;
use nocap_model::{g_dhh, JoinSpec};
use nocap_workload::{extract_mcvs, synthetic, Correlation, SyntheticConfig};

fn main() {
    for (name, correlation) in [
        ("low_skew (zipf 0.7)", Correlation::Zipf { alpha: 0.7 }),
        ("high_skew (zipf 1.3)", Correlation::Zipf { alpha: 1.3 }),
    ] {
        let config = SyntheticConfig::scaled_default(correlation);
        let (n_r, n_s) = (config.n_r, config.n_s);
        let counts = synthetic::correlation_counts(&config);
        let ct = nocap_model::CorrelationTable::from_counts(counts);
        let mcvs = extract_mcvs(&ct, config.mcv_count);

        let base_spec = JoinSpec::paper_synthetic(config.record_bytes, 64);
        let pages_r = base_spec.pages_r(n_r);
        let pages_s = base_spec.pages_s(n_s);
        let base_io = (pages_r + pages_s) as f64;

        let mut budgets = Vec::new();
        let mut b = ((pages_r as f64 * 1.02).sqrt() * 0.5).ceil() as usize;
        while b < 2 * pages_r {
            budgets.push(b);
            b = (b as f64 * 1.6).ceil() as usize;
        }

        let series = ["DHH_estimate", "NOCAP_estimate", "OCAP_bound"];
        let mut rows = Vec::new();
        for &budget in &budgets {
            let spec = base_spec.with_buffer_pages(budget);
            let dhh = base_io
                + g_dhh(
                    n_r,
                    n_s as u64,
                    &spec,
                    budget.saturating_sub(2),
                    &PlannerConfig::default().rh_params,
                );
            let plan = plan_nocap(&mcvs, n_r, n_s as u64, &spec, &PlannerConfig::default());
            let nocap_est = base_io + plan.estimated_extra_io;
            let bound = ocap(&ct, &spec, &OcapConfig::default()).total_io_pages;
            rows.push((budget, vec![dhh, nocap_est, bound]));
        }
        print_series_block(
            &format!("Figure 1 — {name}: estimated total I/O (pages) vs buffer size"),
            &series,
            &rows,
        );
    }
}
