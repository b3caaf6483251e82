//! Figure 8: #I/Os and latency vs. buffer size for every algorithm, under
//! uniform and Zipf (α ∈ {0.7, 1.0, 1.3}) correlations.
//!
//! Prints, for every correlation, one CSV block with the buffer size (pages)
//! on the x-axis and one column per series: NOCAP, DHH, Histojoin, GHJ, SMJ
//! and the OCAP lower bound (I/O panel), followed by latency blocks for the
//! no-sync and sync device profiles.
//!
//! Scaled-down geometry (see DESIGN.md §2): n_R = 20 K, n_S = 160 K,
//! 256-byte records. Pass `--quick` to use an even smaller workload.

use nocap_bench::harness::{ocap_lower_bound, print_series_block, run_algorithms, AlgorithmSet};
use nocap_model::JoinSpec;
use nocap_storage::{DeviceProfile, SimDevice};
use nocap_workload::{synthetic, Correlation, SyntheticConfig};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (n_r, n_s) = if quick {
        (5_000, 40_000)
    } else {
        (20_000, 160_000)
    };
    let record_bytes = 256;
    let correlations = [
        ("zipf_1.3", Correlation::Zipf { alpha: 1.3 }),
        ("zipf_1.0", Correlation::Zipf { alpha: 1.0 }),
        ("zipf_0.7", Correlation::Zipf { alpha: 0.7 }),
        ("uniform", Correlation::Uniform),
    ];

    for (name, correlation) in correlations {
        let config = SyntheticConfig {
            n_r,
            n_s,
            record_bytes,
            correlation,
            mcv_count: n_r / 20,
            seed: 0x0CA9,
        };
        let workload =
            synthetic::generate(SimDevice::new_ref(), &config).expect("workload generation");
        let pages_r = JoinSpec::paper_synthetic(record_bytes, 64).pages_r(n_r);

        // Sweep from ~0.5·√(F·‖R‖) to ‖R‖ pages, doubling each step.
        let min_b = (((pages_r as f64) * 1.02).sqrt() * 0.5).ceil() as usize;
        let mut budgets = Vec::new();
        let mut b = min_b.max(16);
        while b < pages_r {
            budgets.push(b);
            b *= 2;
        }
        budgets.push(pages_r);

        let series = ["NOCAP", "DHH", "Histojoin", "GHJ", "SMJ", "OCAP"];
        let mut io_rows = Vec::new();
        let mut lat_nosync_rows = Vec::new();
        let mut lat_sync_rows = Vec::new();

        for &budget in &budgets {
            let spec = JoinSpec::paper_synthetic(record_bytes, budget);
            let no_sync = DeviceProfile::osync_off();
            let sync = DeviceProfile::osync_on();
            let results = run_algorithms(&workload, &spec, &no_sync, &AlgorithmSet::all());
            let lookup = |name: &str| results.iter().find(|m| m.algorithm == name);
            let ocap_ios = ocap_lower_bound(&workload.ct, &spec);

            io_rows.push((
                budget.to_string(),
                series
                    .iter()
                    .map(|&s| {
                        if s == "OCAP" {
                            Some(ocap_ios)
                        } else {
                            lookup(s).map(|m| m.ios as f64)
                        }
                    })
                    .collect(),
            ));
            lat_nosync_rows.push((
                budget.to_string(),
                series
                    .iter()
                    .map(|&s| lookup(s).map(|m| m.total_latency_secs))
                    .collect(),
            ));
            lat_sync_rows.push((
                budget.to_string(),
                series
                    .iter()
                    .map(|&s| {
                        lookup(s).map(|m| {
                            // Re-weight the same I/O trace with the sync profile.
                            m.total_latency_secs - m.io_latency_secs
                                + m.io_latency_secs * (sync.mu() / no_sync.mu())
                        })
                    })
                    .collect(),
            ));
        }

        print_series_block(
            &format!("Figure 8 — correlation = {name}: #I/Os vs buffer size"),
            "buffer_pages",
            &series,
            &io_rows,
        );
        print_series_block(
            &format!("Figure 8 — correlation = {name}: latency (s), O_SYNC off"),
            "buffer_pages",
            &series[..5],
            &strip_last(&lat_nosync_rows),
        );
        print_series_block(
            &format!("Figure 8 — correlation = {name}: latency (s), O_SYNC on (rescaled writes)"),
            "buffer_pages",
            &series[..5],
            &strip_last(&lat_sync_rows),
        );
    }
}

/// Drops the OCAP column from latency rows (the paper's latency panels do
/// not plot the bound).
fn strip_last(rows: &[(String, Vec<Option<f64>>)]) -> Vec<(String, Vec<Option<f64>>)> {
    rows.iter()
        .map(|(x, values)| (x.clone(), values[..values.len() - 1].to_vec()))
        .collect()
}
