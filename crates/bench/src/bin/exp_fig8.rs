//! Figure 8: #I/Os and latency vs. buffer size for every algorithm, under
//! uniform and Zipf (α ∈ {0.7, 1.0, 1.3}) correlations.
//!
//! Prints, for every correlation, one CSV block with the buffer size (pages)
//! on the x-axis and one column per series: NOCAP, DHH, Histojoin, GHJ, SMJ
//! and the OCAP lower bound (I/O panel), followed by latency blocks for the
//! O_SYNC off and on device profiles, each join's own I/O trace priced
//! under the profile its panel names.
//!
//! Scaled-down geometry (see DESIGN.md §2): n_R = 20 K, n_S = 160 K,
//! 256-byte records. Pass `--quick` to use an even smaller workload.

use nocap::{ocap, OcapConfig};
use nocap_bench::harness::{budget_grid, print_series_block, Algo, Cell, Sweep};
use nocap_model::JoinSpec;
use nocap_storage::{DeviceProfile, SimDevice};
use nocap_workload::{synthetic, Correlation, SyntheticConfig};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let correlations = [
        ("zipf_1.3", Correlation::Zipf { alpha: 1.3 }),
        ("zipf_1.0", Correlation::Zipf { alpha: 1.0 }),
        ("zipf_0.7", Correlation::Zipf { alpha: 0.7 }),
        ("uniform", Correlation::Uniform),
    ];

    for (name, correlation) in correlations {
        let mut config = SyntheticConfig::scaled_default(correlation);
        if quick {
            config = SyntheticConfig {
                n_r: 5_000,
                n_s: 40_000,
                mcv_count: 250,
                ..config
            };
        }
        let workload =
            synthetic::generate(SimDevice::new_ref(), &config).expect("workload generation");
        let budgets = budget_grid(config.record_bytes, config.n_r, 0.5);
        let sweep = Sweep::run(&workload, config.record_bytes, &budgets, &Algo::ALL);
        let names = sweep.names();

        let mut io_rows = sweep.panel(&[Cell::Ios]);
        for (budget, cells) in &mut io_rows {
            let spec = JoinSpec::paper_synthetic(config.record_bytes, *budget);
            cells.push(ocap(&workload.ct, &spec, &OcapConfig::default()).total_io_pages);
        }
        print_series_block(
            &format!("Figure 8 — correlation = {name}: #I/Os vs buffer size"),
            &[&names[..], &["OCAP"]].concat(),
            &io_rows,
        );
        for (label, device) in [
            ("off", DeviceProfile::osync_off()),
            ("on", DeviceProfile::osync_on()),
        ] {
            print_series_block(
                &format!("Figure 8 — correlation = {name}: latency (s), O_SYNC {label}"),
                &names,
                &sweep.panel(&[Cell::Latency(device)]),
            );
        }
    }
}
