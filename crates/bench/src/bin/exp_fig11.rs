//! Figure 11: DHH's fixed thresholds need workload-specific tuning.
//!
//! For a Zipf(0.7) correlation and two memory budgets, the program sweeps
//! DHH's two skew-optimization knobs — the memory fraction reserved for the
//! skew hash table and the MCV-mass trigger threshold — and reports, for
//! every cell, the fraction of I/Os NOCAP saves relative to that DHH
//! configuration (the quantity shaded in the paper's heatmap).

use nocap_bench::harness::{Algo, Flags};
use nocap_joins::{DhhConfig, DhhJoin};
use nocap_model::JoinSpec;
use nocap_storage::SimDevice;
use nocap_workload::{synthetic, Correlation, SyntheticConfig};

fn main() {
    Flags::from_args(&[], &[]);
    let device = SimDevice::new_ref();
    let config = SyntheticConfig::scaled_default(Correlation::Zipf { alpha: 0.7 });
    let wl = synthetic::generate(device.clone(), &config).expect("workload");

    // The paper uses 2 MB and 32 MB budgets for a 1 GB relation; scaled to
    // this workload the equivalent page budgets are ~64 and ~1024 pages.
    for &budget in &[64usize, 1_024] {
        let spec = JoinSpec::paper_synthetic(config.record_bytes, budget);
        let nocap_ios = Algo::Nocap.run(&wl, &spec).total_ios() as f64;

        println!("# Figure 11 — B = {budget} pages: relative I/O reduction of NOCAP vs tuned DHH");
        println!("skew_mem_fraction\\freq_threshold,0.00,0.03,0.06,0.09,0.12");
        for mem_fraction in [0.0, 0.02, 0.04, 0.06, 0.08] {
            let mut cells = vec![format!("{mem_fraction:.2}")];
            for freq_threshold in [0.0, 0.03, 0.06, 0.09, 0.12] {
                let cfg = DhhConfig {
                    skew_memory_fraction: mem_fraction,
                    skew_frequency_threshold: freq_threshold,
                };
                device.reset_stats();
                let dhh_ios = DhhJoin::new(spec, cfg)
                    .run(&wl.r, &wl.s, &wl.mcvs)
                    .expect("DHH")
                    .total_ios() as f64;
                let reduction = 1.0 - nocap_ios / dhh_ios;
                cells.push(format!("{reduction:.3}"));
            }
            println!("{}", cells.join(","));
        }
        println!();
    }
}
