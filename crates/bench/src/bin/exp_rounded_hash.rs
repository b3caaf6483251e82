//! Rounded-hash ablation (§4.2 / Figure 7 intuition): NOCAP with rounded
//! hash vs NOCAP forced to plain hash, on a uniform correlation with a small
//! memory budget.
//!
//! The expected shape: rounded hash needs fewer chunk passes over S (and
//! therefore fewer read I/Os) whenever the uniform partition size lands just
//! above a multiple of the chunk size, producing the step-wise gap the paper
//! describes for Figure 9.

use nocap::{NocapConfig, NocapJoin, PlannerConfig};
use nocap_bench::harness::{Algo, Flags};
use nocap_model::{JoinSpec, RoundedHashParams};
use nocap_storage::SimDevice;
use nocap_workload::{synthetic, Correlation, SyntheticConfig};

fn main() {
    Flags::from_args(&[], &[]);
    let device = SimDevice::new_ref();
    let config = SyntheticConfig::scaled_default(Correlation::Uniform);
    let wl = synthetic::generate(device.clone(), &config).expect("workload");
    let pages_r = JoinSpec::paper_synthetic(config.record_bytes, 64).pages_r(config.n_r);
    let sqrt_r = ((pages_r as f64) * 1.02_f64).sqrt().ceil() as usize;

    println!("# Rounded-hash ablation — uniform correlation, limited memory");
    println!("buffer_pages,rounded_hash_ios,plain_hash_ios,reduction");
    for i in 0..8 {
        let budget = ((0.4 + 0.15 * i as f64) * sqrt_r as f64).round() as usize;
        let spec = JoinSpec::paper_synthetic(config.record_bytes, budget);
        let rounded = Algo::Nocap.run(&wl, &spec).total_ios() as f64;

        // Force plain hash by disabling rounding (β so small that RH always
        // degenerates).
        let plain_cfg = NocapConfig {
            planner: PlannerConfig {
                rh_params: RoundedHashParams { beta: 1e-9 },
            },
        };
        device.reset_stats();
        let plain = NocapJoin::new(spec, plain_cfg)
            .run(&wl.r, &wl.s, &wl.mcvs)
            .expect("NOCAP with plain hash")
            .total_ios() as f64;

        println!(
            "{budget},{rounded:.0},{plain:.0},{:.3}",
            1.0 - rounded / plain
        );
    }
}
