//! Memory sweep (a miniature Figure 8 panel): run every algorithm across a
//! range of buffer sizes on one Zipfian workload and print a CSV of #I/Os.
//!
//! ```bash
//! cargo run --release --example memory_sweep
//! ```

use nocap_suite::joins::{DhhConfig, DhhJoin, GraceHashJoin, SortMergeJoin};
use nocap_suite::model::JoinSpec;
use nocap_suite::nocap::{ocap, NocapConfig, NocapJoin, OcapConfig};
use nocap_suite::storage::SimDevice;
use nocap_suite::workload::{synthetic, Correlation, SyntheticConfig};

fn main() {
    let device = SimDevice::new_ref();
    let config = SyntheticConfig {
        n_r: 8_000,
        n_s: 64_000,
        record_bytes: 256,
        correlation: Correlation::Zipf { alpha: 1.0 },
        mcv_count: 400,
        seed: 7,
    };
    let wl = synthetic::generate(device.clone(), &config).expect("workload");
    let pages_r = wl.r.num_pages();

    println!("buffer_pages,NOCAP,DHH,Histojoin,GHJ,SMJ,OCAP_bound");
    let mut budget = ((pages_r as f64 * 1.02).sqrt() * 0.5).ceil() as usize;
    while budget <= pages_r {
        let spec = JoinSpec::paper_synthetic(256, budget);

        device.reset_stats();
        let nocap_ios = NocapJoin::new(spec, NocapConfig::default())
            .run(&wl.r, &wl.s, &wl.mcvs)
            .unwrap()
            .total_ios();
        device.reset_stats();
        let dhh_ios = DhhJoin::new(spec, DhhConfig::default())
            .run(&wl.r, &wl.s, &wl.mcvs)
            .unwrap()
            .total_ios();
        device.reset_stats();
        let histo_ios = DhhJoin::histojoin(spec)
            .run(&wl.r, &wl.s, &wl.mcvs)
            .unwrap()
            .total_ios();
        device.reset_stats();
        let ghj_ios = GraceHashJoin::new(spec)
            .run(&wl.r, &wl.s)
            .unwrap()
            .total_ios();
        device.reset_stats();
        let smj_ios = SortMergeJoin::new(spec)
            .run(&wl.r, &wl.s)
            .unwrap()
            .total_ios();
        let bound = ocap(&wl.ct, &spec, &OcapConfig::default()).total_io_pages;

        println!("{budget},{nocap_ios},{dhh_ios},{histo_ios},{ghj_ios},{smj_ios},{bound:.0}");
        budget *= 2;
    }
}
