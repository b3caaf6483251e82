//! Table 1: validates the analytic cost formulas for NBJ, GHJ and SMJ
//! against the I/Os actually measured by the executors.
//!
//! For a grid of buffer sizes the program prints the estimated and measured
//! normalized I/O of each classical join plus the relative error — the
//! reproduction's check that the cost model used throughout §3 matches the
//! storage engine it reasons about.

use nocap_bench::harness::Flags;
use nocap_joins::{GraceHashJoin, NestedBlockJoin, SortMergeJoin};
use nocap_model::classic_cost::nbj_cost_best;
use nocap_model::{ghj_cost, smj_cost, JoinSpec};
use nocap_storage::SimDevice;
use nocap_workload::{synthetic, Correlation, SyntheticConfig};

fn normalized(report: &nocap_model::JoinRunReport, spec: &JoinSpec) -> f64 {
    let io = report.total_io();
    io.seq_reads as f64
        + io.rand_reads as f64
        + io.seq_writes as f64 * spec.tau()
        + io.rand_writes as f64 * spec.mu()
}

fn main() {
    Flags::from_args(&[], &[]);
    let n_r = 8_000usize;
    let n_s = 64_000usize;
    let record_bytes = 256usize;
    let device = SimDevice::new_ref();
    let config = SyntheticConfig {
        n_r,
        n_s,
        record_bytes,
        correlation: Correlation::Uniform,
        mcv_count: 400,
        seed: 1,
    };
    let wl = synthetic::generate(device.clone(), &config).expect("workload");

    println!("# Table 1 — estimated vs measured normalized I/O");
    println!("buffer_pages,algorithm,estimated,measured,relative_error");
    for &budget in &[24usize, 48, 96, 192, 384] {
        let spec = JoinSpec::paper_synthetic(record_bytes, budget);
        let pages_r = wl.r.num_pages();
        let pages_s = wl.s.num_pages();

        let runs: Vec<(&str, f64, nocap_model::JoinRunReport)> = vec![
            ("NBJ", nbj_cost_best(pages_r, pages_s, &spec), {
                device.reset_stats();
                NestedBlockJoin::new(spec).run(&wl.r, &wl.s).expect("NBJ")
            }),
            ("GHJ", ghj_cost(pages_r, pages_s, &spec), {
                device.reset_stats();
                GraceHashJoin::new(spec).run(&wl.r, &wl.s).expect("GHJ")
            }),
            ("SMJ", smj_cost(pages_r, pages_s, &spec), {
                device.reset_stats();
                SortMergeJoin::new(spec).run(&wl.r, &wl.s).expect("SMJ")
            }),
        ];
        for (name, estimated, report) in runs {
            let measured = normalized(&report, &spec);
            let err = (measured - estimated).abs() / estimated.max(1.0);
            println!("{budget},{name},{estimated:.0},{measured:.0},{:.2}", err);
        }
    }
}
