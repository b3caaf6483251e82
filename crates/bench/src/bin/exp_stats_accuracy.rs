//! Sketch budget vs. plan quality: how much statistics memory does NOCAP
//! actually need?
//!
//! For each correlation (Zipf α ∈ {0.7, 1.0, 1.3} and uniform) this
//! experiment sweeps the `StatsCollector` page budget from 0.25 % to 8 % of
//! `‖R‖` and reports, per budget:
//!
//! * the I/O of the **sketch-planned** NOCAP join (planned purely from the
//!   one-pass summary, no oracle),
//! * the I/O of the **oracle-planned** NOCAP join (exact top-k MCVs from the
//!   full correlation table),
//! * their ratio (1.0 = sketch plans as well as the oracle), and
//! * MCV accuracy: how many of the oracle's top-100 keys the sketch found,
//!   and the mean relative frequency error over those hits.
//!
//! The paper's robustness claim (Figure 10) is that NOCAP degrades
//! gracefully under inaccurate statistics; this experiment quantifies the
//! same property when the inaccuracy comes from bounded-memory sketches
//! rather than injected Gaussian noise. Pass `--quick` for a smaller sweep.
//!
//! A second table repeats the comparison for every skew-aware algorithm —
//! NOCAP, DHH (PostgreSQL-style 2 % triggers) and Histojoin — each planned
//! once from oracle MCVs and once from the MCV list of the same one-pass
//! sketch summary (`StatsSummary::planner_mcvs`), so the sketch-vs-oracle
//! question is answered on equal footing across the whole algorithm lineup.

use nocap::{NocapConfig, NocapJoin};
use nocap_bench::harness::Flags;
use nocap_joins::{DhhConfig, DhhJoin};
use nocap_model::JoinSpec;
use nocap_obs::Obs;
use nocap_stats::{StatsCollector, StatsConfig, StatsSummary};
use nocap_storage::SimDevice;
use nocap_workload::{synthetic, Correlation, GeneratedWorkload, SyntheticConfig};

/// Collects over one scan of S with sketches sized for `pages` pages of
/// the operator's page size.
fn collect(wl: &GeneratedWorkload, spec: &JoinSpec, pages: usize) -> StatsSummary {
    let mut collector = StatsCollector::new(StatsConfig::for_budget_pages(pages, spec.page_size));
    collector.consume(wl.s.scan()).expect("stats scan");
    collector.finish()
}

/// (hits, mean relative error over hits) of the sketch's MCVs against the
/// oracle's top-`probe`.
fn mcv_accuracy(summary: &StatsSummary, oracle: &[(u64, u64)], probe: usize) -> (usize, f64) {
    let mut hits = 0usize;
    let mut rel_err_sum = 0.0;
    for &(key, truth) in oracle.iter().take(probe) {
        if let Some(est) = summary.mcvs().iter().find(|e| e.key == key) {
            hits += 1;
            rel_err_sum += (est.count as f64 - truth as f64).abs() / truth.max(1) as f64;
        }
    }
    let mean_err = if hits > 0 {
        rel_err_sum / hits as f64
    } else {
        f64::NAN
    };
    (hits, mean_err)
}

fn main() {
    let quick = Flags::from_args(&["--quick"], &[]).has("--quick");
    let (n_r, n_s) = if quick {
        (5_000, 40_000)
    } else {
        (20_000, 160_000)
    };
    let record_bytes = 256;
    let buffer_pages = if quick { 48 } else { 96 };
    let correlations = [
        ("zipf_1.3", Correlation::Zipf { alpha: 1.3 }),
        ("zipf_1.0", Correlation::Zipf { alpha: 1.0 }),
        ("zipf_0.7", Correlation::Zipf { alpha: 0.7 }),
        ("uniform", Correlation::Uniform),
    ];
    // Sketch budget as a fraction of ||R||, in basis points.
    let budget_bps = [25usize, 50, 100, 200, 400, 800];

    println!(
        "# exp_stats_accuracy: n_R = {n_r}, n_S = {n_s}, {record_bytes}-byte records, \
         B = {buffer_pages} pages"
    );
    println!(
        "correlation,budget_pct,budget_pages,sketch_ios,oracle_ios,ratio,\
         mcv_hits_top100,mcv_mean_rel_err"
    );

    for (name, correlation) in correlations {
        let device = SimDevice::new_ref();
        let config = SyntheticConfig {
            n_r,
            n_s,
            record_bytes,
            correlation,
            mcv_count: n_r / 20,
            seed: 0x0CA9,
        };
        let wl = synthetic::generate(device.clone(), &config).expect("workload generation");
        let spec = JoinSpec::paper_synthetic(record_bytes, buffer_pages);
        let join = NocapJoin::new(spec, NocapConfig::default());
        let pages_r = spec.pages_r(n_r);

        device.reset_stats();
        let oracle_report = join.run(&wl.r, &wl.s, &wl.mcvs).expect("oracle run");
        let oracle_ios = oracle_report.total_ios();

        for &bps in &budget_bps {
            // Never request more statistics memory than the operator's own
            // budget can spare (2 pages stay for streaming input/output).
            let budget = (pages_r * bps / 10_000).clamp(1, buffer_pages - 2);
            let summary = collect(&wl, &spec, budget);
            device.reset_stats();
            let report = join
                .run_with_collected_stats(&wl.r, &wl.s, &summary)
                .expect("sketch run");
            assert_eq!(
                report.output_records, oracle_report.output_records,
                "sketch-planned output must match"
            );
            let (hits, mean_err) = mcv_accuracy(&summary, &wl.mcvs, 100);
            println!(
                "{name},{:.2},{budget},{},{oracle_ios},{:.3},{hits},{:.4}",
                bps as f64 / 100.0,
                report.total_ios(),
                report.total_ios() as f64 / oracle_ios.max(1) as f64,
                mean_err
            );
        }
    }

    // ---- Every skew-aware algorithm on the same sketch summary -----------
    println!("\n# sketch-driven vs oracle, all skew-aware algorithms (1% of ||R|| budget)");
    println!("algorithm,correlation,sketch_ios,oracle_ios,ratio");
    for (name, correlation) in correlations {
        let device = SimDevice::new_ref();
        let config = SyntheticConfig {
            n_r,
            n_s,
            record_bytes,
            correlation,
            mcv_count: n_r / 20,
            seed: 0x0CA9,
        };
        let wl = synthetic::generate(device.clone(), &config).expect("workload generation");
        let spec = JoinSpec::paper_synthetic(record_bytes, buffer_pages);
        let budget = (spec.pages_r(n_r) / 100).clamp(1, buffer_pages - 2);
        let summary = collect(&wl, &spec, budget);

        let nocap = NocapJoin::new(spec, NocapConfig::default());
        let dhh = DhhJoin::new(spec, DhhConfig::default());
        let histo = DhhJoin::histojoin(spec);
        let row =
            |algo: &str, oracle: nocap_model::JoinRunReport, sketch: nocap_model::JoinRunReport| {
                assert_eq!(
                    sketch.output_records, oracle.output_records,
                    "{algo}: sketch-planned output must match"
                );
                println!(
                    "{algo},{name},{},{},{:.3}",
                    sketch.total_ios(),
                    oracle.total_ios(),
                    sketch.total_ios() as f64 / oracle.total_ios().max(1) as f64
                );
            };
        let sketched = summary.planner_mcvs();
        device.reset_stats();
        let o = nocap.run(&wl.r, &wl.s, &wl.mcvs).expect("nocap oracle");
        device.reset_stats();
        let s = nocap.run(&wl.r, &wl.s, &sketched).expect("nocap sketch");
        row("NOCAP", o, s);
        device.reset_stats();
        let o = dhh.run(&wl.r, &wl.s, &wl.mcvs).expect("dhh oracle");
        device.reset_stats();
        let s = dhh.run(&wl.r, &wl.s, &sketched).expect("dhh sketch");
        row("DHH", o, s);
        device.reset_stats();
        let o = histo.run(&wl.r, &wl.s, &wl.mcvs).expect("histojoin oracle");
        device.reset_stats();
        let s = histo
            .run(&wl.r, &wl.s, &sketched)
            .expect("histojoin sketch");
        row("Histojoin", o, s);
    }

    // ---- Sharded parallel collection: determinism + plan quality ---------
    // The summary folded from the fixed shard grid must be bit-identical at
    // every thread count, and the join it plans must stay as close to the
    // oracle as the single-collector pass above.
    println!("\n# sharded parallel collection (collect_parallel, 2% of ||R|| budget)");
    println!("correlation,threads,sketch_ios,oracle_ios,ratio,summary_identical_to_1_thread");
    for (name, correlation) in correlations {
        let device = SimDevice::new_ref();
        let config = SyntheticConfig {
            n_r,
            n_s,
            record_bytes,
            correlation,
            mcv_count: n_r / 20,
            seed: 0x0CA9,
        };
        let wl = synthetic::generate(device.clone(), &config).expect("workload generation");
        let spec = JoinSpec::paper_synthetic(record_bytes, buffer_pages);
        let budget = (spec.pages_r(n_r) / 50).clamp(1, buffer_pages / 8);
        let nocap = NocapJoin::new(spec, NocapConfig::default());

        device.reset_stats();
        let oracle_ios = nocap
            .run(&wl.r, &wl.s, &wl.mcvs)
            .expect("oracle run")
            .total_ios();

        let collect_par = |threads: usize| {
            StatsCollector::collect_parallel_with_budget(
                spec.buffer_pages,
                budget,
                spec.page_size,
                &wl.s,
                threads,
                &Obs::off(),
            )
            .expect("sharded collection")
        };
        let baseline = collect_par(1);
        for threads in [1usize, 2, 4, 8] {
            let summary = collect_par(threads);
            let identical = summary == baseline;
            assert!(identical, "{name}: summary diverged at {threads} threads");
            device.reset_stats();
            let report = nocap
                .run_with_collected_stats(&wl.r, &wl.s, &summary)
                .expect("sketch run");
            println!(
                "{name},{threads},{},{oracle_ios},{:.3},{identical}",
                report.total_ios(),
                report.total_ios() as f64 / oracle_ios.max(1) as f64,
            );
        }
    }
}
