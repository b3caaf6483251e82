//! End-to-end tests of the streaming-statistics path: scan S once through a
//! budgeted `StatsCollector`, plan NOCAP from the sketch summary alone (no
//! `CorrelationTable` oracle anywhere), execute, and compare against the
//! oracle-planned run. All seeds are fixed, so these tests are deterministic.

use nocap_suite::model::{JoinRunReport, JoinSpec};
use nocap_suite::nocap::{NocapConfig, NocapJoin};
use nocap_suite::obs::{Obs, Phase};
use nocap_suite::par::page_shards;
use nocap_suite::stats::{StatsCollector, StatsConfig};
use nocap_suite::storage::device::DeviceRef;
use nocap_suite::storage::{IoOp, IoStats, SimDevice, TracedDevice};
use nocap_suite::workload::{synthetic, Correlation, GeneratedWorkload, SyntheticConfig};

fn workload(correlation: Correlation, n_r: usize, n_s: usize, seed: u64) -> GeneratedWorkload {
    workload_on(SimDevice::new_ref(), correlation, n_r, n_s, seed)
}

fn workload_on(
    device: DeviceRef,
    correlation: Correlation,
    n_r: usize,
    n_s: usize,
    seed: u64,
) -> GeneratedWorkload {
    synthetic::generate(
        device,
        &SyntheticConfig {
            n_r,
            n_s,
            record_bytes: 128,
            correlation,
            mcv_count: (n_r / 20).max(10),
            seed,
        },
    )
    .expect("workload generation")
}

/// Collects a sketch summary over S with sketches sized for `pages` pages.
fn collect(
    wl: &GeneratedWorkload,
    spec: &JoinSpec,
    pages: usize,
) -> nocap_suite::stats::StatsSummary {
    let mut collector = StatsCollector::new(StatsConfig::for_budget_pages(pages, spec.page_size));
    collector.consume(wl.s.scan()).unwrap();
    collector.finish()
}

/// The statistics pass a deployment runs before the join — a sharded
/// sketch of S within `pages` pages per shard, checked against the
/// operator's own budget — then NOCAP planned from the summary alone, both on
/// `threads` workers and recording into `obs`.
fn sketch_and_join(
    join: &NocapJoin,
    wl: &GeneratedWorkload,
    pages: usize,
    threads: usize,
    obs: &Obs,
) -> JoinRunReport {
    let spec = join.spec();
    let summary = StatsCollector::collect_parallel_with_budget(
        spec.buffer_pages,
        pages,
        spec.page_size,
        &wl.s,
        threads,
        obs,
    )
    .expect("sketch pass");
    join.run_parallel_obs(&wl.r, &wl.s, &summary.planner_mcvs(), threads, obs)
        .expect("sketch-planned join")
}

/// A report's output and per-phase I/O, each phase as
/// `[seq_reads, rand_reads, seq_writes, rand_writes]`.
fn pinned(report: &JoinRunReport) -> (u64, [u64; 4], [u64; 4]) {
    let io = |io: &IoStats| [io.seq_reads, io.rand_reads, io.seq_writes, io.rand_writes];
    let (partition, probe) = (io(&report.partition_io), io(&report.probe_io));
    (report.output_records, partition, probe)
}

#[test]
fn sketch_planned_join_is_correct() {
    let wl = workload(Correlation::Zipf { alpha: 1.0 }, 3_000, 24_000, 11);
    let spec = JoinSpec::paper_synthetic(128, 48);
    let summary = collect(&wl, &spec, 4);
    assert_eq!(summary.stream_len(), 24_000);

    let device = wl.r.device().clone();
    device.reset_stats();
    let join = NocapJoin::new(spec, NocapConfig::default());
    let sketch_run = join
        .run_with_collected_stats(&wl.r, &wl.s, &summary)
        .unwrap();
    assert_eq!(
        pinned(&sketch_run),
        (24_000, [872, 0, 0, 245], [247, 0, 0, 2])
    );

    device.reset_stats();
    let oracle_run = join.run(&wl.r, &wl.s, &wl.mcvs).unwrap();
    assert_eq!(
        sketch_run.output_records, oracle_run.output_records,
        "sketch-planned NOCAP must produce the same join output"
    );
    // 1 422 I/Os is what this run cost at add76f5, where 4 pages bought
    // 153 counters; the 230 they buy now must not plan a dearer join.
    assert_eq!(summary.mcvs().len(), 230);
    assert!(
        sketch_run.total_ios() <= 1_422,
        "a 4-page summary planned {} I/Os, above the 1 422 recorded at 153 counters",
        sketch_run.total_ios()
    );
}

#[test]
fn sketch_planned_io_is_within_bounded_factor_of_oracle_on_zipf() {
    // The acceptance bar: at a sketch budget of >= 1 % of ||R|| pages, the
    // sketch-planned join's I/O stays within 1.5x of the oracle-planned
    // join's on a Zipf(1.0) workload. Deterministic seed.
    let n_r = 6_000;
    let wl = workload(Correlation::Zipf { alpha: 1.0 }, n_r, 48_000, 42);
    let spec = JoinSpec::paper_synthetic(128, 64);
    let pages_r = spec.pages_r(n_r);
    let budget = (pages_r / 100).max(2); // 1 % of ||R||, at least 2 pages

    let summary = collect(&wl, &spec, budget);
    let device = wl.r.device().clone();
    let join = NocapJoin::new(spec, NocapConfig::default());

    device.reset_stats();
    let sketch_ios = join
        .run_with_collected_stats(&wl.r, &wl.s, &summary)
        .unwrap()
        .total_ios();
    device.reset_stats();
    let oracle_ios = join.run(&wl.r, &wl.s, &wl.mcvs).unwrap().total_ios();

    assert!(
        (sketch_ios as f64) <= 1.5 * oracle_ios as f64,
        "sketch-planned I/O ({sketch_ios}) must stay within 1.5x of \
         oracle-planned ({oracle_ios}) at a {budget}-page sketch budget"
    );
}

#[test]
fn more_sketch_budget_never_hurts_much() {
    // Plan quality should be (weakly) monotone in sketch budget: a larger
    // summary can only sharpen the MCV list. Allow 5 % slack for plan-grid
    // discretization.
    let wl = workload(Correlation::Zipf { alpha: 1.0 }, 4_000, 32_000, 7);
    let spec = JoinSpec::paper_synthetic(128, 48);
    let device = wl.r.device().clone();
    let join = NocapJoin::new(spec, NocapConfig::default());
    let mut prev = u64::MAX;
    // Capped below B - 2 = 46: collection must fit the operator's budget.
    for budget in [1usize, 4, 16, 44] {
        let summary = collect(&wl, &spec, budget);
        device.reset_stats();
        let ios = join
            .run_with_collected_stats(&wl.r, &wl.s, &summary)
            .unwrap()
            .total_ios();
        assert!(
            ios as f64 <= prev as f64 * 1.05,
            "I/O should not grow with sketch budget ({budget} pages: {ios} vs {prev})"
        );
        prev = ios.max(1);
    }
}

/// What the sketch pass plus the join report on the Zipf 1.0 workload of
/// the two tests below, at any thread count.
const PIPELINE_REPORT: (u64, [u64; 4], [u64; 4]) = (16_000, [582, 0, 0, 175], [180, 0, 0, 5]);

#[test]
fn collect_and_run_is_self_contained_and_accounts_the_stats_scan() {
    let wl = workload(Correlation::Zipf { alpha: 1.0 }, 2_000, 16_000, 3);
    let spec = JoinSpec::paper_synthetic(128, 32);
    let device = wl.r.device().clone();
    let join = NocapJoin::new(spec, NocapConfig::default());

    device.reset_stats();
    let report = sketch_and_join(&join, &wl, 4, 1, &Obs::off());
    let total_device_ios = device.stats().reads() + device.stats().writes();
    assert_eq!(pinned(&report), PIPELINE_REPORT);

    // Output correct...
    device.reset_stats();
    let oracle = join.run(&wl.r, &wl.s, &wl.mcvs).unwrap();
    assert_eq!(report.output_records, oracle.output_records);
    // ...and the one-pass statistics scan of S is visible in the I/O trace:
    // exactly ||S|| reads beyond what the join itself reports.
    assert_eq!(
        total_device_ios,
        report.total_ios() + wl.s.num_pages() as u64,
        "stats collection must be charged as I/O (device {total_device_ios}, \
         join {}, ||S|| {})",
        report.total_ios(),
        wl.s.num_pages()
    );
}

#[test]
fn recorded_collect_and_run_traces_the_stats_phase_and_changes_nothing() {
    // The sketch pass and the join under one recording `Obs` on a traced
    // device: the sketch pass is one main-thread `stats` span that ends
    // before the first `partition` span; its traced reads are exactly the
    // ‖S‖ pages of S (the collector's `attach_io` and then the executor's
    // neither drop nor double an event); and output and per-phase modeled
    // I/O equal the blind run's.
    let spec = JoinSpec::paper_synthetic(128, 32);
    let join = NocapJoin::new(spec, NocapConfig::default());
    let blind_wl = workload(Correlation::Zipf { alpha: 1.0 }, 2_000, 16_000, 3);
    let blind = sketch_and_join(&join, &blind_wl, 4, 1, &Obs::off());
    assert!(blind.trace.is_none());
    assert_eq!(pinned(&blind), PIPELINE_REPORT);

    for threads in [1usize, 2] {
        let device = TracedDevice::with_latency_ref(SimDevice::new_ref());
        let wl = workload_on(device, Correlation::Zipf { alpha: 1.0 }, 2_000, 16_000, 3);
        let report = sketch_and_join(&join, &wl, 4, threads, &Obs::recording());
        assert_eq!(pinned(&report), PIPELINE_REPORT, "T = {threads}");
        let trace = report.trace.as_ref().expect("a recording run has a trace");
        let main_spans = |phase: Phase| {
            trace
                .spans
                .iter()
                .filter(move |s| s.phase == phase && s.worker.is_none())
        };
        let stats_spans: Vec<_> = main_spans(Phase::Stats).collect();
        assert_eq!(stats_spans.len(), 1, "T = {threads}: one stats pass");
        let first_partition = main_spans(Phase::Partition)
            .map(|s| s.start_ns)
            .min()
            .expect("the join records its partition passes");
        assert!(
            stats_spans[0].end_ns <= first_partition,
            "T = {threads}: the sketch pass ends before the join starts partitioning"
        );

        let s_pages = wl.s.num_pages();
        let stats_events: Vec<_> = trace
            .io_events
            .iter()
            .filter(|e| e.phase == Some(Phase::Stats))
            .collect();
        assert_eq!(
            stats_events.len(),
            s_pages,
            "T = {threads}: ‖S‖ stats reads"
        );
        assert!(stats_events
            .iter()
            .all(|e| e.op == IoOp::Read && e.file == wl.s.file()));
        let mut pages: Vec<usize> = stats_events.iter().map(|e| e.page).collect();
        pages.sort_unstable();
        assert_eq!(pages, (0..s_pages).collect::<Vec<_>>(), "each page once");
        assert_eq!(
            trace.io_events.len() as u64,
            s_pages as u64 + report.total_ios(),
            "T = {threads}: every traced access is the stats scan's or the join's"
        );
    }
}

#[test]
fn sketch_planning_stays_within_the_pr1_bound_across_a_seeded_grid_under_collect_parallel() {
    // The seeded differential planner test: sketch-planned vs oracle-planned
    // NOCAP across a grid of zipf alphas and memory budgets, with the
    // summary produced by the *sharded parallel* collector. The acceptance
    // bar is PR 1's: at a ~2 % of ||R|| statistics budget the modeled-I/O
    // ratio stays within 1.2x of the oracle at every grid point. Seeds are
    // fixed and the sharded summary is thread-count invariant, so this is
    // fully deterministic.
    let n_r = 6_000;
    for alpha in [0.8f64, 0.9, 1.0, 1.1, 1.2, 1.3] {
        for buffer_pages in [48usize, 96] {
            let wl = workload(Correlation::Zipf { alpha }, n_r, 48_000, 42);
            let spec = JoinSpec::paper_synthetic(128, buffer_pages);
            let pages = (spec.pages_r(n_r) / 50).max(2);
            let summary = StatsCollector::collect_parallel_with_budget(
                spec.buffer_pages,
                pages,
                spec.page_size,
                &wl.s,
                4,
                &Obs::off(),
            )
            .expect("sharded collection");

            let device = wl.r.device().clone();
            let join = NocapJoin::new(spec, NocapConfig::default());
            device.reset_stats();
            let sketch = join
                .run_with_collected_stats(&wl.r, &wl.s, &summary)
                .expect("sketch-planned run");
            device.reset_stats();
            let oracle = join.run(&wl.r, &wl.s, &wl.mcvs).expect("oracle run");
            assert_eq!(
                sketch.output_records, oracle.output_records,
                "alpha={alpha}, B={buffer_pages}: output must match"
            );
            let ratio = sketch.total_ios() as f64 / oracle.total_ios().max(1) as f64;
            assert!(
                ratio <= 1.2,
                "alpha={alpha}, B={buffer_pages}: sketch-planned I/O ratio {ratio:.3} \
                 exceeds the 1.2x PR 1 bound ({} vs {})",
                sketch.total_ios(),
                oracle.total_ios()
            );
        }
    }
}

#[test]
fn parallel_and_sequential_collection_plan_identically() {
    // Collection at any thread count — T = 1 is sequential collection —
    // produces the same summary, so the downstream plan and modeled I/O
    // must be identical too.
    let wl = workload(Correlation::Zipf { alpha: 1.0 }, 4_000, 32_000, 9);
    let spec = JoinSpec::paper_synthetic(128, 48);
    let join = NocapJoin::new(spec, NocapConfig::default());
    let device = wl.r.device().clone();
    let run_with_threads = |threads: usize| {
        let summary = StatsCollector::collect_parallel_with_budget(
            spec.buffer_pages,
            3,
            spec.page_size,
            &wl.s,
            threads,
            &Obs::off(),
        )
        .expect("collection");
        device.reset_stats();
        join.run_with_collected_stats(&wl.r, &wl.s, &summary)
            .expect("sketch run")
    };
    let baseline = run_with_threads(1);
    assert_eq!(
        pinned(&baseline),
        (32_000, [1_163, 0, 0, 443], [448, 0, 0, 5])
    );
    for threads in [2usize, 4, 8] {
        let run = run_with_threads(threads);
        assert_eq!(run.output_records, baseline.output_records);
        assert_eq!(
            run.total_ios(),
            baseline.total_ios(),
            "plan diverged at {threads} collection threads"
        );
    }
}

#[test]
fn one_collector_is_insensitive_to_order_entry_point_and_thread_count() {
    // Every component of the collector is a function of the key multiset
    // in the exact regime (distinct keys within the MCV capacity), so any
    // record order, key-by-key `observe` or a page scan, any morsel
    // processing order and sharded collection at any thread count must
    // produce `==` summaries.
    let wl = workload(Correlation::Zipf { alpha: 1.0 }, 800, 6_400, 13);
    let config = StatsConfig::default(); // 1024 counters >= 800 distinct keys
    let mut by_scan = StatsCollector::new(config);
    by_scan.consume(wl.s.scan()).unwrap();
    let by_scan = by_scan.finish();

    // The same keys through `observe`: forward, reversed, shuffled.
    let mut forward: Vec<u64> = Vec::new();
    let mut scan = wl.s.scan();
    while let Some(page) = scan.next_page().unwrap() {
        forward.extend(page.record_refs().map(|rec| rec.key()));
    }
    let mut reversed = forward.clone();
    reversed.reverse();
    let mut shuffled = forward.clone();
    shuffled.sort_by_key(|&k| k.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 23);
    assert_ne!(shuffled, forward, "test premise: a different order");
    for (order, keys) in [
        ("forward", forward),
        ("reversed", reversed),
        ("shuffled", shuffled),
    ] {
        let mut by_keys = StatsCollector::new(config);
        keys.into_iter().for_each(|key| by_keys.observe(key));
        assert_eq!(
            by_keys.finish(),
            by_scan,
            "a {order} key stream must summarize identically to the page scan"
        );
    }

    // Page morsels consumed in shuffled orders into one collector.
    let morsels = page_shards(wl.s.num_pages(), 8);
    for order in [
        [7usize, 3, 5, 1, 6, 0, 2, 4],
        [4, 2, 0, 6, 1, 5, 3, 7],
        [0, 1, 2, 3, 4, 5, 6, 7],
    ] {
        let mut collector = StatsCollector::new(config);
        for &m in &order {
            collector
                .consume(wl.s.scan_range(morsels[m].clone()))
                .unwrap();
        }
        assert_eq!(
            collector.finish(),
            by_scan,
            "morsel order {order:?} must not change the summary"
        );
    }

    // Sharded collection: T = 1 is sequential collection.
    for threads in [1usize, 2, 3, 8] {
        assert_eq!(
            StatsCollector::collect_parallel(config, &wl.s, threads).unwrap(),
            by_scan,
            "collect_parallel at {threads} threads must equal the single pass"
        );
    }
}

#[test]
fn uniform_workloads_need_no_mcvs_to_plan_well() {
    // Under a uniform correlation the sketch finds no meaningful heavy
    // hitters; the plan should degrade gracefully to the residual-only path
    // and still match the oracle's output.
    let wl = workload(Correlation::Uniform, 2_000, 16_000, 5);
    let spec = JoinSpec::paper_synthetic(128, 32);
    let summary = collect(&wl, &spec, 4);
    let device = wl.r.device().clone();
    let join = NocapJoin::new(spec, NocapConfig::default());
    device.reset_stats();
    let sketch_run = join
        .run_with_collected_stats(&wl.r, &wl.s, &summary)
        .unwrap();
    assert_eq!(
        pinned(&sketch_run),
        (16_000, [582, 0, 0, 369], [371, 0, 0, 2])
    );
    device.reset_stats();
    let oracle_run = join.run(&wl.r, &wl.s, &wl.mcvs).unwrap();
    assert_eq!(sketch_run.output_records, oracle_run.output_records);
    assert!(
        (sketch_run.total_ios() as f64) <= 1.5 * oracle_run.total_ios() as f64,
        "uniform: sketch {} vs oracle {}",
        sketch_run.total_ios(),
        oracle_run.total_ios()
    );
}
