//! Out-of-memory behavior at every externally budgeted entry point:
//!
//! * The budgeted statistics collector reserves all shard budgets **up
//!   front** from a caller-owned [`BufferPool`]; an oversubscribed pool must
//!   fail with a clean [`StorageError::OutOfMemory`] before any page is
//!   read, releasing everything it reserved.
//! * `nocap_model::run_degrading` walks the budget ladder under admission
//!   pressure, rebuilding the join at each budget it tries, and
//!   either succeeds at a smaller budget (recorded, correct output) or
//!   surfaces the final out-of-memory error with the pool fully released.
//! * Every executor survives a sweep of tiny-but-legal budgets without a
//!   panic and without leaking a single spill file or page — shrinking `B`
//!   buys passes, never failure.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use nocap_suite::joins::{
    DhhJoin, GraceHashJoin, NestedBlockJoin, SortMergeJoin, SMJ_MIN_BUDGET_PAGES,
};
use nocap_suite::model::{run_degrading, BudgetLadder, JoinSpec};
use nocap_suite::nocap::{NocapConfig, NocapJoin};
use nocap_suite::obs::Obs;
use nocap_suite::stats::{StatsCollector, StatsConfig};
use nocap_suite::storage::device::DeviceRef;
use nocap_suite::storage::{BufferPool, IoStats, SimDevice, StorageError};
use nocap_suite::workload::{synthetic, Correlation, GeneratedWorkload, SyntheticConfig};

/// One labeled executor invocation of the tiny-budget sweep.
type SweepRun<'a> = (
    &'a str,
    Box<dyn Fn() -> nocap_suite::storage::Result<u64> + 'a>,
);

fn generate(n_r: usize, n_s: usize) -> (Arc<SimDevice>, GeneratedWorkload) {
    let sim = Arc::new(SimDevice::new());
    let wl = synthetic::generate(
        sim.clone() as DeviceRef,
        &SyntheticConfig {
            n_r,
            n_s,
            record_bytes: 128,
            correlation: Correlation::Zipf { alpha: 1.1 },
            mcv_count: 200,
            seed: 0x00B5,
        },
    )
    .expect("workload");
    (sim, wl)
}

#[test]
fn collector_pool_exhaustion_fails_up_front_and_releases_everything() {
    let (_sim, wl) = generate(1_000, 8_000);
    let page_size = 4096;
    let unbudgeted =
        StatsCollector::collect_parallel(StatsConfig::for_budget_pages(4, page_size), &wl.s, 4)
            .expect("unbudgeted collection");

    let mut saw_oom = false;
    let mut saw_ok = false;
    let mut capacity = 0usize;
    while capacity <= 8192 {
        let pool = BufferPool::new(capacity);
        match StatsCollector::collect_parallel_with_budget(
            &pool,
            4,
            page_size,
            &wl.s,
            4,
            &Obs::off(),
        ) {
            Ok(summary) => {
                assert_eq!(
                    summary, unbudgeted,
                    "the budget must never change the collected summary"
                );
                saw_ok = true;
            }
            Err(err) => {
                assert!(
                    matches!(err, StorageError::OutOfMemory { .. }),
                    "an oversubscribed pool must fail with OutOfMemory, got: {err}"
                );
                saw_oom = true;
            }
        }
        assert_eq!(
            pool.in_use(),
            0,
            "capacity {capacity}: the collector must release every page it reserved"
        );
        if saw_ok {
            break;
        }
        capacity = (capacity * 2).max(1);
    }
    assert!(saw_oom, "the sweep never exercised the exhaustion path");
    assert!(
        saw_ok,
        "the sweep never found a capacity the collector fits in"
    );
}

#[test]
fn degrading_runs_absorb_admission_pressure_or_fail_clean() {
    let (sim, wl) = generate(1_000, 8_000);
    let base_pages = wl.r.num_pages() + wl.s.num_pages();
    let spec = JoinSpec::paper_synthetic(128, 48);
    let ladder = BudgetLadder::default();
    // Each join is rebuilt at every budget the ladder tries.
    let degrading = |label: &str, admission: &BufferPool| {
        run_degrading(admission, spec.buffer_pages, &ladder, |budget| {
            let spec = spec.with_buffer_pages(budget);
            match label {
                "nocap" => NocapJoin::new(spec, NocapConfig::default()).run(&wl.r, &wl.s, &wl.mcvs),
                _ => DhhJoin::with_defaults(spec).run(&wl.r, &wl.s, &wl.mcvs),
            }
        })
    };

    // A pool below the ladder's floor can never admit any attempt: the last
    // out-of-memory error surfaces, nothing stays reserved, nothing leaks.
    let hopeless = BufferPool::new(2);
    for label in ["nocap", "dhh"] {
        let err =
            degrading(label, &hopeless).expect_err("a 2-page pool cannot admit the 5-page floor");
        assert!(
            matches!(err, StorageError::OutOfMemory { .. }),
            "{label}: {err}"
        );
        assert_eq!(hopeless.in_use(), 0, "{label}: admission pool not released");
        assert_eq!(
            sim.resident_pages(),
            base_pages,
            "{label}: pages leaked by a rejected run"
        );
    }

    // A tight pool forces real degradation: the run lands on a smaller
    // budget, the trail is recorded, and the output is still exact.
    let tight = BufferPool::new(28);
    let counters = |io: &IoStats| [io.seq_reads, io.rand_reads, io.seq_writes, io.rand_writes];
    for (label, partition_io, probe_io) in [
        ("nocap", [292, 0, 0, 29], [30, 0, 0, 1]),
        ("dhh", [292, 0, 0, 265], [282, 0, 0, 17]),
    ] {
        let run = degrading(label, &tight).expect("the ladder must fit a 28-page pool");
        assert_eq!(
            (run.budget_pages, run.steps()),
            (27, 2),
            "{label}: a 48-page plan in a 28-page pool degrades twice"
        );
        assert_eq!(
            (
                counters(&run.report.partition_io),
                counters(&run.report.probe_io)
            ),
            (partition_io, probe_io),
            "{label}"
        );
        assert_eq!(
            run.report.output_records,
            wl.expected_join_output(),
            "{label}: degraded run produced wrong output"
        );
        assert_eq!(tight.in_use(), 0, "{label}: admission pool not released");
        assert_eq!(sim.resident_pages(), base_pages, "{label}: pages leaked");
    }
}

#[test]
fn tiny_budget_sweeps_never_panic_and_never_leak() {
    let (sim, wl) = generate(1_000, 8_000);
    let base_pages = wl.r.num_pages() + wl.s.num_pages();
    let budgets = [5usize, 6, 8, 12, 24, 48];
    assert!(budgets[0] >= SMJ_MIN_BUDGET_PAGES);
    for &budget in &budgets {
        let spec = JoinSpec::paper_synthetic(128, budget);
        let runs: Vec<SweepRun> = vec![
            (
                "nocap",
                Box::new(|| {
                    NocapJoin::new(spec, NocapConfig::default())
                        .run(&wl.r, &wl.s, &wl.mcvs)
                        .map(|r| r.output_records)
                }),
            ),
            (
                "dhh",
                Box::new(|| {
                    DhhJoin::with_defaults(spec)
                        .run(&wl.r, &wl.s, &wl.mcvs)
                        .map(|r| r.output_records)
                }),
            ),
            (
                "ghj",
                Box::new(|| {
                    GraceHashJoin::new(spec)
                        .run(&wl.r, &wl.s)
                        .map(|r| r.output_records)
                }),
            ),
            (
                "smj",
                Box::new(|| {
                    SortMergeJoin::new(spec)
                        .run(&wl.r, &wl.s)
                        .map(|r| r.output_records)
                }),
            ),
            (
                "nbj",
                Box::new(|| {
                    NestedBlockJoin::new(spec)
                        .run(&wl.r, &wl.s)
                        .map(|r| r.output_records)
                }),
            ),
        ];
        for (label, run) in runs {
            let outcome = catch_unwind(AssertUnwindSafe(run))
                .unwrap_or_else(|_| panic!("{label} panicked at budget {budget}"));
            let output = outcome.unwrap_or_else(|err| {
                panic!("{label} failed at budget {budget}: {err} (a legal budget must run)")
            });
            assert_eq!(
                output,
                wl.expected_join_output(),
                "{label}: wrong output at budget {budget}"
            );
            assert_eq!(
                sim.resident_pages(),
                base_pages,
                "{label}: pages leaked at budget {budget}"
            );
            assert_eq!(
                sim.live_files(),
                2,
                "{label}: spill files leaked at budget {budget}"
            );
        }
    }
}
