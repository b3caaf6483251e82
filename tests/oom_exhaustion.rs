//! Out-of-memory behavior at every externally budgeted entry point. Each
//! join declares the pages it holds of the budget *B*, and one check
//! (`JoinSpec::pages_left`) refuses a plan *B* cannot hold before any I/O:
//!
//! * The budgeted statistics collector checks all shard budgets **up
//!   front** against the caller's page count; a pass that exceeds it must
//!   fail with a clean [`StorageError::OutOfMemory`] before any page is
//!   read.
//! * Every executor, at 1 and 2 workers and every B from 0 to 16, either
//!   fails with `OutOfMemory { requested, available: B }` for the pages
//!   it declared — having counted no I/O, left only R and S on the device
//!   and panicked nowhere — or returns the right output and leaks nothing.
//!   The hash joins and NBJ run from B = 3 (a pair join's pages), SMJ from
//!   B = 5 (`SMJ_MIN_BUDGET_PAGES`); shrinking B past that buys passes,
//!   never failure.
//! * An explicit NOCAP plan whose fixed pages exceed `B − 2` is refused
//!   the same way, even when it stages nothing.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use nocap_suite::joins::{
    DhhJoin, GraceHashJoin, NestedBlockJoin, SortMergeJoin, SMJ_MIN_BUDGET_PAGES,
};
use nocap_suite::model::JoinSpec;
use nocap_suite::nocap::{NocapConfig, NocapJoin, NocapPlan};
use nocap_suite::obs::Obs;
use nocap_suite::stats::{StatsCollector, StatsConfig};
use nocap_suite::storage::device::DeviceRef;
use nocap_suite::storage::{BlockDevice, IoStats, SimDevice, StorageError};
use nocap_suite::workload::{synthetic, Correlation, GeneratedWorkload, SyntheticConfig};

/// One labeled executor invocation of the budget tests.
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
    let (sim, wl) = generate(1_000, 8_000);
    let page_size = 4096;
    let unbudgeted =
        StatsCollector::collect_parallel(StatsConfig::for_budget_pages(4, page_size), &wl.s, 4)
            .expect("unbudgeted collection");

    let mut saw_oom = false;
    let mut saw_ok = false;
    let mut budget = 0usize;
    while budget <= 8192 {
        sim.reset_stats();
        match StatsCollector::collect_parallel_with_budget(
            budget,
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
                    "an oversubscribed budget must fail with OutOfMemory, got: {err}"
                );
                assert_eq!(
                    sim.stats(),
                    IoStats::default(),
                    "budget {budget}: the collector must fail before reading a page"
                );
                saw_oom = true;
            }
        }
        if saw_ok {
            break;
        }
        budget = (budget * 2).max(1);
    }
    assert!(saw_oom, "the sweep never exercised the exhaustion path");
    assert!(
        saw_ok,
        "the sweep never found a capacity the collector fits in"
    );
}

/// Every executor at `spec`'s budget on `threads` workers (NBJ runs on
/// the calling thread), each run returning its output count.
fn executors(spec: JoinSpec, wl: &GeneratedWorkload, threads: usize) -> Vec<SweepRun<'_>> {
    vec![
        (
            "nocap",
            Box::new(move || {
                NocapJoin::new(spec, NocapConfig::default())
                    .run_parallel(&wl.r, &wl.s, &wl.mcvs, threads)
                    .map(|r| r.output_records)
            }),
        ),
        (
            "dhh",
            Box::new(move || {
                DhhJoin::with_defaults(spec)
                    .run_parallel(&wl.r, &wl.s, &wl.mcvs, threads)
                    .map(|r| r.output_records)
            }),
        ),
        (
            "histojoin",
            Box::new(move || {
                DhhJoin::histojoin(spec)
                    .run_parallel(&wl.r, &wl.s, &wl.mcvs, threads)
                    .map(|r| r.output_records)
            }),
        ),
        (
            "ghj",
            Box::new(move || {
                GraceHashJoin::new(spec)
                    .run_parallel(&wl.r, &wl.s, threads)
                    .map(|r| r.output_records)
            }),
        ),
        (
            "smj",
            Box::new(move || {
                SortMergeJoin::new(spec)
                    .run_parallel(&wl.r, &wl.s, threads)
                    .map(|r| r.output_records)
            }),
        ),
        (
            "nbj",
            Box::new(move || {
                NestedBlockJoin::new(spec)
                    .run(&wl.r, &wl.s)
                    .map(|r| r.output_records)
            }),
        ),
    ]
}

/// The smallest budget an executor runs at: a pair join's three pages
/// (NBJ's one-page chunk beside its two streaming pages) for the hash
/// joins and NBJ, a four-way fused merge (two runs of each relation) for
/// SMJ.
fn smallest_budget(label: &str) -> usize {
    if label == "smj" {
        SMJ_MIN_BUDGET_PAGES
    } else {
        3
    }
}

/// Asserts that `outcome` is a refusal of `budget` made before any I/O,
/// leaving only R and S on `sim`, and returns the pages it requested.
fn assert_refused_before_io(
    sim: &SimDevice,
    base_pages: usize,
    at: &str,
    budget: usize,
    outcome: nocap_suite::storage::Result<u64>,
) -> usize {
    let requested = match outcome {
        Err(StorageError::OutOfMemory {
            requested,
            available,
        }) if available == budget && requested > budget => requested,
        other => panic!("{at}: expected OutOfMemory for the declared pages, got {other:?}"),
    };
    assert_eq!(sim.stats(), IoStats::default(), "{at}: I/O counted");
    assert_eq!(
        (sim.live_files(), sim.resident_pages()),
        (2, base_pages),
        "{at}: more than R and S left on the device"
    );
    requested
}

#[test]
fn budgets_below_the_streaming_pages_fail_before_any_io() {
    // The first declaration B cannot hold: a hash join's two streaming
    // pages (its fixed structures are empty at these budgets), the pair
    // join GHJ and NBJ declare, SMJ's floor.
    let (sim, wl) = generate(1_000, 8_000);
    let base_pages = wl.r.num_pages() + wl.s.num_pages();
    for budget in [0usize, 1] {
        let spec = JoinSpec::paper_synthetic(128, budget);
        for (label, run) in executors(spec, &wl, 1) {
            sim.reset_stats();
            let at = format!("{label} at budget {budget}");
            let requested = assert_refused_before_io(&sim, base_pages, &at, budget, run());
            let declared = match label {
                "ghj" | "nbj" | "smj" => smallest_budget(label),
                _ => 2,
            };
            assert_eq!(requested, declared, "{at}");
        }
    }
}

#[test]
fn tiny_budget_sweeps_never_panic_and_never_leak() {
    let (sim, wl) = generate(1_000, 8_000);
    let base_pages = wl.r.num_pages() + wl.s.num_pages();
    for budget in (0usize..=16).chain([24, 48]) {
        let spec = JoinSpec::paper_synthetic(128, budget);
        for threads in [1, 2] {
            for (label, run) in executors(spec, &wl, threads) {
                let at = format!("{label} at budget {budget}, {threads} workers");
                sim.reset_stats();
                let outcome = catch_unwind(AssertUnwindSafe(run))
                    .unwrap_or_else(|_| panic!("{at}: panicked"));
                let floor = smallest_budget(label);
                if budget < floor {
                    let requested =
                        assert_refused_before_io(&sim, base_pages, &at, budget, outcome);
                    if budget + 1 == floor {
                        assert_eq!(requested, floor, "{at}");
                    }
                    continue;
                }
                let output =
                    outcome.unwrap_or_else(|err| panic!("{at}: {err} (a legal budget must run)"));
                assert_eq!(output, wl.expected_join_output(), "{at}: wrong output");
                assert_eq!(sim.resident_pages(), base_pages, "{at}: pages leaked");
                assert_eq!(sim.live_files(), 2, "{at}: spill files leaked");
            }
        }
    }
}

#[test]
fn an_explicit_plan_over_the_budget_fails_before_any_io() {
    // Seven designated partitions of one key each: their output pages and
    // the f_disk map's page are 8 fixed pages, past B − 2 = 6 at B = 8. The
    // plan stages nothing, so no staging page is asked for either; its
    // fixed pages alone are over B.
    let (sim, wl) = generate(1_000, 8_000);
    let base_pages = wl.r.num_pages() + wl.s.num_pages();
    let spec = JoinSpec::paper_synthetic(128, 8);
    let plan = NocapPlan {
        disk_partitions: (0..7).map(|key| vec![key]).collect(),
        ..NocapPlan::passthrough(0, 0, 0)
    };
    assert_eq!(plan.fixed_memory_pages(&spec), 8);
    for threads in [1, 2] {
        sim.reset_stats();
        let at = format!("explicit plan, {threads} workers");
        let outcome = NocapJoin::new(spec, NocapConfig::default())
            .run_with_plan(&wl.r, &wl.s, &plan, threads, &Obs::off())
            .map(|r| r.output_records);
        let requested = assert_refused_before_io(&sim, base_pages, &at, 8, outcome);
        assert_eq!(requested, 2 + 8, "{at}: the streaming and fixed pages");
    }
}
