//! Out-of-memory behavior at every externally budgeted entry point. The
//! page budget *B* is the plan's arithmetic, checked before any I/O:
//!
//! * The budgeted statistics collector checks all shard budgets **up
//!   front** against the caller's page count; a pass that exceeds it must
//!   fail with a clean [`StorageError::OutOfMemory`] before any page is
//!   read.
//! * Below the two streaming pages (`B < 2`) every hash join and NBJ fail
//!   with `OutOfMemory { requested: 2, available: B }`, having counted no
//!   I/O and left only R and S on the device.
//! * Every executor survives a sweep of tiny-but-legal budgets without a
//!   panic and without leaking a single spill file or page — shrinking `B`
//!   buys passes, never failure.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use nocap_suite::joins::{
    DhhJoin, GraceHashJoin, NestedBlockJoin, SortMergeJoin, SMJ_MIN_BUDGET_PAGES,
};
use nocap_suite::model::JoinSpec;
use nocap_suite::nocap::{NocapConfig, NocapJoin};
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

/// Every executor at `spec`'s budget, each run returning its output count.
fn executors(spec: JoinSpec, wl: &GeneratedWorkload) -> Vec<SweepRun<'_>> {
    vec![
        (
            "nocap",
            Box::new(move || {
                NocapJoin::new(spec, NocapConfig::default())
                    .run(&wl.r, &wl.s, &wl.mcvs)
                    .map(|r| r.output_records)
            }),
        ),
        (
            "dhh",
            Box::new(move || {
                DhhJoin::with_defaults(spec)
                    .run(&wl.r, &wl.s, &wl.mcvs)
                    .map(|r| r.output_records)
            }),
        ),
        (
            "histojoin",
            Box::new(move || {
                DhhJoin::histojoin(spec)
                    .run(&wl.r, &wl.s, &wl.mcvs)
                    .map(|r| r.output_records)
            }),
        ),
        (
            "ghj",
            Box::new(move || {
                GraceHashJoin::new(spec)
                    .run(&wl.r, &wl.s)
                    .map(|r| r.output_records)
            }),
        ),
        (
            "smj",
            Box::new(move || {
                SortMergeJoin::new(spec)
                    .run(&wl.r, &wl.s)
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

#[test]
fn budgets_below_the_streaming_pages_fail_before_any_io() {
    let (sim, wl) = generate(1_000, 8_000);
    let base_pages = wl.r.num_pages() + wl.s.num_pages();
    for budget in [0usize, 1] {
        let spec = JoinSpec::paper_synthetic(128, budget);
        // SMJ asserts its own, larger minimum (`SMJ_MIN_BUDGET_PAGES`).
        let runs = executors(spec, &wl)
            .into_iter()
            .filter(|(label, _)| *label != "smj");
        for (label, run) in runs {
            sim.reset_stats();
            assert_eq!(
                run(),
                Err(StorageError::OutOfMemory {
                    requested: 2,
                    available: budget
                }),
                "{label} at budget {budget}"
            );
            assert_eq!(
                sim.stats(),
                IoStats::default(),
                "{label}: I/O counted at budget {budget}"
            );
            assert_eq!(
                (sim.live_files(), sim.resident_pages()),
                (2, base_pages),
                "{label}: more than R and S left on the device at budget {budget}"
            );
        }
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
        for (label, run) in executors(spec, &wl) {
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
