//! End-to-end guarantees of the execution engine at every thread count:
//!
//! 1. `run` and `run_parallel(n)`, n ∈ {1, 2, 3, 4, 8}, of NOCAP, DHH,
//!    Histojoin, GHJ and SMJ produce the join output and the per-phase
//!    modeled I/O of the checked-in [`GOLDEN`] table, across skewed
//!    (Zipf 1.1), uniform and JCC-H workloads and two memory budgets. Each
//!    join has one executor body (`run` is `run_parallel` at one worker;
//!    NOCAP, DHH and Histojoin share theirs), so these are absolute pins —
//!    recorded from the straight-line sequential executors the bodies
//!    replaced — not comparisons between two calls of one function.
//!    `run` executes on the calling thread as worker 0 whatever
//!    `NOCAP_THREADS` says.
//! 2. The whole sketch-plan-execute pipeline is thread-count invariant:
//!    the sharded sketch pass plus the join at n workers reproduce their
//!    one-worker run exactly (same summary → same plan → same I/O), and
//!    `StatsCollector::collect_parallel` yields a bit-identical summary for
//!    every n on generated workloads.
//! 3. The thread-safe `BufferPool` never over-commits its budget under a
//!    barrier-synchronized reserve/release storm, and per-worker quota
//!    carving conserves pages exactly.
//! 4. The morsel-claimed scans and worker-private output pages keep those
//!    pins at an odd worker count and on relations with fewer pages than
//!    workers, every base page is read exactly once, and two runs of one
//!    join compare equal as whole reports.
//! 5. Below `√(F·‖R‖)`, where the shared pair join re-partitions, NOCAP,
//!    DHH and GHJ match the oracle with one report at every thread count.

use std::collections::{BTreeSet, HashSet};
use std::sync::{Arc, Barrier, Mutex};
use std::thread::ThreadId;

use nocap_suite::joins::testutil::assert_parallel_equivalence;
use nocap_suite::joins::{naive_join_count, DhhJoin, GraceHashJoin, SortMergeJoin};
use nocap_suite::model::{JoinRunReport, JoinSpec};
use nocap_suite::nocap::{NocapConfig, NocapJoin};
use nocap_suite::obs::{IoAudit, Obs, Phase};
use nocap_suite::stats::{StatsCollector, StatsConfig};
use nocap_suite::storage::device::DeviceRef;
use nocap_suite::storage::{
    BlockDevice, BufferPool, CheckedDevice, DeviceProfile, FaultDevice, FaultKind, FaultPlan,
    FaultSpec, FaultStats, FileDevice, FileId, IoKind, IoStats, Page, Record, Relation, Result,
    RetryPolicy, RetryStats, SimDevice, StorageError, TracedDevice,
};
use nocap_suite::workload::jcch::{self, JcchConfig, JcchSkew};
use nocap_suite::workload::{synthetic, Correlation, GeneratedWorkload, SyntheticConfig};

/// The workload grid shared by every differential suite below.
enum Workload {
    Synthetic(Correlation),
    Jcch(JcchSkew),
}

/// Generates the workload fresh on its own device (same seed → identical
/// relations, clean I/O counters).
fn generate(workload: &Workload) -> GeneratedWorkload {
    generate_on(SimDevice::new_ref(), workload)
}

/// [`generate`] on a caller-supplied device, so the traced-device suites can
/// build the identical workload behind a `TracedDevice` wrapper.
fn generate_on(device: DeviceRef, workload: &Workload) -> GeneratedWorkload {
    let wl = match workload {
        Workload::Synthetic(correlation) => synthetic::generate(
            device.clone(),
            &SyntheticConfig {
                n_r: 6_000,
                n_s: 48_000,
                record_bytes: 128,
                correlation: *correlation,
                mcv_count: 300,
                seed: 0x9A5,
            },
        )
        .expect("synthetic workload"),
        Workload::Jcch(skew) => jcch::generate(
            device.clone(),
            &JcchConfig {
                n_orders: 6_000,
                n_lineitems: 48_000,
                skew: *skew,
                record_bytes: 128,
                mcv_count: 300,
                seed: 0x1CC4,
            },
        )
        .expect("jcch workload"),
    };
    device.reset_stats();
    wl
}

fn workload_grid() -> Vec<(&'static str, Workload)> {
    vec![
        (
            "zipf_1.1",
            Workload::Synthetic(Correlation::Zipf { alpha: 1.1 }),
        ),
        ("uniform", Workload::Synthetic(Correlation::Uniform)),
        ("jcch_tuned", Workload::Jcch(JcchSkew::Tuned)),
    ]
}

/// One golden row: algorithm, workload, budget in pages, join output, then
/// the partition-phase and probe-phase `IoStats` as
/// `[seq_reads, rand_reads, seq_writes, rand_writes]`.
type GoldenRow = (&'static str, &'static str, usize, u64, [u64; 4], [u64; 4]);

/// What every join must report on [`workload_grid`] × budgets {32, 96} —
/// SMJ also at 8 — on `SimDevice`, from `run` and from `run_parallel` at
/// any thread count.
///
/// Recorded at commit e1dd280 — the last one with straight-line sequential
/// `run` bodies for NOCAP, DHH and GHJ — by calling `run` of each join on
/// exactly these workloads and printing the report, so the numbers are those
/// of executors that shared no partitioning code with `nocap-par`. For DHH
/// and GHJ this table is the only independent reference for per-phase I/O
/// counts; regenerate it only for a change that is *meant* to move modeled
/// I/O, and say so. The seven NOCAP and DHH rows in which a residual
/// partition can stay in memory — every B = 96 row, and NOCAP on `uniform`
/// at B = 32 — were re-recorded the same way when the staging quotas became
/// resident-first (`nocap_model::staging_quotas`); each total fell. The six
/// `histojoin` rows were recorded at commit 10dacdf — the last one with the
/// `HistoJoin` wrapper struct — from its `run` (its `run_parallel` at 1, 2,
/// 3, 4 and 8 workers agreed), so `DhhJoin::histojoin` is held to what the
/// wrapper did; on this grid the MCV mass is above DHH's 2 % trigger
/// everywhere, which is why they equal the `dhh` rows. The six `ghj` rows
/// were not re-recorded when GHJ became a plan for the hybrid body: they
/// are the e1dd280 rows under one identity. The hybrid body flushes each S
/// partition's last, buffered page in the probe window, where GHJ's own body
/// flushed it in the partition window, so the `k` S-tail pages — one per
/// non-empty S partition, here every one of the `B − 1` — move from
/// partition `rand_writes` to probe `rand_writes` (written `recorded − k`
/// and `k` below). Every other counter and every total equals the recorded
/// row. The three B = 8 `smj` rows were recorded at commit 21dc606, whose
/// cascade merged its groups one after another and whose fused merge ran
/// on one thread, from its `run`: there R's 28 runs cascade to 4 and then 1
/// and S's 222 runs to 32 and then 5, so each relation takes two levels of
/// several groups (B = 32 takes one, B = 96 none) — three full writes and
/// two full re-reads. Until the cascade stopped reading page 0 of a run to
/// learn its layout, every `smj` row of B = 32 and B = 8 also carried one
/// such geometry probe per level and relation (partition `rand_reads`
/// 1745 and 3490); a run now carries its layout, so they read 1743 and
/// 3486, the re-reads alone.
#[rustfmt::skip]
const GOLDEN: [GoldenRow; 33] = [
    ("nocap", "zipf_1.1",   32, 48000, [1743,    0,    0,  532], [ 539,    0, 0,  7]),
    ("dhh",   "zipf_1.1",   32, 48000, [1743,    0,    0, 1741], [1761,    0, 0, 20]),
    ("ghj",   "zipf_1.1",   32, 48000, [1743,    0,    0, 1776 - 31], [1776,    0, 0, 31]),
    ("smj",   "zipf_1.1",   32, 48000, [1743, 1743, 3486,    0], [   0, 1743, 0,  0]),
    ("nocap", "zipf_1.1",   96, 48000, [1743,    0,    0,  360], [ 362,    0, 0,  2]),
    ("dhh",   "zipf_1.1",   96, 48000, [1743,    0,    0,  628], [ 642,    0, 0, 14]),
    ("ghj",   "zipf_1.1",   96, 48000, [1743,    0,    0, 1838 - 95], [1838,    0, 0, 95]),
    ("smj",   "zipf_1.1",   96, 48000, [1743,    0, 1743,    0], [   0, 1743, 0,  0]),
    ("nocap", "uniform",    32, 48000, [1743,    0,    0, 1615], [1628,    0, 0, 13]),
    ("dhh",   "uniform",    32, 48000, [1743,    0,    0, 1742], [1762,    0, 0, 20]),
    ("ghj",   "uniform",    32, 48000, [1743,    0,    0, 1773 - 31], [1773,    0, 0, 31]),
    ("smj",   "uniform",    32, 48000, [1743, 1743, 3486,    0], [   0, 1743, 0,  0]),
    ("nocap", "uniform",    96, 48000, [1743,    0,    0, 1105], [1107,    0, 0,  2]),
    ("dhh",   "uniform",    96, 48000, [1743,    0,    0, 1201], [1215,    0, 0, 14]),
    ("ghj",   "uniform",    96, 48000, [1743,    0,    0, 1832 - 95], [1832,    0, 0, 95]),
    ("smj",   "uniform",    96, 48000, [1743,    0, 1743,    0], [   0, 1743, 0,  0]),
    ("nocap", "jcch_tuned", 32, 48000, [1743,    0,    0,  770], [ 777,    0, 0,  7]),
    ("dhh",   "jcch_tuned", 32, 48000, [1743,    0,    0, 1744], [1764,    0, 0, 20]),
    ("ghj",   "jcch_tuned", 32, 48000, [1743,    0,    0, 1773 - 31], [1773,    0, 0, 31]),
    ("smj",   "jcch_tuned", 32, 48000, [1743, 1743, 3486,    0], [   0, 1743, 0,  0]),
    ("nocap", "jcch_tuned", 96, 48000, [1743,    0,    0,  515], [ 517,    0, 0,  2]),
    ("dhh",   "jcch_tuned", 96, 48000, [1743,    0,    0,  981], [ 995,    0, 0, 14]),
    ("ghj",   "jcch_tuned", 96, 48000, [1743,    0,    0, 1833 - 95], [1833,    0, 0, 95]),
    ("smj",   "jcch_tuned", 96, 48000, [1743,    0, 1743,    0], [   0, 1743, 0,  0]),
    ("histojoin", "zipf_1.1",   32, 48000, [1743, 0, 0, 1741], [1761, 0, 0, 20]),
    ("histojoin", "zipf_1.1",   96, 48000, [1743, 0, 0,  628], [ 642, 0, 0, 14]),
    ("histojoin", "uniform",    32, 48000, [1743, 0, 0, 1742], [1762, 0, 0, 20]),
    ("histojoin", "uniform",    96, 48000, [1743, 0, 0, 1201], [1215, 0, 0, 14]),
    ("histojoin", "jcch_tuned", 32, 48000, [1743, 0, 0, 1744], [1764, 0, 0, 20]),
    ("histojoin", "jcch_tuned", 96, 48000, [1743, 0, 0,  981], [ 995, 0, 0, 14]),
    ("smj",   "zipf_1.1",    8, 48000, [1743, 3486, 5229,    0], [   0, 1743, 0,  0]),
    ("smj",   "uniform",     8, 48000, [1743, 3486, 5229,    0], [   0, 1743, 0,  0]),
    ("smj",   "jcch_tuned",  8, 48000, [1743, 3486, 5229,    0], [   0, 1743, 0,  0]),
];

/// Checks `run` (`None`) and `run_parallel(n)` (`Some(n)`) of one algorithm
/// against its [`GOLDEN`] rows. One generated workload serves every run:
/// reports are counter deltas and every run deletes its spill files.
fn assert_golden(
    algo: &str,
    run: impl Fn(&JoinSpec, &GeneratedWorkload, Option<usize>) -> Result<JoinRunReport>,
) {
    let counters = |io: &IoStats| [io.seq_reads, io.rand_reads, io.seq_writes, io.rand_writes];
    for (name, workload) in &workload_grid() {
        let wl = generate(workload);
        let rows: Vec<_> = GOLDEN
            .iter()
            .filter(|row| (row.0, row.1) == (algo, *name))
            .collect();
        assert!(
            rows.iter().any(|row| row.2 == 32) && rows.iter().any(|row| row.2 == 96),
            "{algo}/{name}: golden rows at B = 32 and B = 96"
        );
        for &&(.., budget, output, partition_io, probe_io) in &rows {
            assert_eq!(
                output,
                wl.expected_join_output(),
                "{algo}/{name}: the golden output must match the correlation table"
            );
            let spec = JoinSpec::paper_synthetic(128, budget);
            for threads in [None, Some(1), Some(2), Some(3), Some(4), Some(8)] {
                let label = format!("{algo}/{name}/B={budget}/threads={threads:?}");
                let report = run(&spec, &wl, threads).expect(&label);
                assert_eq!(report.output_records, output, "{label}: join output");
                assert_eq!(
                    counters(&report.partition_io),
                    partition_io,
                    "{label}: partition-phase I/O"
                );
                assert_eq!(
                    counters(&report.probe_io),
                    probe_io,
                    "{label}: probe-phase I/O"
                );
            }
        }
    }
}

#[test]
fn nocap_run_parallel_matches_run_across_workloads_threads_and_budgets() {
    assert_golden("nocap", |spec, wl, threads| {
        let join = NocapJoin::new(*spec, NocapConfig::default());
        match threads {
            None => join.run(&wl.r, &wl.s, &wl.mcvs),
            Some(n) => join.run_parallel(&wl.r, &wl.s, &wl.mcvs, n),
        }
    });
}

#[test]
fn dhh_run_parallel_matches_run_across_workloads_threads_and_budgets() {
    assert_golden("dhh", |spec, wl, threads| {
        let dhh = DhhJoin::with_defaults(*spec);
        match threads {
            None => dhh.run(&wl.r, &wl.s, &wl.mcvs),
            Some(n) => dhh.run_parallel(&wl.r, &wl.s, &wl.mcvs, n),
        }
    });
}

#[test]
fn histojoin_run_parallel_matches_run_across_workloads_threads_and_budgets() {
    assert_golden("histojoin", |spec, wl, threads| {
        let histo = DhhJoin::histojoin(*spec);
        let report = match threads {
            None => histo.run(&wl.r, &wl.s, &wl.mcvs),
            Some(n) => histo.run_parallel(&wl.r, &wl.s, &wl.mcvs, n),
        }?;
        assert_eq!(report.algorithm, "Histojoin");
        Ok(report)
    });
}

#[test]
fn smj_run_parallel_matches_run_across_workloads_threads_and_budgets() {
    // Sort-run generation claims chunks of a page grid fixed by the data
    // and the budget, the cascade claims groups of a level's runs and the
    // fused merge-join claims key ranges cut at run-page fences, so every
    // thread count must reproduce the same external sort — and therefore
    // the fused merge-join — bit for bit. At B = 8 each relation's cascade
    // takes two levels of several groups each.
    assert_golden("smj", |spec, wl, threads| {
        let smj = SortMergeJoin::new(*spec);
        match threads {
            None => smj.run(&wl.r, &wl.s),
            Some(n) => smj.run_parallel(&wl.r, &wl.s, n),
        }
    });
}

#[test]
fn smj_split_merge_matches_the_oracle_and_the_one_worker_io() {
    // The fused merge-join splits at page-weighted quantiles of the final
    // runs' fences. On Zipf 1.1 the heavy keys span many pages of every
    // run; where every key is equal all splitters are that key and one
    // range takes everything; where half of S is above R's largest key,
    // the ranges up there hold S pages only, which the merge still reads.
    // Every time the output is the oracle's and the per-phase I/O the
    // one-worker run's.
    let device = SimDevice::new_ref();
    let spec = JoinSpec::paper_synthetic(128, 8);
    let load = |keys: &mut dyn Iterator<Item = u64>| {
        let payload = spec.r_layout.payload_bytes();
        Relation::bulk_load(
            device.clone(),
            spec.r_layout,
            spec.page_size,
            keys.map(|k| Record::with_fill(k, payload, 0)),
        )
        .expect("hand-built relation")
    };
    let equal = (
        load(&mut (0..300).map(|_| 42)),
        load(&mut (0..2_400).map(|_| 42)),
    );
    let unmatched = (
        load(&mut (0..600)),
        load(&mut (0..4_800u64).map(|i| i.wrapping_mul(0x9E37_79B9) % 1_200)),
    );
    let zipf = generate(&Workload::Synthetic(Correlation::Zipf { alpha: 1.1 }));
    let cases: [(&str, &Relation, &Relation, &[usize]); 3] = [
        ("zipf_1.1", &zipf.r, &zipf.s, &[8, 32]),
        ("equal_keys", &equal.0, &equal.1, &[8, 12]),
        ("s_above_r", &unmatched.0, &unmatched.1, &[8, 12]),
    ];
    for (name, r, s, budgets) in cases {
        let expected = naive_join_count(r, s).expect("oracle");
        for &budget in budgets {
            let smj = SortMergeJoin::new(JoinSpec::paper_synthetic(128, budget));
            let one = smj.run_parallel(r, s, 1).expect("one worker");
            assert_eq!(one.output_records, expected, "{name}/B={budget}");
            for threads in [2usize, 3, 8] {
                let label = format!("{name}/B={budget}/T={threads}");
                let split = smj.run_parallel(r, s, threads).expect(&label);
                assert_eq!(split.output_records, expected, "{label}: output");
                assert_eq!(split.partition_io, one.partition_io, "{label}");
                assert_eq!(split.probe_io, one.probe_io, "{label}");
            }
        }
    }
}

/// Runs SMJ at B = 8 on the grid's Zipf 1.1 workload into one armed fault,
/// placed by `fault_at(‖R‖, ‖S‖)`, and checks it fails cleanly: the
/// injected error comes back, no spill file or page outlives the join, and
/// the next run — the fault spent — is correct.
fn assert_smj_fails_clean(
    label: &str,
    threads: usize,
    fault_at: impl Fn(usize, usize) -> FaultSpec,
) {
    let zipf = Workload::Synthetic(Correlation::Zipf { alpha: 1.1 });
    let pages = generate(&zipf);
    let (r_pages, s_pages) = (pages.r.num_pages(), pages.s.num_pages());
    let sim = Arc::new(SimDevice::new());
    let fault = FaultDevice::new_arc(sim.clone() as DeviceRef, vec![fault_at(r_pages, s_pages)]);
    let wl = generate_on(fault.clone() as DeviceRef, &zipf);
    let smj = SortMergeJoin::new(JoinSpec::paper_synthetic(128, 8));
    fault.arm();
    let err = smj
        .run_parallel(&wl.r, &wl.s, threads)
        .expect_err("an unretried fault fails the join");
    assert!(matches!(err, StorageError::Io(_)), "{label}: got {err}");
    assert_eq!(fault.fault_stats().injected_errors, 1, "{label}");
    assert_eq!(sim.live_files(), 2, "{label}: spill files leaked");
    assert_eq!(
        sim.resident_pages(),
        r_pages + s_pages,
        "{label}: pages leaked"
    );
    let report = smj.run_parallel(&wl.r, &wl.s, threads).expect(label);
    assert_eq!(report.output_records, wl.expected_join_output(), "{label}");
}

#[test]
fn smj_fails_clean_on_an_append_fault_in_one_of_several_concurrent_group_merges() {
    // At B = 8 S's 222 runs merge in 32 groups on the first level. Every
    // SMJ write is a run append: R's three full writes and S's run
    // generation come first, so the fault lands half-way through that
    // level, with other groups in flight at T > 1.
    for threads in [1usize, 2, 3, 8] {
        assert_smj_fails_clean(&format!("append/T={threads}"), threads, |r, s| {
            FaultSpec::any(FaultKind::TransientError { failures: 1 })
                .appends()
                .after((3 * r + s + s / 2) as u64)
        });
    }
}

#[test]
fn smj_fails_clean_on_a_read_fault_inside_a_split_fused_merge() {
    // The cascade's random reads (two re-reads of both inputs at B = 8)
    // come first; the fault lands about half-way
    // through the fused merge, on whichever worker reads that page.
    for threads in [1usize, 2, 3, 8] {
        assert_smj_fails_clean(&format!("read/T={threads}"), threads, |r, s| {
            FaultSpec::any(FaultKind::TransientError { failures: 1 })
                .reads()
                .on_kind(IoKind::RandRead)
                .after((2 * (r + s) + (r + s) / 2) as u64)
        });
    }
}

#[test]
fn ghj_run_parallel_matches_run_across_workloads_and_threads() {
    // GHJ spills *every* record of both relations through worker-private
    // pages, so it is the densest check of the tail-merge page identity —
    // including an odd worker count.
    assert_golden("ghj", |spec, wl, threads| {
        let ghj = GraceHashJoin::new(*spec);
        match threads {
            None => ghj.run(&wl.r, &wl.s),
            Some(n) => ghj.run_parallel(&wl.r, &wl.s, n),
        }
    });
}

/// A `SimDevice` that remembers which threads read or appended a page.
#[derive(Default)]
struct ThreadLogDevice {
    inner: SimDevice,
    io_threads: Mutex<HashSet<ThreadId>>,
}

impl ThreadLogDevice {
    fn log(&self) {
        let mut seen = self.io_threads.lock().unwrap();
        seen.insert(std::thread::current().id());
    }
}

impl BlockDevice for ThreadLogDevice {
    fn create_file(&self) -> FileId {
        self.inner.create_file()
    }
    fn file_pages(&self, file: FileId) -> Result<usize> {
        self.inner.file_pages(file)
    }
    fn append_page(&self, file: FileId, page: &Page, kind: IoKind) -> Result<usize> {
        self.log();
        self.inner.append_page(file, page, kind)
    }
    fn read_page(&self, file: FileId, index: usize, kind: IoKind) -> Result<Arc<Page>> {
        self.log();
        self.inner.read_page(file, index, kind)
    }
    fn discard_page(&self, file: FileId, index: usize) -> Result<()> {
        self.inner.discard_page(file, index)
    }
    fn delete_file(&self, file: FileId) -> Result<()> {
        self.inner.delete_file(file)
    }
    fn stats(&self) -> IoStats {
        self.inner.stats()
    }
    fn reset_stats(&self) {
        self.inner.reset_stats()
    }
}

#[test]
fn run_is_worker_zero_on_the_calling_thread_whatever_nocap_threads_says() {
    // `run` passes one worker explicitly and never reads NOCAP_THREADS: CI
    // runs this suite with the variable set to 2 and to 8, where a `run`
    // that resolved its thread count from the environment would record
    // spans of workers 1.. and touch the device from spawned threads.
    let device = Arc::new(ThreadLogDevice::default());
    let wl = generate_on(
        device.clone(),
        &Workload::Synthetic(Correlation::Zipf { alpha: 1.1 }),
    );
    let spec = JoinSpec::paper_synthetic(128, 48);
    let nocap = NocapJoin::new(spec, NocapConfig::default());
    let dhh = DhhJoin::with_defaults(spec);
    let ghj = GraceHashJoin::new(spec);
    type RunObs<'a> = &'a dyn Fn(&Obs) -> Result<JoinRunReport>;
    let runs: [(&str, RunObs); 3] = [
        ("nocap", &|obs| nocap.run_obs(&wl.r, &wl.s, &wl.mcvs, obs)),
        ("dhh", &|obs| dhh.run_obs(&wl.r, &wl.s, &wl.mcvs, obs)),
        ("ghj", &|obs| ghj.run_obs(&wl.r, &wl.s, obs)),
    ];
    for (algo, run_obs) in runs {
        device.io_threads.lock().unwrap().clear();
        let report = run_obs(&Obs::recording()).expect("recorded run");
        assert_eq!(report.output_records, wl.expected_join_output(), "{algo}");
        let trace = report.trace.as_ref().expect("a recorded run has a trace");
        let workers: BTreeSet<usize> = trace.spans.iter().filter_map(|s| s.worker).collect();
        assert_eq!(
            workers,
            BTreeSet::from([0]),
            "{algo}: `run` records worker 0's spans and nobody else's"
        );
        assert_eq!(
            *device.io_threads.lock().unwrap(),
            HashSet::from([std::thread::current().id()]),
            "{algo}: every page access of `run` happens on the calling thread"
        );
    }
}

#[test]
fn morsel_scans_read_every_base_page_exactly_once() {
    // Three workers (morsels do not divide evenly) on the grid's relations,
    // on `SimDevice` and on `FileDevice` defaults, and eight workers on
    // relations of 2 and 7 pages (fewer pages than workers: some claim
    // nothing). In every shape the whole report equals the sequential one,
    // and the partition window — whose only reads are the base scans —
    // holds exactly ‖R‖ + ‖S‖ sequential reads.
    let tiny = || {
        let wl = synthetic::generate(
            SimDevice::new_ref(),
            &SyntheticConfig {
                n_r: 60,
                n_s: 200,
                record_bytes: 128,
                correlation: Correlation::Uniform,
                mcv_count: 10,
                seed: 0x9A5,
            },
        )
        .expect("tiny workload");
        assert!(wl.r.num_pages() < 8 && wl.s.num_pages() < 8);
        wl.r.device().reset_stats();
        wl
    };
    let zipf = Workload::Synthetic(Correlation::Zipf { alpha: 1.1 });
    let on_file = || {
        let device = FileDevice::builder().build_ref().expect("file device");
        generate_on(device, &zipf)
    };
    let cases: [(&str, usize, usize, &dyn Fn() -> GeneratedWorkload); 3] = [
        ("grid/T=3", 3, 48, &|| generate(&zipf)),
        ("file/T=3", 3, 48, &on_file),
        ("tiny/T=8", 8, 8, &tiny),
    ];
    for (label, threads, budget, make) in cases {
        let spec = JoinSpec::paper_synthetic(128, budget);
        let nocap = NocapJoin::new(spec, NocapConfig::default());
        let dhh = DhhJoin::with_defaults(spec);
        let ghj = GraceHashJoin::new(spec);
        type Run<'a> = &'a dyn Fn(&GeneratedWorkload, usize) -> JoinRunReport;
        let runs: [(&str, Run, Run); 3] = [
            (
                "nocap",
                &|wl, _| nocap.run(&wl.r, &wl.s, &wl.mcvs).expect("run"),
                &|wl, t| nocap.run_parallel(&wl.r, &wl.s, &wl.mcvs, t).expect("par"),
            ),
            (
                "dhh",
                &|wl, _| dhh.run(&wl.r, &wl.s, &wl.mcvs).expect("run"),
                &|wl, t| dhh.run_parallel(&wl.r, &wl.s, &wl.mcvs, t).expect("par"),
            ),
            (
                "ghj",
                &|wl, _| ghj.run(&wl.r, &wl.s).expect("run"),
                &|wl, t| ghj.run_parallel(&wl.r, &wl.s, t).expect("par"),
            ),
        ];
        for (algo, run, run_parallel) in runs {
            let sequential = run(&make(), 1);
            let wl = make();
            let parallel = run_parallel(&wl, threads);
            assert_eq!(parallel, sequential, "{label}/{algo}: whole report");
            assert_eq!(
                parallel.partition_io.seq_reads,
                (wl.r.num_pages() + wl.s.num_pages()) as u64,
                "{label}/{algo}: base pages read exactly once"
            );
        }
    }
}

#[test]
fn pair_joins_below_the_grace_threshold_repartition_identically_at_every_thread_count() {
    // Below √(F·‖R‖) a partition of R no longer fits the budget, so the
    // shared pair join re-partitions it — a regime `GOLDEN` never reaches
    // (GHJ's probe windows there write only the S tails, one page per
    // partition). Every hash join must still match the oracle, and its
    // whole report must be the same at every thread count.
    let wl = generate(&Workload::Synthetic(Correlation::Zipf { alpha: 1.1 }));
    let spec = JoinSpec::paper_synthetic(128, 8);
    assert!((spec.buffer_pages as f64) < spec.hhj_memory_threshold(wl.r.num_records()));
    let expected = naive_join_count(&wl.r, &wl.s).expect("oracle");
    let nocap = NocapJoin::new(spec, NocapConfig::default());
    let dhh = DhhJoin::with_defaults(spec);
    let ghj = GraceHashJoin::new(spec);
    type Run<'a> = &'a dyn Fn(usize) -> Result<JoinRunReport>;
    let runs: [(&str, Run, Run); 3] = [
        ("nocap", &|_| nocap.run(&wl.r, &wl.s, &wl.mcvs), &|t| {
            nocap.run_parallel(&wl.r, &wl.s, &wl.mcvs, t)
        }),
        ("dhh", &|_| dhh.run(&wl.r, &wl.s, &wl.mcvs), &|t| {
            dhh.run_parallel(&wl.r, &wl.s, &wl.mcvs, t)
        }),
        ("ghj", &|_| ghj.run(&wl.r, &wl.s), &|t| {
            ghj.run_parallel(&wl.r, &wl.s, t)
        }),
    ];
    for (algo, run, run_parallel) in runs {
        let sequential = run(1).expect(algo);
        assert_eq!(sequential.output_records, expected, "{algo}: join output");
        if algo == "ghj" {
            let probe_writes = sequential.probe_io.writes();
            assert!(
                probe_writes > (spec.buffer_pages - 1) as u64,
                "GHJ's pair joins must re-partition: {probe_writes} probe writes"
            );
        }
        for threads in [1usize, 2, 3, 8] {
            let parallel = run_parallel(threads).expect(algo);
            assert_eq!(parallel, sequential, "{algo}/T={threads}: whole report");
        }
    }
}

#[test]
fn two_runs_of_one_join_on_one_device_compare_equal() {
    // `JoinRunReport: PartialEq` once compared the wall-clock stopwatch, so
    // this was never true.
    let wl = generate(&Workload::Synthetic(Correlation::Zipf { alpha: 1.1 }));
    let spec = JoinSpec::paper_synthetic(128, 48);
    let join = NocapJoin::new(spec, NocapConfig::default());
    let first = join.run(&wl.r, &wl.s, &wl.mcvs).expect("first run");
    let second = join.run(&wl.r, &wl.s, &wl.mcvs).expect("second run");
    assert_eq!(first, second);
    let parallel = join
        .run_parallel(&wl.r, &wl.s, &wl.mcvs, 2)
        .expect("parallel run");
    assert_eq!(first, parallel, "and a parallel run equals both");
}

#[test]
fn run_parallel_honors_the_nocap_threads_default() {
    // threads = 0 routes through default_threads() (NOCAP_THREADS or the
    // machine's parallelism); the result must still be byte-identical.
    let workload = Workload::Synthetic(Correlation::Zipf { alpha: 1.1 });
    let spec = JoinSpec::paper_synthetic(128, 48);
    let join = NocapJoin::new(spec, NocapConfig::default());
    let dhh = DhhJoin::with_defaults(spec);
    for (label, sequential, defaulted) in [
        (
            "nocap",
            {
                let wl = generate(&workload);
                join.run(&wl.r, &wl.s, &wl.mcvs).expect("run")
            },
            {
                let wl = generate(&workload);
                join.run_parallel(&wl.r, &wl.s, &wl.mcvs, 0).expect("par")
            },
        ),
        (
            "dhh",
            {
                let wl = generate(&workload);
                dhh.run(&wl.r, &wl.s, &wl.mcvs).expect("run")
            },
            {
                let wl = generate(&workload);
                dhh.run_parallel(&wl.r, &wl.s, &wl.mcvs, 0).expect("par")
            },
        ),
    ] {
        assert_eq!(
            defaulted.output_records, sequential.output_records,
            "{label}"
        );
        assert_eq!(defaulted.partition_io, sequential.partition_io, "{label}");
        assert_eq!(defaulted.probe_io, sequential.probe_io, "{label}");
    }
}

/// The report of [`sketch_plan_execute_pipeline_is_thread_count_invariant`]
/// per [`workload_grid`] entry: output, then partition- and probe-phase I/O.
const PIPELINE_GOLDEN: [(u64, [u64; 4], [u64; 4]); 3] = [
    (48_000, [1_743, 0, 0, 558], [565, 0, 0, 7]),
    (48_000, [1_743, 0, 0, 1_273], [1_276, 0, 0, 3]),
    (48_000, [1_743, 0, 0, 721], [728, 0, 0, 7]),
];

#[test]
fn sketch_plan_execute_pipeline_is_thread_count_invariant() {
    // The whole deployable pipeline — sharded statistics collection,
    // planning from the summary, parallel execution — must be identical at
    // every thread count, *including* on workloads where the SpaceSaving
    // sketch overflows (the fixed shard grid and canonical fold make the
    // summary n-invariant regardless).
    let counters = |io: &IoStats| [io.seq_reads, io.rand_reads, io.seq_writes, io.rand_writes];
    for ((name, workload), golden) in workload_grid().iter().zip(PIPELINE_GOLDEN) {
        let spec = JoinSpec::paper_synthetic(128, 64);
        let join = NocapJoin::new(spec, NocapConfig::default());
        let pipeline = |threads: usize| {
            let wl = generate(workload);
            let pool = BufferPool::new(spec.buffer_pages);
            let summary = StatsCollector::collect_parallel_with_budget(
                &pool,
                4,
                spec.page_size,
                &wl.s,
                threads,
                &Obs::off(),
            )
            .expect("sketch pass");
            drop(pool);
            let report = join
                .run_parallel(&wl.r, &wl.s, &summary.planner_mcvs(), threads)
                .expect("pipeline");
            assert_eq!(
                report.output_records,
                wl.expected_join_output(),
                "{name}: sketch-planned output must match"
            );
            report
        };
        let sequential = pipeline(1);
        assert_eq!(
            (
                sequential.output_records,
                counters(&sequential.partition_io),
                counters(&sequential.probe_io)
            ),
            golden,
            "{name}"
        );
        assert_parallel_equivalence(
            &format!("pipeline/{name}"),
            &[1, 2, 4, 8],
            || pipeline(1),
            pipeline,
        );
    }
}

#[test]
fn dhh_sketch_pipeline_is_thread_count_invariant() {
    // Sketch-driven DHH: collect_parallel's summary is DHH's MCV list; every
    // thread count must reproduce the sequential sketch-driven run exactly.
    let workload = Workload::Synthetic(Correlation::Zipf { alpha: 1.1 });
    let spec = JoinSpec::paper_synthetic(128, 48);
    let dhh = DhhJoin::with_defaults(spec);
    let summarize = |wl: &GeneratedWorkload, threads: usize| {
        StatsCollector::collect_parallel(
            StatsConfig::for_budget_pages(4, spec.page_size),
            &wl.s,
            threads,
        )
        .expect("collection")
    };
    let sequential = || {
        let wl = generate(&workload);
        let summary = summarize(&wl, 1);
        wl.r.device().reset_stats();
        dhh.run(&wl.r, &wl.s, &summary.planner_mcvs())
            .expect("sequential sketch run")
    };
    let report = sequential();
    let counters = |io: &IoStats| [io.seq_reads, io.rand_reads, io.seq_writes, io.rand_writes];
    assert_eq!(
        (
            report.output_records,
            counters(&report.partition_io),
            counters(&report.probe_io)
        ),
        (48_000, [1_743, 0, 0, 1_628], [1_646, 0, 0, 18])
    );
    assert_parallel_equivalence(
        "dhh/sketch-pipeline",
        &[1, 2, 4, 8],
        sequential,
        |threads| {
            let wl = generate(&workload);
            let summary = summarize(&wl, threads);
            wl.r.device().reset_stats();
            dhh.run_parallel(&wl.r, &wl.s, &summary.planner_mcvs(), threads)
                .expect("parallel sketch run")
        },
    );
}

#[test]
fn collect_parallel_summaries_are_bit_identical_on_generated_workloads() {
    // Statistics-level determinism on the same generated relations the
    // executors join: for every workload in the grid the sharded summary
    // is identical at 1, 2, 4 and 8 threads — even where the MCV sketch
    // overflows (zipf/jcch track thousands of distinct keys).
    for (name, workload) in &workload_grid() {
        let wl = generate(workload);
        let config = StatsConfig::for_budget_pages(4, 4096);
        let baseline =
            StatsCollector::collect_parallel(config, &wl.s, 1).expect("1-thread collection");
        assert_eq!(baseline.stream_len() as usize, wl.s.num_records(), "{name}");
        for threads in [2usize, 4, 8] {
            let summary = StatsCollector::collect_parallel(config, &wl.s, threads)
                .expect("parallel collection");
            assert_eq!(
                summary, baseline,
                "{name}: summary diverged at {threads} threads"
            );
        }
    }
}

/// Shared body of the recorder differential checks: a recorder-off
/// sequential baseline against recorder-on parallel runs at 1/2/4/8
/// workers. Recording must not change the join output or the per-phase
/// modeled I/O, and every recorded trace must carry the expected
/// main-thread phases, the listed histograms and worker timelines made of
/// task spans.
fn assert_recording_is_invisible(
    label: &str,
    baseline: &JoinRunReport,
    expected_phases: &[Phase],
    expected_histograms: &[&str],
    run: impl Fn(usize, &Obs) -> JoinRunReport,
) {
    assert!(
        baseline.trace.is_none(),
        "{label}: Obs::off() must not attach a trace"
    );
    for threads in [1usize, 2, 4, 8] {
        let obs = Obs::recording();
        let traced = run(threads, &obs);
        assert_eq!(
            traced.output_records, baseline.output_records,
            "{label}: recording changed the join output at {threads} threads"
        );
        assert_eq!(
            traced.partition_io, baseline.partition_io,
            "{label}: recording changed the partition-phase I/O at {threads} threads"
        );
        assert_eq!(
            traced.probe_io, baseline.probe_io,
            "{label}: recording changed the probe-phase I/O at {threads} threads"
        );
        let trace = traced
            .trace
            .as_ref()
            .expect("a recording run attaches its trace to the report");
        for &phase in expected_phases {
            assert!(
                trace.phase_secs(phase) > 0.0,
                "{label}: phase {phase} missing from the trace at {threads} threads"
            );
        }
        for &hist in expected_histograms {
            assert!(
                trace.histograms.contains_key(hist),
                "{label}: histogram {hist} missing at {threads} threads"
            );
        }
        // Every worker span is one claimed task, so a worker that claimed
        // nothing records nothing: the recorded workers are a non-empty
        // subset of the pool.
        let worker_spans: Vec<_> = trace.spans.iter().filter(|s| s.worker.is_some()).collect();
        assert!(
            !worker_spans.is_empty(),
            "{label}: no worker timeline at {threads} threads"
        );
        for span in worker_spans {
            assert!(
                span.task.is_some(),
                "{label}: a worker span without a task index at {threads} threads: {span:?}"
            );
            assert!(
                span.worker.is_some_and(|w| w < threads),
                "{label}: worker id out of range at {threads} threads: {span:?}"
            );
        }
    }
}

#[test]
fn nocap_trace_recording_changes_nothing_and_captures_the_execution_shape() {
    let workload = Workload::Synthetic(Correlation::Zipf { alpha: 1.1 });
    let spec = JoinSpec::paper_synthetic(128, 48);
    let join = NocapJoin::new(spec, NocapConfig::default());
    let wl = generate(&workload);
    let baseline = join.run(&wl.r, &wl.s, &wl.mcvs).expect("recorder-off run");
    assert_recording_is_invisible(
        "nocap",
        &baseline,
        &[Phase::Partition, Phase::Probe, Phase::Total],
        &["partition_records", "partition_pages"],
        |threads, obs| {
            let wl = generate(&workload);
            join.run_parallel_obs(&wl.r, &wl.s, &wl.mcvs, threads, obs)
                .expect("recorded run")
        },
    );
}

#[test]
fn dhh_trace_recording_changes_nothing_and_captures_the_execution_shape() {
    let workload = Workload::Synthetic(Correlation::Zipf { alpha: 1.1 });
    let spec = JoinSpec::paper_synthetic(128, 48);
    let dhh = DhhJoin::with_defaults(spec);
    let wl = generate(&workload);
    let baseline = dhh.run(&wl.r, &wl.s, &wl.mcvs).expect("recorder-off run");
    assert_recording_is_invisible(
        "dhh",
        &baseline,
        &[Phase::Partition, Phase::Probe, Phase::Total],
        &["partition_records", "partition_pages"],
        |threads, obs| {
            let wl = generate(&workload);
            dhh.run_parallel_obs(&wl.r, &wl.s, &wl.mcvs, threads, obs)
                .expect("recorded run")
        },
    );
}

#[test]
fn smj_trace_recording_changes_nothing_and_captures_the_execution_shape() {
    let workload = Workload::Synthetic(Correlation::Zipf { alpha: 1.1 });
    let spec = JoinSpec::paper_synthetic(128, 32);
    let smj = SortMergeJoin::new(spec);
    let wl = generate(&workload);
    let baseline = smj.run(&wl.r, &wl.s).expect("recorder-off run");
    assert_recording_is_invisible(
        "smj",
        &baseline,
        &[Phase::SortRunGen, Phase::Merge, Phase::Total],
        &["run_pages", "final_run_pages"],
        |threads, obs| {
            let wl = generate(&workload);
            smj.run_parallel_obs(&wl.r, &wl.s, threads, obs)
                .expect("recorded run")
        },
    );
}

/// Shared body of the traced-device differential checks: the same join on a
/// `TracedDevice(SimDevice)` with I/O recording on must reproduce the
/// bare-device recorder-off baseline bit for bit at every thread count, and
/// the captured event stream must audit *exactly* against the engine's own
/// per-phase counter snapshots — zero model-audit mismatches, no events
/// outside the marker windows, and the two non-empty windows folding to
/// precisely `partition_io` and `probe_io`.
fn assert_traced_run_audits_exactly(
    label: &str,
    workload: &Workload,
    baseline: &JoinRunReport,
    run: impl Fn(&GeneratedWorkload, usize, &Obs) -> JoinRunReport,
) {
    for threads in [1usize, 2, 4, 8] {
        let device = TracedDevice::new_ref(SimDevice::new_ref());
        let wl = generate_on(device, workload);
        let obs = Obs::recording();
        let traced = run(&wl, threads, &obs);
        assert_eq!(
            traced.output_records, baseline.output_records,
            "{label}: the traced device changed the join output at {threads} threads"
        );
        assert_eq!(
            traced.partition_io, baseline.partition_io,
            "{label}: the traced device changed the partition-phase I/O at {threads} threads"
        );
        assert_eq!(
            traced.probe_io, baseline.probe_io,
            "{label}: the traced device changed the probe-phase I/O at {threads} threads"
        );
        let trace = traced
            .trace
            .as_ref()
            .expect("a recording run attaches its trace to the report");
        assert!(
            !trace.io_events.is_empty(),
            "{label}: no I/O events captured at {threads} threads"
        );
        let audit = IoAudit::from_trace(trace, DeviceProfile::default());
        assert!(
            audit.mismatches().is_empty(),
            "{label}: model audit mismatched at {threads} threads\n{}",
            audit.report_text()
        );
        assert_eq!(
            audit.leading_events, 0,
            "{label}: events before the first marker at {threads} threads"
        );
        assert_eq!(
            audit.trailing_events, 0,
            "{label}: events after the last marker at {threads} threads"
        );
        // Every observed page access folds into exactly one marker window,
        // and the two windows with any traffic are the engine's own
        // partition-pass and probe-pass deltas.
        let busy: Vec<_> = audit
            .windows
            .iter()
            .filter(|w| w.expected.total() > 0)
            .collect();
        assert_eq!(
            busy.len(),
            2,
            "{label}: expected exactly the partition and probe windows to \
             carry I/O at {threads} threads"
        );
        assert_eq!(
            busy[0].folded, traced.partition_io,
            "{label}: traced events disagree with the partition-phase \
             counters at {threads} threads"
        );
        assert_eq!(
            busy[1].folded, traced.probe_io,
            "{label}: traced events disagree with the probe-phase counters \
             at {threads} threads"
        );
        // The declaration audit cross-checks every access pattern the engine
        // declares; a flag here means some path lies about its `IoKind`.
        assert!(
            audit.flagged_declarations().is_empty(),
            "{label}: declared I/O kinds contradict observed access patterns \
             at {threads} threads\n{}",
            audit.report_text()
        );
    }
}

#[test]
fn nocap_traced_device_runs_are_identical_and_audit_exactly() {
    let workload = Workload::Synthetic(Correlation::Zipf { alpha: 1.1 });
    let spec = JoinSpec::paper_synthetic(128, 48);
    let join = NocapJoin::new(spec, NocapConfig::default());
    let wl = generate(&workload);
    let baseline = join.run(&wl.r, &wl.s, &wl.mcvs).expect("recorder-off run");
    assert_traced_run_audits_exactly("nocap", &workload, &baseline, |wl, threads, obs| {
        join.run_parallel_obs(&wl.r, &wl.s, &wl.mcvs, threads, obs)
            .expect("traced run")
    });
}

#[test]
fn dhh_traced_device_runs_are_identical_and_audit_exactly() {
    let workload = Workload::Synthetic(Correlation::Zipf { alpha: 1.1 });
    let spec = JoinSpec::paper_synthetic(128, 48);
    let dhh = DhhJoin::with_defaults(spec);
    let wl = generate(&workload);
    let baseline = dhh.run(&wl.r, &wl.s, &wl.mcvs).expect("recorder-off run");
    assert_traced_run_audits_exactly("dhh", &workload, &baseline, |wl, threads, obs| {
        dhh.run_parallel_obs(&wl.r, &wl.s, &wl.mcvs, threads, obs)
            .expect("traced run")
    });
}

#[test]
fn smj_traced_device_runs_are_identical_and_audit_exactly() {
    let workload = Workload::Synthetic(Correlation::Zipf { alpha: 1.1 });
    let spec = JoinSpec::paper_synthetic(128, 32);
    let smj = SortMergeJoin::new(spec);
    let wl = generate(&workload);
    let baseline = smj.run(&wl.r, &wl.s).expect("recorder-off run");
    assert_traced_run_audits_exactly("smj", &workload, &baseline, |wl, threads, obs| {
        smj.run_parallel_obs(&wl.r, &wl.s, threads, obs)
            .expect("traced run")
    });
}

#[test]
fn disarmed_fault_and_checksum_layers_are_invisible_to_the_determinism_pins() {
    // The fault-tolerance stack compiled in but switched off must be free:
    // a disarmed FaultDevice plus a CheckedDevice produce bit-identical
    // output, per-phase modeled I/O and device counters at every thread
    // count, with zero fault or retry activity — so the rest of this file's
    // pins hold unchanged with the layers in place.
    let workload = Workload::Synthetic(Correlation::Zipf { alpha: 1.1 });
    let spec = JoinSpec::paper_synthetic(128, 48);
    let join = NocapJoin::new(spec, NocapConfig::default());
    let wl = generate(&workload);
    let baseline = join.run(&wl.r, &wl.s, &wl.mcvs).expect("bare-device run");
    let base_stats = wl.r.device().stats();
    for threads in [1usize, 2, 4, 8] {
        let sim = std::sync::Arc::new(SimDevice::new());
        let fault = FaultDevice::new_arc(sim.clone() as DeviceRef, FaultPlan::persistent(7, 200));
        let checked = CheckedDevice::new_arc(fault.clone() as DeviceRef, RetryPolicy::default());
        let wl = generate_on(checked.clone() as DeviceRef, &workload);
        let report = join
            .run_parallel(&wl.r, &wl.s, &wl.mcvs, threads)
            .expect("run through the disarmed stack");
        assert_eq!(report.output_records, baseline.output_records);
        assert_eq!(report.partition_io, baseline.partition_io);
        assert_eq!(report.probe_io, baseline.probe_io);
        assert_eq!(
            checked.stats(),
            base_stats,
            "disarmed wrappers must not perturb the device counters"
        );
        assert_eq!(fault.fault_stats(), FaultStats::default());
        assert_eq!(checked.retry_stats(), RetryStats::default());
    }
}

#[test]
fn buffer_pool_quota_accounting_survives_a_barrier_stress_test() {
    const THREADS: usize = 8;
    const ROUNDS: usize = 60;
    let pool = BufferPool::new(THREADS * 4);
    let barrier = Barrier::new(THREADS);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let pool = pool.clone();
            let barrier = &barrier;
            scope.spawn(move || {
                for round in 0..ROUNDS {
                    // Line everyone up so every round contends for real.
                    barrier.wait();
                    // Deterministic per-thread pattern; over-asking is part
                    // of the test — failures must not corrupt accounting.
                    let ask = (t * 7 + round * 3) % 9;
                    match pool.reserve(ask) {
                        Ok(r) => {
                            assert!(pool.in_use() <= pool.capacity());
                            // A second reservation on top of the first,
                            // released before it: nested guards contend too.
                            if let Ok(extra) = pool.reserve(2) {
                                assert!(pool.in_use() <= pool.capacity());
                                drop(extra);
                            }
                            assert!(pool.in_use() <= pool.capacity());
                            drop(r);
                        }
                        Err(_) => {
                            assert!(pool.in_use() <= pool.capacity());
                        }
                    }
                    barrier.wait();
                }
            });
        }
    });
    assert_eq!(pool.in_use(), 0, "all reservations must be released");
    assert!(pool.peak() <= pool.capacity(), "budget was over-committed");
}

#[test]
fn carved_worker_quotas_conserve_the_budget() {
    let pool = BufferPool::new(37);
    let _fixed = pool.reserve(5).unwrap();
    // Asks for 36 pages where 32 remain: the last quota is cut short.
    let quotas = pool.carve_quotas(&[6; 6]);
    let sizes: Vec<usize> = quotas.iter().map(|q| q.pages()).collect();
    assert_eq!(
        sizes,
        [6, 6, 6, 6, 6, 2],
        "quotas must never exceed the budget"
    );
    assert_eq!(pool.available(), 0);
    // Workers release their quotas independently.
    std::thread::scope(|scope| {
        for quota in quotas {
            scope.spawn(move || drop(quota));
        }
    });
    assert_eq!(pool.in_use(), 5, "only the fixed reservation remains");
}
