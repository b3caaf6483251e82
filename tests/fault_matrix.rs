//! The differential fault matrix: every join executor against a
//! `TracedDevice` over `SimDevice` with a fault schedule and a retry
//! policy (checksums and bounded retry), pinned both ways:
//!
//! * **Recoverable schedules** (transient errors, corrupt reads, latency
//!   spikes) must be absorbed by checksums and bounded retry: the run
//!   succeeds with the fault-free output, and — for error-only schedules,
//!   where every injected failure is stopped *before* the inner device —
//!   with bit-identical per-phase modeled [`IoStats`] too.
//! * **Persistent schedules** must fail *cleanly*: a `Result::Err` carrying
//!   the injected fault (never a panic, never a secondary `Cancelled` /
//!   `WorkerPanicked` shadow), zero leaked spill files or pages on the base
//!   device, and an engine that runs the very next join correctly once the
//!   fault clears.
//!
//! Both halves run at 1, 2, 4 and 8 worker threads: under concurrent
//! execution the *placement* of an injected fault is schedule-dependent, but
//! recovery and fail-clean behavior must not be.
//!
//! [`IoStats`]: nocap_suite::storage::IoStats

use std::sync::Arc;

use nocap_suite::joins::{DhhJoin, GraceHashJoin, SortMergeJoin};
use nocap_suite::model::{JoinRunReport, JoinSpec};
use nocap_suite::nocap::{NocapConfig, NocapJoin};
use nocap_suite::obs::{Obs, Phase};
use nocap_suite::par::page_morsels;
use nocap_suite::storage::device::DeviceRef;
use nocap_suite::storage::{
    BlockDevice, FaultKind, FaultPlan, FaultSpec, FileDevice, IoKind, IoOp, Page, RecordLayout,
    RecordRef, Result, RetryPolicy, SimDevice, StorageError, TracedDevice,
};
use nocap_suite::workload::{synthetic, Correlation, GeneratedWorkload, SyntheticConfig};

/// Budget used by every run in the matrix: small enough that every
/// executor spills (so the fault schedule can hit spill writes and re-reads,
/// not just the base-relation scan).
const BUDGET_PAGES: usize = 48;

fn workload_config() -> SyntheticConfig {
    SyntheticConfig {
        n_r: 2_000,
        n_s: 16_000,
        record_bytes: 128,
        correlation: Correlation::Zipf { alpha: 1.1 },
        mcv_count: 200,
        seed: 0xFA17,
    }
}

/// Generates the matrix workload on `device` and resets the I/O counters, so
/// every comparison below sees run-only stats.
fn generate_on(device: DeviceRef) -> GeneratedWorkload {
    let wl = synthetic::generate(device.clone(), &workload_config()).expect("workload");
    device.reset_stats();
    wl
}

/// Retry policy for the matrix: generous enough to outlast the widest
/// recoverable schedule (3 transient failures + 2 corruptions can pile onto
/// one logical read), no backoff sleeps.
fn patient() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 8,
        backoff_micros: 0,
    }
}

#[derive(Clone, Copy)]
enum Join {
    Nocap,
    Dhh,
    Histojoin,
    Ghj,
    Smj,
}

impl Join {
    fn all() -> [Join; 5] {
        [
            Join::Nocap,
            Join::Dhh,
            Join::Histojoin,
            Join::Ghj,
            Join::Smj,
        ]
    }

    fn name(&self) -> &'static str {
        match self {
            Join::Nocap => "nocap",
            Join::Dhh => "dhh",
            Join::Histojoin => "histojoin",
            Join::Ghj => "ghj",
            Join::Smj => "smj",
        }
    }

    fn run(&self, wl: &GeneratedWorkload, threads: usize) -> Result<JoinRunReport> {
        self.run_obs(wl, threads, &Obs::off())
    }

    fn run_obs(&self, wl: &GeneratedWorkload, threads: usize, obs: &Obs) -> Result<JoinRunReport> {
        let spec = JoinSpec::paper_synthetic(128, BUDGET_PAGES);
        let (r, s, mcvs) = (&wl.r, &wl.s, &wl.mcvs);
        match self {
            Join::Nocap => NocapJoin::new(spec, NocapConfig::default())
                .run_parallel_obs(r, s, mcvs, threads, obs),
            Join::Dhh => DhhJoin::with_defaults(spec).run_parallel_obs(r, s, mcvs, threads, obs),
            Join::Histojoin => DhhJoin::histojoin(spec).run_parallel_obs(r, s, mcvs, threads, obs),
            Join::Ghj => GraceHashJoin::new(spec).run_parallel_obs(r, s, threads, obs),
            Join::Smj => SortMergeJoin::new(spec).run_parallel_obs(r, s, threads, obs),
        }
    }
}

/// The faulted device, with concrete handles kept on it and on the base
/// device so tests can arm the schedule and read the fault/retry/leak
/// oracles.
struct FaultRig {
    sim: Arc<SimDevice>,
    dev: Arc<TracedDevice>,
    wl: GeneratedWorkload,
}

fn rig(specs: Vec<FaultSpec>, policy: RetryPolicy) -> FaultRig {
    let sim = Arc::new(SimDevice::new());
    let dev = Arc::new(
        TracedDevice::new(sim.clone() as DeviceRef)
            .with_faults(specs)
            .with_retry(policy),
    );
    let wl = generate_on(dev.clone() as DeviceRef);
    FaultRig { sim, dev, wl }
}

#[test]
fn transient_schedules_recover_to_the_fault_free_output_at_every_thread_count() {
    // Two seeded schedules: `transient` mixes errors, corrupt reads and a
    // latency spike; `errors_only` drops the corrupt reads, so every
    // injected failure stops before the inner device and the per-phase
    // modeled I/O must equal the fault-free run's as well.
    for (i, join) in Join::all().iter().enumerate() {
        let base_wl = generate_on(SimDevice::new_ref());
        let baseline = join.run(&base_wl, 1).expect("fault-free baseline");
        let seed = 0xA11CE + i as u64;
        let schedules = [
            ("transient", FaultPlan::transient(seed, 400)),
            ("errors_only", FaultPlan::errors_only(seed, 400)),
        ];
        for (schedule, specs) in schedules {
            for threads in [1usize, 2, 4, 8] {
                let at = format!("{} under {schedule} at {threads} threads", join.name());
                let rig = rig(specs.clone(), patient());
                rig.dev.arm();
                let report = join
                    .run(&rig.wl, threads)
                    .expect("a recoverable schedule must be retried to success");
                assert_eq!(
                    report.output_records,
                    rig.wl.expected_join_output(),
                    "{at}: wrong output"
                );
                assert_eq!(
                    report.output_records, baseline.output_records,
                    "{at}: faulted run diverged from the fault-free baseline"
                );
                if schedule == "errors_only" {
                    assert_eq!(
                        (report.partition_io, report.probe_io),
                        (baseline.partition_io, baseline.probe_io),
                        "{at}: recovered errors perturbed the per-phase modeled I/O"
                    );
                }
                let fs = rig.dev.fault_stats();
                assert!(
                    fs.injected_errors + fs.injected_corruptions + fs.injected_delays > 0,
                    "{at}: the schedule never fired — the matrix pinned nothing"
                );
                let rs = rig.dev.retry_stats();
                assert!(
                    rs.recovered > 0,
                    "{at}: injected errors must have been recovered, not avoided"
                );
                assert_eq!(
                    rs.exhausted, 0,
                    "{at}: no operation may run out of attempts on a recoverable schedule"
                );
            }
        }
    }
}

#[test]
fn error_only_schedules_leave_output_and_modeled_io_bit_identical() {
    // Injected *errors* fail the op before it reaches the inner device, so a
    // fully retried run must carry exactly the fault-free modeled counters —
    // the property that lets the determinism pins coexist with the fault
    // layer. (Corrupt reads are excluded here: catching one costs an honest
    // physical re-read, which the corruption test below accounts for.)
    let schedule = || {
        vec![
            FaultSpec::any(FaultKind::TransientError { failures: 3 })
                .reads()
                .after(23),
            FaultSpec::any(FaultKind::TransientError { failures: 2 })
                .appends()
                .after(7),
            FaultSpec::any(FaultKind::TransientError { failures: 2 })
                .reads()
                .after(301),
        ]
    };
    for join in Join::all() {
        let base_wl = generate_on(SimDevice::new_ref());
        let baseline = join.run(&base_wl, 1).expect("fault-free baseline");
        let base_stats = base_wl.r.device().stats();
        for threads in [1usize, 4] {
            let rig = rig(schedule(), patient());
            rig.dev.arm();
            let report = join
                .run(&rig.wl, threads)
                .expect("transient errors must be retried to success");
            assert_eq!(
                report.output_records,
                baseline.output_records,
                "{}",
                join.name()
            );
            assert_eq!(
                report.partition_io,
                baseline.partition_io,
                "{}: partition-phase modeled I/O perturbed at {threads} threads",
                join.name()
            );
            assert_eq!(
                report.probe_io,
                baseline.probe_io,
                "{}: probe-phase modeled I/O perturbed at {threads} threads",
                join.name()
            );
            assert_eq!(
                rig.dev.stats(),
                base_stats,
                "{}: injected errors leaked into the device counters at {threads} threads",
                join.name()
            );
            let fs = rig.dev.fault_stats();
            assert_eq!(
                fs.injected_errors,
                7,
                "{}: all three windows (3+2+2) must fire in full",
                join.name()
            );
            let rs = rig.dev.retry_stats();
            assert_eq!(rs.read_retries, 5, "{}", join.name());
            assert_eq!(rs.append_retries, 2, "{}", join.name());
            assert_eq!(rs.checksum_failures, 0, "{}", join.name());
            assert_eq!(rs.exhausted, 0, "{}", join.name());
        }
    }
}

#[test]
fn corruption_is_caught_by_checksums_and_retried_to_the_correct_output() {
    // Bit-flips on reads: the fault schedule flips one body bit in a private
    // copy, the device's out-of-band checksum catches every flip, and
    // an honest re-read recovers. Output must be exact; the re-reads make
    // the physical counters legitimately larger, so they are not compared.
    let schedule = || {
        vec![
            FaultSpec::any(FaultKind::CorruptRead { failures: 2 })
                .reads()
                .after(50),
            FaultSpec::any(FaultKind::CorruptRead { failures: 1 })
                .reads()
                .after(400),
        ]
    };
    for join in Join::all() {
        for threads in [1usize, 4] {
            let rig = rig(schedule(), patient());
            rig.dev.arm();
            let report = join
                .run(&rig.wl, threads)
                .expect("corrupted reads must be caught and re-driven");
            assert_eq!(
                report.output_records,
                rig.wl.expected_join_output(),
                "{}: corruption reached the join output at {threads} threads",
                join.name()
            );
            let fs = rig.dev.fault_stats();
            assert_eq!(
                fs.injected_corruptions,
                3,
                "{}: both corruption windows (2+1) must fire in full",
                join.name()
            );
            let rs = rig.dev.retry_stats();
            assert_eq!(
                rs.checksum_failures,
                3,
                "{}: every flipped page must be caught by its checksum",
                join.name()
            );
            assert_eq!(rs.read_retries, 3, "{}", join.name());
            assert_eq!(rs.exhausted, 0, "{}", join.name());
        }
    }
}

#[test]
fn persistent_faults_fail_cleanly_with_zero_leaked_files_or_pages() {
    for (i, join) in Join::all().iter().enumerate() {
        let seed = 0xD15C + i as u64;
        for threads in [1usize, 2, 4, 8] {
            let rig = rig(FaultPlan::persistent(seed, 300), patient());
            let base_pages = rig.wl.r.num_pages() + rig.wl.s.num_pages();
            rig.dev.arm();
            let err = join
                .run(&rig.wl, threads)
                .expect_err("a persistent read fault cannot be retried away");
            // The surfaced error must be the injected fault itself — never a
            // panic, and never the Cancelled/WorkerPanicked shadows the
            // cancellation machinery uses internally.
            assert!(
                matches!(err, StorageError::Io(_) | StorageError::CorruptPage(_)),
                "{}: root cause must be the injected fault at {threads} threads, got: {err}",
                join.name()
            );
            assert_eq!(
                rig.sim.live_files(),
                2,
                "{}: spill files leaked after a failed run at {threads} threads",
                join.name()
            );
            assert_eq!(
                rig.sim.resident_pages(),
                base_pages,
                "{}: spill pages leaked after a failed run at {threads} threads",
                join.name()
            );
            // The engine and device must remain fully serviceable: once the
            // fault clears, the same relations join correctly (locks are not
            // poisoned, no partial state lingers).
            rig.dev.disarm();
            let report = join
                .run(&rig.wl, threads)
                .expect("the engine must survive a failed run intact");
            assert_eq!(
                report.output_records,
                rig.wl.expected_join_output(),
                "{}: post-failure rerun produced wrong output at {threads} threads",
                join.name()
            );
        }
    }
}

#[test]
fn a_failed_base_read_stops_the_sibling_scans() {
    // The first read of one input's file fails, with no retry layer to
    // absorb it. Each partition scan is a run of page-morsel tasks; the
    // failing task trips the run's cancel token, and a worker polls it
    // before it claims a morsel, so from the trip on each sibling reads at
    // most the one morsel it was reading or had just claimed — not the
    // rest of the relation. The bound counts from the trip, not from the
    // failed read: how long the failing worker takes between the two is
    // the scheduler's choice. The trace marks the trip: the failed task's
    // span ends after it, and it is the one scan task whose worker read
    // nothing in it.
    let probe = generate_on(SimDevice::new_ref());
    let sides = [
        ("S", probe.s.file(), probe.s.num_pages()),
        ("R", probe.r.file(), probe.r.num_pages()),
    ];
    for (side, file, pages) in sides {
        for join in [Join::Nocap, Join::Dhh, Join::Histojoin, Join::Ghj] {
            for threads in [2usize, 4, 8] {
                let at = format!("{} at {threads} threads, {side} failing", join.name());
                let sim = Arc::new(SimDevice::new());
                let fault = Arc::new(TracedDevice::new(sim.clone() as DeviceRef).with_faults(
                    vec![FaultSpec::any(FaultKind::TransientError { failures: 1 })
                        .reads()
                        .on_file(file)],
                ));
                let wl = generate_on(fault.clone() as DeviceRef);
                assert_eq!(
                    (wl.r.file(), wl.s.file()),
                    (probe.r.file(), probe.s.file()),
                    "generation assigns the same files on every device"
                );
                fault.arm();
                let obs = Obs::recording();
                let err = join
                    .run_obs(&wl, threads, &obs)
                    .expect_err("an unretried read fault fails the join");
                assert!(
                    matches!(&err, StorageError::Io(msg) if msg.contains("injected transient fault")),
                    "{at}: the join must return the injected error, got: {err}"
                );
                assert_eq!(fault.fault_stats().injected_errors, 1, "{at}");
                let trace = obs.take_trace().expect("a recording run has a trace");
                let reads = || trace.io_events.iter().filter(|e| e.op == IoOp::Read);
                let failed: Vec<u64> = trace
                    .spans
                    .iter()
                    .filter(|span| span.worker.is_some() && span.phase == Phase::Partition)
                    .filter(|span| {
                        !reads().any(|e| {
                            e.worker == span.worker
                                && (span.start_ns..=span.end_ns).contains(&e.t_ns)
                        })
                    })
                    .map(|span| span.end_ns)
                    .collect();
                assert_eq!(failed.len(), 1, "{at}: one scan task read nothing");
                let read_after = reads()
                    .filter(|e| e.file == file && e.t_ns > failed[0])
                    .count();
                let bound = (threads - 1) * page_morsels(pages, threads)[0].len();
                assert!(
                    read_after <= bound,
                    "{at}: {read_after} of {pages} pages read after the token tripped (bound {bound})"
                );
                assert_eq!(sim.live_files(), 2, "{at}: spill files leaked");
            }
        }
    }
}

#[test]
fn a_persistent_fault_fails_run_exactly_like_run_parallel_at_one_worker() {
    // The sequential entry points have no body of their own: `run` must
    // meet a persistent schedule exactly as `run_parallel(1)` does — at one
    // worker the operation order is deterministic, so the same injected
    // fault surfaces as the same error — and leave nothing behind either.
    let spec = JoinSpec::paper_synthetic(128, BUDGET_PAGES);
    let nocap = NocapJoin::new(spec, NocapConfig::default());
    let dhh = DhhJoin::with_defaults(spec);
    let ghj = GraceHashJoin::new(spec);
    type Run<'a> = &'a dyn Fn(&GeneratedWorkload) -> Result<JoinRunReport>;
    let joins: [(&str, Run, Run); 3] = [
        ("nocap", &|wl| nocap.run(&wl.r, &wl.s, &wl.mcvs), &|wl| {
            nocap.run_parallel(&wl.r, &wl.s, &wl.mcvs, 1)
        }),
        ("dhh", &|wl| dhh.run(&wl.r, &wl.s, &wl.mcvs), &|wl| {
            dhh.run_parallel(&wl.r, &wl.s, &wl.mcvs, 1)
        }),
        ("ghj", &|wl| ghj.run(&wl.r, &wl.s), &|wl| {
            ghj.run_parallel(&wl.r, &wl.s, 1)
        }),
    ];
    for (i, (name, run, run_parallel_1)) in joins.into_iter().enumerate() {
        let fail = |join: Run| {
            let rig = rig(FaultPlan::persistent(0xD15C + i as u64, 300), patient());
            rig.dev.arm();
            let err = join(&rig.wl).expect_err("a persistent fault cannot be retried away");
            assert_eq!(rig.sim.live_files(), 2, "{name}: spill files leaked");
            assert_eq!(
                rig.sim.resident_pages(),
                rig.wl.r.num_pages() + rig.wl.s.num_pages(),
                "{name}: spill pages leaked"
            );
            err
        };
        let err = fail(run);
        assert!(
            matches!(err, StorageError::Io(_) | StorageError::CorruptPage(_)),
            "{name}: `run` must surface the injected fault, got: {err}"
        );
        assert_eq!(err, fail(run_parallel_1), "{name}");
    }
}

#[test]
fn fault_device_over_file_device_keeps_modeled_io_bit_identical_to_sim() {
    // Satellite pin for the phantom-I/O bugfix: the block-layer FileDevice
    // must count exactly like SimDevice even while errors are being injected
    // and retried around it, and even while a *real* torn write fails one of
    // its own flush syscalls mid-run. Before the fix, `stats.record` fired
    // before the syscalls, so every retried failure inflated the modeled
    // counters and this differential could not hold.
    let schedule = || {
        vec![
            FaultSpec::any(FaultKind::TransientError { failures: 3 })
                .reads()
                .after(23),
            FaultSpec::any(FaultKind::TransientError { failures: 2 })
                .appends()
                .after(7),
            FaultSpec::any(FaultKind::TransientError { failures: 2 })
                .reads()
                .after(301),
        ]
    };
    for join in Join::all() {
        let base_wl = generate_on(SimDevice::new_ref());
        let baseline = join.run(&base_wl, 1).expect("fault-free baseline");
        let base_stats = base_wl.r.device().stats();
        for threads in [1usize, 4] {
            // torn_append_after(75): workload generation issues exactly 72
            // coalesced physical writes, so the injected torn write lands
            // inside the join run's own spill traffic (wherever it lands,
            // the retry policy must absorb it without perturbing the modeled
            // counters).
            let file_dev = Arc::new(
                FileDevice::builder()
                    .torn_append_after(75)
                    .build()
                    .expect("file device"),
            );
            let dev = Arc::new(
                TracedDevice::new(file_dev.clone() as DeviceRef)
                    .with_faults(schedule())
                    .with_retry(patient()),
            );
            let wl = generate_on(dev.clone() as DeviceRef);
            dev.arm();
            let report = join
                .run(&wl, threads)
                .expect("transient faults over a real device must be retried to success");
            assert_eq!(
                report.output_records,
                baseline.output_records,
                "{}: wrong output on the faulted block layer at {threads} threads",
                join.name()
            );
            assert_eq!(
                dev.stats(),
                base_stats,
                "{}: FileDevice modeled I/O diverged from SimDevice under faults \
                 at {threads} threads (phantom I/Os counted?)",
                join.name()
            );
            assert_eq!(
                dev.fault_stats().injected_errors,
                7,
                "{}: all three windows (3+2+2) must fire in full",
                join.name()
            );
            assert_eq!(
                file_dev.block_stats().torn_writes_repaired,
                1,
                "{}: the injected torn write must fire and be repaired",
                join.name()
            );
            let rs = dev.retry_stats();
            assert!(rs.recovered > 0, "{}", join.name());
            assert_eq!(rs.exhausted, 0, "{}", join.name());
        }
    }
}

#[test]
fn file_device_on_disk_bit_flip_is_caught_and_service_restored_after_repair() {
    // The same checksum layer over a real filesystem: corrupt the backing
    // file directly on disk, watch CorruptPage surface through the bounded
    // retry, then repair the byte and watch the device serve reads again.
    fn page_with(keys: &[u64]) -> Page {
        let mut p = Page::empty(256, RecordLayout::new(8));
        for &k in keys {
            assert!(p.push_ref(RecordRef::new(k, &[0; 8])).unwrap());
        }
        p
    }

    let file_dev = Arc::new(FileDevice::new_temp().expect("temp device"));
    let dir = file_dev.dir().clone();
    let checked = Arc::new(TracedDevice::new(file_dev.clone() as DeviceRef).with_retry(
        RetryPolicy {
            max_attempts: 3,
            backoff_micros: 0,
        },
    ));
    let f = checked.create_file();
    let pages: Vec<Page> = (0..3)
        .map(|p| page_with(&[p * 100 + 1, p * 100 + 2, p * 100 + 3]))
        .collect();
    for page in &pages {
        checked
            .append_page(f, page, IoKind::SeqWrite)
            .expect("append");
    }

    // Make the write-behind tail durable, then flip one body byte of page 1
    // directly in the backing file (the block layer namespaces its backing
    // files per device instance, so ask it for the real path).
    file_dev.flush().expect("flush write-behind tail");
    let path = file_dev.backing_path(f).expect("backing path");
    assert!(path.starts_with(&dir));
    let flip = |offset: usize| {
        let mut bytes = std::fs::read(&path).expect("read backing file");
        bytes[offset] ^= 0x40;
        std::fs::write(&path, bytes).expect("write backing file");
    };
    let corrupt_at = 256 + 4 + 3; // page 1, past the 4-byte header
    flip(corrupt_at);

    let err = checked
        .read_page(f, 1, IoKind::RandRead)
        .expect_err("the checksum must catch an on-disk bit flip");
    assert!(matches!(err, StorageError::CorruptPage(_)), "{err}");
    assert_eq!(
        checked.retry_stats().checksum_failures,
        3,
        "every attempt re-reads the corrupt page and fails verification"
    );
    assert_eq!(checked.retry_stats().exhausted, 1);

    // Neighboring pages are unaffected.
    assert_eq!(
        checked
            .read_page(f, 0, IoKind::RandRead)
            .expect("clean page")
            .as_bytes(),
        pages[0].as_bytes()
    );
    assert_eq!(
        checked
            .read_page(f, 2, IoKind::RandRead)
            .expect("clean page")
            .as_bytes(),
        pages[2].as_bytes()
    );

    // Repair the byte: the device serves the original page again.
    flip(corrupt_at);
    assert_eq!(
        checked
            .read_page(f, 1, IoKind::RandRead)
            .expect("repaired page verifies")
            .as_bytes(),
        pages[1].as_bytes()
    );
}
