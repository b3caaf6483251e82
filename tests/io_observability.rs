//! Device-level I/O observability guarantees:
//!
//! 1. `FileDevice` is safe under concurrent writers and readers: the
//!    `ordered_tasks` pool appends and reads disjoint files in parallel and
//!    every byte round-trips, with the I/O counters conserving the exact
//!    operation count.
//! 2. A `FileDevice` rooted at a caller-owned directory (`at_dir`) leaves
//!    its bytes on disk across a drop/reopen cycle.
//! 3. `TracedDevice` is a transparent proxy: with or without a sink
//!    attached, a `TracedDevice(SimDevice)` reproduces the bare `SimDevice`
//!    byte-for-byte and counter-for-counter at 1/2/4/8 threads, and an
//!    attached sink sees exactly one event per counted operation.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

use nocap_suite::obs::{Obs, Phase};
use nocap_suite::par::ordered_tasks;
use nocap_suite::storage::device::DeviceRef;
use nocap_suite::storage::{
    BlockDevice, FileDevice, FileId, IoEventSink, IoKind, IoMarkerKind, IoOp, IoStats, Page,
    Record, RecordLayout, SimDevice, TracedDevice,
};

fn page_with(keys: &[u64]) -> Page {
    let mut p = Page::empty(256, RecordLayout::new(8));
    for &k in keys {
        assert!(p.push(&Record::with_fill(k, 8, 0)).unwrap());
    }
    p
}

/// Deterministic per-worker workload: each worker appends `pages` pages of
/// distinct keys to its own file, reads them all back, and returns the key
/// sum. Exercises the append path, the read path and the metadata lock from
/// every thread at once.
fn write_read_sum(device: &DeviceRef, worker: usize, pages: usize) -> u64 {
    let file = device.create_file();
    for p in 0..pages {
        let key = (worker * pages + p) as u64;
        device
            .append_page(file, &page_with(&[key, key + 1]), IoKind::SeqWrite)
            .expect("append");
    }
    let mut sum = 0u64;
    for p in 0..pages {
        let page = device.read_page(file, p, IoKind::SeqRead).expect("read");
        for rec in page.records() {
            sum += rec.key();
        }
    }
    sum
}

/// Runs `f(w)` for `w` in `0..workers` on `workers` threads at once and
/// returns the results in `w` order. Every task waits at a barrier until all
/// have started, so each worker holds exactly one task and the calling
/// thread cannot drain the queue alone.
fn concurrently<T: Send>(workers: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let all_running = Barrier::new(workers);
    let (results, _) = ordered_tasks(
        workers,
        &Obs::off(),
        Phase::Partition,
        workers,
        || (),
        |_, w| {
            all_running.wait();
            Ok(f(w))
        },
    )
    .expect("workers");
    results
}

#[test]
fn file_device_supports_concurrent_writers_and_readers() {
    const WORKERS: usize = 8;
    const PAGES: usize = 24;
    let device: DeviceRef = Arc::new(FileDevice::new_temp().expect("temp device"));
    let sums = concurrently(WORKERS, |w| write_read_sum(&device, w, PAGES));
    // Every worker owns a disjoint key range, so the sums are predictable.
    for (w, sum) in sums.iter().enumerate() {
        let expected: u64 = (0..PAGES as u64)
            .map(|p| {
                let k = (w * PAGES) as u64 + p;
                k + (k + 1)
            })
            .sum();
        assert_eq!(*sum, expected, "worker {w} lost or corrupted a page");
    }
    let stats = device.stats();
    assert_eq!(stats.seq_writes, (WORKERS * PAGES) as u64);
    assert_eq!(stats.seq_reads, (WORKERS * PAGES) as u64);
}

#[test]
fn file_device_shared_file_reads_race_safely() {
    const WORKERS: usize = 8;
    const PAGES: usize = 32;
    let device: DeviceRef = Arc::new(FileDevice::new_temp().expect("temp device"));
    let file = device.create_file();
    for p in 0..PAGES as u64 {
        device
            .append_page(file, &page_with(&[p]), IoKind::SeqWrite)
            .expect("append");
    }
    // All workers hammer the same file at interleaved offsets; reads resolve
    // metadata under the lock but do the syscalls outside it.
    let sums = concurrently(WORKERS, |w| {
        let mut sum = 0u64;
        for round in 0..PAGES {
            let idx = (round + w) % PAGES;
            let page = device.read_page(file, idx, IoKind::RandRead).expect("read");
            sum += page.records().map(|r| r.key()).sum::<u64>();
        }
        sum
    });
    let expected: u64 = (0..PAGES as u64).sum();
    for (w, sum) in sums.iter().enumerate() {
        assert_eq!(*sum, expected, "worker {w} read torn or misplaced pages");
    }
    assert_eq!(device.stats().rand_reads, (WORKERS * PAGES) as u64);
}

#[test]
fn file_device_at_dir_survives_a_drop_reopen_cycle() {
    let dir = std::env::temp_dir().join(format!("nocap-reopen-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create dir");
    {
        let device = FileDevice::at_dir(dir.clone()).expect("open");
        let file = device.create_file();
        device
            .append_page(file, &page_with(&[41, 42]), IoKind::SeqWrite)
            .expect("append");
        // `at_dir` devices do not own the directory...
    }
    // ...so the bytes must survive the drop.
    let leftovers: Vec<_> = std::fs::read_dir(&dir)
        .expect("read dir")
        .map(|e| e.expect("entry").path())
        .collect();
    assert_eq!(leftovers.len(), 1, "the page file must outlive the device");
    assert_eq!(
        std::fs::metadata(&leftovers[0]).expect("metadata").len(),
        256,
        "exactly one 256-byte page was written"
    );
    // A reopened device gets its own filename namespace: it must coexist
    // with the stale leftover (as after a crash) instead of silently
    // appending to it, even though both instances assign FileId(0).
    let stale = leftovers[0].clone();
    let stale_bytes = std::fs::read(&stale).expect("stale bytes");
    let device = FileDevice::at_dir(dir.clone()).expect("reopen");
    let file = device.create_file();
    device
        .append_page(file, &page_with(&[7]), IoKind::RandWrite)
        .expect("append after reopen");
    let page = device.read_page(file, 0, IoKind::RandRead).expect("read");
    assert_eq!(page.records().map(|r| r.key()).collect::<Vec<_>>(), [7]);
    assert_ne!(
        device.backing_path(file).expect("backing path"),
        stale,
        "a reopened device must not adopt a stale backing file"
    );
    drop(device);
    assert_eq!(
        std::fs::read(&stale).expect("stale bytes after reopen"),
        stale_bytes,
        "the stale file must be untouched by the reopened device"
    );
    assert_eq!(
        std::fs::read_dir(&dir).expect("read dir").count(),
        2,
        "old and new backing files coexist"
    );
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// Counts events and markers; stands in for the full obs recorder to check
/// the proxy contract at the storage layer alone.
#[derive(Debug, Default)]
struct CountingSink {
    events: AtomicU64,
    markers: AtomicU64,
}

impl IoEventSink for CountingSink {
    fn io_event(
        &self,
        _file: FileId,
        _page: usize,
        _kind: IoKind,
        _op: IoOp,
        _latency_ns: Option<u64>,
    ) {
        self.events.fetch_add(1, Ordering::Relaxed);
    }

    fn io_marker(&self, _kind: IoMarkerKind, _stats: IoStats) {
        self.markers.fetch_add(1, Ordering::Relaxed);
    }
}

#[test]
fn traced_sim_device_is_equivalent_to_bare_at_every_thread_count() {
    const PAGES: usize = 16;
    for threads in [1usize, 2, 4, 8] {
        let run = |device: &DeviceRef| -> (Vec<u64>, IoStats) {
            let sums = concurrently(threads, |w| write_read_sum(device, w, PAGES));
            (sums, device.stats())
        };
        let bare = SimDevice::new_ref();
        let (bare_sums, bare_stats) = run(&bare);

        // Untraced wrapper: no sink attached, pure pass-through.
        let untraced = TracedDevice::new_ref(SimDevice::new_ref());
        let (untraced_sums, untraced_stats) = run(&untraced);
        assert_eq!(untraced_sums, bare_sums, "untraced diverged at {threads}");
        assert_eq!(untraced_stats, bare_stats, "untraced stats at {threads}");

        // Traced wrapper: a live sink must not perturb data or counters,
        // and must see exactly one event per counted operation.
        let sink = Arc::new(CountingSink::default());
        let traced = TracedDevice::new_ref(SimDevice::new_ref());
        traced.set_io_sink(Some(sink.clone()));
        let (traced_sums, traced_stats) = run(&traced);
        traced.set_io_sink(None);
        assert_eq!(traced_sums, bare_sums, "traced diverged at {threads}");
        assert_eq!(traced_stats, bare_stats, "traced stats at {threads}");
        assert_eq!(
            sink.events.load(Ordering::Relaxed),
            traced_stats.total(),
            "one event per counted operation at {threads} threads"
        );
        // `run` snapshots stats once per device, through the wrapper.
        assert_eq!(sink.markers.load(Ordering::Relaxed), 1);
    }
}
