//! The one [`BlockDevice`] wrapper: [`TracedDevice`] traces every page
//! access and, when configured, injects scheduled faults and re-drives
//! failed operations against out-of-band page checksums.
//!
//! **Tracing.** Every latency figure in this reproduction is *modeled*:
//! the engine declares an [`IoKind`] for each page access and
//! [`DeviceProfile`](crate::DeviceProfile) converts the counters into
//! estimated seconds. With an [`IoEventSink`] attached (normally by
//! `nocap-obs`'s `Obs::attach_io`), the wrapper reports each successful
//! inner read or append — file, page, declared kind and the measured wall
//! time of the inner call — so the audit layer can replay what actually
//! hit the device against the engine's per-phase snapshots. Counter
//! snapshots and resets are reported as [`IoMarkerKind`] markers carrying
//! the counters at that moment; because the executors only snapshot at
//! quiescent phase barriers, the events between two markers fold exactly
//! to the counter delta, which is what the model audit checks.
//!
//! **Fault injection.** A schedule of [`FaultSpec`]s, disarmed until
//! [`TracedDevice::arm`], fails, corrupts or delays reads and appends.
//! Each spec filters operations (file, declared kind, read vs append),
//! counts its own matches, and fires on a window of match indices, so the
//! same run against the same schedule hits the same faults whatever the
//! wall clock. [`FaultPlan`] derives small schedules from one seed.
//!
//! **Checksums and retry.** With a [`RetryPolicy`] set, every append
//! records an FNV-1a 64 checksum of the page *out of band* (the page
//! header size is load-bearing for the paper's records-per-page math),
//! every read of a recorded page verifies it, and [`StorageError::Io`] /
//! [`StorageError::CorruptPage`] failures are re-driven up to
//! [`RetryPolicy::max_attempts`] times with exponential backoff. Logic
//! errors (`UnknownFile`, `PageOutOfBounds`, `DiscardedPage`) are never
//! retried. Pages written below the wrapper have no checksum and skip
//! verification.
//!
//! Each read or append runs in one fixed order:
//!
//! 1. the retry loop is outermost;
//! 2. each attempt evaluates the armed schedule, advancing every matching
//!    spec's counter once (latency spikes sleep here);
//! 3. an injected error fails the attempt *before* the inner device, with
//!    no trace event and no count — the devices count only what succeeds,
//!    so a retried error leaves the modeled [`IoStats`] bit-identical to a
//!    fault-free run;
//! 4. otherwise the inner call is timed and traced, a corrupt read flips
//!    one body bit in a private copy (never the device's resident page),
//!    and the checksum is verified. Recovering a corrupt read therefore
//!    costs one honest physical re-read.
//!
//! `discard_page` and `delete_file` are never faulted and emit no event
//! (neither is an I/O in the cost model); both drop the page's checksum.
//! With no sink, no armed schedule and no retry policy the wrapper is
//! output-equivalent to the bare inner device.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

use crate::device::{BlockDevice, DeviceRef, FileId};
use crate::hash;
use crate::iostats::{IoKind, IoStats};
use crate::page::{Page, PAGE_HEADER_BYTES};
use crate::sync::{read_unpoisoned, write_unpoisoned};
use crate::{Result, StorageError};

/// Which device operation produced an I/O event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IoOp {
    /// A `read_page` call.
    Read,
    /// An `append_page` call (the page index is the newly written page).
    Append,
}

/// Which counter operation produced an I/O marker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IoMarkerKind {
    /// A `stats()` snapshot; the marker carries the returned counters.
    Snapshot,
    /// A `reset_stats()` call; the marker carries the counters *before* the
    /// reset (deltas after it restart from zero).
    Reset,
}

/// Receiver for device-level I/O events emitted by [`TracedDevice`].
///
/// Implementations are called from whatever thread performs the I/O, so they
/// must synchronize internally; the standard implementation buffers into
/// per-worker shards to keep the hot path uncontended.
pub trait IoEventSink: Send + Sync + std::fmt::Debug {
    /// One successful page access. [`TracedDevice`] always passes the
    /// measured wall time of the inner device call as `latency_ns`.
    fn io_event(&self, file: FileId, page: usize, kind: IoKind, op: IoOp, latency_ns: Option<u64>);

    /// A counter snapshot or reset, with the counter values at that moment.
    fn io_marker(&self, kind: IoMarkerKind, stats: IoStats);
}

/// Which device operations a [`FaultSpec`] applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultTarget {
    /// Only `read_page` calls.
    Reads,
    /// Only `append_page` calls.
    Appends,
    /// Both reads and appends.
    Any,
}

/// The shape of an injected fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultKind {
    /// The next `failures` matching ops fail with [`StorageError::Io`]
    /// before reaching the inner device; later matching ops succeed.
    TransientError {
        /// How many matching ops fail.
        failures: u64,
    },
    /// Every matching op from the trigger point on fails.
    PersistentError,
    /// The next `failures` matching reads return a page with one body bit
    /// flipped (chosen deterministically from the spec's match counter).
    CorruptRead {
        /// How many matching reads are corrupted.
        failures: u64,
    },
    /// The next `times` matching ops sleep for `micros` before succeeding.
    LatencySpike {
        /// Sleep duration per matching op, in microseconds.
        micros: u64,
        /// How many matching ops are delayed.
        times: u64,
    },
}

/// One entry of a fault schedule: a filter over operations plus the fault to
/// inject once `after_ops` matching operations have been seen.
#[derive(Debug, Clone)]
pub struct FaultSpec {
    /// Restrict to one file (`None` = any file).
    pub file: Option<FileId>,
    /// Restrict to one declared I/O kind (`None` = any kind).
    pub kind: Option<IoKind>,
    /// Restrict to reads, appends, or both.
    pub target: FaultTarget,
    /// The fault fires on matching ops with index `>= after_ops` (each spec
    /// counts its own matches, starting at zero, while the device is armed).
    pub after_ops: u64,
    /// What happens when the fault fires.
    pub fault: FaultKind,
}

impl FaultSpec {
    /// A spec matching every operation from the start.
    pub fn any(fault: FaultKind) -> Self {
        FaultSpec {
            file: None,
            kind: None,
            target: FaultTarget::Any,
            after_ops: 0,
            fault,
        }
    }

    /// Restricts the spec to reads.
    pub fn reads(mut self) -> Self {
        self.target = FaultTarget::Reads;
        self
    }

    /// Restricts the spec to appends.
    pub fn appends(mut self) -> Self {
        self.target = FaultTarget::Appends;
        self
    }

    /// Restricts the spec to one file.
    pub fn on_file(mut self, file: FileId) -> Self {
        self.file = Some(file);
        self
    }

    /// Restricts the spec to one declared I/O kind.
    pub fn on_kind(mut self, kind: IoKind) -> Self {
        self.kind = Some(kind);
        self
    }

    /// Delays the trigger until `after_ops` matching ops have passed.
    pub fn after(mut self, after_ops: u64) -> Self {
        self.after_ops = after_ops;
        self
    }

    fn matches(&self, file: FileId, kind: IoKind, op: IoOp) -> bool {
        let target = match self.target {
            FaultTarget::Reads => op == IoOp::Read,
            FaultTarget::Appends => op == IoOp::Append,
            FaultTarget::Any => true,
        };
        target && self.file.is_none_or(|f| f == file) && self.kind.is_none_or(|k| k == kind)
    }

    /// Whether the fault fires for the matching op with index `match_idx`.
    fn fires(&self, match_idx: u64) -> bool {
        let window = match self.fault {
            FaultKind::TransientError { failures } | FaultKind::CorruptRead { failures } => {
                failures
            }
            FaultKind::LatencySpike { times, .. } => times,
            FaultKind::PersistentError => u64::MAX,
        };
        match_idx >= self.after_ops && match_idx < self.after_ops.saturating_add(window)
    }
}

/// The SplitMix64 generator: steps the state by [`FIB`](hash::FIB) and
/// finalizes it — good enough to scatter schedule parameters from one seed.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(hash::FIB);
    hash::splitmix64(*state)
}

/// Seeded fault schedules for the differential fault matrix.
pub struct FaultPlan;

impl FaultPlan {
    /// A fully recoverable schedule: a handful of short transient-error and
    /// corrupt-read windows plus one latency spike, scattered over roughly
    /// `ops_hint` operations. Every window is at most 3 ops wide, so any
    /// [`RetryPolicy`] with at least 4 attempts recovers every fault and
    /// the run must match the fault-free output bit-exactly.
    pub fn transient(seed: u64, ops_hint: u64) -> Vec<FaultSpec> {
        Self::seeded(seed, ops_hint, true)
    }

    /// Like [`FaultPlan::transient`] but without corrupt reads: only
    /// transient errors (which fail *before* the inner device and therefore
    /// leave the modeled [`IoStats`] bit-identical after recovery) and one
    /// latency spike. The fault matrix runs it where it asserts per-phase
    /// I/O equal to the fault-free run's, which recovering a corrupt read —
    /// one honest physical re-read — would legitimately break.
    pub fn errors_only(seed: u64, ops_hint: u64) -> Vec<FaultSpec> {
        Self::seeded(seed, ops_hint, false)
    }

    /// [`FaultPlan::transient`] plus one persistent read error, so the run
    /// must fail — cleanly, with no leaked files.
    pub fn persistent(seed: u64, ops_hint: u64) -> Vec<FaultSpec> {
        let mut specs = Self::transient(seed, ops_hint);
        let mut state = seed ^ 0xA5A5_1234_DEAD_BEEF;
        specs.push(
            FaultSpec::any(FaultKind::PersistentError)
                .reads()
                .after(splitmix64(&mut state) % ops_hint.max(16)),
        );
        specs
    }

    fn seeded(seed: u64, ops_hint: u64, corrupt_reads: bool) -> Vec<FaultSpec> {
        let mut state = seed ^ 0xD6E8_FEB8_6659_FD93;
        let span = ops_hint.max(16);
        let mut draw = |n: u64| splitmix64(&mut state) % n;
        let mut specs = vec![
            FaultSpec::any(FaultKind::TransientError {
                failures: 1 + draw(3),
            })
            .reads()
            .after(draw(span)),
            FaultSpec::any(FaultKind::TransientError {
                failures: 1 + draw(3),
            })
            .appends()
            .after(draw(span)),
        ];
        if corrupt_reads {
            let fault = FaultKind::CorruptRead {
                failures: 1 + draw(2),
            };
            specs.push(FaultSpec::any(fault).reads().after(draw(span)));
        }
        let spike = FaultKind::LatencySpike {
            micros: 50,
            times: 2,
        };
        specs.push(FaultSpec::any(spike).after(draw(span)));
        specs
    }
}

/// Counters for injected faults, readable while the device runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Operations failed with an injected error.
    pub injected_errors: u64,
    /// Reads returned with a flipped bit.
    pub injected_corruptions: u64,
    /// Operations delayed by a latency spike.
    pub injected_delays: u64,
}

/// Bounded retry-with-backoff configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per operation, including the first (minimum 1).
    pub max_attempts: u32,
    /// Backoff before the first retry, in microseconds; doubles on each
    /// further retry. Zero disables sleeping (the mode tests use).
    pub backoff_micros: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            backoff_micros: 50,
        }
    }
}

/// Counters for the recovery machinery, separate from the modeled
/// [`IoStats`] so determinism pins on the modeled counters are unaffected.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetryStats {
    /// Read attempts beyond the first.
    pub read_retries: u64,
    /// Append attempts beyond the first.
    pub append_retries: u64,
    /// Checksum verification failures observed (each triggers a retry or a
    /// final `CorruptPage` error).
    pub checksum_failures: u64,
    /// Operations that failed at least once and eventually succeeded.
    pub recovered: u64,
    /// Operations that returned an error after their last attempt.
    pub exhausted: u64,
}

/// FNV-1a 64 over the raw page bytes: the out-of-band page fingerprint.
fn page_checksum(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325u64, |hash, &b| {
        (hash ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Flips one deterministic body bit in a private copy of `page`. A flip
/// that leaves the page undecodable (tiny pages) returns it unflipped.
fn corrupt(page: Arc<Page>, salt: u64) -> Arc<Page> {
    let mut bytes = page.as_bytes().to_vec();
    let body_bits = (bytes.len().saturating_sub(PAGE_HEADER_BYTES) * 8) as u64;
    if body_bits == 0 {
        return page;
    }
    let mut state = salt ^ 0x5DEE_CE66_D170_94A1;
    let bit = (splitmix64(&mut state) % body_bits) as usize;
    bytes[PAGE_HEADER_BYTES + bit / 8] ^= 1 << (bit % 8);
    Page::from_bytes(bytes).map_or(page, Arc::new)
}

/// One spec of the schedule and its match counter.
struct ArmedSpec {
    spec: FaultSpec,
    matched: AtomicU64,
}

/// The fault and retry counters, bumped from any worker.
#[derive(Default)]
struct Counters {
    errors: AtomicU64,
    corruptions: AtomicU64,
    delays: AtomicU64,
    read_retries: AtomicU64,
    append_retries: AtomicU64,
    checksum_failures: AtomicU64,
    recovered: AtomicU64,
    exhausted: AtomicU64,
}

fn bump(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::Relaxed);
}

fn load(counter: &AtomicU64) -> u64 {
    counter.load(Ordering::Relaxed)
}

/// The [`BlockDevice`] wrapper: tracing to an attached [`IoEventSink`],
/// plus an optional fault schedule ([`TracedDevice::with_faults`]) and
/// retry policy ([`TracedDevice::with_retry`]). See the
/// [module docs](self) for the order every operation runs in.
///
/// Results and I/O accounting are the inner device's: failed operations
/// emit no events (the devices do not count them either). Attach a sink
/// with [`BlockDevice::set_io_sink`] — normally via `Obs::attach_io`,
/// which installs and removes it around one recorded run.
pub struct TracedDevice {
    inner: DeviceRef,
    sink: RwLock<Option<Arc<dyn IoEventSink>>>,
    faults: Vec<ArmedSpec>,
    armed: AtomicBool,
    retry: Option<RetryPolicy>,
    sums: RwLock<HashMap<FileId, Vec<Option<u64>>>>,
    counters: Counters,
}

impl TracedDevice {
    /// Wraps `inner` with no fault schedule and no retry policy.
    pub fn new(inner: DeviceRef) -> Self {
        TracedDevice {
            inner,
            sink: RwLock::new(None),
            faults: Vec::new(),
            armed: AtomicBool::new(false),
            retry: None,
            sums: RwLock::new(HashMap::new()),
            counters: Counters::default(),
        }
    }

    /// [`TracedDevice::new`] already wrapped in a [`DeviceRef`]. Every
    /// traced event carries the measured latency of its inner call.
    pub fn with_latency_ref(inner: DeviceRef) -> DeviceRef {
        Arc::new(TracedDevice::new(inner))
    }

    /// Sets the fault schedule. It stays disarmed until
    /// [`TracedDevice::arm`], so bulk-loading the inputs does not advance
    /// the specs' match counters.
    pub fn with_faults(mut self, specs: Vec<FaultSpec>) -> Self {
        self.faults = specs
            .into_iter()
            .map(|spec| ArmedSpec {
                spec,
                matched: AtomicU64::new(0),
            })
            .collect();
        self
    }

    /// Sets the retry policy, which also turns on out-of-band checksums
    /// for every page appended from now on.
    pub fn with_retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = Some(policy);
        self
    }

    /// Starts injecting faults. Match counters advance only while armed.
    pub fn arm(&self) {
        self.armed.store(true, Ordering::SeqCst);
    }

    /// Stops injecting faults.
    pub fn disarm(&self) {
        self.armed.store(false, Ordering::SeqCst);
    }

    /// Snapshot of the injected-fault counters.
    pub fn fault_stats(&self) -> FaultStats {
        let c = &self.counters;
        FaultStats {
            injected_errors: load(&c.errors),
            injected_corruptions: load(&c.corruptions),
            injected_delays: load(&c.delays),
        }
    }

    /// Snapshot of the recovery counters.
    pub fn retry_stats(&self) -> RetryStats {
        let c = &self.counters;
        RetryStats {
            read_retries: load(&c.read_retries),
            append_retries: load(&c.append_retries),
            checksum_failures: load(&c.checksum_failures),
            recovered: load(&c.recovered),
            exhausted: load(&c.exhausted),
        }
    }

    fn current_sink(&self) -> Option<Arc<dyn IoEventSink>> {
        read_unpoisoned(&self.sink).clone()
    }

    /// Runs `attempt` under the retry policy (once without one).
    fn retrying<T>(&self, op: IoOp, mut attempt: impl FnMut() -> Result<T>) -> Result<T> {
        let Some(policy) = self.retry else {
            return attempt();
        };
        let c = &self.counters;
        let mut failed = 0u32;
        loop {
            match attempt() {
                Ok(value) => {
                    if failed > 0 {
                        bump(&c.recovered);
                    }
                    return Ok(value);
                }
                Err(StorageError::Io(_) | StorageError::CorruptPage(_))
                    if failed + 1 < policy.max_attempts =>
                {
                    if policy.backoff_micros > 0 {
                        let micros = policy.backoff_micros << failed.min(16);
                        std::thread::sleep(Duration::from_micros(micros));
                    }
                    failed += 1;
                    bump(match op {
                        IoOp::Read => &c.read_retries,
                        IoOp::Append => &c.append_retries,
                    });
                }
                Err(e) => {
                    bump(&c.exhausted);
                    return Err(e);
                }
            }
        }
    }

    /// Evaluates the armed schedule for one attempt: every matching spec's
    /// counter advances and spikes sleep; the first error fails the
    /// attempt, else the first corrupt read returns its salt.
    fn inject(&self, file: FileId, kind: IoKind, op: IoOp) -> Result<Option<u64>> {
        if !self.armed.load(Ordering::Relaxed) {
            return Ok(None);
        }
        let mut outcome = Ok(None);
        for armed in &self.faults {
            if !armed.spec.matches(file, kind, op) {
                continue;
            }
            let match_idx = armed.matched.fetch_add(1, Ordering::Relaxed);
            if !armed.spec.fires(match_idx) {
                continue;
            }
            let fail = |which: &str| {
                let msg = format!("injected {which} fault (file {file:?}, op #{match_idx})");
                Err(StorageError::Io(msg))
            };
            let decided = !matches!(outcome, Ok(None));
            match &armed.spec.fault {
                FaultKind::LatencySpike { micros, .. } => {
                    bump(&self.counters.delays);
                    std::thread::sleep(Duration::from_micros(*micros));
                }
                _ if decided => {}
                FaultKind::TransientError { .. } => outcome = fail("transient"),
                FaultKind::PersistentError => outcome = fail("persistent"),
                FaultKind::CorruptRead { .. } if op == IoOp::Read => outcome = Ok(Some(match_idx)),
                FaultKind::CorruptRead { .. } => {}
            }
        }
        if outcome.is_err() {
            bump(&self.counters.errors);
        }
        outcome
    }

    /// Runs one inner call, reporting it with its measured latency to the
    /// attached sink when it succeeds.
    fn traced<T>(
        &self,
        file: FileId,
        kind: IoKind,
        op: IoOp,
        call: impl FnOnce() -> Result<T>,
        page: impl FnOnce(&T) -> usize,
    ) -> Result<T> {
        let Some(sink) = self.current_sink() else {
            return call();
        };
        let started = Instant::now();
        let out = call()?;
        let latency = started.elapsed().as_nanos() as u64;
        sink.io_event(file, page(&out), kind, op, Some(latency));
        Ok(out)
    }
}

impl BlockDevice for TracedDevice {
    fn create_file(&self) -> FileId {
        self.inner.create_file()
    }

    fn file_pages(&self, file: FileId) -> Result<usize> {
        self.inner.file_pages(file)
    }

    fn append_page(&self, file: FileId, page: &Page, kind: IoKind) -> Result<usize> {
        let index = self.retrying(IoOp::Append, || {
            self.inject(file, kind, IoOp::Append)?;
            let append = || self.inner.append_page(file, page, kind);
            self.traced(file, kind, IoOp::Append, append, |&index| index)
        })?;
        if self.retry.is_some() {
            let sum = page_checksum(page.as_bytes());
            let mut sums = write_unpoisoned(&self.sums);
            let file_sums = sums.entry(file).or_default();
            if file_sums.len() <= index {
                file_sums.resize(index + 1, None);
            }
            file_sums[index] = Some(sum);
        }
        Ok(index)
    }

    fn read_page(&self, file: FileId, index: usize, kind: IoKind) -> Result<Arc<Page>> {
        let expected = self.retry.and_then(|_| {
            read_unpoisoned(&self.sums)
                .get(&file)
                .and_then(|sums| sums.get(index).copied().flatten())
        });
        self.retrying(IoOp::Read, || {
            let salt = self.inject(file, kind, IoOp::Read)?;
            let read = || self.inner.read_page(file, index, kind);
            let mut page = self.traced(file, kind, IoOp::Read, read, |_| index)?;
            if let Some(salt) = salt {
                bump(&self.counters.corruptions);
                page = corrupt(page, salt);
            }
            match expected {
                Some(sum) if page_checksum(page.as_bytes()) != sum => {
                    bump(&self.counters.checksum_failures);
                    Err(StorageError::CorruptPage(format!(
                        "checksum mismatch on file {file:?} page {index}"
                    )))
                }
                _ => Ok(page),
            }
        })
    }

    fn discard_page(&self, file: FileId, index: usize) -> Result<()> {
        self.inner.discard_page(file, index)?;
        if self.retry.is_some() {
            let mut sums = write_unpoisoned(&self.sums);
            if let Some(sum) = sums.get_mut(&file).and_then(|sums| sums.get_mut(index)) {
                *sum = None;
            }
        }
        Ok(())
    }

    fn delete_file(&self, file: FileId) -> Result<()> {
        if self.retry.is_some() {
            write_unpoisoned(&self.sums).remove(&file);
        }
        self.inner.delete_file(file)
    }

    fn stats(&self) -> IoStats {
        let stats = self.inner.stats();
        if let Some(sink) = self.current_sink() {
            sink.io_marker(IoMarkerKind::Snapshot, stats);
        }
        stats
    }

    fn reset_stats(&self) {
        if let Some(sink) = self.current_sink() {
            sink.io_marker(IoMarkerKind::Reset, self.inner.stats());
        }
        self.inner.reset_stats();
    }

    fn set_io_sink(&self, sink: Option<Arc<dyn IoEventSink>>) {
        *write_unpoisoned(&self.sink) = sink;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::SimDevice;
    use crate::record::{RecordLayout, RecordRef};
    use std::sync::Mutex;

    fn page_with(keys: &[u64]) -> Page {
        let mut p = Page::empty(256, RecordLayout::new(8));
        for &k in keys {
            assert!(p.push_ref(RecordRef::new(k, &[0; 8])).unwrap());
        }
        p
    }

    fn faulty(specs: Vec<FaultSpec>) -> TracedDevice {
        TracedDevice::new(SimDevice::new_ref()).with_faults(specs)
    }

    fn quiet_policy(max_attempts: u32) -> RetryPolicy {
        RetryPolicy {
            max_attempts,
            backoff_micros: 0,
        }
    }

    /// The recorded checksum of a page, if any.
    fn sum_of(dev: &TracedDevice, file: FileId, index: usize) -> Option<u64> {
        read_unpoisoned(&dev.sums)
            .get(&file)
            .and_then(|sums| sums.get(index).copied().flatten())
    }

    type SinkEvent = (FileId, usize, IoKind, IoOp);

    #[derive(Debug, Default)]
    struct VecSink {
        events: Mutex<Vec<(SinkEvent, Option<u64>)>>,
        markers: Mutex<Vec<(IoMarkerKind, IoStats)>>,
    }

    impl VecSink {
        /// The events without their latencies, asserting each has one.
        fn events(&self) -> Vec<SinkEvent> {
            let events = self.events.lock().unwrap();
            assert!(events.iter().all(|(_, latency)| latency.is_some()));
            events.iter().map(|&(event, _)| event).collect()
        }
    }

    impl IoEventSink for VecSink {
        fn io_event(
            &self,
            file: FileId,
            page: usize,
            kind: IoKind,
            op: IoOp,
            latency_ns: Option<u64>,
        ) {
            let event = ((file, page, kind, op), latency_ns);
            self.events.lock().unwrap().push(event);
        }

        fn io_marker(&self, kind: IoMarkerKind, stats: IoStats) {
            self.markers.lock().unwrap().push((kind, stats));
        }
    }

    #[test]
    fn untraced_wrapper_is_pass_through() {
        let dev = TracedDevice::with_latency_ref(SimDevice::new_ref());
        let f = dev.create_file();
        dev.append_page(f, &page_with(&[1, 2]), IoKind::RandWrite)
            .unwrap();
        let p = dev.read_page(f, 0, IoKind::SeqRead).unwrap();
        assert_eq!(p.record_refs().count(), 2);
        let s = dev.stats();
        assert_eq!(s.rand_writes, 1);
        assert_eq!(s.seq_reads, 1);
        dev.reset_stats();
        assert_eq!(dev.stats().total(), 0);
        dev.delete_file(f).unwrap();
    }

    #[test]
    fn attached_sink_sees_events_and_markers() {
        let dev = TracedDevice::new(SimDevice::new_ref());
        let sink = Arc::new(VecSink::default());
        dev.set_io_sink(Some(sink.clone()));
        let f = dev.create_file();
        let idx = dev
            .append_page(f, &page_with(&[7]), IoKind::SeqWrite)
            .unwrap();
        dev.read_page(f, idx, IoKind::RandRead).unwrap();
        let snap = dev.stats();
        dev.reset_stats();
        dev.set_io_sink(None);
        // Detached again: further I/O emits nothing.
        dev.append_page(f, &page_with(&[8]), IoKind::SeqWrite)
            .unwrap();

        assert_eq!(
            sink.events(),
            vec![
                (f, 0, IoKind::SeqWrite, IoOp::Append),
                (f, 0, IoKind::RandRead, IoOp::Read),
            ]
        );
        let markers = sink.markers.lock().unwrap();
        assert_eq!(markers.len(), 2);
        assert_eq!(markers[0], (IoMarkerKind::Snapshot, snap));
        assert_eq!(markers[1].0, IoMarkerKind::Reset);
        assert_eq!(markers[1].1, snap, "reset marker carries pre-reset stats");
    }

    #[test]
    fn failed_operations_emit_no_events() {
        let dev = TracedDevice::new(SimDevice::new_ref());
        let sink = Arc::new(VecSink::default());
        dev.set_io_sink(Some(sink.clone()));
        let f = dev.create_file();
        assert!(dev.read_page(f, 3, IoKind::SeqRead).is_err());
        assert!(dev
            .append_page(FileId(99), &page_with(&[1]), IoKind::SeqWrite)
            .is_err());
        assert!(sink.events().is_empty());
    }

    #[test]
    fn discarding_is_forwarded_and_emits_no_event() {
        // Not an I/O: the model audit's windows fold the events to the
        // counter deltas, so a discard must add to neither.
        let sim = Arc::new(SimDevice::new());
        let dev = TracedDevice::new(sim.clone());
        let f = dev.create_file();
        for k in 0..2 {
            dev.append_page(f, &page_with(&[k]), IoKind::SeqWrite)
                .unwrap();
        }
        let sink = Arc::new(VecSink::default());
        dev.set_io_sink(Some(sink.clone()));
        let before = dev.stats();
        dev.discard_page(f, 0).unwrap();
        assert_eq!(sim.resident_pages(), 1, "the inner device released it");
        assert!(matches!(
            dev.read_page(f, 0, IoKind::RandRead),
            Err(StorageError::DiscardedPage { .. })
        ));
        assert!(sink.events().is_empty());
        assert_eq!(dev.stats(), before);
        // Taking a page is a read and a discard: one read event.
        dev.take_page(f, 1, IoKind::RandRead).unwrap();
        assert_eq!(sink.events(), vec![(f, 1, IoKind::RandRead, IoOp::Read)]);
        assert_eq!(sim.resident_pages(), 0);
    }

    #[test]
    fn with_latency_measures_every_op() {
        let dev = TracedDevice::with_latency_ref(SimDevice::new_ref());
        let sink = Arc::new(VecSink::default());
        dev.set_io_sink(Some(sink.clone()));
        let f = dev.create_file();
        dev.append_page(f, &page_with(&[1]), IoKind::SeqWrite)
            .unwrap();
        dev.read_page(f, 0, IoKind::SeqRead).unwrap();
        assert_eq!(sink.events().len(), 2);
    }

    #[test]
    fn base_devices_ignore_sink_attachment() {
        let dev: DeviceRef = SimDevice::new_ref();
        // Default no-op: attaching to an untraced device does nothing.
        dev.set_io_sink(Some(Arc::new(VecSink::default())));
        let f = dev.create_file();
        dev.append_page(f, &page_with(&[1]), IoKind::SeqWrite)
            .unwrap();
        assert_eq!(dev.stats().seq_writes, 1);
    }

    #[test]
    fn one_read_runs_retry_inject_trace_corrupt_verify_in_order() {
        // Attempt 1: the transient error fires before the inner device —
        // no event, no count. Attempt 2: the corrupt read reaches the
        // device (traced, counted), then fails its checksum. Attempt 3 is
        // clean. Both specs match all three attempts.
        let dev = faulty(vec![
            FaultSpec::any(FaultKind::TransientError { failures: 1 }).reads(),
            FaultSpec::any(FaultKind::CorruptRead { failures: 1 })
                .reads()
                .after(1),
        ])
        .with_retry(quiet_policy(4));
        let f = dev.create_file();
        let clean = page_with(&[4, 5]);
        dev.append_page(f, &clean, IoKind::RandWrite).unwrap();
        let sink = Arc::new(VecSink::default());
        dev.set_io_sink(Some(sink.clone()));
        dev.reset_stats();
        dev.arm();
        let page = dev.read_page(f, 0, IoKind::SeqRead).unwrap();
        assert_eq!(page.as_bytes(), clean.as_bytes());
        let read = (f, 0, IoKind::SeqRead, IoOp::Read);
        assert_eq!(sink.events(), vec![read, read]);
        assert_eq!(dev.stats().seq_reads, 2);
        assert_eq!(dev.stats().total(), 2);
        let rs = dev.retry_stats();
        assert_eq!(rs.checksum_failures, 1);
        assert_eq!(rs.recovered, 1);
        assert_eq!(rs.read_retries, 2);
        assert_eq!(
            dev.fault_stats(),
            FaultStats {
                injected_errors: 1,
                injected_corruptions: 1,
                injected_delays: 0,
            }
        );
        let matched: Vec<u64> = dev.faults.iter().map(|a| load(&a.matched)).collect();
        assert_eq!(matched, [3, 3], "every attempt advances every spec");
    }

    #[test]
    fn disarmed_wrapper_is_pass_through() {
        let dev = faulty(vec![FaultSpec::any(FaultKind::PersistentError)]);
        let f = dev.create_file();
        dev.append_page(f, &page_with(&[1, 2]), IoKind::RandWrite)
            .unwrap();
        let p = dev.read_page(f, 0, IoKind::SeqRead).unwrap();
        assert_eq!(p.record_refs().count(), 2);
        assert_eq!(dev.fault_stats(), FaultStats::default());
        assert_eq!(dev.stats().total(), 2);
    }

    #[test]
    fn transient_error_window_fails_then_recovers() {
        let dev = faulty(vec![FaultSpec::any(FaultKind::TransientError {
            failures: 2,
        })
        .reads()]);
        let f = dev.create_file();
        dev.append_page(f, &page_with(&[1]), IoKind::RandWrite)
            .unwrap();
        dev.arm();
        assert!(matches!(
            dev.read_page(f, 0, IoKind::SeqRead),
            Err(StorageError::Io(_))
        ));
        assert!(dev.read_page(f, 0, IoKind::SeqRead).is_err());
        // Third matching read is past the window.
        assert!(dev.read_page(f, 0, IoKind::SeqRead).is_ok());
        assert_eq!(dev.fault_stats().injected_errors, 2);
        // Injected failures never reached the inner device: exactly one
        // append + one successful read counted.
        assert_eq!(dev.stats().total(), 2);
    }

    #[test]
    fn persistent_error_never_recovers() {
        let dev = faulty(vec![FaultSpec::any(FaultKind::PersistentError)
            .reads()
            .after(1)]);
        let f = dev.create_file();
        dev.append_page(f, &page_with(&[1]), IoKind::RandWrite)
            .unwrap();
        dev.arm();
        assert!(dev.read_page(f, 0, IoKind::SeqRead).is_ok());
        for _ in 0..5 {
            assert!(dev.read_page(f, 0, IoKind::SeqRead).is_err());
        }
        // Appends are unaffected by a reads-only spec.
        dev.append_page(f, &page_with(&[2]), IoKind::RandWrite)
            .unwrap();
    }

    #[test]
    fn corrupt_read_flips_a_bit_in_a_private_copy() {
        let dev = faulty(vec![
            FaultSpec::any(FaultKind::CorruptRead { failures: 1 }).reads()
        ]);
        let f = dev.create_file();
        let clean = page_with(&[1, 2, 3]);
        dev.append_page(f, &clean, IoKind::RandWrite).unwrap();
        dev.arm();
        let corrupted = dev.read_page(f, 0, IoKind::SeqRead).unwrap();
        assert_ne!(corrupted.as_bytes(), clean.as_bytes());
        assert_eq!(dev.fault_stats().injected_corruptions, 1);
        // Past the window the resident page is intact.
        let again = dev.read_page(f, 0, IoKind::SeqRead).unwrap();
        assert_eq!(again.as_bytes(), clean.as_bytes());
    }

    #[test]
    fn filters_restrict_matching() {
        let dev = faulty(vec![FaultSpec::any(FaultKind::PersistentError)
            .reads()
            .on_kind(IoKind::RandRead)]);
        let f = dev.create_file();
        let g = dev.create_file();
        dev.append_page(f, &page_with(&[1]), IoKind::RandWrite)
            .unwrap();
        dev.append_page(g, &page_with(&[2]), IoKind::RandWrite)
            .unwrap();
        dev.arm();
        // Wrong kind, or an append: untouched.
        assert!(dev.read_page(f, 0, IoKind::SeqRead).is_ok());
        assert!(dev
            .append_page(g, &page_with(&[3]), IoKind::RandWrite)
            .is_ok());
        // Matching reads fail, on any page of any file.
        assert!(dev.read_page(f, 0, IoKind::RandRead).is_err());
        assert!(dev.read_page(g, 1, IoKind::RandRead).is_err());
    }

    #[test]
    fn discarding_is_never_faulted_nor_matched() {
        let sim = Arc::new(SimDevice::new());
        let dev = TracedDevice::new(sim.clone()).with_faults(vec![FaultSpec::any(
            FaultKind::TransientError { failures: 1 },
        )]);
        let f = dev.create_file();
        for k in 0..2 {
            dev.append_page(f, &page_with(&[k]), IoKind::SeqWrite)
                .unwrap();
        }
        dev.arm();
        dev.discard_page(f, 0).unwrap();
        assert_eq!(sim.resident_pages(), 1, "forwarded to the inner device");
        assert_eq!(dev.fault_stats(), FaultStats::default());
        // The spec's one failure still waits for the first real operation.
        assert!(dev.read_page(f, 1, IoKind::RandRead).is_err());
        assert!(dev.read_page(f, 1, IoKind::RandRead).is_ok());
    }

    #[test]
    fn seeded_plans_are_deterministic() {
        let a = FaultPlan::transient(42, 1000);
        let b = FaultPlan::transient(42, 1000);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.after_ops, y.after_ops);
            assert_eq!(x.fault, y.fault);
        }
        let c = FaultPlan::transient(43, 1000);
        assert!(
            a.iter()
                .zip(&c)
                .any(|(x, y)| x.after_ops != y.after_ops || x.fault != y.fault),
            "different seeds should produce different schedules"
        );
        assert!(FaultPlan::persistent(42, 1000)
            .iter()
            .any(|s| s.fault == FaultKind::PersistentError));
        assert!(
            FaultPlan::errors_only(42, 1000)
                .iter()
                .all(|s| !matches!(s.fault, FaultKind::CorruptRead { .. })),
            "the errors-only plan must never corrupt pages"
        );
    }

    #[test]
    fn clean_roundtrip_records_and_verifies_checksums() {
        let dev = TracedDevice::new(SimDevice::new_ref()).with_retry(RetryPolicy::default());
        let f = dev.create_file();
        let idx = dev
            .append_page(f, &page_with(&[1, 2]), IoKind::RandWrite)
            .unwrap();
        assert!(sum_of(&dev, f, idx).is_some());
        let p = dev.read_page(f, idx, IoKind::SeqRead).unwrap();
        assert_eq!(p.record_refs().count(), 2);
        assert_eq!(dev.retry_stats(), RetryStats::default());
        assert_eq!(dev.stats().total(), 2, "wrapper adds no modeled I/O");
    }

    #[test]
    fn checksum_catches_a_bit_flip_and_retry_recovers_a_transient_one() {
        let dev = faulty(vec![
            FaultSpec::any(FaultKind::CorruptRead { failures: 2 }).reads()
        ])
        .with_retry(quiet_policy(4));
        let f = dev.create_file();
        let clean = page_with(&[7, 8, 9]);
        dev.append_page(f, &clean, IoKind::RandWrite).unwrap();
        dev.arm();
        // Two corrupted reads, then the third attempt sees the clean page.
        let p = dev.read_page(f, 0, IoKind::SeqRead).unwrap();
        assert_eq!(p.as_bytes(), clean.as_bytes());
        let rs = dev.retry_stats();
        assert_eq!(rs.checksum_failures, 2);
        assert_eq!(rs.read_retries, 2);
        assert_eq!(rs.recovered, 1);
    }

    #[test]
    fn persistent_corruption_exhausts_retries_with_corrupt_page() {
        let dev = faulty(vec![FaultSpec::any(FaultKind::CorruptRead {
            failures: u64::MAX,
        })
        .reads()])
        .with_retry(quiet_policy(3));
        let f = dev.create_file();
        dev.append_page(f, &page_with(&[1]), IoKind::RandWrite)
            .unwrap();
        dev.arm();
        let err = dev.read_page(f, 0, IoKind::SeqRead).unwrap_err();
        assert!(matches!(err, StorageError::CorruptPage(_)), "{err}");
        let rs = dev.retry_stats();
        assert_eq!(rs.checksum_failures, 3);
        assert_eq!(rs.exhausted, 1);
    }

    #[test]
    fn transient_io_errors_are_retried_on_both_ops() {
        let dev = faulty(vec![
            FaultSpec::any(FaultKind::TransientError { failures: 2 }).reads(),
            FaultSpec::any(FaultKind::TransientError { failures: 2 }).appends(),
        ])
        .with_retry(quiet_policy(4));
        let f = dev.create_file();
        dev.arm();
        dev.append_page(f, &page_with(&[5]), IoKind::RandWrite)
            .unwrap();
        let p = dev.read_page(f, 0, IoKind::SeqRead).unwrap();
        assert_eq!(p.record_refs().count(), 1);
        let rs = dev.retry_stats();
        assert_eq!(rs.append_retries, 2);
        assert_eq!(rs.read_retries, 2);
        assert_eq!(rs.recovered, 2);
        // Failed attempts never reached the device: modeled stats identical
        // to a fault-free run.
        assert_eq!(dev.stats().total(), 2);
    }

    #[test]
    fn logic_errors_are_not_retried() {
        let dev = TracedDevice::new(SimDevice::new_ref()).with_retry(quiet_policy(5));
        let err = dev.read_page(FileId(99), 0, IoKind::SeqRead).unwrap_err();
        assert!(matches!(err, StorageError::UnknownFile(_)));
        assert_eq!(dev.retry_stats().read_retries, 0);
    }

    #[test]
    fn unchecked_pages_skip_verification() {
        // A relation loaded below the wrapper has no recorded checksums.
        let sim = SimDevice::new_ref();
        let f = sim.create_file();
        sim.append_page(f, &page_with(&[1]), IoKind::SeqWrite)
            .unwrap();
        let dev = TracedDevice::new(sim).with_retry(RetryPolicy::default());
        assert!(dev.read_page(f, 0, IoKind::SeqRead).is_ok());
        assert_eq!(dev.retry_stats().checksum_failures, 0);
    }

    #[test]
    fn discarding_drops_the_checksum_and_the_read_is_not_retried() {
        let sim = Arc::new(SimDevice::new());
        let dev = TracedDevice::new(sim.clone()).with_retry(quiet_policy(4));
        let f = dev.create_file();
        for k in 0..2 {
            dev.append_page(f, &page_with(&[k]), IoKind::SeqWrite)
                .unwrap();
        }
        dev.discard_page(f, 0).unwrap();
        assert_eq!(sum_of(&dev, f, 0), None);
        assert!(sum_of(&dev, f, 1).is_some());
        assert_eq!(sim.resident_pages(), 1);
        let err = dev.read_page(f, 0, IoKind::RandRead).unwrap_err();
        assert!(matches!(err, StorageError::DiscardedPage { .. }), "{err}");
        assert_eq!(dev.retry_stats().read_retries, 0, "a logic error");
        assert!(dev.read_page(f, 1, IoKind::RandRead).is_ok());
        dev.delete_file(f).unwrap();
        assert_eq!(sum_of(&dev, f, 1), None);
    }

    #[test]
    fn checksum_is_stable_and_sensitive() {
        let a = page_checksum(b"hello");
        assert_eq!(a, page_checksum(b"hello"));
        assert_ne!(a, page_checksum(b"hellp"));
    }
}
