//! Deterministic fault injection: [`FaultDevice`] and seeded fault plans.
//!
//! [`FaultDevice`] wraps any [`BlockDevice`] (sibling of
//! [`TracedDevice`](crate::TracedDevice)) and injects faults according to an
//! explicit, fully deterministic schedule: every spec targets a subset of
//! operations (by file, page range, declared [`IoKind`], read vs append) and
//! fires on a window of *matching-operation indices*, so the same engine run
//! against the same schedule always hits the same faults regardless of wall
//! clock. Four fault shapes cover the failure modes a real block layer
//! exhibits:
//!
//! * **Transient errors** — the next `n` matching ops fail with
//!   [`StorageError::Io`] *before* reaching the inner device. Because the
//!   devices count I/O only after validation, a retried transient error
//!   leaves the modeled [`IoStats`] bit-identical to a
//!   fault-free run — which is what lets the differential fault matrix
//!   require exact output equality after recovery.
//! * **Persistent errors** — every matching op from the trigger point on
//!   fails; retries cannot help and the engine must fail cleanly.
//! * **Corrupt reads** — the page is read from the inner device, then a
//!   deterministic body bit is flipped in a private copy (never in the
//!   device's resident page), modelling a torn/rotted page that only a
//!   checksum can catch.
//! * **Latency spikes** — the op succeeds after a real `thread::sleep`,
//!   modelling a stalling device without changing any result.
//!
//! The wrapper is zero-cost when disarmed: one relaxed atomic load per
//! operation, no allocation, results bit-identical to the bare inner device.
//! [`FaultPlan::transient`], [`FaultPlan::errors_only`] and
//! [`FaultPlan::persistent`] derive small recoverable/fatal schedules from a
//! single `u64` seed (SplitMix64), which is what the fault matrix uses.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use crate::device::{BlockDevice, DeviceRef, FileId};
use crate::iostats::{IoKind, IoStats};
use crate::page::{Page, PAGE_HEADER_BYTES};
use crate::{Result, StorageError};

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

    fn matches(&self, file: FileId, kind: IoKind, is_read: bool) -> bool {
        match self.target {
            FaultTarget::Reads if !is_read => return false,
            FaultTarget::Appends if is_read => return false,
            _ => {}
        }
        if self.file.is_some_and(|f| f != file) {
            return false;
        }
        !self.kind.is_some_and(|k| k != kind)
    }

    /// Whether the fault fires for the matching op with index `match_idx`,
    /// given the fault's window length (`None` = unbounded).
    fn window(&self) -> Option<u64> {
        match self.fault {
            FaultKind::TransientError { failures } => Some(failures),
            FaultKind::CorruptRead { failures } => Some(failures),
            FaultKind::LatencySpike { times, .. } => Some(times),
            FaultKind::PersistentError => None,
        }
    }

    fn fires(&self, match_idx: u64) -> bool {
        match_idx >= self.after_ops
            && self
                .window()
                .is_none_or(|w| match_idx < self.after_ops.saturating_add(w))
    }
}

/// SplitMix64 — the same construction the DHH partitioner uses for key
/// hashing; good enough to scatter schedule parameters from one seed.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seeded fault schedules for the differential fault matrix.
pub struct FaultPlan;

impl FaultPlan {
    /// A fully recoverable schedule: a handful of short transient-error and
    /// corrupt-read windows plus one latency spike, scattered over roughly
    /// `ops_hint` operations. Every window is at most 3 ops wide, so any
    /// [`RetryPolicy`](crate::RetryPolicy) with at least 4 attempts recovers
    /// every fault and the run must match the fault-free output bit-exactly.
    pub fn transient(seed: u64, ops_hint: u64) -> Vec<FaultSpec> {
        let mut state = seed ^ 0xD6E8_FEB8_6659_FD93;
        let span = ops_hint.max(16);
        let at = |state: &mut u64| splitmix64(state) % span;
        vec![
            FaultSpec::any(FaultKind::TransientError {
                failures: 1 + splitmix64(&mut state) % 3,
            })
            .reads()
            .after(at(&mut state)),
            FaultSpec::any(FaultKind::TransientError {
                failures: 1 + splitmix64(&mut state) % 3,
            })
            .appends()
            .after(at(&mut state)),
            FaultSpec::any(FaultKind::CorruptRead {
                failures: 1 + splitmix64(&mut state) % 2,
            })
            .reads()
            .after(at(&mut state)),
            FaultSpec::any(FaultKind::LatencySpike {
                micros: 50,
                times: 2,
            })
            .after(at(&mut state)),
        ]
    }

    /// Like [`FaultPlan::transient`] but without corrupt reads: only
    /// transient errors (which fail *before* the inner device and therefore
    /// leave the modeled [`IoStats`] bit-identical after recovery) and one
    /// latency spike. The fault matrix runs it where it asserts per-phase
    /// I/O equal to the fault-free run's, which recovering a corrupt read —
    /// one honest physical re-read — would legitimately break.
    pub fn errors_only(seed: u64, ops_hint: u64) -> Vec<FaultSpec> {
        let mut state = seed ^ 0xD6E8_FEB8_6659_FD93;
        let span = ops_hint.max(16);
        let at = |state: &mut u64| splitmix64(state) % span;
        vec![
            FaultSpec::any(FaultKind::TransientError {
                failures: 1 + splitmix64(&mut state) % 3,
            })
            .reads()
            .after(at(&mut state)),
            FaultSpec::any(FaultKind::TransientError {
                failures: 1 + splitmix64(&mut state) % 3,
            })
            .appends()
            .after(at(&mut state)),
            FaultSpec::any(FaultKind::LatencySpike {
                micros: 50,
                times: 2,
            })
            .after(at(&mut state)),
        ]
    }

    /// [`FaultPlan::transient`] plus one persistent read error, so the run
    /// must fail — cleanly, with no leaked files or reservations.
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

#[derive(Debug, Default)]
struct AtomicFaultStats {
    errors: AtomicU64,
    corruptions: AtomicU64,
    delays: AtomicU64,
}

struct ArmedSpec {
    spec: FaultSpec,
    matched: AtomicU64,
}

enum Action {
    Fail(String),
    Corrupt(u64),
    Proceed,
}

/// A [`BlockDevice`] wrapper that injects deterministic faults.
///
/// Disarmed (the initial state), the wrapper costs one relaxed atomic load
/// per operation and is behaviorally identical to the inner device — the
/// same zero-cost-when-off contract as [`TracedDevice`](crate::TracedDevice).
/// Arm it with [`FaultDevice::arm`] after bulk-loading the input relations
/// so the schedule's op counters start at the join run.
pub struct FaultDevice {
    inner: DeviceRef,
    armed: AtomicBool,
    specs: Vec<ArmedSpec>,
    stats: AtomicFaultStats,
}

impl FaultDevice {
    /// Wraps `inner` with the given schedule, initially disarmed.
    pub fn new(inner: DeviceRef, specs: Vec<FaultSpec>) -> Self {
        FaultDevice {
            inner,
            armed: AtomicBool::new(false),
            specs: specs
                .into_iter()
                .map(|spec| ArmedSpec {
                    spec,
                    matched: AtomicU64::new(0),
                })
                .collect(),
            stats: AtomicFaultStats::default(),
        }
    }

    /// [`FaultDevice::new`] already shared behind an `Arc`, handing back the
    /// concrete handle so tests can arm/disarm while the engine holds the
    /// [`DeviceRef`] coercion.
    pub fn new_arc(inner: DeviceRef, specs: Vec<FaultSpec>) -> Arc<Self> {
        Arc::new(FaultDevice::new(inner, specs))
    }

    /// The wrapped device.
    pub fn inner(&self) -> &DeviceRef {
        &self.inner
    }

    /// Starts injecting faults. Each spec's match counter keeps counting
    /// across arm/disarm cycles only while armed.
    pub fn arm(&self) {
        self.armed.store(true, Ordering::SeqCst);
    }

    /// Stops injecting faults (the wrapper reverts to pass-through).
    pub fn disarm(&self) {
        self.armed.store(false, Ordering::SeqCst);
    }

    /// Whether the device is currently injecting faults.
    pub fn is_armed(&self) -> bool {
        self.armed.load(Ordering::Relaxed)
    }

    /// Snapshot of the injected-fault counters.
    pub fn fault_stats(&self) -> FaultStats {
        FaultStats {
            injected_errors: self.stats.errors.load(Ordering::Relaxed),
            injected_corruptions: self.stats.corruptions.load(Ordering::Relaxed),
            injected_delays: self.stats.delays.load(Ordering::Relaxed),
        }
    }

    /// Evaluates the schedule for one op. Delays are applied inline;
    /// error/corrupt actions are returned (first matching spec wins).
    fn evaluate(&self, file: FileId, kind: IoKind, is_read: bool) -> Action {
        let mut action = Action::Proceed;
        for armed in &self.specs {
            if !armed.spec.matches(file, kind, is_read) {
                continue;
            }
            let match_idx = armed.matched.fetch_add(1, Ordering::Relaxed);
            if !armed.spec.fires(match_idx) {
                continue;
            }
            match &armed.spec.fault {
                FaultKind::LatencySpike { micros, .. } => {
                    self.stats.delays.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(std::time::Duration::from_micros(*micros));
                }
                FaultKind::TransientError { .. } if matches!(action, Action::Proceed) => {
                    action = Action::Fail(format!(
                        "injected transient fault (file {file:?}, op #{match_idx})"
                    ));
                }
                FaultKind::PersistentError if matches!(action, Action::Proceed) => {
                    action = Action::Fail(format!(
                        "injected persistent fault (file {file:?}, op #{match_idx})"
                    ));
                }
                FaultKind::CorruptRead { .. } if is_read && matches!(action, Action::Proceed) => {
                    action = Action::Corrupt(match_idx);
                }
                _ => {}
            }
        }
        if matches!(action, Action::Fail(_)) {
            self.stats.errors.fetch_add(1, Ordering::Relaxed);
        }
        action
    }

    /// Flips one deterministic body bit in a private copy of `page` (the
    /// device's resident copy is never touched — corruption is only visible
    /// to this read).
    fn corrupt(page: &Page, salt: u64) -> Arc<Page> {
        let mut bytes = page.as_bytes().to_vec();
        let body_bits = (bytes.len().saturating_sub(PAGE_HEADER_BYTES)) * 8;
        if body_bits == 0 {
            return Arc::new(page.clone());
        }
        let mut state = salt ^ 0x5DEE_CE66_D170_94A1;
        let bit = (splitmix64(&mut state) % body_bits as u64) as usize;
        bytes[PAGE_HEADER_BYTES + bit / 8] ^= 1 << (bit % 8);
        match Page::from_bytes(bytes) {
            Ok(p) => Arc::new(p),
            // A body flip can corrupt the record-count region on tiny pages;
            // surfacing the original page unflipped would hide the fault, so
            // fall back to flipping nothing only if reconstruction fails.
            Err(_) => Arc::new(page.clone()),
        }
    }
}

impl std::fmt::Debug for FaultDevice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultDevice")
            .field("armed", &self.is_armed())
            .field("specs", &self.specs.len())
            .field("stats", &self.fault_stats())
            .finish()
    }
}

impl BlockDevice for FaultDevice {
    fn create_file(&self) -> FileId {
        self.inner.create_file()
    }

    fn file_pages(&self, file: FileId) -> Result<usize> {
        self.inner.file_pages(file)
    }

    fn append_page(&self, file: FileId, page: &Page, kind: IoKind) -> Result<usize> {
        if !self.armed.load(Ordering::Relaxed) {
            return self.inner.append_page(file, page, kind);
        }
        match self.evaluate(file, kind, false) {
            Action::Fail(msg) => Err(StorageError::Io(msg)),
            _ => self.inner.append_page(file, page, kind),
        }
    }

    fn read_page(&self, file: FileId, index: usize, kind: IoKind) -> Result<Arc<Page>> {
        if !self.armed.load(Ordering::Relaxed) {
            return self.inner.read_page(file, index, kind);
        }
        match self.evaluate(file, kind, true) {
            Action::Fail(msg) => Err(StorageError::Io(msg)),
            Action::Corrupt(salt) => {
                let page = self.inner.read_page(file, index, kind)?;
                self.stats.corruptions.fetch_add(1, Ordering::Relaxed);
                Ok(Self::corrupt(&page, salt))
            }
            Action::Proceed => self.inner.read_page(file, index, kind),
        }
    }

    fn discard_page(&self, file: FileId, index: usize) -> Result<()> {
        // Like deletion, never faulted and never counted against a spec.
        self.inner.discard_page(file, index)
    }

    fn delete_file(&self, file: FileId) -> Result<()> {
        // Deletion is not in the cost model and never faulted: cleanup paths
        // must stay reliable so error handling can always release files.
        self.inner.delete_file(file)
    }

    fn stats(&self) -> IoStats {
        self.inner.stats()
    }

    fn reset_stats(&self) {
        self.inner.reset_stats();
    }

    fn set_io_sink(&self, sink: Option<Arc<dyn crate::traced::IoEventSink>>) {
        self.inner.set_io_sink(sink);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::SimDevice;
    use crate::record::{Record, RecordLayout};

    fn page_with(keys: &[u64]) -> Page {
        let mut p = Page::empty(256, RecordLayout::new(8));
        for &k in keys {
            assert!(p.push(&Record::with_fill(k, 8, 0)).unwrap());
        }
        p
    }

    #[test]
    fn disarmed_wrapper_is_pass_through() {
        let dev = FaultDevice::new(
            SimDevice::new_ref(),
            vec![FaultSpec::any(FaultKind::PersistentError)],
        );
        let f = dev.create_file();
        dev.append_page(f, &page_with(&[1, 2]), IoKind::RandWrite)
            .unwrap();
        let p = dev.read_page(f, 0, IoKind::SeqRead).unwrap();
        assert_eq!(p.records().count(), 2);
        assert_eq!(dev.fault_stats(), FaultStats::default());
        assert_eq!(dev.stats().total(), 2);
    }

    #[test]
    fn transient_error_window_fails_then_recovers() {
        let dev = FaultDevice::new(
            SimDevice::new_ref(),
            vec![FaultSpec::any(FaultKind::TransientError { failures: 2 }).reads()],
        );
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
        let dev = FaultDevice::new(
            SimDevice::new_ref(),
            vec![FaultSpec::any(FaultKind::PersistentError).reads().after(1)],
        );
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
        let dev = FaultDevice::new(
            SimDevice::new_ref(),
            vec![FaultSpec::any(FaultKind::CorruptRead { failures: 1 }).reads()],
        );
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
        let dev = FaultDevice::new(
            SimDevice::new_ref(),
            vec![FaultSpec::any(FaultKind::PersistentError)
                .reads()
                .on_kind(IoKind::RandRead)],
        );
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
        let dev = FaultDevice::new(
            sim.clone(),
            vec![FaultSpec::any(FaultKind::TransientError { failures: 1 })],
        );
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
}
