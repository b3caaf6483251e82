//! Checksummed I/O with bounded retry: [`CheckedDevice`] and [`RetryPolicy`].
//!
//! [`CheckedDevice`] wraps any [`BlockDevice`] and adds the two recovery
//! mechanisms a production block layer needs:
//!
//! * **Per-page checksums.** Every page appended through the wrapper is
//!   fingerprinted (FNV-1a 64 over the raw page bytes) and the checksum is
//!   verified on every read; a mismatch surfaces as
//!   [`StorageError::CorruptPage`]. Checksums are stored *out of band* in
//!   the wrapper — never inside the page — because the page header size is
//!   load-bearing for the paper's records-per-page math (`b_R`, `b_S`):
//!   widening it would silently change every modeled I/O count. Pages
//!   written below the wrapper (e.g. a relation bulk-loaded before the
//!   device was wrapped) have no recorded checksum and skip verification.
//! * **Bounded retry with backoff.** Transient failures ([`StorageError::Io`]
//!   and [`StorageError::CorruptPage`], the two shapes a flaky device
//!   produces) are retried up to [`RetryPolicy::max_attempts`] times with
//!   exponential backoff. Logic errors (`UnknownFile`, `PageOutOfBounds`,
//!   `OutOfMemory`) are never retried — retrying cannot fix them.
//!
//! Because the wrapped devices count I/O only after validation, an injected
//! error that is retried to success leaves the modeled
//! [`IoStats`] identical to a fault-free run; only a
//! *corrupt* read costs an extra (honest) physical re-read. Retry activity
//! is tracked separately in [`RetryStats`] so the modeled counters — which
//! the determinism pins compare bit-exactly — are never perturbed by the
//! recovery machinery.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use crate::device::{BlockDevice, DeviceRef, FileId};
use crate::iostats::{IoKind, IoStats};
use crate::page::Page;
use crate::sync::{read_unpoisoned, write_unpoisoned};
use crate::{Result, StorageError};

/// FNV-1a 64 over a byte slice — the page fingerprint used by
/// [`CheckedDevice`]. Public so tests and tools can recompute it.
pub fn page_checksum(bytes: &[u8]) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
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

impl RetryPolicy {
    fn backoff(&self, retry: u32) {
        if self.backoff_micros > 0 {
            let micros = self.backoff_micros << retry.min(16);
            std::thread::sleep(std::time::Duration::from_micros(micros));
        }
    }
}

/// Whether an error can be fixed by simply re-driving the same operation.
fn retryable(err: &StorageError) -> bool {
    matches!(err, StorageError::Io(_) | StorageError::CorruptPage(_))
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
    /// Operations that exhausted every attempt and returned an error.
    pub exhausted: u64,
}

#[derive(Debug, Default)]
struct AtomicRetryStats {
    read_retries: AtomicU64,
    append_retries: AtomicU64,
    checksum_failures: AtomicU64,
    recovered: AtomicU64,
    exhausted: AtomicU64,
}

/// A [`BlockDevice`] wrapper adding out-of-band page checksums and bounded
/// retry. Layer it *above* a fault source (engine → `CheckedDevice` →
/// [`FaultDevice`](crate::FaultDevice) → base device) so injected bit-flips
/// are caught and transient errors re-driven.
pub struct CheckedDevice {
    inner: DeviceRef,
    policy: RetryPolicy,
    sums: RwLock<HashMap<FileId, Vec<u64>>>,
    stats: AtomicRetryStats,
}

impl CheckedDevice {
    /// Wraps `inner` with the given retry policy.
    pub fn new(inner: DeviceRef, policy: RetryPolicy) -> Self {
        CheckedDevice {
            inner,
            policy,
            sums: RwLock::new(HashMap::new()),
            stats: AtomicRetryStats::default(),
        }
    }

    /// [`CheckedDevice::new`] already shared behind an `Arc`, handing back
    /// the concrete handle so callers can read [`RetryStats`] while the
    /// engine holds the [`DeviceRef`] coercion.
    pub fn new_arc(inner: DeviceRef, policy: RetryPolicy) -> Arc<Self> {
        Arc::new(CheckedDevice::new(inner, policy))
    }

    /// The wrapped device.
    pub fn inner(&self) -> &DeviceRef {
        &self.inner
    }

    /// The retry policy in effect.
    pub fn policy(&self) -> RetryPolicy {
        self.policy
    }

    /// Snapshot of the recovery counters.
    pub fn retry_stats(&self) -> RetryStats {
        RetryStats {
            read_retries: self.stats.read_retries.load(Ordering::Relaxed),
            append_retries: self.stats.append_retries.load(Ordering::Relaxed),
            checksum_failures: self.stats.checksum_failures.load(Ordering::Relaxed),
            recovered: self.stats.recovered.load(Ordering::Relaxed),
            exhausted: self.stats.exhausted.load(Ordering::Relaxed),
        }
    }

    /// The recorded checksum for a page, if it was written through this
    /// wrapper.
    fn expected_sum(&self, file: FileId, index: usize) -> Option<u64> {
        read_unpoisoned(&self.sums)
            .get(&file)
            .and_then(|v| v.get(index))
            .copied()
    }

    fn record_sum(&self, file: FileId, index: usize, sum: u64) {
        let mut sums = write_unpoisoned(&self.sums);
        let file_sums = sums.entry(file).or_default();
        if file_sums.len() <= index {
            file_sums.resize(index + 1, 0);
        }
        file_sums[index] = sum;
    }

    fn finish_op(&self, failed_attempts: u32, ok: bool) {
        if failed_attempts > 0 {
            if ok {
                self.stats.recovered.fetch_add(1, Ordering::Relaxed);
            } else {
                self.stats.exhausted.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

impl std::fmt::Debug for CheckedDevice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CheckedDevice")
            .field("policy", &self.policy)
            .field("stats", &self.retry_stats())
            .finish()
    }
}

impl BlockDevice for CheckedDevice {
    fn create_file(&self) -> FileId {
        let id = self.inner.create_file();
        write_unpoisoned(&self.sums).insert(id, Vec::new());
        id
    }

    fn file_pages(&self, file: FileId) -> Result<usize> {
        self.inner.file_pages(file)
    }

    fn append_page(&self, file: FileId, page: &Page, kind: IoKind) -> Result<usize> {
        let sum = page_checksum(page.as_bytes());
        let mut failed = 0u32;
        loop {
            match self.inner.append_page(file, page, kind) {
                Ok(index) => {
                    self.record_sum(file, index, sum);
                    self.finish_op(failed, true);
                    return Ok(index);
                }
                Err(e) if retryable(&e) && failed + 1 < self.policy.max_attempts => {
                    self.policy.backoff(failed);
                    failed += 1;
                    self.stats.append_retries.fetch_add(1, Ordering::Relaxed);
                }
                Err(e) => {
                    self.finish_op(failed + 1, false);
                    return Err(e);
                }
            }
        }
    }

    fn read_page(&self, file: FileId, index: usize, kind: IoKind) -> Result<Arc<Page>> {
        let expected = self.expected_sum(file, index);
        let mut failed = 0u32;
        loop {
            let outcome = match self.inner.read_page(file, index, kind) {
                Ok(page) => match expected {
                    Some(sum) if page_checksum(page.as_bytes()) != sum => {
                        self.stats.checksum_failures.fetch_add(1, Ordering::Relaxed);
                        Err(StorageError::CorruptPage(format!(
                            "checksum mismatch on file {file:?} page {index}"
                        )))
                    }
                    _ => Ok(page),
                },
                Err(e) => Err(e),
            };
            match outcome {
                Ok(page) => {
                    self.finish_op(failed, true);
                    return Ok(page);
                }
                Err(e) if retryable(&e) && failed + 1 < self.policy.max_attempts => {
                    self.policy.backoff(failed);
                    failed += 1;
                    self.stats.read_retries.fetch_add(1, Ordering::Relaxed);
                }
                Err(e) => {
                    self.finish_op(failed + 1, false);
                    return Err(e);
                }
            }
        }
    }

    fn delete_file(&self, file: FileId) -> Result<()> {
        write_unpoisoned(&self.sums).remove(&file);
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
    use crate::fault::{FaultDevice, FaultKind, FaultSpec};
    use crate::record::{Record, RecordLayout};

    fn page_with(keys: &[u64]) -> Page {
        let mut p = Page::empty(256, RecordLayout::new(8));
        for &k in keys {
            assert!(p.push(&Record::with_fill(k, 8, 0)).unwrap());
        }
        p
    }

    fn quiet_policy(max_attempts: u32) -> RetryPolicy {
        RetryPolicy {
            max_attempts,
            backoff_micros: 0,
        }
    }

    #[test]
    fn clean_roundtrip_records_and_verifies_checksums() {
        let dev = CheckedDevice::new(SimDevice::new_ref(), RetryPolicy::default());
        let f = dev.create_file();
        let idx = dev
            .append_page(f, &page_with(&[1, 2]), IoKind::RandWrite)
            .unwrap();
        let p = dev.read_page(f, idx, IoKind::SeqRead).unwrap();
        assert_eq!(p.records().count(), 2);
        assert_eq!(dev.retry_stats(), RetryStats::default());
        assert_eq!(dev.stats().total(), 2, "wrapper adds no modeled I/O");
    }

    #[test]
    fn checksum_catches_a_bit_flip_and_retry_recovers_a_transient_one() {
        let sim = SimDevice::new_ref();
        let fault = FaultDevice::new_arc(
            sim,
            vec![FaultSpec::any(FaultKind::CorruptRead { failures: 2 }).reads()],
        );
        let dev = CheckedDevice::new(fault.clone(), quiet_policy(4));
        let f = dev.create_file();
        let clean = page_with(&[7, 8, 9]);
        dev.append_page(f, &clean, IoKind::RandWrite).unwrap();
        fault.arm();
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
        let sim = SimDevice::new_ref();
        let fault = FaultDevice::new_arc(
            sim,
            vec![FaultSpec::any(FaultKind::CorruptRead { failures: u64::MAX }).reads()],
        );
        let dev = CheckedDevice::new(fault.clone(), quiet_policy(3));
        let f = dev.create_file();
        dev.append_page(f, &page_with(&[1]), IoKind::RandWrite)
            .unwrap();
        fault.arm();
        let err = dev.read_page(f, 0, IoKind::SeqRead).unwrap_err();
        assert!(matches!(err, StorageError::CorruptPage(_)), "{err}");
        let rs = dev.retry_stats();
        assert_eq!(rs.checksum_failures, 3);
        assert_eq!(rs.exhausted, 1);
    }

    #[test]
    fn transient_io_errors_are_retried_on_both_ops() {
        let sim = SimDevice::new_ref();
        let fault = FaultDevice::new_arc(
            sim,
            vec![
                FaultSpec::any(FaultKind::TransientError { failures: 2 }).reads(),
                FaultSpec::any(FaultKind::TransientError { failures: 2 }).appends(),
            ],
        );
        let dev = CheckedDevice::new(fault.clone(), quiet_policy(4));
        let f = dev.create_file();
        fault.arm();
        dev.append_page(f, &page_with(&[5]), IoKind::RandWrite)
            .unwrap();
        let p = dev.read_page(f, 0, IoKind::SeqRead).unwrap();
        assert_eq!(p.records().count(), 1);
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
        let dev = CheckedDevice::new(SimDevice::new_ref(), quiet_policy(5));
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
        let dev = CheckedDevice::new(sim, RetryPolicy::default());
        assert!(dev.read_page(f, 0, IoKind::SeqRead).is_ok());
        assert_eq!(dev.retry_stats().checksum_failures, 0);
    }

    #[test]
    fn checksum_is_stable_and_sensitive() {
        let a = page_checksum(b"hello");
        assert_eq!(a, page_checksum(b"hello"));
        assert_ne!(a, page_checksum(b"hellp"));
    }
}
