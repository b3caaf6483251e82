//! I/O accounting and the parametric device latency model.
//!
//! The paper compares join algorithms on two metrics: the raw number of page
//! I/Os and the end-to-end latency. Latency is dominated by the device's
//! read/write asymmetry, captured by two ratios:
//!
//! * μ = latency(random write) / latency(sequential read)
//! * τ = latency(sequential write) / latency(sequential read)
//!
//! The paper's measured values are μ = 1.28, τ = 1.2 with `O_SYNC` off and
//! μ = 3.3, τ = 3.2 with `O_SYNC` on (§5.1), and μ = 1.2, τ = 1.14 on the
//! AWS i3.4xlarge used for TPC-H (§5.2). [`DeviceProfile`] encodes these and
//! converts an [`IoStats`] trace into an estimated I/O latency.

/// Classification of a single page I/O, matching the paper's cost model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IoKind {
    /// Sequential page read (relation scans, partition scans).
    SeqRead,
    /// Random page read (sort-merge join probes across runs).
    RandRead,
    /// Sequential page write (external sort run output).
    SeqWrite,
    /// Random page write (partition spill writes).
    RandWrite,
}

/// Counters for each class of page I/O.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoStats {
    /// Number of sequential page reads.
    pub seq_reads: u64,
    /// Number of random page reads.
    pub rand_reads: u64,
    /// Number of sequential page writes.
    pub seq_writes: u64,
    /// Number of random page writes.
    pub rand_writes: u64,
}

impl IoStats {
    /// A zeroed counter set.
    pub fn new() -> Self {
        IoStats::default()
    }

    /// Records one I/O of the given kind.
    pub fn record(&mut self, kind: IoKind) {
        self.record_many(kind, 1);
    }

    /// Records `count` I/Os of the given kind.
    pub fn record_many(&mut self, kind: IoKind, count: u64) {
        match kind {
            IoKind::SeqRead => self.seq_reads += count,
            IoKind::RandRead => self.rand_reads += count,
            IoKind::SeqWrite => self.seq_writes += count,
            IoKind::RandWrite => self.rand_writes += count,
        }
    }

    /// Total number of page reads.
    pub fn reads(&self) -> u64 {
        self.seq_reads + self.rand_reads
    }

    /// Total number of page writes.
    pub fn writes(&self) -> u64 {
        self.seq_writes + self.rand_writes
    }

    /// Total number of page I/Os (the paper's "#I/Os" metric).
    pub fn total(&self) -> u64 {
        self.reads() + self.writes()
    }

    /// Element-wise difference `self - earlier`, used to isolate the I/Os of
    /// one phase of a join.
    pub fn since(&self, earlier: &IoStats) -> IoStats {
        IoStats {
            seq_reads: self.seq_reads - earlier.seq_reads,
            rand_reads: self.rand_reads - earlier.rand_reads,
            seq_writes: self.seq_writes - earlier.seq_writes,
            rand_writes: self.rand_writes - earlier.rand_writes,
        }
    }

    /// Element-wise sum.
    pub fn plus(&self, other: &IoStats) -> IoStats {
        IoStats {
            seq_reads: self.seq_reads + other.seq_reads,
            rand_reads: self.rand_reads + other.rand_reads,
            seq_writes: self.seq_writes + other.seq_writes,
            rand_writes: self.rand_writes + other.rand_writes,
        }
    }
}

impl std::ops::Add for IoStats {
    type Output = IoStats;
    fn add(self, rhs: IoStats) -> IoStats {
        self.plus(&rhs)
    }
}

impl std::ops::AddAssign for IoStats {
    fn add_assign(&mut self, rhs: IoStats) {
        *self = self.plus(&rhs);
    }
}

impl std::iter::Sum for IoStats {
    fn sum<I: Iterator<Item = IoStats>>(iter: I) -> IoStats {
        iter.fold(IoStats::new(), |acc, s| acc + s)
    }
}

impl std::fmt::Display for IoStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "total={} (seq_r={}, rand_r={}, seq_w={}, rand_w={})",
            self.total(),
            self.seq_reads,
            self.rand_reads,
            self.seq_writes,
            self.rand_writes
        )
    }
}

/// Lock-free I/O counters shared by concurrent workers.
///
/// The parallel execution engine (`nocap-par`) issues page I/Os from many
/// threads at once; devices count them through this structure so the
/// accounting itself never serializes the workers. Counters use relaxed
/// ordering — each counter is an independent statistic and no other memory
/// is published through it. A [`snapshot`](AtomicIoStats::snapshot) taken
/// while workers are quiescent (the executor snapshots only at phase
/// barriers) is exact.
#[derive(Debug, Default)]
pub struct AtomicIoStats {
    seq_reads: std::sync::atomic::AtomicU64,
    rand_reads: std::sync::atomic::AtomicU64,
    seq_writes: std::sync::atomic::AtomicU64,
    rand_writes: std::sync::atomic::AtomicU64,
}

impl AtomicIoStats {
    /// A zeroed counter set.
    pub fn new() -> Self {
        AtomicIoStats::default()
    }

    /// Records one I/O of the given kind.
    pub fn record(&self, kind: IoKind) {
        use std::sync::atomic::Ordering::Relaxed;
        match kind {
            IoKind::SeqRead => self.seq_reads.fetch_add(1, Relaxed),
            IoKind::RandRead => self.rand_reads.fetch_add(1, Relaxed),
            IoKind::SeqWrite => self.seq_writes.fetch_add(1, Relaxed),
            IoKind::RandWrite => self.rand_writes.fetch_add(1, Relaxed),
        };
    }

    /// Copies the current counter values into a plain [`IoStats`].
    pub fn snapshot(&self) -> IoStats {
        use std::sync::atomic::Ordering::Relaxed;
        IoStats {
            seq_reads: self.seq_reads.load(Relaxed),
            rand_reads: self.rand_reads.load(Relaxed),
            seq_writes: self.seq_writes.load(Relaxed),
            rand_writes: self.rand_writes.load(Relaxed),
        }
    }

    /// Resets every counter to zero.
    pub fn reset(&self) {
        use std::sync::atomic::Ordering::Relaxed;
        self.seq_reads.store(0, Relaxed);
        self.rand_reads.store(0, Relaxed);
        self.seq_writes.store(0, Relaxed);
        self.rand_writes.store(0, Relaxed);
    }
}

/// Latency model of the storage device: cost per page I/O of each kind,
/// expressed in microseconds.
///
/// The absolute scale only matters for the "latency" figures; the relative
/// ordering of algorithms depends on the asymmetry ratios μ and τ.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceProfile {
    /// Microseconds per sequential page read.
    pub seq_read_us: f64,
    /// Microseconds per random page read.
    pub rand_read_us: f64,
    /// Microseconds per sequential page write.
    pub seq_write_us: f64,
    /// Microseconds per random page write.
    pub rand_write_us: f64,
}

impl DeviceProfile {
    /// Builds a profile from a base sequential-read latency and the paper's
    /// asymmetry parameters.
    ///
    /// * `mu` — random-write / sequential-read ratio.
    /// * `tau` — sequential-write / sequential-read ratio.
    /// * `rand_read_ratio` — random-read / sequential-read ratio (the paper
    ///   reports random reads ≈1.2× slower than sequential reads for SMJ).
    pub fn from_asymmetry(seq_read_us: f64, mu: f64, tau: f64, rand_read_ratio: f64) -> Self {
        DeviceProfile {
            seq_read_us,
            rand_read_us: seq_read_us * rand_read_ratio,
            seq_write_us: seq_read_us * tau,
            rand_write_us: seq_read_us * mu,
        }
    }

    /// The paper's PCIe SSD with `O_SYNC` **off** (§5.1, "Experimental
    /// Setup"): μ = 1.28, τ = 1.2, random reads ≈ 1.2× sequential. The
    /// default profile of every experiment.
    pub fn osync_off() -> Self {
        DeviceProfile::from_asymmetry(25.0, 1.28, 1.2, 1.2)
    }

    /// The paper's PCIe SSD with `O_SYNC` **on** (§5.1): μ = 3.3, τ = 3.2.
    /// Synchronous writes widen the read/write asymmetry, which is what makes
    /// write-frugal partitioning (Fig. 8's right column) pay off.
    pub fn osync_on() -> Self {
        DeviceProfile::from_asymmetry(25.0, 3.3, 3.2, 1.2)
    }

    /// The AWS i3.4xlarge NVMe device of the TPC-H evaluation (§5.2):
    /// μ = 1.2, τ = 1.14.
    pub fn aws_i3() -> Self {
        DeviceProfile::from_asymmetry(25.0, 1.2, 1.14, 1.2)
    }

    /// μ, the random-write / sequential-read asymmetry.
    pub fn mu(&self) -> f64 {
        self.rand_write_us / self.seq_read_us
    }

    /// τ, the sequential-write / sequential-read asymmetry.
    pub fn tau(&self) -> f64 {
        self.seq_write_us / self.seq_read_us
    }

    /// Latency of one I/O of the given kind, in microseconds.
    pub fn latency_us(&self, kind: IoKind) -> f64 {
        match kind {
            IoKind::SeqRead => self.seq_read_us,
            IoKind::RandRead => self.rand_read_us,
            IoKind::SeqWrite => self.seq_write_us,
            IoKind::RandWrite => self.rand_write_us,
        }
    }

    /// Estimated latency (in microseconds) of an I/O trace under this device.
    pub fn trace_latency_us(&self, stats: &IoStats) -> f64 {
        stats.seq_reads as f64 * self.seq_read_us
            + stats.rand_reads as f64 * self.rand_read_us
            + stats.seq_writes as f64 * self.seq_write_us
            + stats.rand_writes as f64 * self.rand_write_us
    }

    /// Same as [`trace_latency_us`](Self::trace_latency_us) but in seconds.
    pub fn trace_latency_secs(&self, stats: &IoStats) -> f64 {
        self.trace_latency_us(stats) / 1_000_000.0
    }
}

impl Default for DeviceProfile {
    fn default() -> Self {
        DeviceProfile::osync_off()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_totals() {
        let mut s = IoStats::new();
        s.record(IoKind::SeqRead);
        s.record_many(IoKind::RandWrite, 3);
        s.record(IoKind::SeqWrite);
        assert_eq!(s.reads(), 1);
        assert_eq!(s.writes(), 4);
        assert_eq!(s.total(), 5);
    }

    #[test]
    fn atomic_stats_record_snapshot_reset() {
        let stats = AtomicIoStats::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..100 {
                        stats.record(IoKind::SeqRead);
                        stats.record(IoKind::RandWrite);
                    }
                });
            }
        });
        let snap = stats.snapshot();
        assert_eq!(snap.seq_reads, 400);
        assert_eq!(snap.rand_writes, 400);
        assert_eq!(snap.total(), 800);
        stats.reset();
        assert_eq!(stats.snapshot().total(), 0);
    }

    #[test]
    fn since_isolates_a_phase() {
        let mut s = IoStats::new();
        s.record_many(IoKind::SeqRead, 10);
        let snapshot = s;
        s.record_many(IoKind::RandWrite, 7);
        let delta = s.since(&snapshot);
        assert_eq!(delta.seq_reads, 0);
        assert_eq!(delta.rand_writes, 7);
    }

    #[test]
    fn add_is_elementwise() {
        let mut a = IoStats::new();
        a.record_many(IoKind::SeqRead, 2);
        let mut b = IoStats::new();
        b.record_many(IoKind::SeqWrite, 5);
        let c = a + b;
        assert_eq!(c.seq_reads, 2);
        assert_eq!(c.seq_writes, 5);
        assert_eq!(c.total(), 7);
        let mut acc = a;
        acc += b;
        assert_eq!(acc, c);
        let summed: IoStats = [a, b, c].into_iter().sum();
        assert_eq!(summed.total(), 14);
    }

    #[test]
    fn asymmetry_ratios_match_the_paper() {
        let no_sync = DeviceProfile::osync_off();
        assert!((no_sync.mu() - 1.28).abs() < 1e-9);
        assert!((no_sync.tau() - 1.2).abs() < 1e-9);
        let sync = DeviceProfile::osync_on();
        assert!((sync.mu() - 3.3).abs() < 1e-9);
        assert!((sync.tau() - 3.2).abs() < 1e-9);
        let aws = DeviceProfile::aws_i3();
        assert!((aws.mu() - 1.2).abs() < 1e-9);
        assert!((aws.tau() - 1.14).abs() < 1e-9);
        assert_eq!(DeviceProfile::default(), no_sync);
    }

    #[test]
    fn trace_latency_weights_write_asymmetry() {
        let profile = DeviceProfile::from_asymmetry(10.0, 2.0, 1.5, 1.0);
        let mut reads_only = IoStats::new();
        reads_only.record_many(IoKind::SeqRead, 100);
        let mut writes_only = IoStats::new();
        writes_only.record_many(IoKind::RandWrite, 100);
        assert!(
            profile.trace_latency_us(&writes_only) > profile.trace_latency_us(&reads_only),
            "random writes must be costed higher than sequential reads"
        );
        assert!((profile.trace_latency_us(&reads_only) - 1000.0).abs() < 1e-9);
        assert!((profile.trace_latency_us(&writes_only) - 2000.0).abs() < 1e-9);
    }

    #[test]
    fn sync_profile_is_slower_for_writes() {
        let mut w = IoStats::new();
        w.record_many(IoKind::RandWrite, 50);
        let no_sync = DeviceProfile::osync_off().trace_latency_us(&w);
        let sync = DeviceProfile::osync_on().trace_latency_us(&w);
        assert!(sync > 2.0 * no_sync);
    }
}
