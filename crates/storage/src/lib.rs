//! # nocap-storage
//!
//! Storage substrate for the NOCAP reproduction.
//!
//! The NOCAP paper evaluates storage-based joins on a server with a PCIe SSD
//! and reports **number of I/Os** (4 KB page reads and writes, split into
//! sequential and random accesses) as its primary metric, deriving latency
//! from the same I/O trace through the device's read/write asymmetry
//! (μ = random-write / sequential-read, τ = sequential-write /
//! sequential-read).
//!
//! This crate provides everything the join algorithms need from a storage
//! engine, built from scratch:
//!
//! * [`page`] — fixed-size slotted pages holding fixed-width records.
//! * [`record`] — the record format shared by both relations of a join.
//! * [`iostats`] — I/O counters and the parametric latency model
//!   ([`DeviceProfile`]) used to convert an I/O trace into estimated latency.
//! * [`device`] — the [`BlockDevice`] trait with two implementations:
//!   [`SimDevice`] (in-memory, exact I/O accounting — the default used by all
//!   experiments) and [`FileDevice`] (real files).
//! * [`block`] — the real-device block layer behind [`FileDevice`]: a
//!   sharded open-file-handle cache with positioned reads, read-ahead and
//!   write-behind coalescing in 8-page blocks, torn-page recovery, and a
//!   [`SyncPolicy`] chosen through [`FileDeviceBuilder`]. Modeled
//!   [`IoStats`] stay per-page and bit-identical to [`SimDevice`];
//!   [`BlockStats`] reports the physical syscall shape.
//! * [`relation`] — the one on-disk record file: a join input, a spill
//!   partition and a sorted run are all a [`Relation`], written by the one
//!   [`RelationWriter`] (one-page output buffer, sequential or random
//!   writes) and read by the one [`RelationScan`]. A relation owns its
//!   file: dropping its last handle deletes it, on every exit path.
//! * [`spill`] — [`SpillSet`], the one write path every hash join spills a
//!   set of partitions through (worker-private pages, one random-write
//!   file per partition, a deterministic tail merge).
//! * [`hash_table`] — an in-memory build/probe hash table with fudge-factor
//!   (F) space accounting, a sealed bucket-contiguous probe layout and
//!   vectorized key compares.
//! * [`hash`] — the one key-hashing utility every crate shares: SplitMix64
//!   routing hash, seeded recursion-level hashes, the independent Murmur
//!   stream and the Fibonacci bucket mapping.
//! * [`simd`] — the key-scan kernels behind the hash table:
//!   auto-vectorizable 4-wide chunked scalar loops.
//! * [`bloom`] — a cache-blocked [`BloomFilter`] no executor consults; the
//!   benchmark's `kernel.bloom_*` rows build and probe it.
//! * [`radix`] — software-managed, cache-line-sized per-partition write
//!   buffers ([`RadixRouter`]) that batch records in front of a partition
//!   sink without changing per-partition arrival order; no executor uses
//!   them, the benchmark's `kernel.radix_route_mrec_s` row does.
//! * [`sort`] — the external sort the sort-merge join baseline runs:
//!   arena-backed run generation over a fixed chunk grid ([`run_chunks`],
//!   [`sort_chunk`]), the group merge of a cascade level ([`merge_runs`],
//!   which consumes its runs), fence-cut key ranges ([`split_runs`](sort::split_runs)) —
//!   both merged by the caller on any number of workers — and the
//!   loser-tree multiway merge ([`LoserTree`]) under both.
//! * [`traced`] — [`TracedDevice`], the one [`BlockDevice`] wrapper: it
//!   reports every page access (file, page, declared [`IoKind`], measured
//!   latency) to an attached [`IoEventSink`] — the substrate of the
//!   modeled-vs-observed I/O audit in `nocap-obs` — and, when configured,
//!   injects a deterministic seeded fault schedule ([`FaultSpec`],
//!   [`FaultPlan`]) and re-drives failures under a bounded [`RetryPolicy`]
//!   with out-of-band page checksums; the substrate of the differential
//!   fault matrix.
//! * [`sync`] — poison-tolerant lock helpers shared by every crate, so one
//!   panicked worker cannot cascade panics through shared state.
//!
//! The crate has no dependencies and is deliberately self-contained so that
//! the algorithm crates (`nocap` and `nocap-joins`) only talk to storage
//! through these interfaces.
//!
//! The whole layer is **thread-safe**: [`BlockDevice`] requires
//! `Send + Sync` (devices use interior locking — an `RwLock`ed page store
//! and lock-free atomic I/O counters in [`SimDevice`]), and
//! [`DeviceRef`](device::DeviceRef) is an `Arc`. This is what lets the
//! `nocap-par` execution engine shard partitioning scans across worker
//! threads while the I/O trace stays exact. The *B*-page budget is not
//! this crate's to enforce: each join declares its pages, one check
//! (`nocap_model::JoinSpec::pages_left`) refuses a plan over B, and the
//! engine's staging quotas (`nocap_model::staging_quotas`) hold the plan
//! at run time.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod block;
pub mod bloom;
pub mod device;
pub mod hash;
pub mod hash_table;
pub mod iostats;
pub mod page;
pub mod radix;
pub mod record;
pub mod relation;
pub mod simd;
pub mod sort;
pub mod spill;
pub mod sync;
pub mod traced;

pub use block::{
    BlockStats, FileDeviceBuilder, RecycledStorage, ResidentPages, SyncPolicy,
    DEFAULT_PAGES_PER_BLOCK,
};
pub use bloom::BloomFilter;
pub use device::{BlockDevice, FileDevice, FileId, SimDevice};
pub use hash_table::{JoinHashTable, ProbeIter};
pub use iostats::{AtomicIoStats, DeviceProfile, IoKind, IoStats};
pub use page::{Page, DEFAULT_PAGE_SIZE};
pub use radix::RadixRouter;
pub use record::{RecordBatch, RecordLayout, RecordRef};
pub use relation::{Relation, RelationScan, RelationWriter};
pub use sort::{merge_runs, run_chunks, sort_chunk, LoserTree, RunSlice, SortScratch, SortedRun};
pub use spill::{LocalPages, SpillSet};
pub use sync::{into_inner_unpoisoned, lock_unpoisoned, read_unpoisoned, write_unpoisoned};
pub use traced::{
    FaultKind, FaultPlan, FaultSpec, FaultStats, FaultTarget, IoEventSink, IoMarkerKind, IoOp,
    RetryPolicy, RetryStats, TracedDevice,
};

/// Errors produced by the storage layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// A record was larger than the page it was supposed to fit into.
    RecordTooLarge {
        /// Size of the record in bytes (including key).
        record_bytes: usize,
        /// Usable bytes per page.
        page_capacity: usize,
    },
    /// A page index was out of bounds for the given file.
    PageOutOfBounds {
        /// Requested page index.
        index: usize,
        /// Number of pages in the file.
        len: usize,
    },
    /// A file id was not known to the device.
    UnknownFile(FileId),
    /// The page was released with [`BlockDevice::discard_page`] and read
    /// again.
    DiscardedPage {
        /// The file.
        file: FileId,
        /// The page index.
        index: usize,
    },
    /// The page budget *B* cannot hold what the operation needs: the pages
    /// a join declares, or a statistics pass's shard sketches.
    OutOfMemory {
        /// Pages requested.
        requested: usize,
        /// Pages the budget holds.
        available: usize,
    },
    /// An I/O error from the underlying operating system (only produced by
    /// [`FileDevice`]).
    Io(String),
    /// A page failed to deserialize (corrupt header or truncated body) or a
    /// checksum verification failed.
    CorruptPage(String),
    /// A worker thread panicked; the payload message is preserved so the
    /// top-level caller sees a deterministic error instead of a process
    /// abort.
    WorkerPanicked(String),
    /// The operation was abandoned because a sibling worker already failed
    /// (first-error cancellation). The root cause is reported separately;
    /// this variant only marks the cancelled siblings.
    Cancelled,
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::RecordTooLarge {
                record_bytes,
                page_capacity,
            } => write!(
                f,
                "record of {record_bytes} bytes does not fit in a page with {page_capacity} usable bytes"
            ),
            StorageError::PageOutOfBounds { index, len } => {
                write!(f, "page index {index} out of bounds for file of {len} pages")
            }
            StorageError::UnknownFile(id) => write!(f, "unknown file id {id:?}"),
            StorageError::DiscardedPage { file, index } => {
                write!(f, "page {index} of file {file:?} was discarded")
            }
            StorageError::OutOfMemory {
                requested,
                available,
            } => write!(
                f,
                "page budget exhausted: requested {requested} pages, {available} available"
            ),
            StorageError::Io(msg) => write!(f, "I/O error: {msg}"),
            StorageError::CorruptPage(msg) => write!(f, "corrupt page: {msg}"),
            StorageError::WorkerPanicked(msg) => write!(f, "worker thread panicked: {msg}"),
            StorageError::Cancelled => {
                write!(f, "operation cancelled after a sibling worker failed")
            }
        }
    }
}

impl std::error::Error for StorageError {}

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, StorageError>;
