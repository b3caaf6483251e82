//! # nocap-par
//!
//! The partitioned-join execution engine, for any number of workers.
//!
//! The partitioning passes over R and S are embarrassingly parallel: every
//! record is routed independently by a hash of its key. This crate provides
//! the building blocks that let an executor shard those scans across `T ≥ 1`
//! workers **without the modeled I/O depending on `T` or the paper's memory
//! budget being violated**:
//!
//! * [`pool`] — [`ordered_tasks`], the one fan-out: a scoped work queue
//!   whose workers claim tasks from an atomic cursor, each with private
//!   state handed back in worker order (worker 0 is the calling thread,
//!   `n − 1` threads are spawned — at one worker nothing is spawned and the
//!   fan-out *is* a sequential loop). It carries the partition scans, the
//!   partition-wise probe phase, sort-run generation, the SMJ merges and
//!   the statistics shards. The fan-out is **fail-clean**: worker panics —
//!   worker 0's included — are caught and surfaced as
//!   `StorageError::WorkerPanicked`, and a private cancellation token
//!   propagates the first error so siblings stop before their next task
//!   instead of finishing doomed work. Every task becomes a span tagged
//!   with its worker id and task index through `nocap-obs` — the per-worker
//!   timelines — without perturbing execution; under `Obs::off()` it
//!   records nothing.
//! * [`shard`] — [`page_morsels`] cuts a relation's pages into the
//!   fixed-length morsels the scans claim as tasks ([`page_shards`] is the
//!   static even split the statistics collector's fixed grid uses).
//! * [`stage`] — [`ParallelStager`], the quota-destaging stager:
//!   per-worker staging buffers, a shared atomic record count per
//!   partition, and quota-triggered destaging whose outcome depends only on
//!   each partition's total record count — never on scan order or thread
//!   interleaving — which is what makes every thread count, one included,
//!   produce bit-identical I/O counts. Destaged records go through the
//!   stager's own `nocap_storage::SpillSet`, the spill write path every
//!   hash join shares: one spill file per partition, worker-private output
//!   pages that meet the partition's lock once per *full page*, and a tail
//!   merge of the partial pages through the partition's one buffered
//!   writer — so a partition that receives `n` records costs exactly
//!   `⌈n / b⌉` random writes, no matter how many workers fed it or in which
//!   order. The quotas themselves — the deterministic destaging policy of
//!   NOCAP's residual partitioner and of DHH — come from
//!   `nocap_model::staging_quotas`, which the planner's residual estimate
//!   prices; a quota of 0 destages a partition on its first record.
//!
//! * [`hybrid`] — [`hybrid_hash_join`], the two-pass hybrid hash join made
//!   of the three modules above. NOCAP, DHH, Histojoin and GHJ each hand it
//!   a [`HybridPlan`] — fixed-structure pages, one staging quota per
//!   partition and one [`Route`] function that both passes consult — and
//!   are otherwise the same executor, down to the one pair join of the
//!   probe phase. GHJ is the plan that caches nothing and gives every
//!   partition quota 0: the hybrid hash join with nothing resident.
//!
//! There is no separate single-threaded engine: the executors' sequential
//! `run` entry points call the same bodies with one worker. The cost of
//! that, at every thread count, is physical memory the §4.1 model does not
//! charge: each worker holds one private output page per spill partition it
//! touched — up to `T × m` pages for `m` spill partitions. At `T = 1` that
//! is the `m` the model charges (see `nocap_storage::spill`).
//!
//! Routing (which partition a record belongs to) stays with the plan, so
//! `nocap` (rounded-hash routing), GHJ (plain hash over `B − 1`
//! partitions), DHH (modulo hash over the shared quota geometry) and any
//! future operator reuse the same machinery. The same worker pool and
//! [`page_shards`] also drive `nocap-stats`' sharded parallel collection
//! (`StatsCollector::collect_parallel`), whose fixed shard grid plays the
//! role the per-partition quotas play here: a decomposition fixed by the
//! data, never by the worker count, so every thread count computes the
//! same artifact.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod cancel;
pub mod hybrid;
pub mod pool;
pub mod shard;
pub mod stage;

pub use hybrid::{hybrid_hash_join, HybridPlan, Route};
pub use pool::ordered_tasks;
pub use shard::{page_morsels, page_shards};
pub use stage::{ParallelStager, StagerBuild, WorkerStage};
