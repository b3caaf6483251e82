//! # nocap-par
//!
//! The multi-threaded partitioned-join execution engine.
//!
//! The partitioning passes over R and S are embarrassingly parallel: every
//! record is routed independently by a hash of its key. This crate provides
//! the building blocks that let an executor shard those scans across worker
//! threads **without changing the modeled I/O or violating the paper's
//! memory budget**:
//!
//! * [`pool`] — a scoped [`run_workers`] fan-out helper (worker 0 is the
//!   calling thread, `n − 1` threads are spawned), a work-queue
//!   [`sum_tasks`] helper for the partition-wise probe phase, and
//!   [`default_threads`] (the `NOCAP_THREADS` environment knob). All
//!   fan-outs are **fail-clean**: worker panics are caught and surfaced as
//!   `StorageError::WorkerPanicked`, and a [`cancel`] token
//!   ([`CancelToken`]) propagates the first error so siblings stop at their
//!   next task boundary instead of finishing doomed work. The
//!   `*_obs` variants ([`run_workers_obs`], [`sum_tasks_obs`],
//!   [`ordered_tasks_obs`]) additionally record per-worker / per-task spans
//!   through `nocap-obs`, producing the per-worker timelines of the
//!   chrome://tracing output without perturbing execution.
//! * [`shard`] — [`PageMorsels`] hands a relation's pages out in
//!   fixed-length morsels from an atomic cursor ([`page_shards`] is the
//!   static even split the statistics collector's fixed grid uses);
//!   [`SharedWriterSet`] is the parallel spill write path: one spill file
//!   per partition, worker-private output pages ([`LocalWriter`]) that meet
//!   the partition's lock once per *full page*, and a tail merge of the
//!   partial pages through the partition's one buffered writer — so a
//!   partition that receives `n` records costs exactly `⌈n / b⌉` random
//!   writes, in the sequential writer's phase windows, no matter how many
//!   workers fed it or in which order.
//! * [`quota`] — [`even_caps`] carves a page budget into per-partition
//!   quotas (the deterministic destaging policy shared by the sequential
//!   and parallel residual partitioners).
//! * [`stage`] — [`ParallelStager`], the concurrent counterpart of the
//!   DHH-style residual partitioner: per-worker staging buffers, a shared
//!   atomic record count per partition, and quota-triggered destaging whose
//!   outcome depends only on each partition's total record count — never on
//!   thread interleaving — which is what makes `run_parallel(n)` produce
//!   bit-identical I/O counts to the sequential executor. Destaged records
//!   take the same worker-private page path as [`shard`].
//! * [`quota_stage`] — [`QuotaStager`], the *sequential* twin of the above:
//!   the quota-destaging mechanism shared by NOCAP's residual partitioner
//!   and DHH's partitioner (columnar `RecordBatch` staging, zero-copy
//!   inserts), with routing left to the caller.
//!
//! The crate is deliberately generic: routing (which partition a record
//! belongs to) stays with the caller, so `nocap` (rounded-hash routing),
//! GHJ (plain hash), DHH (modulo hash over the shared quota geometry) and
//! any future operator reuse the same machinery. The same worker pool and
//! [`page_shards`] also drive `nocap-stats`' sharded parallel collection
//! (`StatsCollector::collect_parallel`), whose fixed shard grid plays the
//! role the per-partition quotas play here: a decomposition fixed by the
//! data, never by the worker count, so every thread count computes the
//! same artifact.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cancel;
pub mod pool;
pub mod quota;
pub mod quota_stage;
pub mod shard;
pub mod stage;

pub use cancel::CancelToken;
pub use pool::{
    default_threads, ordered_tasks, ordered_tasks_obs, run_workers, run_workers_cancel,
    run_workers_obs, sum_tasks, sum_tasks_obs,
};
pub use quota::even_caps;
pub use quota_stage::{QuotaStager, QuotaStagerBuild};
pub use shard::{page_shards, LocalWriter, PageMorsels, SharedWriterSet};
pub use stage::{ParallelStager, StagerBuild, WorkerStage};
