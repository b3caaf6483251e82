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
//! * [`pool`] — a scoped [`run_workers`] fan-out helper (worker 0 is the
//!   calling thread, `n − 1` threads are spawned — at one worker nothing is
//!   spawned and the fan-out *is* a sequential loop), a work-queue
//!   [`ordered_tasks`] helper for the partition-wise probe phase, sort-run
//!   generation and the SMJ merges, and
//!   [`default_threads`] / [`resolve_threads`] (the `NOCAP_THREADS`
//!   environment knob, read only when a caller passes `threads = 0`). All
//!   fan-outs are **fail-clean**: worker panics — worker 0's included —
//!   are caught and surfaced as `StorageError::WorkerPanicked`, and a
//!   [`cancel`] token ([`CancelToken`]) propagates the first error so
//!   siblings stop at their next task boundary instead of finishing doomed
//!   work. [`run_workers_obs`] and [`ordered_tasks`] take an
//!   `Obs` and record per-worker / per-task spans through `nocap-obs`,
//!   producing the per-worker timelines of the chrome://tracing output
//!   without perturbing execution; under `Obs::off()` they record nothing.
//! * [`shard`] — [`PageMorsels`] hands a relation's pages out in
//!   fixed-length morsels from an atomic cursor ([`page_shards`] is the
//!   static even split the statistics collector's fixed grid uses);
//!   [`SharedWriterSet`] is the spill write path: one spill file per
//!   partition, worker-private output pages ([`LocalWriter`]) that meet
//!   the partition's lock once per *full page*, and a tail merge of the
//!   partial pages through the partition's one buffered writer — so a
//!   partition that receives `n` records costs exactly `⌈n / b⌉` random
//!   writes, `⌈n / b⌉ − 1` of them before the tail merge's phase window
//!   closes, no matter how many workers fed it or in which order.
//! * [`stage`] — [`ParallelStager`], the quota-destaging residual stager:
//!   per-worker staging buffers, a shared atomic record count per
//!   partition, and quota-triggered destaging whose outcome depends only on
//!   each partition's total record count — never on scan order or thread
//!   interleaving — which is what makes every thread count, one included,
//!   produce bit-identical I/O counts. Destaged records take the same
//!   worker-private page path as [`shard`]. The quotas themselves — the
//!   deterministic destaging policy of NOCAP's residual partitioner and of
//!   DHH — come from `nocap_model::staging_quotas`, which the planner's
//!   residual estimate prices.
//!
//! * [`hybrid`] — [`hybrid_hash_join`], the two-pass hybrid hash join made
//!   of the three modules above. NOCAP, DHH, Histojoin and GHJ each hand it
//!   a [`HybridPlan`] — fixed-structure pages, designated partitions,
//!   staging quotas and one [`Route`] function that both passes consult —
//!   and are otherwise the same executor, down to the one pair join of the
//!   probe phase. GHJ is the plan that caches nothing and designates every
//!   key: the hybrid hash join with nothing resident.
//!
//! There is no separate single-threaded engine: the executors' sequential
//! `run` entry points call the same bodies with one worker. The cost of
//! that, at every thread count, is physical memory the §4.1 model does not
//! charge: each worker holds one private output page per spill partition it
//! touched — up to `T × m` pages for `m` spill partitions. At `T = 1` that
//! is the `m` the model charges: the partition writers allocate their own
//! buffer page only when the merge pours a tail into it (see [`shard`]).
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

pub mod cancel;
pub mod hybrid;
pub mod pool;
pub mod shard;
pub mod stage;

pub use cancel::CancelToken;
pub use hybrid::{hybrid_hash_join, staging_budget, HybridPlan, Route};
pub use pool::{
    default_threads, ordered_tasks, resolve_threads, run_workers, run_workers_cancel,
    run_workers_obs,
};
pub use shard::{page_shards, LocalWriter, PageMorsels, SharedWriterSet};
pub use stage::{ParallelStager, StagerBuild, WorkerStage};
