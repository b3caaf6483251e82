//! # nocap
//!
//! The paper's contribution: **OCAP** (Optimal Correlation-Aware
//! Partitioning, §3) and **NOCAP** (Near-Optimal Correlation-Aware
//! Partitioning, §4) for primary-key / foreign-key storage-based joins.
//!
//! * [`mod@ocap`] — the theoretically I/O-optimal partitioner. Given the full
//!   correlation table it finds, via dynamic programming over the canonical
//!   partitionings of Theorem 3.1, which keys to cache in memory and how to
//!   cut the remaining keys into partitions so that the per-partition
//!   nested-block joins cost the fewest I/Os. OCAP is an *offline analysis
//!   tool* (its inputs don't fit the memory budget); the experiments use it
//!   as the lower bound drawn in Figure 8.
//! * [`planner`] — the NOCAP plan search (Algorithm 10): using only the
//!   top-k most-common-value statistics, split the keys into an in-memory
//!   set `K_mem`, designated disk partitions `K_disk` and the residual
//!   `K_rest`, subject to the strict §4.1 memory breakdown.
//! * [`rounded_hash`] — the rounded hash function of §4.2 that keeps most
//!   residual partitions an exact multiple of the NBJ chunk size.
//! * [`exec`] — the hybrid partitioning executor (Algorithms 8 and 9): runs
//!   a [`NocapPlan`] against real [`Relation`](nocap_storage::Relation)s on
//!   a [`BlockDevice`](nocap_storage::BlockDevice), then joins the spilled
//!   partition pairs, producing a measured
//!   [`JoinRunReport`](nocap_model::JoinRunReport). One body serves every
//!   entry point: [`NocapJoin::run`] is [`NocapJoin::run_parallel`] with one
//!   worker, and for every thread count the output and the per-phase
//!   modeled I/O are the same.
//! * [`plan`] — the [`NocapPlan`] data structure shared by the planner and
//!   the executor.
//!
//! ```
//! use nocap::{NocapConfig, NocapJoin};
//! use nocap_model::{CorrelationTable, JoinSpec};
//! use nocap_storage::{RecordLayout, RecordRef, Relation, SimDevice};
//!
//! // A tiny skewed workload: key 0 matches 50 S records, the others 1 each.
//! let device = SimDevice::new_ref();
//! let spec = JoinSpec::paper_synthetic(64, 32);
//! let r = Relation::bulk_load(
//!     device.clone(),
//!     RecordLayout::new(56),
//!     spec.page_size,
//!     (0..100u64).map(|k| RecordRef::new(k, &[1; 56])),
//! )
//! .unwrap();
//! let s_keys = (0..100u64).flat_map(|k| {
//!     std::iter::repeat(k).take(if k == 0 { 50 } else { 1 })
//! });
//! let s = Relation::bulk_load(
//!     device.clone(),
//!     RecordLayout::new(56),
//!     spec.page_size,
//!     s_keys.map(|k| RecordRef::new(k, &[2; 56])),
//! )
//! .unwrap();
//!
//! // MCV statistics (here: exact counts for the top 10 keys).
//! let ct = CorrelationTable::from_counts(
//!     (0..100u64).map(|k| if k == 0 { 50 } else { 1 }),
//! );
//! let mcvs = ct.top_k(10);
//!
//! device.reset_stats();
//! let join = NocapJoin::new(spec, NocapConfig::default());
//! let report = join.run(&r, &s, &mcvs).unwrap();
//! assert_eq!(report.output_records, 149);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod exec;
pub mod ocap;
pub mod plan;
pub mod planner;
pub mod rounded_hash;

pub use exec::{NocapConfig, NocapJoin, RestGeometry};
pub use ocap::dp::{partition_dp, partition_dp_range, DpSolution};
pub use ocap::{ocap, OcapConfig, OcapSolution};
pub use plan::NocapPlan;
pub use planner::{plan_nocap, PlannerConfig};
pub use rounded_hash::RoundedHash;
