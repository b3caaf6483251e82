//! # nocap-joins
//!
//! The baseline storage-based join algorithms the paper compares NOCAP
//! against (§2, §5):
//!
//! * [`naive`] — an in-memory nested-loop reference join used only as a test
//!   oracle.
//! * [`nbj`] — Nested Block Join: stream the inner relation through memory
//!   in chunks, scanning the outer relation once per chunk.
//! * [`ghj`] — Grace Hash Join: uniformly hash-partition both relations
//!   into `B − 1` partitions, then join partition pairs, recursing when a
//!   partition still does not fit or falling back to chunk-wise NBJ exactly
//!   like the paper's "GHJ augmented to fall back to NBJ". It is the plan
//!   for the hybrid body that keeps nothing resident.
//! * [`smj`] — Sort-Merge Join on the external sorter, fusing the final
//!   merge pass with the join.
//! * [`dhh`] — Dynamic Hybrid Hash join (Algorithms 1 and 2): partitions are
//!   staged in memory and destaged on demand (POB bits), with the
//!   PostgreSQL-style skew optimization controlled by two fixed thresholds
//!   (2 % of memory for the skew hash table, triggered when the MCV mass
//!   exceeds 2 % of S).
//!   Histojoin — the MCV-caching skew optimization with a zero trigger
//!   threshold, as configured in the paper's evaluation — is this executor
//!   under [`DhhJoin::histojoin`].
//!
//! GHJ, DHH and Histojoin are plans ([`nocap_par::HybridPlan`]) for
//! [`nocap_par::hybrid_hash_join`], the body NOCAP runs too, so the four
//! hash joins share one partition pass and one pair join
//! ([`nocap_model::pairwise::smart_partition_join`]).
//!
//! Every executor takes a [`JoinSpec`](nocap_model::JoinSpec), declares
//! the pages it holds of its budget *B* — checked once, before any I/O, by
//! [`JoinSpec::pages_left`](nocap_model::JoinSpec::pages_left) — and
//! returns a [`JoinRunReport`](nocap_model::JoinRunReport) with the
//! measured I/O trace.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod dhh;
pub mod ghj;
pub mod naive;
pub mod nbj;
pub mod smj;

pub mod testutil;

pub use dhh::{DhhConfig, DhhJoin};
pub use ghj::GraceHashJoin;
pub use naive::naive_join_count;
pub use nbj::NestedBlockJoin;
pub use smj::{SortMergeJoin, SMJ_MIN_BUDGET_PAGES};
