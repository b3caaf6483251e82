//! # nocap-model
//!
//! Analytic machinery shared by the OCAP/NOCAP algorithms and the baseline
//! joins:
//!
//! * [`spec`] — [`JoinSpec`]: the join's geometry (page size, record sizes,
//!   memory budget *B*, fudge factor *F*, device asymmetry μ/τ) and the
//!   derived quantities the paper reasons in (`b_R`, `b_S`, `c_R`, `‖R‖`,
//!   `‖S‖`).
//! * [`ct`] — [`CorrelationTable`]: the per-primary-key match counts
//!   (`CT[i]` = number of S records matching the i-th R record), kept sorted
//!   with prefix sums for O(1) range queries.
//! * [`partitioning`] — [`Partitioning`]: an explicit assignment of
//!   CT-sorted records to partitions, the per-partition join cost `CalCost`
//!   of §3.1.3, and checkers for two of the three properties of Theorem
//!   3.1 (consecutive and divisible; the DP prunes by the third, weak
//!   ordering).
//! * [`classic_cost`] — the Table 1 estimators for NBJ, GHJ and SMJ, SMJ's
//!   merge-cascade planner (run by its executor, priced by `smj_cost`), and
//!   the "light optimizer" that picks NBJ or Grace-style recursion for each
//!   partition-wise join — run by the executors, priced by the planner.
//! * [`hash_cost`] — [`RoundedHashParams`]: when rounded hash (§4.2)
//!   applies and how many chunk-sized buckets it deals, shared by the
//!   router, the staging quotas and `g_DHH`.
//! * [`dhh_cost`] — [`staging_quotas`]: the partition count and the
//!   resident-first staging quotas of a hybrid hash build (NOCAP's residual
//!   partitioner and DHH both run it), and `g_DHH`: the estimated extra I/O
//!   of handing the residual (non-MCV) keys to that partitioner with a
//!   given budget. The quotas sum to the staging budget they are handed,
//!   so with the plan's fixed pages and the two streaming pages they
//!   restate the §4.1 memory identity: *B* is enforced by this arithmetic
//!   and by the run-time stager that keeps to the quotas, not by an
//!   accountant.
//!
//! Costs in this crate are *estimates* expressed in normalized page I/Os
//! (one sequential page read = 1). The executors in `nocap` and
//! `nocap-joins` produce measured [`IoStats`](nocap_storage::IoStats) that
//! the experiments compare against these estimates.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod classic_cost;
pub mod ct;
pub mod dhh_cost;
pub mod estimate;
pub mod hash_cost;
pub mod pairwise;
pub mod partitioning;
pub mod report;
pub mod sip;
pub mod spec;

pub use classic_cost::{best_partition_join, ghj_cost, nbj_cost, smj_cost, PartitionJoinMethod};
pub use ct::CorrelationTable;
pub use dhh_cost::{g_dhh, staging_quotas, StagingQuotas, StagingRouter};
pub use estimate::McvEstimate;
pub use hash_cost::RoundedHashParams;
pub use partitioning::{cal_cost, Partitioning};
pub use report::JoinRunReport;
pub use sip::ProbeBloom;
pub use spec::JoinSpec;
