//! # nocap-suite
//!
//! Facade crate for the NOCAP reproduction workspace. It re-exports the
//! individual crates under stable module names so that examples and
//! downstream users can depend on a single crate:
//!
//! * [`storage`] — pages, simulated block devices, spill files.
//! * [`model`] — correlation tables, join specifications, analytic cost models.
//! * [`stats`] — bounded-memory streaming statistics (SpaceSaving top-k
//!   beside the exact stream length and key range, in one page-budgeted
//!   collector) that replace the `CorrelationTable` oracle with one-pass
//!   sketch summaries.
//! * [`obs`] — zero-cost-when-off tracing: phase spans, per-worker
//!   timelines, device I/O events and the device-level I/O audit.
//! * [`par`] — the multi-threaded execution engine: worker pool, sharded
//!   spill writers and the deterministic concurrent residual stager behind
//!   `NocapJoin::run_parallel`.
//! * [`nocap`] — the OCAP and NOCAP algorithms (the paper's contribution).
//! * [`joins`] — baseline joins: NBJ, GHJ, SMJ, DHH, Histojoin.
//! * [`workload`] — synthetic, TPC-H-like, JCC-H-like and JOB-like generators.

pub use nocap;
pub use nocap_joins as joins;
pub use nocap_model as model;
pub use nocap_obs as obs;
pub use nocap_par as par;
pub use nocap_stats as stats;
pub use nocap_storage as storage;
pub use nocap_workload as workload;
