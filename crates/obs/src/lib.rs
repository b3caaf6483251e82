//! # nocap-obs
//!
//! Zero-cost-when-off observability for the NOCAP execution engine:
//! monotonic-clock phase spans, named counters, value histograms and
//! per-worker task timelines, recorded deterministically *alongside* a run
//! and never feeding back into it.
//!
//! ## Design
//!
//! * [`Obs`] is a cheap cloneable handle the executors thread through every
//!   phase. The default ([`Obs::off`]) carries no recorder: every probe is a
//!   branch on a `None` and touches no clock, so the hot paths cost nothing
//!   when observability is disabled.
//! * A recording handle ([`Obs::recording`]) writes into one in-memory sink
//!   that accumulates a full [`ExecutionTrace`], drained by
//!   [`Obs::take_trace`].
//! * Worker threads record one span per claimed task through [`WorkerObs`]
//!   ([`WorkerObs::start`], [`WorkerObs::record_task`]), which buffers them
//!   in a plain per-worker `Vec` — no locks, no atomics during recording —
//!   and flushes them into the sink with a single lock acquisition when the
//!   worker finishes.
//! * Device-level I/O rides the same channel: [`Obs::attach_io`] installs
//!   an event sink on a `nocap-storage` `TracedDevice`, every page access
//!   is stamped with the issuing worker and innermost phase through
//!   thread-local marks the recording layer maintains, and [`IoAudit`]
//!   replays the stream against the engine's modeled per-phase snapshots
//!   (model audit), the declared [`IoKind`](nocap_storage::IoKind)s (declaration audit) and the
//!   [`DeviceProfile`](nocap_storage::DeviceProfile) latency model.
//! * All timestamps are monotonic-clock offsets from the recorder's epoch.
//!   **Clocks live only in this channel**: nothing in the engine reads time
//!   to make a decision, so `tests/parallel_determinism.rs` passes with
//!   recording enabled — the recorder observes without perturbing plans,
//!   output or modeled I/O.
//!
//! ## Output
//!
//! [`ExecutionTrace`] is plain data: spans, counters, histogram summaries,
//! gauges and the device event stream, with [`ExecutionTrace::phase_secs`]
//! and [`ExecutionTrace::worker_breakdown`] as the aggregates. This crate
//! writes no trace file; a consumer renders the trace itself (the
//! benchmark's traced run writes it as a chrome trace). The emitters here
//! are the audit's reports, [`IoAudit::to_json`] and
//! [`SyncComparison::to_json`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod audit;
mod hist;
mod io;
mod recorder;
mod trace;

pub use audit::{
    DeclarationRow, FileHeatmap, IoAudit, IoWindow, LatencyRow, PhaseIoRow, SyncComparison,
    SyncComparisonRow, HEATMAP_BUCKETS,
};
pub use hist::HistogramSummary;
pub use io::{io_kind_name, IoEventRec, IoMarkerRec, IoPhaseMark};
pub use recorder::{IoTraceGuard, Obs, PhaseSpan, RunTimer, SpanStart, WorkerObs};
pub use trace::{ExecutionTrace, SpanRec};

/// Execution phases the engine reports spans under.
///
/// The set mirrors the cost-model decomposition used throughout the paper:
/// scans, statistics collection, partitioning, spill destaging, hash build,
/// probe, sort run generation and merge, plus a [`Phase::Total`] span that
/// brackets the whole run (its duration is `JoinRunReport::wall_seconds`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// Sequential relation scan (e.g. NBJ's outer passes).
    Scan,
    /// Streaming statistics collection (`StatsCollector`).
    Stats,
    /// Hash partitioning pass over an input relation.
    Partition,
    /// Destaging staged partitions to disk (quota stager / writer finish).
    Spill,
    /// In-memory hash-table build.
    Build,
    /// Probe: in-memory lookups or the partition-wise join fan-out.
    Probe,
    /// External-sort run generation (chunk sort + run write).
    SortRunGen,
    /// Merge: external-sort cascade passes and the final merge-join.
    Merge,
    /// The whole run, bracketed once per executor invocation.
    Total,
}

impl Phase {
    /// Stable snake_case name used in tables and JSON.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Scan => "scan",
            Phase::Stats => "stats",
            Phase::Partition => "partition",
            Phase::Spill => "spill",
            Phase::Build => "build",
            Phase::Probe => "probe",
            Phase::SortRunGen => "sort_run_gen",
            Phase::Merge => "merge",
            Phase::Total => "total",
        }
    }
}

impl std::fmt::Display for Phase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}
