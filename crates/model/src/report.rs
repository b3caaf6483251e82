//! Shared run report produced by every join executor.
//!
//! Both the baseline joins (`nocap-joins`) and NOCAP itself (`nocap`) return
//! a [`JoinRunReport`] so the experiment harness can tabulate #I/Os, derived
//! latency and output cardinality uniformly — the three columns every figure
//! of the paper is built from.

use nocap_obs::{ExecutionTrace, Obs, RunTimer};
use nocap_storage::{DeviceProfile, IoStats};

/// Result of executing one join.
#[derive(Debug, Clone)]
pub struct JoinRunReport {
    /// Human-readable algorithm name ("NOCAP", "DHH", "GHJ", …).
    pub algorithm: String,
    /// Number of joined output tuples produced.
    pub output_records: u64,
    /// I/Os performed during the partitioning (build-side) phase.
    pub partition_io: IoStats,
    /// I/Os performed during the probe / partition-wise join phase.
    pub probe_io: IoStats,
    /// Wall time of the whole run in seconds, from the executor's
    /// whole-run stopwatch ([`finish_run`](Self::finish_run)). On a real
    /// device it includes the time spent waiting for I/O. Excluded from
    /// equality, like `trace`.
    pub wall_seconds: f64,
    /// Structured observability trace: per-phase spans, worker timelines
    /// and the traced device's I/O events. `None` unless the run was observed with a recording
    /// [`Obs`] handle. Excluded from equality — timing must never
    /// participate in determinism comparisons.
    pub trace: Option<ExecutionTrace>,
}

/// Equality over the deterministic payload only: `wall_seconds` and `trace`
/// carry wall-clock data, and two runs of the same join would never compare
/// equal if either were included.
impl PartialEq for JoinRunReport {
    fn eq(&self, other: &Self) -> bool {
        self.algorithm == other.algorithm
            && self.output_records == other.output_records
            && self.partition_io == other.partition_io
            && self.probe_io == other.probe_io
    }
}

impl JoinRunReport {
    /// Creates an empty report for the given algorithm.
    pub fn new(algorithm: impl Into<String>) -> Self {
        JoinRunReport {
            algorithm: algorithm.into(),
            output_records: 0,
            partition_io: IoStats::new(),
            probe_io: IoStats::new(),
            wall_seconds: 0.0,
            trace: None,
        }
    }

    /// Finalizes the report at the end of a run: stops the whole-run
    /// stopwatch into `wall_seconds` and attaches the recorded trace, if any.
    /// Every executor ends with this, so the run's wall time is measured
    /// once, consistently, instead of by per-executor stopwatch code.
    pub fn finish_run(&mut self, timer: RunTimer, obs: &Obs) {
        self.wall_seconds = timer.stop(obs);
        self.trace = obs.take_trace();
    }

    /// Total I/O trace of the run.
    pub fn total_io(&self) -> IoStats {
        self.partition_io + self.probe_io
    }

    /// Total number of page I/Os (the paper's "#I/Os" metric).
    pub fn total_ios(&self) -> u64 {
        self.total_io().total()
    }

    /// Estimated I/O latency in seconds under the given device profile.
    pub fn io_latency_secs(&self, device: &DeviceProfile) -> f64 {
        device.trace_latency_secs(&self.total_io())
    }

    /// Estimated total latency in seconds: modeled I/O latency plus the
    /// run's measured wall time (on `SimDevice`, where I/O takes no real
    /// time, that wall time is the CPU work).
    pub fn total_latency_secs(&self, device: &DeviceProfile) -> f64 {
        self.io_latency_secs(device) + self.wall_seconds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nocap_storage::IoKind;

    #[test]
    fn totals_combine_both_phases() {
        let mut report = JoinRunReport::new("TEST");
        report.partition_io.record_many(IoKind::RandWrite, 10);
        report.probe_io.record_many(IoKind::SeqRead, 30);
        assert_eq!(report.total_ios(), 40);
        assert_eq!(report.total_io().rand_writes, 10);
        assert_eq!(report.total_io().seq_reads, 30);
    }

    #[test]
    fn latency_adds_wall_time() {
        let mut report = JoinRunReport::new("TEST");
        report.probe_io.record_many(IoKind::SeqRead, 1000);
        report.wall_seconds = 0.5;
        let dev = DeviceProfile::osync_off();
        let io_only = report.io_latency_secs(&dev);
        assert!(io_only > 0.0);
        assert!((report.total_latency_secs(&dev) - (io_only + 0.5)).abs() < 1e-12);
    }

    #[test]
    fn equality_ignores_the_trace() {
        let obs = Obs::recording();
        let timer = obs.run_timer();
        let mut observed = JoinRunReport::new("TEST");
        observed.finish_run(timer, &obs);
        assert!(observed.trace.is_some(), "recording run must carry a trace");
        let mut blind = observed.clone();
        blind.trace = None;
        assert_eq!(observed, blind, "trace must not participate in equality");
    }

    #[test]
    fn equality_ignores_the_wall_clock_but_not_the_modeled_io() {
        let mut a = JoinRunReport::new("TEST");
        a.wall_seconds = 0.25;
        let mut b = a.clone();
        b.wall_seconds = 0.75;
        assert_eq!(a, b, "wall time must not participate in equality");
        b.probe_io.record_many(IoKind::SeqRead, 1);
        assert_ne!(a, b);
    }

    #[test]
    fn finish_run_without_recording_leaves_no_trace() {
        let obs = Obs::off();
        let timer = obs.run_timer();
        let mut report = JoinRunReport::new("TEST");
        report.finish_run(timer, &obs);
        assert!(report.trace.is_none());
        assert!(report.wall_seconds >= 0.0);
    }
}
