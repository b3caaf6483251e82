//! The structured trace a recording `Obs` drains, and the JSON string
//! escaping the audit's emitters share.

use std::collections::BTreeMap;

use crate::io::{IoEventRec, IoMarkerRec};
use crate::Phase;

/// One completed span: a phase interval on the main thread (`worker: None`)
/// or one task a worker claimed from the work queue.
///
/// Timestamps are monotonic nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRec {
    /// Which engine phase the span belongs to.
    pub phase: Phase,
    /// Worker id, or `None` for the coordinating (main) thread.
    pub worker: Option<usize>,
    /// Task index of a worker span (each is one claimed work-queue task),
    /// `None` for main-thread spans.
    pub task: Option<usize>,
    /// Start offset from the recorder epoch, nanoseconds.
    pub start_ns: u64,
    /// End offset from the recorder epoch, nanoseconds.
    pub end_ns: u64,
}

impl SpanRec {
    /// Span duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Structured result of one recorded run: spans and the device event
/// stream, drained from a recorder via `Obs::take_trace`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ExecutionTrace {
    /// All recorded spans, sorted by start time.
    pub spans: Vec<SpanRec>,
    /// Device-level I/O events captured through `Obs::attach_io` on a
    /// `TracedDevice`, in global sequence order. Empty when no traced device
    /// was attached.
    pub io_events: Vec<IoEventRec>,
    /// Device counter snapshots/resets interleaved with [`Self::io_events`]
    /// (compare sequence numbers to place them in the stream).
    pub io_markers: Vec<IoMarkerRec>,
}

impl ExecutionTrace {
    /// Total wall seconds spent in `phase` on the coordinating thread.
    ///
    /// Worker spans are excluded: the main-thread phase span already covers
    /// the interval its workers ran in, so summing both would double-count.
    pub fn phase_secs(&self, phase: Phase) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.phase == phase && s.worker.is_none())
            .map(|s| s.dur_ns() as f64 * 1e-9)
            .sum()
    }

    /// Per-worker `(worker, task-span count, busy seconds)` aggregated over
    /// all worker spans, ascending by worker id.
    pub fn worker_breakdown(&self) -> Vec<(usize, usize, f64)> {
        let mut by_worker: BTreeMap<usize, (usize, f64)> = BTreeMap::new();
        for s in &self.spans {
            if let Some(w) = s.worker {
                let e = by_worker.entry(w).or_insert((0, 0.0));
                e.0 += usize::from(s.task.is_some());
                e.1 += s.dur_ns() as f64 * 1e-9;
            }
        }
        by_worker
            .into_iter()
            .map(|(w, (tasks, busy))| (w, tasks, busy))
            .collect()
    }
}

/// JSON string literal with the escapes a name or a flag message can need.
pub(crate) fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Obs;

    #[test]
    fn worker_spans_are_not_phase_time() {
        let obs = Obs::recording();
        {
            let _p = obs.span(Phase::Partition);
            let mut w = obs.worker(0);
            let t = w.start();
            w.record_task(Phase::Probe, 3, t);
        }
        let trace = obs.take_trace().unwrap();
        assert_eq!(
            trace.phase_secs(Phase::Probe),
            0.0,
            "the probe span is worker 0's, not phase time"
        );
        assert_eq!(trace.worker_breakdown().len(), 1);
        assert_eq!(trace.worker_breakdown()[0].1, 1, "one task span");
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_str("\u{1}"), "\"\\u0001\"");
    }
}
