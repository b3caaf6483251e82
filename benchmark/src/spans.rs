//! The harness's own spans: `run → setup | round → join.{a} → phase → io`.
//!
//! Spans are kept in memory and written as one chrome trace when the
//! traced run ends. The harness thread blocks inside every call it times,
//! so its spans nest by construction; the engine's phase spans, worker
//! spans and device events are grafted under the join that produced them.

use std::path::Path;
use std::time::Instant;

use nocap_obs::{io_kind_name, ExecutionTrace};

use crate::json::quote;

/// Chrome-trace lane of the harness and of the engine's coordinating thread.
const MAIN_TID: usize = 0;
/// First lane of device events (`IO_TID + worker + 1` for worker events).
const IO_TID: usize = 1000;

/// One completed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub tid: usize,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
}

/// In-memory span recorder of one benchmark process.
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl SpanLog {
    pub fn new() -> Self {
        SpanLog {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Nanoseconds since the log was created.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one and returns its index.
    pub fn enter(&mut self, name: &str) -> usize {
        let id = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            tid: MAIN_TID,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn exit(&mut self, id: usize) {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "harness spans close innermost first"
        );
        self.spans[id].end_ns = self.now_ns();
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Grafts an engine trace under harness span `join`. `offset_ns` is the
    /// log time at which the trace's recorder was created. At most
    /// `io_cap` device events are kept (a join issues hundreds of
    /// thousands); the cut is recorded in the parent's name.
    pub fn graft(&mut self, join: usize, offset_ns: u64, trace: &ExecutionTrace, io_cap: usize) {
        let base = self.spans.len();
        let main: Vec<usize> = (0..trace.spans.len())
            .filter(|&i| trace.spans[i].worker.is_none())
            .collect();
        let intervals: Vec<(u64, u64)> = main
            .iter()
            .map(|&i| (trace.spans[i].start_ns, trace.spans[i].end_ns))
            .collect();
        let parents = parents_by_containment(&intervals);
        for (k, &i) in main.iter().enumerate() {
            let s = &trace.spans[i];
            self.spans.push(Span {
                name: s.phase.name().to_string(),
                tid: MAIN_TID,
                start_ns: offset_ns + s.start_ns,
                end_ns: offset_ns + s.end_ns,
                parent: Some(parents[k].map_or(join, |p| base + p)),
            });
        }
        // A worker span or device event hangs under the innermost
        // coordinating-thread span that covers its start.
        let innermost = |t_ns: u64| innermost_covering(&intervals, t_ns).map_or(join, |k| base + k);
        for s in trace.spans.iter().filter(|s| s.worker.is_some()) {
            let worker = s.worker.expect("filtered on worker spans");
            let task = s.task.map_or(String::new(), |t| format!(" task {t}"));
            self.spans.push(Span {
                name: format!("{}{task}", s.phase.name()),
                tid: worker + 1,
                start_ns: offset_ns + s.start_ns,
                end_ns: offset_ns + s.end_ns,
                parent: Some(innermost(s.start_ns)),
            });
        }
        for e in trace.io_events.iter().take(io_cap) {
            // The event is stamped when the device call returns.
            let latency = e.latency_ns.unwrap_or(0);
            self.spans.push(Span {
                name: format!("io {}", io_kind_name(e.kind)),
                tid: e.worker.map_or(IO_TID, |w| IO_TID + w + 1),
                start_ns: offset_ns + e.t_ns.saturating_sub(latency),
                end_ns: offset_ns + e.t_ns,
                parent: Some(innermost(e.t_ns)),
            });
        }
        if trace.io_events.len() > io_cap {
            self.spans[join].name = format!(
                "{} (first {io_cap} of {} io events kept)",
                self.spans[join].name,
                trace.io_events.len()
            );
        }
    }

    /// Writes the log as chrome trace-event JSON (`chrome://tracing`,
    /// Perfetto). Timestamps are microseconds since the log was created.
    pub fn write_chrome_trace(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::from("{\"traceEvents\": [\n");
        let mut tids: Vec<usize> = self.spans.iter().map(|s| s.tid).collect();
        tids.sort_unstable();
        tids.dedup();
        let mut lines: Vec<String> = tids
            .iter()
            .map(|&tid| {
                let name = match tid {
                    MAIN_TID => "harness + engine main".to_string(),
                    IO_TID => "io main".to_string(),
                    t if t > IO_TID => format!("io worker {}", t - IO_TID - 1),
                    t => format!("worker {}", t - 1),
                };
                format!(
                    "{{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": {tid}, \
                     \"args\": {{\"name\": {}}}}}",
                    quote(&name)
                )
            })
            .collect();
        lines.extend(self.spans.iter().enumerate().map(|(id, s)| {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            format!(
                "{{\"name\": {}, \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {:.3}, \
                 \"dur\": {:.3}, \"args\": {{\"id\": {id}, \"parent\": {parent}}}}}",
                quote(&s.name),
                s.tid,
                s.start_ns as f64 / 1e3,
                s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
            )
        }));
        out.push_str(&lines.join(",\n"));
        out.push_str("\n]}\n");
        std::fs::write(path, out)
    }
}

/// The shortest of `spans`, given as `(start, end)`, that covers `t_ns`.
pub fn innermost_covering(spans: &[(u64, u64)], t_ns: u64) -> Option<usize> {
    spans
        .iter()
        .enumerate()
        .filter(|(_, &(start, end))| start <= t_ns && t_ns <= end)
        .min_by_key(|(_, &(start, end))| end - start)
        .map(|(i, _)| i)
}

/// For spans of one thread, given as `(start, end)`, the index of the
/// innermost other span that covers each one.
pub fn parents_by_containment(spans: &[(u64, u64)]) -> Vec<Option<usize>> {
    let mut order: Vec<usize> = (0..spans.len()).collect();
    // Outer spans first: earlier start, then later end.
    order.sort_by_key(|&i| (spans[i].0, std::cmp::Reverse(spans[i].1), i));
    let mut parents = vec![None; spans.len()];
    let mut open: Vec<usize> = Vec::new();
    for i in order {
        while let Some(&top) = open.last() {
            if spans[top].0 <= spans[i].0 && spans[i].1 <= spans[top].1 {
                break;
            }
            open.pop();
        }
        parents[i] = open.last().copied();
        open.push(i);
    }
    parents
}

/// Self time of each span: its duration minus the part of it its child
/// spans cover. Children of one thread do not overlap, so their durations
/// add.
pub fn self_times(spans: &[(u64, u64)], parents: &[Option<usize>]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|&(s, e)| e.saturating_sub(s)).collect();
    for (i, parent) in parents.iter().enumerate() {
        if let Some(p) = *parent {
            own[p] = own[p].saturating_sub(spans[i].1.saturating_sub(spans[i].0));
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        //  total  [0 ............................ 100]
        //  a         [10 ....... 40]   b [50 ... 90]
        //  a1           [15 . 25]
        let spans = [(0, 100), (10, 40), (15, 25), (50, 90)];
        let parents = parents_by_containment(&spans);
        assert_eq!(parents, [None, Some(0), Some(1), Some(0)]);
        let own = self_times(&spans, &parents);
        assert_eq!(own, [30, 20, 10, 40]);
        // Self times of a tree add up to the root's duration.
        assert_eq!(own.iter().sum::<u64>(), 100);
    }

    #[test]
    fn flat_siblings_and_shared_endpoints_nest_deterministically() {
        // Two spans with the same interval: the earlier index is the parent.
        let spans = [(0, 10), (0, 10), (10, 20)];
        let parents = parents_by_containment(&spans);
        assert_eq!(parents, [None, Some(0), None]);
        assert_eq!(self_times(&spans, &parents), [0, 10, 10]);
    }

    #[test]
    fn harness_spans_record_their_cause() {
        let mut log = SpanLog::new();
        let run = log.enter("run");
        let round = log.enter("round");
        let join = log.enter("join.nocap");
        log.exit(join);
        log.exit(round);
        let other = log.enter("round");
        log.exit(other);
        log.exit(run);
        let parents: Vec<Option<usize>> = log.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, [None, Some(0), Some(1), Some(0)]);
        assert!(log.spans()[0].end_ns >= log.spans()[3].end_ns);
    }
}
