//! The structured trace and its emitters (phase table, JSON, chrome trace).

use std::collections::BTreeMap;

use crate::hist::HistogramSummary;
use crate::io::{io_kind_name, io_marker_name, io_op_name, IoEventRec, IoMarkerRec};
use crate::Phase;

/// One completed span: a phase interval on the main thread (`worker: None`)
/// or on a worker, optionally attributed to a work-queue task index.
///
/// Timestamps are monotonic nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRec {
    /// Which engine phase the span belongs to.
    pub phase: Phase,
    /// Worker id, or `None` for the coordinating (main) thread.
    pub worker: Option<usize>,
    /// Task index for work-queue items, `None` for whole-phase spans.
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

/// Structured result of one recorded run: spans, counters, histogram
/// summaries and gauges, drained from a recorder via `Obs::take_trace`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ExecutionTrace {
    /// All recorded spans, sorted by start time.
    pub spans: Vec<SpanRec>,
    /// Named monotonic counters.
    pub counters: BTreeMap<String, u64>,
    /// Named value-distribution summaries (skew histograms).
    pub histograms: BTreeMap<String, HistogramSummary>,
    /// Named high-water-mark gauges.
    pub gauges: BTreeMap<String, u64>,
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

    /// Per-phase `(phase, span count, wall seconds)` for every phase that
    /// appears on the coordinating thread, in canonical phase order.
    pub fn phase_breakdown(&self) -> Vec<(Phase, usize, f64)> {
        Phase::ALL
            .iter()
            .filter_map(|&phase| {
                let calls = self
                    .spans
                    .iter()
                    .filter(|s| s.phase == phase && s.worker.is_none())
                    .count();
                (calls > 0).then(|| (phase, calls, self.phase_secs(phase)))
            })
            .collect()
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

    /// Human-readable summary: per-phase wall times, skew histograms
    /// (p50/p99/max), counters, gauges and per-worker busy time.
    pub fn phase_table(&self) -> String {
        let mut out = String::new();
        out.push_str("phase            calls   wall_ms\n");
        for (phase, calls, secs) in self.phase_breakdown() {
            out.push_str(&format!(
                "{:<16} {:>5} {:>9.3}\n",
                phase.name(),
                calls,
                secs * 1e3
            ));
        }
        if !self.histograms.is_empty() {
            out.push_str(
                "histogram                    count       p50       p99       max      skew\n",
            );
            for (name, h) in &self.histograms {
                out.push_str(&format!(
                    "{:<26} {:>7} {:>9} {:>9} {:>9} {:>9.2}\n",
                    name,
                    h.count,
                    h.p50,
                    h.p99,
                    h.max,
                    h.skew()
                ));
            }
        }
        for (name, v) in &self.counters {
            out.push_str(&format!("counter {name} = {v}\n"));
        }
        for (name, v) in &self.gauges {
            out.push_str(&format!("gauge {name} = {v}\n"));
        }
        let workers = self.worker_breakdown();
        if !workers.is_empty() {
            out.push_str("worker   tasks   busy_ms\n");
            for (w, tasks, busy) in workers {
                out.push_str(&format!("{:<6} {:>7} {:>9.3}\n", w, tasks, busy * 1e3));
            }
        }
        out
    }

    /// Machine-readable JSON: spans, counters, histogram summaries, gauges.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"spans\": [");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"phase\": {}, \"worker\": {}, \"task\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                json_str(s.phase.name()),
                json_opt(s.worker),
                json_opt(s.task),
                s.start_ns,
                s.end_ns
            ));
        }
        out.push_str("\n  ],\n  \"counters\": {");
        push_map(
            &mut out,
            self.counters.iter().map(|(k, v)| (k, v.to_string())),
        );
        out.push_str("},\n  \"histograms\": {");
        push_map(
            &mut out,
            self.histograms.iter().map(|(k, h)| {
                (
                    k,
                    format!(
                        "{{\"count\": {}, \"min\": {}, \"p50\": {}, \"p99\": {}, \"max\": {}, \"sum\": {}}}",
                        h.count, h.min, h.p50, h.p99, h.max, h.sum
                    ),
                )
            }),
        );
        out.push_str("},\n  \"gauges\": {");
        push_map(
            &mut out,
            self.gauges.iter().map(|(k, v)| (k, v.to_string())),
        );
        out.push_str("},\n  \"io_events\": [");
        for (i, e) in self.io_events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"seq\": {}, \"t_ns\": {}, \"worker\": {}, \"phase\": {}, \"file\": {}, \"page\": {}, \"kind\": {}, \"op\": {}, \"latency_ns\": {}}}",
                e.seq,
                e.t_ns,
                json_opt(e.worker),
                e.phase.map_or_else(|| "null".to_string(), |p| json_str(p.name())),
                e.file.0,
                e.page,
                json_str(io_kind_name(e.kind)),
                json_str(io_op_name(e.op)),
                e.latency_ns.map_or_else(|| "null".to_string(), |l| l.to_string()),
            ));
        }
        out.push_str("\n  ],\n  \"io_markers\": [");
        for (i, m) in self.io_markers.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"seq\": {}, \"t_ns\": {}, \"kind\": {}, \"seq_reads\": {}, \"rand_reads\": {}, \"seq_writes\": {}, \"rand_writes\": {}}}",
                m.seq,
                m.t_ns,
                json_str(io_marker_name(m.kind)),
                m.stats.seq_reads,
                m.stats.rand_reads,
                m.stats.seq_writes,
                m.stats.rand_writes,
            ));
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Chrome trace-event JSON (`chrome://tracing` / Perfetto).
    ///
    /// Every span becomes a complete (`"ph": "X"`) event; timestamps are
    /// microseconds since the recorder epoch. Thread ids give the per-worker
    /// timelines: tid 0 is the coordinating thread, tid `w + 1` is worker
    /// `w`. Task indices ride along in `args.task`.
    ///
    /// Traced device I/O gets its own lane per issuing thread: tid 1000 for
    /// the coordinating thread, tid `1000 + w + 1` for worker `w`. Each page
    /// access is a complete event named after its declared `IoKind`, with
    /// the enclosing phase as the category and `file`/`page` in the args;
    /// its duration is the measured latency when available, else a nominal
    /// 100 ns tick so the access is visible on the timeline.
    pub fn to_chrome_trace(&self) -> String {
        let mut out = String::from("{\"traceEvents\": [\n");
        let mut tids: Vec<Option<usize>> = self.spans.iter().map(|s| s.worker).collect();
        tids.sort_unstable();
        tids.dedup();
        let mut first = true;
        for w in &tids {
            let (tid, name) = match w {
                None => (0, "main".to_string()),
                Some(w) => (w + 1, format!("worker {w}")),
            };
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str(&format!(
                "{{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": {tid}, \"args\": {{\"name\": {}}}}}",
                json_str(&name)
            ));
        }
        let mut io_tids: Vec<Option<usize>> = self.io_events.iter().map(|e| e.worker).collect();
        io_tids.sort_unstable();
        io_tids.dedup();
        for w in &io_tids {
            let (tid, name) = match w {
                None => (1000, "io main".to_string()),
                Some(w) => (1000 + w + 1, format!("io worker {w}")),
            };
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str(&format!(
                "{{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": {tid}, \"args\": {{\"name\": {}}}}}",
                json_str(&name)
            ));
        }
        for s in &self.spans {
            let tid = s.worker.map_or(0, |w| w + 1);
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let args = match s.task {
                Some(t) => format!(", \"args\": {{\"task\": {t}}}"),
                None => String::new(),
            };
            out.push_str(&format!(
                "{{\"name\": {}, \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {:.3}, \"dur\": {:.3}{}}}",
                json_str(s.phase.name()),
                tid,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                args
            ));
        }
        for e in &self.io_events {
            let tid = e.worker.map_or(1000, |w| 1000 + w + 1);
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str(&format!(
                "{{\"name\": {}, \"cat\": {}, \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"file\": {}, \"page\": {}, \"op\": {}}}}}",
                json_str(io_kind_name(e.kind)),
                json_str(e.phase.map_or("unattributed", |p| p.name())),
                tid,
                e.t_ns as f64 / 1e3,
                e.latency_ns.unwrap_or(100) as f64 / 1e3,
                e.file.0,
                e.page,
                json_str(io_op_name(e.op)),
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

pub(crate) fn json_opt(v: Option<usize>) -> String {
    v.map_or_else(|| "null".to_string(), |v| v.to_string())
}

/// JSON string literal with the escapes that can occur in metric names.
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

fn push_map<'a, I>(out: &mut String, entries: I)
where
    I: Iterator<Item = (&'a String, String)>,
{
    let mut first = true;
    for (k, v) in entries {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!("\n    {}: {}", json_str(k), v));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Obs;
    use nocap_storage::{IoKind, Page, RecordLayout, SimDevice, TracedDevice};

    fn sample_trace() -> ExecutionTrace {
        let obs = Obs::recording();
        let device = TracedDevice::new_ref(SimDevice::new_ref());
        let _io = obs.attach_io(&device);
        {
            let _p = obs.span(Phase::Partition);
            let mut w = obs.worker(0);
            let t = w.start();
            // One traced page access, issued on worker 0's thread.
            let file = device.create_file();
            let page = Page::empty(256, RecordLayout::new(8));
            device.append_page(file, &page, IoKind::SeqWrite).unwrap();
            w.record_task(Phase::Probe, 3, t);
        }
        obs.count("spilled_partitions", 4);
        obs.values("partition_records", [10u64, 20, 30, 1000]);
        obs.gauge_max("buffer_pool_peak_pages", 96);
        obs.take_trace().unwrap()
    }

    #[test]
    fn phase_breakdown_excludes_worker_spans() {
        let trace = sample_trace();
        let phases: Vec<Phase> = trace.phase_breakdown().iter().map(|r| r.0).collect();
        assert_eq!(phases, vec![Phase::Partition]);
        assert_eq!(trace.worker_breakdown().len(), 1);
        assert_eq!(trace.worker_breakdown()[0].1, 1, "one task span");
    }

    #[test]
    fn phase_table_mentions_everything() {
        let table = sample_trace().phase_table();
        for needle in [
            "partition",
            "partition_records",
            "spilled_partitions",
            "buffer_pool_peak_pages",
            "worker",
        ] {
            assert!(table.contains(needle), "missing {needle:?} in:\n{table}");
        }
    }

    #[test]
    fn json_emitter_schema() {
        let json = sample_trace().to_json();
        validate_json(&json);
        for key in ["\"spans\"", "\"counters\"", "\"histograms\"", "\"gauges\""] {
            assert!(json.contains(key), "missing {key} in:\n{json}");
        }
        assert!(json.contains("\"phase\": \"partition\""));
        assert!(json.contains("\"worker\": null"));
        assert!(json.contains("\"worker\": 0"));
        assert!(json.contains("\"p99\": 1000"));
    }

    #[test]
    fn chrome_trace_schema() {
        let chrome = sample_trace().to_chrome_trace();
        validate_json(&chrome);
        assert!(chrome.contains("\"traceEvents\""));
        assert!(chrome.contains("\"ph\": \"X\""));
        assert!(chrome.contains("\"tid\": 1"), "worker 0 timeline is tid 1");
        assert!(chrome.contains("\"thread_name\""));
        assert!(chrome.contains("\"args\": {\"task\": 3}"));
        // Worker w's device I/O runs on lane 1000 + w + 1, named after it,
        // and every access carries its operation.
        assert!(chrome.contains("\"tid\": 1001, \"args\": {\"name\": \"io worker 0\"}"));
        let io_event = chrome
            .lines()
            .find(|e| e.contains("\"ph\": \"X\"") && e.contains("\"tid\": 1001,"))
            .expect("worker 0's I/O lane carries the page access");
        assert!(io_event.contains("\"op\": "), "{io_event}");
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_str("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn empty_trace_emits_valid_json() {
        let trace = ExecutionTrace::default();
        validate_json(&trace.to_json());
        validate_json(&trace.to_chrome_trace());
        assert_eq!(trace.phase_secs(Phase::Total), 0.0);
    }

    /// Minimal JSON syntax checker: validates the emitters produce
    /// well-formed documents without pulling in a parser dependency.
    fn validate_json(s: &str) {
        let bytes = s.as_bytes();
        let mut pos = 0usize;
        skip_ws(bytes, &mut pos);
        parse_value(bytes, &mut pos);
        skip_ws(bytes, &mut pos);
        assert_eq!(pos, bytes.len(), "trailing garbage at byte {pos} in JSON");
    }

    fn skip_ws(b: &[u8], pos: &mut usize) {
        while *pos < b.len() && matches!(b[*pos], b' ' | b'\n' | b'\t' | b'\r') {
            *pos += 1;
        }
    }

    fn parse_value(b: &[u8], pos: &mut usize) {
        skip_ws(b, pos);
        assert!(*pos < b.len(), "unexpected end of JSON");
        match b[*pos] {
            b'{' => parse_delimited(b, pos, b'}', true),
            b'[' => parse_delimited(b, pos, b']', false),
            b'"' => parse_string(b, pos),
            b't' => parse_lit(b, pos, "true"),
            b'f' => parse_lit(b, pos, "false"),
            b'n' => parse_lit(b, pos, "null"),
            _ => parse_number(b, pos),
        }
    }

    fn parse_delimited(b: &[u8], pos: &mut usize, close: u8, keyed: bool) {
        *pos += 1; // opening bracket
        skip_ws(b, pos);
        if b[*pos] == close {
            *pos += 1;
            return;
        }
        loop {
            if keyed {
                skip_ws(b, pos);
                parse_string(b, pos);
                skip_ws(b, pos);
                assert_eq!(b[*pos], b':', "expected ':' at byte {pos}");
                *pos += 1;
            }
            parse_value(b, pos);
            skip_ws(b, pos);
            match b[*pos] {
                b',' => *pos += 1,
                c if c == close => {
                    *pos += 1;
                    return;
                }
                c => panic!("unexpected byte {:?} at {pos}", c as char),
            }
        }
    }

    fn parse_string(b: &[u8], pos: &mut usize) {
        assert_eq!(b[*pos], b'"', "expected string at byte {pos}");
        *pos += 1;
        while b[*pos] != b'"' {
            if b[*pos] == b'\\' {
                *pos += 1;
            }
            *pos += 1;
        }
        *pos += 1;
    }

    fn parse_lit(b: &[u8], pos: &mut usize, lit: &str) {
        assert!(
            b[*pos..].starts_with(lit.as_bytes()),
            "bad literal at {pos}"
        );
        *pos += lit.len();
    }

    fn parse_number(b: &[u8], pos: &mut usize) {
        let start = *pos;
        while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
            *pos += 1;
        }
        assert!(*pos > start, "expected number at byte {start}");
    }
}
