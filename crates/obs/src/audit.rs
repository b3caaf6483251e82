//! [`IoAudit`]: the modeled-vs-observed I/O auditor.
//!
//! The cost model rests on two claims the engine itself never checks:
//!
//! 1. the [`IoKind`] declared for each page access describes the access
//!    pattern that actually reaches the device, and
//! 2. the per-phase `IoStats` snapshots the executors report account for
//!    every access the device served.
//!
//! `IoAudit` replays the device-level event stream a `TracedDevice` captured
//! into an [`ExecutionTrace`] and checks both, producing two signal
//! classes:
//!
//! * **Model audit** — events between consecutive counter markers are folded
//!   back into [`IoStats`] and compared to the counter delta. Because the
//!   executors only snapshot at quiescent phase barriers, every window must
//!   match *exactly*; any [`IoAudit::mismatches`] means events bypassed the
//!   accounting (or vice versa). On a latency-measuring device the per-phase
//!   measured wall time is additionally compared with the
//!   [`DeviceProfile`] prediction, and empirical μ/τ ratios are derived from
//!   the per-kind mean latencies.
//! * **Declaration audit** — each access is classified sequential/random
//!   from the actual per-stream offset deltas (a stream is one worker's
//!   reads or writes; an access is sequential when it lands on the same file
//!   at the same or next page offset). The observed sequential fraction is
//!   aggregated per (phase, declared kind) and obviously contradictory
//!   declarations are flagged.

use std::collections::BTreeMap;

use nocap_storage::device::FileId;
use nocap_storage::{DeviceProfile, IoKind, IoMarkerKind, IoOp, IoStats};

use crate::io::io_kind_name;
use crate::trace::{json_str, ExecutionTrace};
use crate::Phase;

/// One marker-bounded window of the event stream: the events between two
/// consecutive counter markers, folded, next to the counter delta they must
/// equal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoWindow {
    /// Marker kind opening the window.
    pub opening: IoMarkerKind,
    /// Marker kind closing the window.
    pub closing: IoMarkerKind,
    /// The window's events folded into counters.
    pub folded: IoStats,
    /// The device counter delta across the window (after a reset the basis
    /// restarts at zero).
    pub expected: IoStats,
    /// Number of events in the window.
    pub events: usize,
}

impl IoWindow {
    /// Whether the folded events account exactly for the counter delta.
    pub fn matches(&self) -> bool {
        self.folded == self.expected
    }
}

/// Observed and predicted I/O of one phase (or of unattributed accesses).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseIoRow {
    /// The phase events were attributed to (`None`: outside any span/mark).
    pub phase: Option<Phase>,
    /// Folded event counters for this phase.
    pub stats: IoStats,
    /// Number of events.
    pub events: usize,
    /// Events that carried a measured latency.
    pub measured_events: usize,
    /// Summed measured latency of those events, microseconds.
    pub measured_us: f64,
    /// `DeviceProfile` prediction for [`Self::stats`], microseconds.
    pub predicted_us: f64,
}

impl PhaseIoRow {
    /// The summed measured latency, microseconds — only when every event
    /// carried one.
    fn measured(&self) -> Option<f64> {
        (self.measured_events == self.events && self.events > 0).then_some(self.measured_us)
    }

    /// measured / predicted latency ratio, when both sides exist.
    fn model_error(&self) -> Option<f64> {
        Some(self.measured()? / self.predicted_us).filter(|_| self.predicted_us > 0.0)
    }
}

/// Observed access pattern of one (phase, declared kind) group.
#[derive(Debug, Clone, PartialEq)]
pub struct DeclarationRow {
    /// The phase the accesses were attributed to.
    pub phase: Option<Phase>,
    /// The declared [`IoKind`].
    pub kind: IoKind,
    /// Number of accesses.
    pub events: usize,
    /// How many of them were sequential per the offset-delta classifier.
    pub sequential: usize,
    /// Set when the declaration contradicts the observed pattern.
    pub flag: Option<String>,
}

/// Measured vs predicted latency of one [`IoKind`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyRow {
    /// The declared kind.
    pub kind: IoKind,
    /// Number of measured accesses.
    pub events: usize,
    /// Mean measured latency, microseconds.
    pub mean_us: f64,
    /// The profile's per-access latency for this kind, microseconds.
    pub predicted_us: f64,
}

/// Groups with fewer accesses than this are never flagged by the
/// declaration audit (a one-page probe has no pattern to contradict).
const MIN_FLAG_EVENTS: usize = 4;

/// The audit report. Build one with [`IoAudit::from_trace`] after a run on a
/// `TracedDevice` with `Obs::attach_io` active.
#[derive(Debug, Clone, PartialEq)]
pub struct IoAudit {
    /// The device model the observations are compared against.
    pub profile: DeviceProfile,
    /// Marker-bounded windows of the model audit, in stream order.
    pub windows: Vec<IoWindow>,
    /// Events before the first marker (0 when `attach_io` opened the stream).
    pub leading_events: usize,
    /// Events after the last marker (not covered by any window).
    pub trailing_events: usize,
    /// Per-phase observed counters and latency, in phase order.
    pub phase_io: Vec<PhaseIoRow>,
    /// Declaration-audit groups, per (phase, declared kind).
    pub declarations: Vec<DeclarationRow>,
    /// Per-kind measured-vs-predicted latency (empty without measurement).
    pub latency: Vec<LatencyRow>,
}

fn kind_idx(kind: IoKind) -> usize {
    match kind {
        IoKind::SeqRead => 0,
        IoKind::RandRead => 1,
        IoKind::SeqWrite => 2,
        IoKind::RandWrite => 3,
    }
}

const ALL_KINDS: [IoKind; 4] = [
    IoKind::SeqRead,
    IoKind::RandRead,
    IoKind::SeqWrite,
    IoKind::RandWrite,
];

impl IoAudit {
    /// Builds the audit from a recorded trace, comparing against `profile`.
    pub fn from_trace(trace: &ExecutionTrace, profile: DeviceProfile) -> IoAudit {
        let events = &trace.io_events;
        let markers = &trace.io_markers;

        // --- model audit: fold events between consecutive markers ---------
        let mut windows = Vec::new();
        let mut trailing_events = 0usize;
        let mut cursor = 0usize;
        let leading_events = match markers.first() {
            Some(first) => {
                while cursor < events.len() && events[cursor].seq < first.seq {
                    cursor += 1;
                }
                cursor
            }
            None => events.len(),
        };
        for pair in markers.windows(2) {
            let (open, close) = (&pair[0], &pair[1]);
            let mut folded = IoStats::new();
            let mut count = 0usize;
            while cursor < events.len() && events[cursor].seq < close.seq {
                folded.record(events[cursor].kind);
                count += 1;
                cursor += 1;
            }
            // After a reset the device counters restart at zero, so the
            // window's basis is zero rather than the pre-reset values.
            let base = match open.kind {
                IoMarkerKind::Snapshot => open.stats,
                IoMarkerKind::Reset => IoStats::new(),
            };
            windows.push(IoWindow {
                opening: open.kind,
                closing: close.kind,
                folded,
                expected: close.stats.since(&base),
                events: count,
            });
        }
        if !markers.is_empty() {
            trailing_events = events.len() - cursor;
        }

        // --- per-phase fold + latency ------------------------------------
        let mut by_phase: BTreeMap<Option<Phase>, PhaseIoRow> = BTreeMap::new();
        for e in events {
            let row = by_phase.entry(e.phase).or_insert(PhaseIoRow {
                phase: e.phase,
                stats: IoStats::new(),
                events: 0,
                measured_events: 0,
                measured_us: 0.0,
                predicted_us: 0.0,
            });
            row.stats.record(e.kind);
            row.events += 1;
            if let Some(l) = e.latency_ns {
                row.measured_events += 1;
                row.measured_us += l as f64 / 1e3;
            }
        }
        let mut phase_io: Vec<PhaseIoRow> = by_phase.into_values().collect();
        for row in &mut phase_io {
            row.predicted_us = profile.trace_latency_us(&row.stats);
        }

        // --- declaration audit -------------------------------------------
        // A stream is one worker's reads or writes; sequential means the
        // access hits the same file at the previous or next page offset.
        let mut stream_pos: BTreeMap<(Option<usize>, bool), (FileId, usize)> = BTreeMap::new();
        let mut decl: BTreeMap<(Option<Phase>, usize), (usize, usize)> = BTreeMap::new();
        for e in events {
            let stream = (e.worker, matches!(e.op, IoOp::Append));
            let sequential = match stream_pos.get(&stream) {
                Some(&(file, page)) => file == e.file && (e.page == page + 1 || e.page == page),
                None => false,
            };
            stream_pos.insert(stream, (e.file, e.page));
            let slot = decl.entry((e.phase, kind_idx(e.kind))).or_insert((0, 0));
            slot.0 += 1;
            slot.1 += usize::from(sequential);
        }
        let declarations: Vec<DeclarationRow> = decl
            .into_iter()
            .map(|((phase, ki), (events, sequential))| {
                let kind = ALL_KINDS[ki];
                let frac = sequential as f64 / events as f64;
                let flag = if events < MIN_FLAG_EVENTS {
                    None
                } else {
                    match kind {
                        IoKind::SeqRead | IoKind::SeqWrite if frac < 0.5 => Some(format!(
                            "declared {}, but only {:.0}% of accesses were sequential",
                            io_kind_name(kind),
                            frac * 100.0
                        )),
                        IoKind::RandRead | IoKind::RandWrite if frac > 0.9 => Some(format!(
                            "declared {}, but {:.0}% of accesses were sequential",
                            io_kind_name(kind),
                            frac * 100.0
                        )),
                        _ => None,
                    }
                };
                DeclarationRow {
                    phase,
                    kind,
                    events,
                    sequential,
                    flag,
                }
            })
            .collect();

        // --- per-kind latency table --------------------------------------
        let mut sums = [(0usize, 0.0f64); 4];
        for e in events {
            if let Some(l) = e.latency_ns {
                let s = &mut sums[kind_idx(e.kind)];
                s.0 += 1;
                s.1 += l as f64 / 1e3;
            }
        }
        let latency: Vec<LatencyRow> = ALL_KINDS
            .iter()
            .filter_map(|&kind| {
                let (count, total_us) = sums[kind_idx(kind)];
                (count > 0).then(|| LatencyRow {
                    kind,
                    events: count,
                    mean_us: total_us / count as f64,
                    predicted_us: profile.latency_us(kind),
                })
            })
            .collect();

        IoAudit {
            profile,
            windows,
            leading_events,
            trailing_events,
            phase_io,
            declarations,
            latency,
        }
    }

    /// Windows whose folded events do not equal the counter delta. Empty on
    /// a correct engine — every traced access is accounted and vice versa.
    pub fn mismatches(&self) -> Vec<&IoWindow> {
        self.windows.iter().filter(|w| !w.matches()).collect()
    }

    /// Declaration groups flagged as contradicting their declared kind.
    pub fn flagged_declarations(&self) -> Vec<&DeclarationRow> {
        self.declarations
            .iter()
            .filter(|d| d.flag.is_some())
            .collect()
    }

    fn mean_of(&self, kind: IoKind) -> Option<f64> {
        self.latency
            .iter()
            .find(|r| r.kind == kind)
            .map(|r| r.mean_us)
    }

    /// Empirical μ (measured rand-write / seq-read mean latency).
    fn empirical_mu(&self) -> Option<f64> {
        Some(self.mean_of(IoKind::RandWrite)? / self.mean_of(IoKind::SeqRead)?)
    }

    /// Empirical τ (measured seq-write / seq-read mean latency).
    fn empirical_tau(&self) -> Option<f64> {
        Some(self.mean_of(IoKind::SeqWrite)? / self.mean_of(IoKind::SeqRead)?)
    }

    /// Empirical rand-read / seq-read mean latency ratio.
    fn empirical_rand_read_ratio(&self) -> Option<f64> {
        Some(self.mean_of(IoKind::RandRead)? / self.mean_of(IoKind::SeqRead)?)
    }

    /// The full audit as a JSON document.
    pub fn to_json(&self) -> String {
        fn stats_fields(s: &IoStats) -> String {
            format!(
                "\"seq_reads\": {}, \"rand_reads\": {}, \"seq_writes\": {}, \"rand_writes\": {}",
                s.seq_reads, s.rand_reads, s.seq_writes, s.rand_writes
            )
        }
        let mut out = String::from("{\n");
        out.push_str(&format!(
            "  \"profile\": {{\"seq_read_us\": {}, \"rand_read_us\": {}, \"seq_write_us\": {}, \"rand_write_us\": {}, \"mu\": {}, \"tau\": {}}},\n",
            json_num(self.profile.seq_read_us),
            json_num(self.profile.rand_read_us),
            json_num(self.profile.seq_write_us),
            json_num(self.profile.rand_write_us),
            json_num(self.profile.mu()),
            json_num(self.profile.tau())
        ));
        out.push_str(&format!(
            "  \"model_audit\": {{\"windows\": {}, \"mismatches\": {}, \"leading_events\": {}, \"trailing_events\": {}}},\n",
            self.windows.len(),
            self.mismatches().len(),
            self.leading_events,
            self.trailing_events
        ));
        out.push_str("  \"phases\": [");
        for (i, r) in self.phase_io.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"phase\": {}, \"events\": {}, {}, \"predicted_us\": {}, \"measured_us\": {}, \"model_error\": {}}}",
                r.phase
                    .map_or_else(|| "null".to_string(), |p| json_str(p.name())),
                r.events,
                stats_fields(&r.stats),
                json_num(r.predicted_us),
                json_opt(r.measured()),
                json_opt(r.model_error())
            ));
        }
        out.push_str("\n  ],\n  \"declarations\": [");
        for (i, d) in self.declarations.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"phase\": {}, \"kind\": {}, \"events\": {}, \"sequential\": {}, \"flag\": {}}}",
                d.phase
                    .map_or_else(|| "null".to_string(), |p| json_str(p.name())),
                json_str(io_kind_name(d.kind)),
                d.events,
                d.sequential,
                d.flag
                    .as_deref()
                    .map_or_else(|| "null".to_string(), json_str)
            ));
        }
        out.push_str("\n  ],\n  \"latency\": [");
        for (i, l) in self.latency.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"kind\": {}, \"events\": {}, \"mean_us\": {}, \"predicted_us\": {}}}",
                json_str(io_kind_name(l.kind)),
                l.events,
                json_num(l.mean_us),
                json_num(l.predicted_us)
            ));
        }
        out.push_str(&format!(
            "\n  ],\n  \"empirical\": {{\"mu\": {}, \"tau\": {}, \"rand_read_ratio\": {}}}\n}}\n",
            json_opt(self.empirical_mu()),
            json_opt(self.empirical_tau()),
            json_opt(self.empirical_rand_read_ratio())
        ));
        out
    }
}

/// A JSON number with three decimals, `null` when not finite.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "null".to_string()
    }
}

/// [`json_num`] of a present value, `null` otherwise.
fn json_opt(v: Option<f64>) -> String {
    v.map_or_else(|| "null".to_string(), json_num)
}

/// One row of a durability (sync-on vs sync-off) latency comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SyncComparisonRow {
    /// The declared kind.
    pub kind: IoKind,
    /// Mean measured latency with syncing off, microseconds.
    pub off_mean_us: f64,
    /// Mean measured latency with syncing on, microseconds.
    pub on_mean_us: f64,
    /// The sync-off profile's per-access latency, microseconds.
    pub off_predicted_us: f64,
    /// The sync-on profile's per-access latency, microseconds.
    pub on_predicted_us: f64,
}

impl SyncComparisonRow {
    /// Measured on/off slowdown for this kind.
    fn measured_ratio(&self) -> f64 {
        self.on_mean_us / self.off_mean_us
    }

    /// The profiles' predicted on/off slowdown for this kind.
    fn predicted_ratio(&self) -> f64 {
        self.on_predicted_us / self.off_predicted_us
    }
}

/// Side-by-side latency tables of the same workload audited under a
/// sync-off and a sync-on device configuration — the measured counterpart
/// of the paper's `DeviceProfile::{osync_off, osync_on}` pair.
///
/// Built with [`SyncComparison::between`] from two [`IoAudit`]s whose
/// profiles carry the respective model parameters. The interesting columns
/// are the *ratios*: how much each I/O kind slows down when every append
/// batch is synced, measured vs what the two profiles predict.
#[derive(Debug, Clone, PartialEq)]
pub struct SyncComparison {
    /// Per-kind rows, for every kind present in both audits' latency tables.
    pub rows: Vec<SyncComparisonRow>,
    /// Empirical μ under sync-off / sync-on (None without write+read latency).
    pub mu: (Option<f64>, Option<f64>),
    /// Empirical τ under sync-off / sync-on.
    pub tau: (Option<f64>, Option<f64>),
    /// Model μ of the two profiles.
    pub model_mu: (f64, f64),
    /// Model τ of the two profiles.
    pub model_tau: (f64, f64),
}

impl SyncComparison {
    /// Joins the latency tables of a sync-off and a sync-on audit.
    pub fn between(off: &IoAudit, on: &IoAudit) -> SyncComparison {
        let rows = ALL_KINDS
            .iter()
            .filter_map(|&kind| {
                let o = off.latency.iter().find(|r| r.kind == kind)?;
                let n = on.latency.iter().find(|r| r.kind == kind)?;
                Some(SyncComparisonRow {
                    kind,
                    off_mean_us: o.mean_us,
                    on_mean_us: n.mean_us,
                    off_predicted_us: o.predicted_us,
                    on_predicted_us: n.predicted_us,
                })
            })
            .collect();
        SyncComparison {
            rows,
            mu: (off.empirical_mu(), on.empirical_mu()),
            tau: (off.empirical_tau(), on.empirical_tau()),
            model_mu: (off.profile.mu(), on.profile.mu()),
            model_tau: (off.profile.tau(), on.profile.tau()),
        }
    }

    /// The comparison as a JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n    \"kinds\": [");
        for (i, r) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n      {{\"kind\": {}, \"off_mean_us\": {}, \"on_mean_us\": {}, \
                 \"measured_ratio\": {}, \"off_predicted_us\": {}, \"on_predicted_us\": {}, \
                 \"predicted_ratio\": {}}}",
                json_str(io_kind_name(r.kind)),
                json_num(r.off_mean_us),
                json_num(r.on_mean_us),
                json_num(r.measured_ratio()),
                json_num(r.off_predicted_us),
                json_num(r.on_predicted_us),
                json_num(r.predicted_ratio())
            ));
        }
        out.push_str(&format!(
            "\n    ],\n    \"empirical_mu\": {{\"off\": {}, \"on\": {}}},\n    \
             \"empirical_tau\": {{\"off\": {}, \"on\": {}}},\n    \
             \"model_mu\": {{\"off\": {}, \"on\": {}}},\n    \
             \"model_tau\": {{\"off\": {}, \"on\": {}}}\n  }}",
            json_opt(self.mu.0),
            json_opt(self.mu.1),
            json_opt(self.tau.0),
            json_opt(self.tau.1),
            json_num(self.model_mu.0),
            json_num(self.model_mu.1),
            json_num(self.model_tau.0),
            json_num(self.model_tau.1)
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::{IoEventRec, IoMarkerRec};

    #[allow(clippy::too_many_arguments)]
    fn ev(
        seq: u64,
        worker: Option<usize>,
        phase: Option<Phase>,
        file: u64,
        page: usize,
        kind: IoKind,
        op: IoOp,
        latency_ns: Option<u64>,
    ) -> IoEventRec {
        IoEventRec {
            seq,
            t_ns: seq * 10,
            worker,
            phase,
            file: FileId(file),
            page,
            kind,
            op,
            latency_ns,
        }
    }

    fn marker(seq: u64, kind: IoMarkerKind, stats: IoStats) -> IoMarkerRec {
        IoMarkerRec {
            seq,
            t_ns: seq * 10,
            kind,
            stats,
        }
    }

    fn stats(sr: u64, rr: u64, sw: u64, rw: u64) -> IoStats {
        IoStats {
            seq_reads: sr,
            rand_reads: rr,
            seq_writes: sw,
            rand_writes: rw,
        }
    }

    #[test]
    fn exact_windows_have_no_mismatches() {
        let trace = ExecutionTrace {
            io_events: vec![
                ev(
                    1,
                    None,
                    Some(Phase::Partition),
                    0,
                    0,
                    IoKind::SeqRead,
                    IoOp::Read,
                    None,
                ),
                ev(
                    2,
                    None,
                    Some(Phase::Partition),
                    1,
                    0,
                    IoKind::RandWrite,
                    IoOp::Append,
                    None,
                ),
                ev(
                    4,
                    None,
                    Some(Phase::Probe),
                    1,
                    0,
                    IoKind::SeqRead,
                    IoOp::Read,
                    None,
                ),
            ],
            io_markers: vec![
                marker(0, IoMarkerKind::Snapshot, stats(0, 0, 0, 0)),
                marker(3, IoMarkerKind::Snapshot, stats(1, 0, 0, 1)),
                marker(5, IoMarkerKind::Snapshot, stats(2, 0, 0, 1)),
            ],
            ..Default::default()
        };
        let audit = IoAudit::from_trace(&trace, DeviceProfile::osync_off());
        assert_eq!(audit.windows.len(), 2);
        assert!(audit.mismatches().is_empty());
        assert_eq!(audit.leading_events, 0);
        assert_eq!(audit.trailing_events, 0);
        let phases: Vec<_> = audit
            .phase_io
            .iter()
            .map(|r| (r.phase, r.stats, r.events))
            .collect();
        assert_eq!(
            phases,
            [
                (Some(Phase::Partition), stats(1, 0, 0, 1), 2),
                (Some(Phase::Probe), stats(1, 0, 0, 0), 1),
            ]
        );
    }

    #[test]
    fn unaccounted_event_is_a_mismatch() {
        let trace = ExecutionTrace {
            io_events: vec![ev(1, None, None, 0, 0, IoKind::SeqRead, IoOp::Read, None)],
            io_markers: vec![
                marker(0, IoMarkerKind::Snapshot, stats(0, 0, 0, 0)),
                // The counter delta claims nothing happened.
                marker(2, IoMarkerKind::Snapshot, stats(0, 0, 0, 0)),
            ],
            ..Default::default()
        };
        let audit = IoAudit::from_trace(&trace, DeviceProfile::osync_off());
        assert_eq!(audit.mismatches().len(), 1);
    }

    #[test]
    fn reset_restarts_the_window_basis() {
        let trace = ExecutionTrace {
            io_events: vec![ev(2, None, None, 0, 0, IoKind::RandRead, IoOp::Read, None)],
            io_markers: vec![
                // 40 I/Os happened before the reset; after it, one rand read.
                marker(1, IoMarkerKind::Reset, stats(10, 10, 10, 10)),
                marker(3, IoMarkerKind::Snapshot, stats(0, 1, 0, 0)),
            ],
            ..Default::default()
        };
        let audit = IoAudit::from_trace(&trace, DeviceProfile::osync_off());
        assert_eq!(audit.windows.len(), 1);
        assert!(audit.mismatches().is_empty());
    }

    #[test]
    fn declaration_audit_flags_contradictions() {
        let mut events = Vec::new();
        // A genuinely sequential scan declared SeqRead: not flagged.
        for i in 0..8 {
            events.push(ev(
                i,
                None,
                Some(Phase::Scan),
                0,
                i as usize,
                IoKind::SeqRead,
                IoOp::Read,
                None,
            ));
        }
        // Random-striding reads declared SeqRead: flagged.
        for i in 0..8 {
            events.push(ev(
                8 + i,
                Some(0),
                Some(Phase::Merge),
                (i % 4) + 10,
                (i * 7) as usize,
                IoKind::SeqRead,
                IoOp::Read,
                None,
            ));
        }
        // A sequential run write declared RandWrite: flagged the other way
        // (long enough that the first-touch penalty cannot mask it).
        for i in 0..32 {
            events.push(ev(
                16 + i,
                Some(1),
                Some(Phase::Spill),
                20,
                i as usize,
                IoKind::RandWrite,
                IoOp::Append,
                None,
            ));
        }
        let trace = ExecutionTrace {
            io_events: events,
            ..Default::default()
        };
        let audit = IoAudit::from_trace(&trace, DeviceProfile::osync_off());
        let flagged = audit.flagged_declarations();
        assert_eq!(flagged.len(), 2);
        assert!(flagged.iter().any(|d| d.phase == Some(Phase::Merge)));
        assert!(flagged.iter().any(|d| d.phase == Some(Phase::Spill)));
        let scan = audit
            .declarations
            .iter()
            .find(|d| d.phase == Some(Phase::Scan))
            .unwrap();
        assert!(scan.flag.is_none());
        assert!(scan.sequential as f64 > 0.8 * scan.events as f64);
    }

    #[test]
    fn latency_table_derives_empirical_ratios() {
        let mk = |seq: u64, kind: IoKind, lat: u64| {
            ev(
                seq,
                None,
                None,
                0,
                seq as usize,
                kind,
                IoOp::Read,
                Some(lat),
            )
        };
        let trace = ExecutionTrace {
            io_events: vec![
                mk(0, IoKind::SeqRead, 10_000),
                mk(1, IoKind::SeqRead, 10_000),
                mk(2, IoKind::RandWrite, 20_000),
                mk(3, IoKind::SeqWrite, 15_000),
                mk(4, IoKind::RandRead, 12_000),
            ],
            ..Default::default()
        };
        let audit = IoAudit::from_trace(&trace, DeviceProfile::osync_off());
        assert!((audit.empirical_mu().unwrap() - 2.0).abs() < 1e-9);
        assert!((audit.empirical_tau().unwrap() - 1.5).abs() < 1e-9);
        assert!((audit.empirical_rand_read_ratio().unwrap() - 1.2).abs() < 1e-9);
        assert_eq!(audit.latency.len(), 4);
    }

    #[test]
    fn sync_comparison_joins_the_two_latency_tables() {
        let mk_audit = |profile: DeviceProfile, scale: u64| {
            let mk = |seq: u64, kind: IoKind, lat: u64| {
                ev(
                    seq,
                    None,
                    None,
                    0,
                    seq as usize,
                    kind,
                    IoOp::Read,
                    Some(lat),
                )
            };
            let trace = ExecutionTrace {
                io_events: vec![
                    mk(0, IoKind::SeqRead, 10_000),
                    mk(1, IoKind::RandWrite, 20_000 * scale),
                    mk(2, IoKind::SeqWrite, 15_000 * scale),
                ],
                ..Default::default()
            };
            IoAudit::from_trace(&trace, profile)
        };
        let off = mk_audit(DeviceProfile::osync_off(), 1);
        let on = mk_audit(DeviceProfile::osync_on(), 4);
        let cmp = SyncComparison::between(&off, &on);
        // RandRead is absent from both tables, so 3 joined rows remain.
        assert_eq!(cmp.rows.len(), 3);
        let rw = cmp
            .rows
            .iter()
            .find(|r| r.kind == IoKind::RandWrite)
            .unwrap();
        assert!((rw.measured_ratio() - 4.0).abs() < 1e-9);
        assert!(
            (rw.predicted_ratio()
                - DeviceProfile::osync_on().rand_write_us
                    / DeviceProfile::osync_off().rand_write_us)
                .abs()
                < 1e-9
        );
        // Sync-on writes slowed 4x while reads did not, so empirical mu/tau
        // must grow by the same factor.
        assert!((cmp.mu.1.unwrap() / cmp.mu.0.unwrap() - 4.0).abs() < 1e-9);
        assert!((cmp.tau.1.unwrap() / cmp.tau.0.unwrap() - 4.0).abs() < 1e-9);
        let json = cmp.to_json();
        assert!(json.contains("\"measured_ratio\""), "{json}");
        assert!(json.contains("\"empirical_mu\""), "{json}");
    }

    #[test]
    fn audit_json_is_well_formed() {
        let trace = ExecutionTrace {
            io_events: vec![ev(
                1,
                Some(0),
                Some(Phase::Probe),
                0,
                0,
                IoKind::RandRead,
                IoOp::Read,
                Some(5_000),
            )],
            io_markers: vec![
                marker(0, IoMarkerKind::Snapshot, stats(0, 0, 0, 0)),
                marker(2, IoMarkerKind::Snapshot, stats(0, 1, 0, 0)),
            ],
            ..Default::default()
        };
        let audit = IoAudit::from_trace(&trace, DeviceProfile::osync_off());
        let json = audit.to_json();
        for key in [
            "\"profile\"",
            "\"model_audit\"",
            "\"phases\"",
            "\"declarations\"",
            "\"latency\"",
            "\"empirical\"",
        ] {
            assert!(json.contains(key), "missing {key} in:\n{json}");
        }
        assert!(json.contains("\"mismatches\": 0"));
    }
}
