//! The traced run: where the time of a join goes, layer by layer.
//!
//! The relations live on a latency-measuring `TracedDevice`, every join goes
//! through the `*_obs` twin of the workload's entry point with a recording
//! `Obs`, and the remaining layers are timed by calling their public
//! functions directly. Nothing here feeds the end-to-end metrics; the
//! untraced NOCAP joins interleaved with the traced ones give the tracing
//! overhead.

use std::collections::BTreeMap;
use std::time::Instant;

use nocap::{ocap, plan_nocap, OcapConfig};
use nocap_model::JoinRunReport;
use nocap_obs::{ExecutionTrace, HistogramSummary, Obs, Phase};
use nocap_stats::{StatsCollector, StatsConfig};
use nocap_storage::{BlockStats, DeviceProfile, IoKind, IoOp};

use crate::algos::{check, Algo, Engines, Entry, Gate};
use crate::kernels::{direct_device_metrics, kernel_metrics};
use crate::manifest::Metric;
use crate::outcome::{Outcome, RunConfig};
use crate::spans::{innermost_covering, parents_by_containment, self_times, SpanLog};
use crate::summary::median;
use crate::workloads::Loaded;

/// Traced rounds run until this many have and half of `--seconds` passed;
/// the other half is left to the direct timings that follow.
const MIN_TRACED_ROUNDS: usize = 3;
/// Device events kept per join in the chrome trace.
const IO_SPANS_PER_JOIN: usize = 1_000;
const PLAN_REPEATS: usize = 21;
const STATS_REPEATS: usize = 3;
/// Samples per entry point behind the `par.*` ratios.
const PAR_SAMPLES: usize = 5;
/// Sketch budget of `stats.collect_s`, in pages.
const STATS_PAGES: usize = 4;

/// The phases whose self time an algorithm reports by name; everything else
/// on its coordinating thread is `unattributed_s`.
fn named_phases(algo: Algo) -> &'static [(Phase, &'static str)] {
    match algo {
        Algo::Smj => &[
            (Phase::SortRunGen, "sort_run_gen_s"),
            (Phase::Merge, "merge_s"),
        ],
        _ => &[
            (Phase::Partition, "partition_s"),
            (Phase::Spill, "spill_s"),
            (Phase::Build, "build_s"),
            (Phase::Probe, "probe_s"),
        ],
    }
}

/// Where one traced join spent its coordinating thread's time.
#[derive(Debug, Clone, PartialEq)]
struct PhaseTimes {
    /// Duration of the engine's `total` span.
    total_s: f64,
    /// Self seconds per phase (child spans subtracted), `total` included.
    self_s: BTreeMap<Phase, f64>,
}

fn phase_times(trace: &ExecutionTrace) -> Option<PhaseTimes> {
    let main: Vec<_> = trace.spans.iter().filter(|s| s.worker.is_none()).collect();
    let intervals: Vec<(u64, u64)> = main.iter().map(|s| (s.start_ns, s.end_ns)).collect();
    let own = self_times(&intervals, &parents_by_containment(&intervals));
    let mut self_s = BTreeMap::new();
    for (span, own_ns) in main.iter().zip(own) {
        *self_s.entry(span.phase).or_insert(0.0) += own_ns as f64 * 1e-9;
    }
    let total = main.iter().find(|s| s.phase == Phase::Total)?;
    Some(PhaseTimes {
        total_s: total.dur_ns() as f64 * 1e-9,
        self_s,
    })
}

/// How evenly one parallel join kept its workers busy.
#[derive(Debug, Clone, Copy, PartialEq)]
struct WorkerSkew {
    busy_max_over_mean: f64,
    /// 1 − Σ worker busy ÷ (T × wall of the phases that ran workers).
    idle_share: f64,
    /// Tasks claimed by the busiest worker ÷ all tasks.
    busiest_worker_task_share: f64,
}

fn worker_skew(trace: &ExecutionTrace, threads: usize) -> Option<WorkerSkew> {
    let workers = trace.worker_breakdown();
    let busy: f64 = workers.iter().map(|w| w.2).sum();
    let &(_, busiest_tasks, busiest_busy) = workers.iter().max_by(|a, b| a.2.total_cmp(&b.2))?;
    let tasks: usize = workers.iter().map(|w| w.1).sum();
    // Wall of the parallel phases: every coordinating-thread span that is
    // the innermost one around some worker span, counted once.
    let main: Vec<_> = trace
        .spans
        .iter()
        .filter(|s| s.worker.is_none() && s.phase != Phase::Total)
        .collect();
    let intervals: Vec<(u64, u64)> = main.iter().map(|m| (m.start_ns, m.end_ns)).collect();
    let mut parallel = vec![false; main.len()];
    for w in trace.spans.iter().filter(|s| s.worker.is_some()) {
        if let Some(i) = innermost_covering(&intervals, w.start_ns) {
            parallel[i] = true;
        }
    }
    let wall: f64 = main
        .iter()
        .zip(&parallel)
        .filter(|(_, &p)| p)
        .map(|(m, _)| m.dur_ns() as f64 * 1e-9)
        .sum();
    if busy <= 0.0 || wall <= 0.0 {
        return None;
    }
    Some(WorkerSkew {
        busy_max_over_mean: busiest_busy / (busy / threads as f64),
        idle_share: 1.0 - busy / (threads as f64 * wall),
        busiest_worker_task_share: if tasks == 0 {
            0.0
        } else {
            busiest_tasks as f64 / tasks as f64
        },
    })
}

/// The device's share of one traced join, from its event stream.
fn device_metrics(
    trace: &ExecutionTrace,
    report: &JoinRunReport,
    wall_s: f64,
    blocks: BlockStats,
) -> Vec<Metric> {
    let mut latencies: [Vec<u64>; 2] = Default::default();
    for e in &trace.io_events {
        let op = match e.op {
            IoOp::Read => 0,
            IoOp::Append => 1,
        };
        latencies[op].push(e.latency_ns.unwrap_or(0));
    }
    let [reads, appends] = latencies.map(|mut l| HistogramSummary::from_values(&mut l));
    let (read_s, append_s) = (reads.sum as f64 * 1e-9, appends.sum as f64 * 1e-9);
    let us = |ns: u64| ns as f64 / 1e3;
    let per = |pages: u64, calls: u64| {
        if calls == 0 {
            0.0
        } else {
            pages as f64 / calls as f64
        }
    };
    let device_s = read_s + append_s;
    let m = |name: &str, value: f64, unit: &'static str| {
        Metric::new(format!("device.{name}"), value, unit)
    };
    vec![
        m("read_calls", reads.count as f64, "count"),
        m("append_calls", appends.count as f64, "count"),
        m("read_s", read_s, "s"),
        m("append_s", append_s, "s"),
        m("busy_share", device_s / wall_s, "ratio"),
        m("read_us_p50", us(reads.p50), "us"),
        m("read_us_p99", us(reads.p99), "us"),
        m("append_us_p50", us(appends.p50), "us"),
        m("append_us_p99", us(appends.p99), "us"),
        // The block layer's syscalls during the same join; a device that
        // keeps its pages in memory issues none.
        m("pread_calls", blocks.physical_reads as f64, "count"),
        m("pwrite_calls", blocks.physical_writes as f64, "count"),
        m(
            "pages_per_pread",
            per(blocks.physical_read_pages, blocks.physical_reads),
            "pages",
        ),
        m(
            "pages_per_pwrite",
            per(blocks.physical_write_pages, blocks.physical_writes),
            "pages",
        ),
        m(
            "readahead_hit_ratio",
            per(blocks.readahead_hits, report.total_io().reads()),
            "ratio",
        ),
        m("flushes", blocks.flushes as f64, "count"),
        m("syncs", blocks.syncs as f64, "count"),
        m(
            "torn_writes_repaired",
            blocks.torn_writes_repaired as f64,
            "count",
        ),
        m(
            "model_over_measured_s",
            report.io_latency_secs(&DeviceProfile::osync_off()) / device_s,
            "ratio",
        ),
    ]
}

fn block_stats_since(now: BlockStats, then: BlockStats) -> BlockStats {
    BlockStats {
        physical_reads: now.physical_reads - then.physical_reads,
        physical_read_pages: now.physical_read_pages - then.physical_read_pages,
        physical_writes: now.physical_writes - then.physical_writes,
        physical_write_pages: now.physical_write_pages - then.physical_write_pages,
        readahead_hits: now.readahead_hits - then.readahead_hits,
        buffered_appends: now.buffered_appends - then.buffered_appends,
        flushes: now.flushes - then.flushes,
        syncs: now.syncs - then.syncs,
        torn_writes_repaired: now.torn_writes_repaired - then.torn_writes_repaired,
    }
}

/// Samples of one algorithm's traced joins.
#[derive(Default)]
struct TracedSamples {
    total_s: Vec<f64>,
    phase_s: BTreeMap<&'static str, Vec<f64>>,
    unattributed_s: Vec<f64>,
    skew: Vec<WorkerSkew>,
    latest: Option<JoinRunReport>,
}

pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let def = cfg.def;
    let spec = def.spec(&cfg.geometry);
    let engines = Engines::new(spec);
    let (entry, threads) = Entry::of(def);
    let mut metrics: Vec<Metric> = Vec::new();
    let mut log = SpanLog::new();
    let run_span = log.enter("run");

    // ---- workload ------------------------------------------------------
    let span = log.enter("setup");
    let (loaded, generate_s) = Loaded::generate(def, &cfg.geometry, cfg.seed, &cfg.out_dir, true)?;
    log.exit(span);
    let wl = &loaded.wl;
    let base_pages = (wl.r.num_pages() + wl.s.num_pages()) as f64;
    metrics.push(Metric::new("workload.generate_s", generate_s, "s"));
    metrics.push(Metric::new(
        "workload.pages_r",
        wl.r.num_pages() as f64,
        "pages",
    ));
    metrics.push(Metric::new(
        "workload.pages_s",
        wl.s.num_pages() as f64,
        "pages",
    ));

    // ---- references ----------------------------------------------------
    // The untraced serial run is what every later run must reproduce:
    // traced ≡ untraced and `run_parallel(T)` ≡ `run`. It doubles as warm-up.
    let mut gate = Gate::new(wl.expected_join_output());
    let span = log.enter("reference");
    for algo in Algo::ALL {
        gate.admit(algo, engines.timed(algo, &loaded, Entry::Serial, None).0);
    }
    gate.no_leaks(&loaded);
    log.exit(span);

    // ---- exec, device, obs: traced rounds --------------------------------
    let mut samples: [TracedSamples; 4] = Default::default();
    let mut traced_nocap_wall = Vec::new();
    let mut untraced_nocap_wall = Vec::new();
    let mut device: Option<Vec<Metric>> = None;
    let mut obs_counts = (0usize, 0usize);
    let started = Instant::now();
    let mut rounds = 0;
    while rounds < cfg.geometry.max_rounds
        && (rounds < MIN_TRACED_ROUNDS || started.elapsed().as_secs_f64() < cfg.seconds / 2.0)
    {
        let round_span = log.enter("round");
        for algo in Algo::ALL {
            let blocks_before = loaded.block_stats();
            let join_span = log.enter(&format!("join.{}", algo.name()));
            let offset_ns = log.now_ns();
            let obs = Obs::recording();
            let (result, wall) = engines.timed(algo, &loaded, entry, Some(&obs));
            log.exit(join_span);
            let Some(mut report) = gate.admit(algo, result) else {
                continue;
            };
            let trace = report.trace.take();
            let (Some(trace), Some(times)) = (&trace, trace.as_ref().and_then(phase_times)) else {
                gate.tally
                    .record(Err(format!("{}: the traced run has no trace", algo.name())));
                continue;
            };
            log.graft(join_span, offset_ns, trace, IO_SPANS_PER_JOIN);

            let s = &mut samples[algo as usize];
            let mut named = 0.0;
            for &(phase, name) in named_phases(algo) {
                let own = times.self_s.get(&phase).copied().unwrap_or(0.0);
                named += own;
                s.phase_s.entry(name).or_default().push(own);
            }
            let unattributed = times.self_s.values().sum::<f64>() - named;
            s.total_s.push(times.total_s);
            s.unattributed_s.push(unattributed);
            // Self times of a span tree add up to its root; a gap means
            // spans overlap or escape the `total` span.
            gate.tally.record(
                if (named + unattributed - times.total_s).abs() <= 0.05 * times.total_s {
                    Ok(())
                } else {
                    Err(format!(
                        "{}: phase self times sum to {:.6} s, total span is {:.6} s",
                        algo.name(),
                        named + unattributed,
                        times.total_s
                    ))
                },
            );
            if def.parallel {
                s.skew.extend(worker_skew(trace, threads));
            }
            if algo == Algo::Nocap {
                traced_nocap_wall.push(wall);
                if device.is_none() {
                    let blocks = block_stats_since(loaded.block_stats(), blocks_before);
                    device = Some(device_metrics(trace, &report, wall, blocks));
                    obs_counts = (trace.spans.len(), trace.io_events.len());
                }
            }
            s.latest = Some(report);
        }
        let span = log.enter("join.nocap.untraced");
        let (result, wall) = engines.timed(Algo::Nocap, &loaded, entry, None);
        log.exit(span);
        if gate.admit(Algo::Nocap, result).is_some() {
            untraced_nocap_wall.push(wall);
        }
        gate.no_leaks(&loaded);
        log.exit(round_span);
        rounds += 1;
    }
    let latest = |algo: Algo| -> Result<&JoinRunReport, String> {
        samples[algo as usize]
            .latest
            .as_ref()
            .ok_or(format!("{} never completed a traced join", algo.name()))
    };
    let nocap_report = latest(Algo::Nocap)?;
    if untraced_nocap_wall.is_empty() {
        return Err("nocap never completed an untraced join".to_string());
    }

    // ---- stats ---------------------------------------------------------
    let stats_config = StatsConfig::for_budget_pages(STATS_PAGES, spec.page_size);
    let collect = |log: &mut SpanLog, workers: usize| -> Result<_, String> {
        let span = log.enter(&format!("stats.collect_t{workers}"));
        let mut secs = Vec::with_capacity(STATS_REPEATS);
        let mut summary = None;
        for _ in 0..STATS_REPEATS {
            let started = Instant::now();
            summary = Some(
                StatsCollector::collect_parallel(stats_config, &wl.s, workers)
                    .map_err(|e| format!("stats collection: {e}"))?,
            );
            secs.push(started.elapsed().as_secs_f64());
        }
        log.exit(span);
        Ok((summary.expect("at least one repeat"), median(&secs)))
    };
    let (summary, collect_s) = collect(&mut log, 1)?;
    let collect_t2_s = if def.parallel {
        collect(&mut log, threads)?.1
    } else {
        0.0
    };
    let span = log.enter("join.nocap.sketched");
    loaded.device.reset_stats();
    let sketched = engines.run_sketched(wl, &summary);
    log.exit(span);
    gate.tally
        .record(check(&sketched, wl.expected_join_output(), None));
    let sketched_ios = sketched?.total_ios();
    metrics.push(Metric::new("stats.collect_s", collect_s, "s"));
    metrics.push(Metric::new("stats.collect_t2_s", collect_t2_s, "s"));
    metrics.push(Metric::new(
        "stats.sketch_mcvs",
        summary.mcvs().len() as f64,
        "count",
    ));
    metrics.push(Metric::new(
        "stats.sketch_over_catalog_ios",
        sketched_ios as f64 / nocap_report.total_ios() as f64,
        "ratio",
    ));

    // ---- planner -------------------------------------------------------
    let planner_config = engines.nocap().config().planner;
    let plan = || {
        plan_nocap(
            &wl.mcvs,
            wl.r.num_records(),
            wl.s.num_records() as u64,
            &spec,
            &planner_config,
        )
    };
    let span = log.enter("planner.plan");
    let plan_secs: Vec<f64> = (0..PLAN_REPEATS)
        .map(|_| {
            let started = Instant::now();
            std::hint::black_box(plan());
            started.elapsed().as_secs_f64()
        })
        .collect();
    log.exit(span);
    let chosen = plan();
    let span = log.enter("planner.ocap");
    let started = Instant::now();
    let optimum = ocap(&wl.ct, &spec, &OcapConfig::default());
    let ocap_s = started.elapsed().as_secs_f64();
    log.exit(span);
    // NOCAP's I/O in the planner's own currency: pages weighted by the
    // spec's write/read asymmetry, as `OcapSolution::total_io_pages` is.
    let nocap_cost_pages = spec.device.trace_latency_us(&nocap_report.total_io())
        / spec.device.latency_us(IoKind::SeqRead);
    let p = |name: &str, value: f64, unit: &'static str| {
        Metric::new(format!("planner.{name}"), value, unit)
    };
    metrics.extend([
        p("plan_s", median(&plan_secs), "s"),
        p("k_mem", chosen.k_mem() as f64, "count"),
        p("k_disk", chosen.k_disk() as f64, "count"),
        p("m_rest", chosen.m_rest as f64, "pages"),
        p("est_extra_io_pages", chosen.estimated_extra_io, "pages"),
        p(
            "actual_extra_ios",
            nocap_report.total_ios() as f64 - base_pages,
            "pages",
        ),
        p("ocap_s", ocap_s, "s"),
        p(
            "nocap_over_ocap_cost",
            nocap_cost_pages / optimum.total_io_pages,
            "ratio",
        ),
    ]);

    // ---- exec ----------------------------------------------------------
    for algo in Algo::ALL {
        let s = &samples[algo as usize];
        let report = latest(algo)?;
        let e = |name: &str, value: f64, unit: &'static str| {
            Metric::new(format!("exec.{}.{name}", algo.name()), value, unit)
        };
        metrics.push(e("total_s", median(&s.total_s), "s"));
        for &(_, name) in named_phases(algo) {
            metrics.push(e(name, median(&s.phase_s[name]), "s"));
        }
        metrics.push(e("unattributed_s", median(&s.unattributed_s), "s"));
        let io = report.total_io();
        metrics.extend([
            e("partition_ios", report.partition_io.total() as f64, "pages"),
            e("probe_ios", report.probe_io.total() as f64, "pages"),
            e("read_ios", io.reads() as f64, "pages"),
            e("write_ios", io.writes() as f64, "pages"),
        ]);
    }

    // ---- par -----------------------------------------------------------
    // Only the parallel workload goes through nocap-par; elsewhere the layer
    // does no work and its metrics read 0.
    for algo in Algo::ALL {
        let mut values = [0.0; 5];
        if def.parallel {
            let span = log.enter(&format!("par.{}", algo.name()));
            let entries = [Entry::Serial, entry, Entry::Parallel(1)];
            let mut walls: [Vec<f64>; 3] = Default::default();
            for _ in 0..PAR_SAMPLES {
                for (samples, &entry) in walls.iter_mut().zip(&entries) {
                    let (result, wall) = engines.timed(algo, &loaded, entry, None);
                    if gate.admit(algo, result).is_some() {
                        samples.push(wall);
                    }
                }
            }
            log.exit(span);
            if walls.iter().any(Vec::is_empty) {
                return Err(format!(
                    "par.{}: an entry point never completed",
                    algo.name()
                ));
            }
            let [serial, parallel, one] = walls.map(|w| median(&w));
            let skew = &samples[algo as usize].skew;
            let skew_median = |f: fn(&WorkerSkew) -> f64| {
                if skew.is_empty() {
                    0.0
                } else {
                    median(&skew.iter().map(f).collect::<Vec<_>>())
                }
            };
            values = [
                serial / parallel,
                one / serial,
                skew_median(|s| s.busy_max_over_mean),
                skew_median(|s| s.idle_share),
                skew_median(|s| s.busiest_worker_task_share),
            ];
        }
        let names = [
            "speedup_t2",
            "t1_over_serial",
            "busy_max_over_mean",
            "idle_share",
            "busiest_worker_task_share",
        ];
        for (name, value) in names.iter().zip(values) {
            metrics.push(Metric::new(
                format!("par.{}.{name}", algo.name()),
                value,
                "ratio",
            ));
        }
    }

    // ---- kernel, device ------------------------------------------------
    metrics.extend(kernel_metrics(&mut log, &loaded, &spec)?);
    metrics.extend(device.expect("nocap completed a traced join"));
    metrics.extend(direct_device_metrics(&mut log, &loaded)?);
    gate.no_leaks(&loaded);

    // ---- obs -----------------------------------------------------------
    metrics.extend([
        Metric::new(
            "obs.trace_overhead",
            median(&traced_nocap_wall) / median(&untraced_nocap_wall) - 1.0,
            "ratio",
        ),
        Metric::new("obs.spans", obs_counts.0 as f64, "count"),
        Metric::new("obs.io_events", obs_counts.1 as f64, "count"),
    ]);

    log.exit(run_span);
    let trace_path = cfg.out_dir.join(format!("trace.{}.json", def.name));
    log.write_chrome_trace(&trace_path)
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;
    Ok(Outcome {
        metrics,
        tally: gate.tally,
        rounds,
        threads,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::manifest::{check_metrics, Manifest};
    use crate::outcome::smoke_config;
    use crate::workloads::WORKLOADS;
    use nocap_obs::SpanRec;

    fn span(
        phase: Phase,
        worker: Option<usize>,
        task: Option<usize>,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanRec {
        SpanRec {
            phase,
            worker,
            task,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn phase_self_times_add_up_to_the_total_span() {
        let trace = ExecutionTrace {
            spans: vec![
                span(Phase::Total, None, None, 0, 1_000),
                span(Phase::Partition, None, None, 100, 500),
                span(Phase::Spill, None, None, 200, 300),
                span(Phase::Probe, None, None, 600, 900),
                // Worker spans are another thread's time.
                span(Phase::Probe, Some(0), Some(0), 600, 900),
            ],
            ..Default::default()
        };
        let times = phase_times(&trace).unwrap();
        assert!((times.total_s - 1e-6).abs() < 1e-15);
        let ns = |p: Phase| (times.self_s[&p] * 1e9).round() as u64;
        assert_eq!(
            (
                ns(Phase::Total),
                ns(Phase::Partition),
                ns(Phase::Spill),
                ns(Phase::Probe)
            ),
            (300, 300, 100, 300)
        );
        assert!((times.self_s.values().sum::<f64>() - times.total_s).abs() < 1e-12);
        assert!(
            phase_times(&ExecutionTrace::default()).is_none(),
            "no total span"
        );
    }

    #[test]
    fn worker_skew_reads_busy_time_against_the_parallel_phases_only() {
        let trace = ExecutionTrace {
            spans: vec![
                span(Phase::Total, None, None, 0, 2_000),
                span(Phase::Partition, None, None, 0, 1_000),
                span(Phase::Partition, Some(0), None, 0, 1_000),
                span(Phase::Partition, Some(1), None, 0, 500),
                // A serial phase: no worker runs in it, so it is not idle time.
                span(Phase::Merge, None, None, 1_000, 2_000),
            ],
            ..Default::default()
        };
        let skew = worker_skew(&trace, 2).unwrap();
        assert!((skew.busy_max_over_mean - 1_000.0 / 750.0).abs() < 1e-9);
        assert!((skew.idle_share - 0.25).abs() < 1e-9);
        assert_eq!(skew.busiest_worker_task_share, 0.0, "no task spans");
        assert!(worker_skew(&ExecutionTrace::default(), 2).is_none());
    }

    #[test]
    fn every_workload_prints_exactly_the_declared_layers_and_a_loadable_trace() {
        let manifest = Manifest::load().unwrap();
        for def in &WORKLOADS {
            let cfg = smoke_config(def.name, 7, "traced-all");
            std::fs::create_dir_all(&cfg.out_dir).unwrap();
            let outcome = run(&cfg).unwrap();
            assert_eq!(
                check_metrics(&manifest.per_layer, &outcome.metrics),
                Vec::<String>::new()
            );
            assert_eq!(outcome.tally.failed, 0, "{:?}", outcome.tally.messages);
            let value = |name: &str| {
                outcome
                    .metrics
                    .iter()
                    .find(|m| m.name == name)
                    .unwrap()
                    .value
            };
            // Layers a workload bypasses do no work and read 0.
            assert_eq!(value("par.nocap.speedup_t2") > 0.0, def.parallel);
            assert_eq!(
                value("device.pread_calls") > 0.0,
                def.device == crate::workloads::DeviceKind::File
            );
            assert!(value("obs.io_events") > 0.0 && value("device.read_calls") > 0.0);

            let text =
                std::fs::read_to_string(cfg.out_dir.join(format!("trace.{}.json", def.name)))
                    .unwrap();
            let trace = Json::parse(&text).unwrap();
            let events = trace.get("traceEvents").unwrap().as_array().unwrap();
            let named = |name: &str| {
                events
                    .iter()
                    .filter(|e| e.get("name").and_then(Json::as_str) == Some(name))
                    .count()
            };
            assert_eq!((named("run"), named("setup")), (1, 1));
            assert_eq!(named("round"), outcome.rounds);
            assert!(named("partition") > 0 && named("io seq_read") > 0);
            std::fs::remove_dir_all(&cfg.out_dir).unwrap();
        }
    }
}
