//! The untraced run: set-up time, whole-join wall time, I/O counts, memory.
//!
//! Closed loop, one client: the next join starts when the previous one
//! returns. A round runs the four algorithms once each in a fixed order, so
//! drift of the machine during a run reaches all four alike.

use std::time::Instant;

use nocap_model::JoinRunReport;
use nocap_storage::DeviceProfile;

use crate::algos::{Algo, Engines, Entry, Gate};
use crate::manifest::Metric;
use crate::outcome::{peak_rss_mb, Outcome, RunConfig};
use crate::summary::summarize;
use crate::workloads::Loaded;

/// Generate-and-load passes behind `setup_s`.
const SETUP_PASSES: usize = 9;

/// One round: every algorithm once, then the leak check. Returns the wall
/// seconds per algorithm and keeps each algorithm's latest report.
fn round(
    engines: &Engines,
    loaded: &Loaded,
    entry: Entry,
    gate: &mut Gate,
    latest: &mut [Option<JoinRunReport>; 4],
) -> [f64; 4] {
    let mut walls = [0.0; 4];
    for algo in Algo::ALL {
        let (result, wall) = engines.timed(algo, loaded, entry, None);
        walls[algo as usize] = wall;
        if let Some(report) = gate.admit(algo, result) {
            latest[algo as usize] = Some(report);
        }
    }
    gate.no_leaks(loaded);
    walls
}

pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let def = cfg.def;
    let engines = Engines::new(def.spec(&cfg.geometry));

    let mut setup = Vec::with_capacity(SETUP_PASSES);
    let mut kept = None;
    for _ in 0..SETUP_PASSES {
        // Releasing the previous pass's pages is not set-up time, and two
        // resident copies would double the peak memory this run reports.
        drop(kept.take());
        let (loaded, secs) = Loaded::generate(def, &cfg.geometry, cfg.seed, &cfg.out_dir, false)?;
        setup.push(secs);
        kept = Some(loaded);
    }
    let loaded = kept.expect("at least one set-up pass");

    let (entry, threads) = Entry::of(def);
    let mut gate = Gate::new(loaded.wl.expected_join_output());
    let mut latest: [Option<JoinRunReport>; 4] = [None, None, None, None];
    if def.parallel {
        // `run_parallel(T)` must reproduce `run`: the serial reports become
        // the reference of every round below.
        round(&engines, &loaded, Entry::Serial, &mut gate, &mut latest);
    }
    // Warm-up, not timed: allocator, page cache and branch predictors settle.
    round(&engines, &loaded, entry, &mut gate, &mut latest);

    let mut walls: [Vec<f64>; 4] = Default::default();
    let started = Instant::now();
    let mut rounds = 0;
    while rounds < cfg.geometry.max_rounds
        && (rounds < cfg.geometry.min_rounds || started.elapsed().as_secs_f64() < cfg.seconds)
    {
        let round_walls = round(&engines, &loaded, entry, &mut gate, &mut latest);
        for (samples, wall) in walls.iter_mut().zip(round_walls) {
            samples.push(wall);
        }
        rounds += 1;
    }

    let mut metrics = Vec::new();
    let s = summarize(&setup);
    let mut setup_metric = Metric::new("setup_s", s.median, "s");
    setup_metric.detail = spread_detail(&s);
    metrics.push(setup_metric);
    for algo in Algo::ALL {
        let s = summarize(&walls[algo as usize]);
        let mut m = Metric::new(format!("{}_wall_s", algo.name()), s.median, "s");
        m.detail = spread_detail(&s);
        metrics.push(m);
    }
    let model = DeviceProfile::osync_off();
    for algo in Algo::ALL {
        let report = latest[algo as usize]
            .as_ref()
            .ok_or_else(|| format!("{} never completed a join", algo.name()))?;
        let name = algo.name();
        metrics.push(Metric::new(
            format!("{name}_ios"),
            report.total_ios() as f64,
            "pages",
        ));
        if matches!(algo, Algo::Nocap | Algo::Dhh) {
            // Seconds under the device model, computed from the counts: not
            // a measured time, and its unit says so.
            metrics.push(Metric::new(
                format!("{name}_model_io_s"),
                report.io_latency_secs(&model),
                "model_s",
            ));
        }
    }
    metrics.push(Metric::new("peak_rss_mb", peak_rss_mb(), "MB"));
    Ok(Outcome {
        metrics,
        tally: gate.tally,
        rounds,
        threads,
    })
}

/// The spread behind a median. With the sample sizes of one run no tail
/// percentile has ten samples beyond it, and the text says so.
pub fn spread_detail(s: &crate::summary::Summary) -> String {
    format!(
        "median of n={}, p25 {:.6}, p75 {:.6}, min {:.6}, max {:.6}; \
         n is too small for a tail percentile with ten samples beyond it",
        s.n, s.p25, s.p75, s.min, s.max
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::{check_metrics, Manifest};
    use crate::outcome::smoke_config;
    use crate::workloads::WORKLOADS;

    fn counts(outcome: &Outcome) -> Vec<(String, f64)> {
        outcome
            .metrics
            .iter()
            .filter(|m| m.name.ends_with("_ios") || m.name.ends_with("_model_io_s"))
            .map(|m| (m.name.clone(), m.value))
            .collect()
    }

    #[test]
    fn every_workload_prints_exactly_the_declared_metrics_and_fails_nothing() {
        let manifest = Manifest::load().unwrap();
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(
            names, manifest.workloads,
            "BENCHMARK.json lists the workloads"
        );
        for def in &WORKLOADS {
            let cfg = smoke_config(def.name, 7, "e2e-all");
            let outcome = run(&cfg).unwrap();
            assert_eq!(
                check_metrics(&manifest.end_to_end, &outcome.metrics),
                Vec::<String>::new()
            );
            assert_eq!(outcome.tally.failed, 0, "{:?}", outcome.tally.messages);
            assert_eq!(outcome.rounds, 3);
            // Four joins and a leak check per round: warm-up + 3 timed, plus
            // the serial reference round of the parallel workload.
            let rounds = if def.parallel { 5 } else { 4 };
            assert_eq!(outcome.tally.attempted, rounds * 5);
            assert!(
                outcome.metrics.iter().all(|m| m.value > 0.0),
                "no metric reads 0"
            );
            // No scratch directory outlives the run.
            let left = std::fs::read_dir(&cfg.out_dir).map_or(0, |d| d.count());
            assert_eq!(left, 0, "{} left files behind", def.name);
            let _ = std::fs::remove_dir_all(&cfg.out_dir);
        }
    }

    #[test]
    fn counts_repeat_for_a_seed_and_move_with_it() {
        let run_counts =
            |seed| counts(&run(&smoke_config("zipf_tight", seed, "e2e-seeds")).unwrap());
        let first = run_counts(0x0CA9);
        assert_eq!(first.len(), 6);
        assert_eq!(
            first,
            run_counts(0x0CA9),
            "same seed, same inputs, same I/O"
        );
        let other = run_counts(7);
        let nocap_ios = |c: &[(String, f64)]| c.iter().find(|(n, _)| n == "nocap_ios").unwrap().1;
        assert_ne!(
            nocap_ios(&first),
            nocap_ios(&other),
            "another seed is another input"
        );
    }
}
