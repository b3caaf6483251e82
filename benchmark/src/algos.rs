//! The four algorithms under test, called through their public entry
//! points, and the checks every returned report must pass.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use nocap::{NocapConfig, NocapJoin};
use nocap_joins::{DhhJoin, GraceHashJoin, SortMergeJoin};
use nocap_model::{JoinRunReport, JoinSpec};
use nocap_obs::Obs;
use nocap_stats::StatsSummary;
use nocap_storage::IoStats;
use nocap_workload::GeneratedWorkload;

use crate::outcome::Tally;
use crate::workloads::{parallel_threads, Loaded, WorkloadDef};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    Nocap,
    Dhh,
    Ghj,
    Smj,
}

impl Algo {
    /// The fixed order of a round.
    pub const ALL: [Algo; 4] = [Algo::Nocap, Algo::Dhh, Algo::Ghj, Algo::Smj];

    /// The metric prefix.
    pub fn name(self) -> &'static str {
        match self {
            Algo::Nocap => "nocap",
            Algo::Dhh => "dhh",
            Algo::Ghj => "ghj",
            Algo::Smj => "smj",
        }
    }
}

/// Which public entry point a join goes through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Entry {
    /// `run` / `run_obs`.
    Serial,
    /// `run_parallel` / `run_parallel_obs` with this many workers.
    Parallel(usize),
}

impl Entry {
    /// The entry point a workload's joins go through, and its worker count.
    pub fn of(def: &WorkloadDef) -> (Entry, usize) {
        if def.parallel {
            let threads = parallel_threads();
            (Entry::Parallel(threads), threads)
        } else {
            (Entry::Serial, 1)
        }
    }
}

/// The operators, all with default configurations.
pub struct Engines {
    nocap: NocapJoin,
    dhh: DhhJoin,
    ghj: GraceHashJoin,
    smj: SortMergeJoin,
}

impl Engines {
    pub fn new(spec: JoinSpec) -> Self {
        Engines {
            nocap: NocapJoin::new(spec, NocapConfig::default()),
            dhh: DhhJoin::with_defaults(spec),
            ghj: GraceHashJoin::new(spec),
            smj: SortMergeJoin::new(spec),
        }
    }

    pub fn nocap(&self) -> &NocapJoin {
        &self.nocap
    }

    /// One whole join. NOCAP and DHH get the catalog MCVs; an error or a
    /// panic inside the engine comes back as `Err`.
    pub fn run(
        &self,
        algo: Algo,
        wl: &GeneratedWorkload,
        entry: Entry,
        obs: Option<&Obs>,
    ) -> Result<JoinRunReport, String> {
        let (r, s, mcvs) = (&wl.r, &wl.s, &wl.mcvs[..]);
        let call = || match (algo, entry, obs) {
            (Algo::Nocap, Entry::Serial, None) => self.nocap.run(r, s, mcvs),
            (Algo::Nocap, Entry::Serial, Some(o)) => self.nocap.run_obs(r, s, mcvs, o),
            (Algo::Nocap, Entry::Parallel(t), None) => self.nocap.run_parallel(r, s, mcvs, t),
            (Algo::Nocap, Entry::Parallel(t), Some(o)) => {
                self.nocap.run_parallel_obs(r, s, mcvs, t, o)
            }
            (Algo::Dhh, Entry::Serial, None) => self.dhh.run(r, s, mcvs),
            (Algo::Dhh, Entry::Serial, Some(o)) => self.dhh.run_obs(r, s, mcvs, o),
            (Algo::Dhh, Entry::Parallel(t), None) => self.dhh.run_parallel(r, s, mcvs, t),
            (Algo::Dhh, Entry::Parallel(t), Some(o)) => self.dhh.run_parallel_obs(r, s, mcvs, t, o),
            (Algo::Ghj, Entry::Serial, None) => self.ghj.run(r, s),
            (Algo::Ghj, Entry::Serial, Some(o)) => self.ghj.run_obs(r, s, o),
            (Algo::Ghj, Entry::Parallel(t), None) => self.ghj.run_parallel(r, s, t),
            (Algo::Ghj, Entry::Parallel(t), Some(o)) => self.ghj.run_parallel_obs(r, s, t, o),
            (Algo::Smj, Entry::Serial, None) => self.smj.run(r, s),
            (Algo::Smj, Entry::Serial, Some(o)) => self.smj.run_obs(r, s, o),
            (Algo::Smj, Entry::Parallel(t), None) => self.smj.run_parallel(r, s, t),
            (Algo::Smj, Entry::Parallel(t), Some(o)) => self.smj.run_parallel_obs(r, s, t, o),
        };
        guarded(algo.name(), call)
    }

    /// NOCAP planned from a sketch summary instead of the catalog MCVs.
    pub fn run_sketched(
        &self,
        wl: &GeneratedWorkload,
        summary: &StatsSummary,
    ) -> Result<JoinRunReport, String> {
        guarded("nocap (sketched)", || {
            self.nocap.run_with_collected_stats(&wl.r, &wl.s, summary)
        })
    }

    /// One whole join on a loaded workload with the wall time of the public
    /// call alone: counters are reset before the clock starts.
    pub fn timed(
        &self,
        algo: Algo,
        loaded: &Loaded,
        entry: Entry,
        obs: Option<&Obs>,
    ) -> (Result<JoinRunReport, String>, f64) {
        loaded.device.reset_stats();
        let started = Instant::now();
        let result = self.run(algo, &loaded.wl, entry, obs);
        (result, started.elapsed().as_secs_f64())
    }
}

/// Runs one join, turning an engine error or panic into `Err`.
fn guarded(
    name: &str,
    call: impl FnOnce() -> nocap_storage::Result<JoinRunReport>,
) -> Result<JoinRunReport, String> {
    match catch_unwind(AssertUnwindSafe(call)) {
        Ok(Ok(report)) => Ok(report),
        Ok(Err(e)) => Err(format!("{name}: {e}")),
        Err(_) => Err(format!("{name}: panicked")),
    }
}

/// The modeled I/O of one join, per phase: what must repeat exactly across
/// rounds, with tracing on or off, and at every thread count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseIo {
    pub partition: IoStats,
    pub probe: IoStats,
}

impl PhaseIo {
    pub fn of(report: &JoinRunReport) -> Self {
        PhaseIo {
            partition: report.partition_io,
            probe: report.probe_io,
        }
    }
}

/// Checks one join's result: it returned, produced exactly the expected
/// number of tuples, and did the reference run's I/O phase by phase.
pub fn check(
    result: &Result<JoinRunReport, String>,
    expected_output: u64,
    reference: Option<&PhaseIo>,
) -> Result<(), String> {
    let report = result.as_ref().map_err(String::clone)?;
    if report.output_records != expected_output {
        return Err(format!(
            "{}: {} output records, expected {expected_output}",
            report.algorithm, report.output_records
        ));
    }
    match reference {
        Some(reference) if *reference != PhaseIo::of(report) => Err(format!(
            "{}: per-phase I/O {:?} differs from the reference {:?}",
            report.algorithm,
            PhaseIo::of(report),
            reference
        )),
        _ => Ok(()),
    }
}

/// The correctness gates of one run. The first admitted report of an
/// algorithm becomes the reference its later runs must reproduce, whatever
/// their entry point, thread count or tracing.
pub struct Gate {
    expected_output: u64,
    reference: [Option<PhaseIo>; 4],
    pub tally: Tally,
}

impl Gate {
    pub fn new(expected_output: u64) -> Self {
        Gate {
            expected_output,
            reference: [None; 4],
            tally: Tally::default(),
        }
    }

    /// Counts one join and checks it; hands the report back if it ran.
    pub fn admit(
        &mut self,
        algo: Algo,
        result: Result<JoinRunReport, String>,
    ) -> Option<JoinRunReport> {
        let slot = &mut self.reference[algo as usize];
        self.tally
            .record(check(&result, self.expected_output, slot.as_ref()));
        let report = result.ok()?;
        slot.get_or_insert(PhaseIo::of(&report));
        Some(report)
    }

    /// Counts one leak check: between joins the device holds R and S only.
    pub fn no_leaks(&mut self, loaded: &Loaded) {
        let verdict = loaded.live_files().and_then(|files| {
            if files == 2 {
                Ok(())
            } else {
                Err(format!(
                    "{files} files on the device after a round, expected R and S"
                ))
            }
        });
        self.tally.record(verdict);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nocap_storage::IoKind;

    #[test]
    fn a_report_is_checked_against_output_and_reference_io() {
        let mut report = JoinRunReport::new("TEST");
        report.output_records = 10;
        report.probe_io.record_many(IoKind::SeqRead, 5);
        let reference = PhaseIo::of(&report);
        let ok = Ok(report.clone());
        assert!(check(&ok, 10, None).is_ok());
        assert!(check(&ok, 10, Some(&reference)).is_ok());
        assert!(
            check(&ok, 11, Some(&reference)).is_err(),
            "wrong cardinality"
        );

        report.probe_io.record_many(IoKind::RandWrite, 1);
        assert!(
            check(&Ok(report), 10, Some(&reference)).is_err(),
            "I/O moved"
        );
        assert!(check(&Err("boom".to_string()), 10, None).is_err());
    }
}
