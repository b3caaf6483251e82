//! What one run is asked to do and what it hands back.

use std::path::PathBuf;

use crate::manifest::Metric;
use crate::workloads::{Geometry, WorkloadDef};

/// One invocation: a workload, its inputs' seed and how long to measure.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub def: &'static WorkloadDef,
    pub geometry: Geometry,
    pub seed: u64,
    /// Timed rounds are added until this many seconds have passed.
    pub seconds: f64,
    /// Where scratch files, the trace and the result record go.
    pub out_dir: PathBuf,
}

/// Operations attempted and failed. An operation is one whole join or one
/// after-round leak check; any violated gate fails it.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages, for the log.
    pub messages: Vec<String>,
}

impl Tally {
    const KEPT_MESSAGES: usize = 8;

    pub fn record(&mut self, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(message) = verdict {
            self.failed += 1;
            if self.messages.len() < Self::KEPT_MESSAGES {
                self.messages.push(message);
            }
        }
    }
}

/// The result of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub tally: Tally,
    /// Timed rounds that ran.
    pub rounds: usize,
    /// Worker threads of the joins' entry point (1 for `run`).
    pub threads: usize,
}

/// Peak resident set of this process in MB (`VmHWM`), 0 where
/// `/proc/self/status` does not exist.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A smoke-geometry configuration whose files go to a directory of the
/// calling test's own under the package's ignored `out/`.
#[cfg(test)]
pub fn smoke_config(workload: &str, seed: u64, tag: &str) -> RunConfig {
    RunConfig {
        def: crate::workloads::find(workload).expect("a declared workload"),
        geometry: Geometry::SMOKE,
        seed,
        seconds: 0.0,
        out_dir: PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-{tag}-{}", std::process::id())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_tally_counts_every_verdict_and_keeps_the_first_messages() {
        let mut tally = Tally::default();
        tally.record(Ok(()));
        for i in 0..20 {
            tally.record(Err(format!("failure {i}")));
        }
        assert_eq!((tally.attempted, tally.failed), (21, 20));
        assert_eq!(tally.messages.len(), Tally::KEPT_MESSAGES);
        assert_eq!(tally.messages[0], "failure 0");
    }

    #[test]
    fn peak_rss_is_read_on_linux() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_mb() > 0.0);
        }
    }
}
