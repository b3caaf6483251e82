//! Shared experiment-harness helpers: run every algorithm on one workload
//! and print figure-style rows.

use nocap::{NocapConfig, NocapJoin, OcapConfig};
use nocap_joins::{DhhConfig, DhhJoin, GraceHashJoin, SortMergeJoin};
use nocap_model::{CorrelationTable, JoinSpec};
use nocap_storage::{DeviceProfile, Relation};
use nocap_workload::GeneratedWorkload;

/// One measured data point of a figure: an algorithm at one x-value.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Algorithm name as used in the paper's legends.
    pub algorithm: String,
    /// Total number of page I/Os.
    pub ios: u64,
    /// Estimated I/O latency in seconds under the experiment's device.
    pub io_latency_secs: f64,
    /// Total latency (I/O + CPU) in seconds.
    pub total_latency_secs: f64,
    /// Output cardinality (used to cross-check all algorithms agree).
    pub output_records: u64,
}

/// Which algorithms a sweep should run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AlgorithmSet {
    /// Run NOCAP.
    pub nocap: bool,
    /// Run DHH (PostgreSQL-style fixed thresholds).
    pub dhh: bool,
    /// Run Histojoin.
    pub histojoin: bool,
    /// Run Grace Hash Join.
    pub ghj: bool,
    /// Run Sort-Merge Join.
    pub smj: bool,
}

impl AlgorithmSet {
    /// All five executors (Figure 8).
    pub fn all() -> Self {
        AlgorithmSet {
            nocap: true,
            dhh: true,
            histojoin: true,
            ghj: true,
            smj: true,
        }
    }

    /// Just NOCAP and DHH (the TPC-H / JCC-H / JOB figures).
    pub fn nocap_vs_dhh() -> Self {
        AlgorithmSet {
            nocap: true,
            dhh: true,
            histojoin: false,
            ghj: false,
            smj: false,
        }
    }
}

/// Runs the selected algorithms on one workload under one spec and returns
/// their measurements. The device stats are reset before every run so each
/// report contains only that join's I/O.
pub fn run_algorithms(
    workload: &GeneratedWorkload,
    spec: &JoinSpec,
    device_profile: &DeviceProfile,
    set: &AlgorithmSet,
) -> Vec<Measurement> {
    let mut out = Vec::new();
    let r = &workload.r;
    let s = &workload.s;
    let mcvs = &workload.mcvs;

    let mut push = |name: &str, report: nocap_model::JoinRunReport| {
        out.push(Measurement {
            algorithm: name.to_string(),
            ios: report.total_ios(),
            io_latency_secs: report.io_latency_secs(device_profile),
            total_latency_secs: report.total_latency_secs(device_profile),
            output_records: report.output_records,
        });
    };

    if set.nocap {
        reset(r);
        let report = NocapJoin::new(*spec, NocapConfig::default())
            .run(r, s, mcvs)
            .expect("NOCAP run");
        push("NOCAP", report);
    }
    if set.dhh {
        reset(r);
        let report = DhhJoin::new(*spec, DhhConfig::default())
            .run(r, s, mcvs)
            .expect("DHH run");
        push("DHH", report);
    }
    if set.histojoin {
        reset(r);
        let report = DhhJoin::histojoin(*spec)
            .run(r, s, mcvs)
            .expect("Histojoin run");
        push("Histojoin", report);
    }
    if set.ghj {
        reset(r);
        let report = GraceHashJoin::new(*spec).run(r, s).expect("GHJ run");
        push("GHJ", report);
    }
    if set.smj {
        reset(r);
        let report = SortMergeJoin::new(*spec).run(r, s).expect("SMJ run");
        push("SMJ", report);
    }
    out
}

/// Estimated OCAP lower bound (in page I/Os) for the workload under `spec`.
pub fn ocap_lower_bound(ct: &CorrelationTable, spec: &JoinSpec) -> f64 {
    nocap::ocap(ct, spec, &OcapConfig::default()).total_io_pages
}

fn reset(r: &Relation) {
    r.device().reset_stats();
}

/// Prints a CSV header followed by one row per x-value with one column per
/// series, in a fixed series order.
pub fn print_series_table(
    x_label: &str,
    series_names: &[&str],
    rows: &[(String, Vec<Option<f64>>)],
) {
    let header: Vec<String> = std::iter::once(x_label.to_string())
        .chain(series_names.iter().map(|s| s.to_string()))
        .collect();
    println!("{}", header.join(","));
    for (x, values) in rows {
        let mut cells = vec![x.clone()];
        for v in values {
            cells.push(match v {
                Some(v) => format!("{v:.1}"),
                None => String::new(),
            });
        }
        println!("{}", cells.join(","));
    }
}

/// Prints one figure panel in the shared per-bin block format: a `# title`
/// comment line, the CSV series table, and a trailing blank line.
pub fn print_series_block(
    title: &str,
    x_label: &str,
    series_names: &[&str],
    rows: &[(String, Vec<Option<f64>>)],
) {
    println!("# {title}");
    print_series_table(x_label, series_names, rows);
    println!();
}
