//! Shared experiment-harness helpers: the paper's five joins as one list,
//! the budget sweep behind every latency-vs-budget figure, the CSV block
//! every figure prints, and the one command-line parser every bin runs.

use std::collections::BTreeMap;

use nocap::{NocapConfig, NocapJoin};
use nocap_joins::{DhhConfig, DhhJoin, GraceHashJoin, SortMergeJoin};
use nocap_model::{JoinRunReport, JoinSpec};
use nocap_storage::DeviceProfile;
use nocap_workload::GeneratedWorkload;

/// One of the five joins the paper's figures compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    /// NOCAP with its default planner.
    Nocap,
    /// DHH (PostgreSQL-style fixed thresholds).
    Dhh,
    /// Histojoin.
    Histojoin,
    /// Grace Hash Join.
    Ghj,
    /// Sort-Merge Join.
    Smj,
}

impl Algo {
    /// All five joins in the paper's legend order (Figure 8).
    pub const ALL: [Algo; 5] = [
        Algo::Nocap,
        Algo::Dhh,
        Algo::Histojoin,
        Algo::Ghj,
        Algo::Smj,
    ];

    /// The name in the paper's legends.
    pub fn name(self) -> &'static str {
        match self {
            Algo::Nocap => "NOCAP",
            Algo::Dhh => "DHH",
            Algo::Histojoin => "Histojoin",
            Algo::Ghj => "GHJ",
            Algo::Smj => "SMJ",
        }
    }

    /// Runs this join on `workload` under `spec`, the skew-aware ones with
    /// the workload's MCVs. The device counters are reset first, so the
    /// report holds only this join's I/O.
    pub fn run(self, workload: &GeneratedWorkload, spec: &JoinSpec) -> JoinRunReport {
        let (r, s, mcvs) = (&workload.r, &workload.s, &workload.mcvs);
        r.device().reset_stats();
        match self {
            Algo::Nocap => NocapJoin::new(*spec, NocapConfig::default()).run(r, s, mcvs),
            Algo::Dhh => DhhJoin::new(*spec, DhhConfig::default()).run(r, s, mcvs),
            Algo::Histojoin => DhhJoin::histojoin(*spec).run(r, s, mcvs),
            Algo::Ghj => GraceHashJoin::new(*spec).run(r, s),
            Algo::Smj => SortMergeJoin::new(*spec).run(r, s),
        }
        .unwrap_or_else(|e| panic!("{} run: {e}", self.name()))
    }
}

/// What a panel prints for one report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Cell {
    /// Total page I/Os (the paper's "#I/Os").
    Ios,
    /// Modeled I/O latency under the profile plus the run's wall time.
    Latency(DeviceProfile),
    /// Modeled I/O latency under the profile alone.
    IoLatency(DeviceProfile),
}

impl Cell {
    /// The cell's value for `report`.
    pub fn of(self, report: &JoinRunReport) -> f64 {
        match self {
            Cell::Ios => report.total_ios() as f64,
            Cell::Latency(device) => report.total_latency_secs(&device),
            Cell::IoLatency(device) => report.io_latency_secs(&device),
        }
    }
}

/// The doubling budget grid of the latency-vs-budget figures for `n_r`
/// records of `record_bytes` bytes: from `max(16, ⌈start · √(F·‖R‖)⌉)`
/// pages, doubling while below ‖R‖, then ‖R‖ itself.
pub fn budget_grid(record_bytes: usize, n_r: usize, start: f64) -> Vec<usize> {
    let pages_r = JoinSpec::paper_synthetic(record_bytes, 64).pages_r(n_r);
    let mut budgets = Vec::new();
    let mut b = (((pages_r as f64 * 1.02).sqrt() * start).ceil() as usize).max(16);
    while b < pages_r {
        budgets.push(b);
        b *= 2;
    }
    budgets.push(pages_r);
    budgets
}

/// One budget sweep: every algorithm's report at every budget.
pub struct Sweep {
    /// The algorithms, in column order.
    algos: Vec<Algo>,
    /// Per budget (pages), the reports in `algos` order.
    rows: Vec<(usize, Vec<JoinRunReport>)>,
}

impl Sweep {
    /// Runs `algos` on `workload` at every budget, on the paper's
    /// synthetic geometry for `record_bytes`-byte records.
    pub fn run(
        workload: &GeneratedWorkload,
        record_bytes: usize,
        budgets: &[usize],
        algos: &[Algo],
    ) -> Sweep {
        let rows = budgets
            .iter()
            .map(|&budget| {
                let spec = JoinSpec::paper_synthetic(record_bytes, budget);
                (
                    budget,
                    algos.iter().map(|a| a.run(workload, &spec)).collect(),
                )
            })
            .collect();
        Sweep {
            algos: algos.to_vec(),
            rows,
        }
    }

    /// The algorithms' legend names, in column order.
    pub fn names(&self) -> Vec<&'static str> {
        self.algos.iter().map(|a| a.name()).collect()
    }

    /// One panel's rows: per budget, every report's `cells` in turn.
    pub fn panel(&self, cells: &[Cell]) -> Vec<(usize, Vec<f64>)> {
        self.rows
            .iter()
            .map(|(budget, reports)| {
                let values = reports
                    .iter()
                    .flat_map(|r| cells.iter().map(|c| c.of(r)))
                    .collect();
                (*budget, values)
            })
            .collect()
    }
}

/// The NOCAP-vs-DHH panel of the TPC-H, JCC-H and JOB figures (12 and 13):
/// both joins over the doubling grid from 0.6·√(F·‖R‖), each as total and
/// I/O-only latency on the AWS i3 device of §5.2.
pub fn print_nocap_vs_dhh(
    title: &str,
    workload: &GeneratedWorkload,
    record_bytes: usize,
    n_r: usize,
) {
    let device = DeviceProfile::aws_i3();
    let sweep = Sweep::run(
        workload,
        record_bytes,
        &budget_grid(record_bytes, n_r, 0.6),
        &[Algo::Nocap, Algo::Dhh],
    );
    print_series_block(
        title,
        &["NOCAP_total", "NOCAP_io", "DHH_total", "DHH_io"],
        &sweep.panel(&[Cell::Latency(device), Cell::IoLatency(device)]),
    );
}

/// Prints one figure panel: a `# title` comment line, a CSV header of
/// `buffer_pages` and the series names, one row per budget, and a
/// trailing blank line.
pub fn print_series_block(title: &str, series_names: &[&str], rows: &[(usize, Vec<f64>)]) {
    println!("# {title}");
    println!("buffer_pages,{}", series_names.join(","));
    for (budget, values) in rows {
        let cells: Vec<String> = values.iter().map(|v| format!("{v:.1}")).collect();
        println!("{budget},{}", cells.join(","));
    }
    println!();
}

/// The flags a bin was started with, checked against the ones it knows:
/// switches (`--quick`) and valued flags (`--out <path>`).
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Flags(BTreeMap<&'static str, Option<String>>);

impl Flags {
    /// Parses `args` (the arguments after the program name) against a bin's
    /// `switches` and `valued` flags. Fails on any other argument, and on a
    /// valued flag without its value.
    pub fn parse(
        args: impl IntoIterator<Item = String>,
        switches: &[&'static str],
        valued: &[&'static str],
    ) -> Result<Flags, String> {
        let mut flags = Flags::default();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            if let Some(&switch) = switches.iter().find(|&&s| s == arg) {
                flags.0.insert(switch, None);
            } else if let Some(&flag) = valued.iter().find(|&&v| v == arg) {
                let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
                flags.0.insert(flag, Some(value));
            } else {
                return Err(format!("unknown argument {arg:?}"));
            }
        }
        Ok(flags)
    }

    /// [`parse`](Self::parse) over the process's arguments. On an error it
    /// prints the error and a usage line to stderr and exits with status 2.
    pub fn from_args(switches: &[&'static str], valued: &[&'static str]) -> Flags {
        let mut args = std::env::args();
        let program = args.next().unwrap_or_default();
        Self::parse(args, switches, valued).unwrap_or_else(|err| {
            let name = std::path::Path::new(&program).file_name();
            let usage: Vec<String> = name
                .map(|n| n.to_string_lossy().into_owned())
                .into_iter()
                .chain(switches.iter().map(|s| format!("[{s}]")))
                .chain(valued.iter().map(|v| format!("[{v} <value>]")))
                .collect();
            eprintln!("{err}\nusage: {}", usage.join(" "));
            std::process::exit(2)
        })
    }

    /// Whether the switch was given.
    pub fn has(&self, switch: &str) -> bool {
        self.0.contains_key(switch)
    }

    /// The value of a valued flag, if it was given.
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.0.get(flag)?.as_deref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nocap_storage::IoKind;
    use nocap_workload::tpch::TpchQ12Config;

    #[test]
    fn budget_grid_reproduces_the_figure_grids() {
        // Figures 8 and 10 at n_R = 20 K, Figure 8 at --quick's 5 K (where
        // the 16-page floor sets the start), Figure 12 at SF 10 and SF 50.
        assert_eq!(
            budget_grid(256, 20_000, 0.5),
            [19, 38, 76, 152, 304, 608, 1216, 1334]
        );
        assert_eq!(budget_grid(256, 5_000, 0.5), [16, 32, 64, 128, 256, 334]);
        let sf10 = TpchQ12Config::scaled_sf10(0.488);
        assert_eq!(
            budget_grid(sf10.record_bytes, sf10.n_orders, 0.6),
            [23, 46, 92, 184, 368, 736, 1334]
        );
        let sf50 = TpchQ12Config::scaled_sf50(0.63);
        assert_eq!(
            budget_grid(sf50.record_bytes, sf50.n_orders, 0.6),
            [39, 78, 156, 312, 624, 1248, 2496, 4000]
        );
    }

    #[test]
    fn osync_on_cell_prices_the_report_under_the_osync_on_profile() {
        let mut report = JoinRunReport::new("TEST");
        report.partition_io.record_many(IoKind::SeqRead, 1_000);
        report.partition_io.record_many(IoKind::RandWrite, 400);
        report.probe_io.record_many(IoKind::RandRead, 600);
        report.wall_seconds = 0.25;
        let (off, on) = (DeviceProfile::osync_off(), DeviceProfile::osync_on());

        let cell = Cell::Latency(on).of(&report);
        assert_eq!(cell, report.total_latency_secs(&on));
        // Rescaling all modeled I/O, reads included, by μ_on / μ_off
        // overprices a trace that reads.
        let io_off = report.io_latency_secs(&off);
        let rescaled = report.wall_seconds + io_off * (on.mu() / off.mu());
        assert!(
            rescaled > cell * 1.1,
            "rescaled {rescaled} vs priced {cell}"
        );
    }

    #[test]
    fn panel_flattens_cells_per_report_in_column_order() {
        let mut a = JoinRunReport::new("A");
        a.probe_io.record_many(IoKind::SeqRead, 10);
        let mut b = JoinRunReport::new("B");
        b.probe_io.record_many(IoKind::SeqRead, 20);
        let sweep = Sweep {
            algos: vec![Algo::Nocap, Algo::Dhh],
            rows: vec![(16, vec![a, b])],
        };
        let device = DeviceProfile::aws_i3();
        let rows = sweep.panel(&[Cell::Ios, Cell::IoLatency(device)]);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].0, 16);
        assert_eq!(rows[0].1[0], 10.0);
        assert_eq!(rows[0].1[2], 20.0);
        assert!(rows[0].1[3] > rows[0].1[1]);
        assert_eq!(sweep.names(), ["NOCAP", "DHH"]);
    }

    fn parse(args: &[&str]) -> Result<Flags, String> {
        let args = args.iter().map(|a| a.to_string());
        Flags::parse(args, &["--quick"], &["--out"])
    }

    #[test]
    fn flags_accept_the_known_switches_and_valued_flags() {
        let none = parse(&[]).unwrap();
        assert!(!none.has("--quick"));
        assert_eq!(none.value("--out"), None);
        let both = parse(&["--quick", "--out", "io.json"]).unwrap();
        assert!(both.has("--quick"));
        assert_eq!(both.value("--out"), Some("io.json"));
        assert_eq!(parse(&["--out", "io.json", "--quick"]).unwrap(), both);
    }

    #[test]
    fn flags_reject_unknown_arguments_and_missing_values() {
        assert_eq!(
            parse(&["--quick", "--ios-only"]),
            Err("unknown argument \"--ios-only\"".to_string())
        );
        assert!(parse(&["quick"]).is_err());
        assert_eq!(parse(&["--out"]), Err("--out needs a value".to_string()));
        let no_flags = Flags::parse(["--quick".to_string()], &[], &[]);
        assert!(no_flags.is_err(), "a bin without flags takes none");
    }
}
