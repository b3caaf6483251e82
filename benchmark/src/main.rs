//! The repository's benchmark: whole-join wall time and I/O of NOCAP, DHH,
//! GHJ and SMJ on four workloads, and a traced run that splits the time by
//! layer. See `README.md` beside this package.
//!
//! ```text
//! nocap-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//!                 [--smoke] [--out-dir DIR]
//! nocap-benchmark compare <base.json> <new.json>
//! ```

mod algos;
mod compare;
mod e2e;
mod json;
mod kernels;
mod manifest;
mod outcome;
mod report;
mod spans;
mod summary;
mod traced;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use manifest::{check_metrics, Manifest};
use outcome::RunConfig;
use workloads::Geometry;

/// The seed the repository's experiments have always used.
const DEFAULT_SEED: u64 = 0x0CA9;
const DEFAULT_OUT_DIR: &str = "benchmark/out";

const USAGE: &str =
    "usage: nocap-benchmark --workload <zipf_tight|uniform_roomy|zipf_file|zipf_par2> \
                     [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out-dir DIR]\n       \
                     nocap-benchmark compare <base.json> <new.json>";

fn parse_seed(text: &str) -> Option<u64> {
    match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

/// Parses the arguments of a measuring run into its configuration and
/// whether it is the traced run.
fn parse_run(args: &[String], manifest: &Manifest) -> Result<(RunConfig, bool), String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = manifest.run_seconds;
    let mut traced = false;
    let mut geometry = Geometry::FULL;
    let mut out_dir = PathBuf::from(DEFAULT_OUT_DIR);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => {
                seed = parse_seed(value()?).ok_or("--seed takes a whole number")?;
            }
            "--seconds" => {
                seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or("--seconds takes a number of seconds")?;
            }
            "--trace" => {
                traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                };
            }
            "--traced" => traced = true,
            "--smoke" => geometry = Geometry::SMOKE,
            "--out-dir" => out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    let def = workloads::find(&name)
        .filter(|_| manifest.workloads.contains(&name))
        .ok_or(format!("unknown workload '{name}'"))?;
    let cfg = RunConfig {
        def,
        geometry,
        seed,
        seconds,
        out_dir,
    };
    Ok((cfg, traced))
}

/// Runs one workload and prints its metrics; the last line of standard
/// output is the result object the benchmark's driver reads.
fn measure(cfg: &RunConfig, traced: bool, manifest: &Manifest) -> Result<(), String> {
    std::fs::create_dir_all(&cfg.out_dir).map_err(|e| format!("{}: {e}", cfg.out_dir.display()))?;
    let (outcome, declared) = if traced {
        (traced::run(cfg)?, &manifest.per_layer)
    } else {
        (e2e::run(cfg)?, &manifest.end_to_end)
    };
    report::print_metrics(&outcome);
    let problems = check_metrics(declared, &outcome.metrics);
    if !problems.is_empty() {
        return Err(problems.join("\n"));
    }
    let correct = outcome.tally.failed == 0;
    report::append_record(
        &cfg.out_dir.join("results.jsonl"),
        &report::record_line(cfg, traced, &outcome, correct),
    )?;
    println!("{}", report::contract_line(&outcome, correct));
    Ok(())
}

/// Runs the command line; `Ok` carries the exit code of a completed command.
fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    if args.first().map(String::as_str) == Some("compare") {
        let [_, base, new] = args else {
            return Err("compare takes two files".to_string());
        };
        let pass = compare::run(Path::new(base), Path::new(new))?;
        return Ok(if pass {
            ExitCode::SUCCESS
        } else {
            ExitCode::from(1)
        });
    }
    let manifest = Manifest::load()?;
    let (cfg, traced) = parse_run(args, &manifest)?;
    measure(&cfg, traced, &manifest)?;
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    dispatch(&args).unwrap_or_else(|message| {
        eprintln!("error: {message}\n{USAGE}");
        ExitCode::from(2)
    })
}
