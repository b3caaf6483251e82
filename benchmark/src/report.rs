//! What a run prints and the record it leaves behind.

use std::io::Write;
use std::path::Path;
use std::process::Command;

use crate::json::{number, quote};
use crate::manifest::Metric;
use crate::outcome::{Outcome, RunConfig};
use crate::workloads::{nproc, RECORD_BYTES};

/// First line of `program args…`'s output, or "unknown" (the benchmark's
/// driver runs it in a checkout that is not a git repository).
fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

fn metrics_object(metrics: &[Metric]) -> String {
    let members: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(&m.name),
                number(m.value),
                quote(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", members.join(", "))
}

/// Every metric by name with its unit, one per line, for a person.
pub fn print_metrics(outcome: &Outcome) {
    for m in &outcome.metrics {
        let detail = if m.detail.is_empty() {
            String::new()
        } else {
            format!("  ({})", m.detail)
        };
        println!("{:<40} {:>16} {}{detail}", m.name, number(m.value), m.unit);
    }
    let t = &outcome.tally;
    println!(
        "{:<40} {:>16} count  (of ops_total {})",
        "failed_ops", t.failed, t.attempted
    );
    for message in &t.messages {
        println!("  failed: {message}");
    }
}

/// The line the benchmark's driver reads: exactly these four keys.
pub fn contract_line(outcome: &Outcome, correct: bool) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.tally.attempted,
        outcome.tally.failed,
        metrics_object(&outcome.metrics)
    )
}

/// One self-describing result record: the contract's keys plus everything
/// needed to tell what was measured, on what, built by what.
pub fn record_line(cfg: &RunConfig, traced: bool, outcome: &Outcome, correct: bool) -> String {
    let spec = cfg.def.spec(&cfg.geometry);
    let config = cfg.def.config(&cfg.geometry, cfg.seed);
    format!(
        "{{\"workload\": {}, \"traced\": {traced}, \"git_commit\": {}, \"rustc\": {}, \
         \"seed\": {}, \"nproc\": {}, \"threads\": {}, \"rounds\": {}, \"seconds\": {}, \
         \"geometry\": {{\"n_r\": {}, \"n_s\": {}, \"record_bytes\": {RECORD_BYTES}, \
         \"page_size\": {}, \"buffer_pages\": {}, \"mcv_count\": {}}}, \"device\": {}, \
         \"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        quote(cfg.def.name),
        quote(&first_line_of("git", &["rev-parse", "HEAD"])),
        quote(&first_line_of("rustc", &["-V"])),
        cfg.seed,
        nproc(),
        outcome.threads,
        outcome.rounds,
        number(cfg.seconds),
        config.n_r,
        config.n_s,
        spec.page_size,
        spec.buffer_pages,
        config.mcv_count,
        cfg.def.device_description(),
        outcome.tally.attempted,
        outcome.tally.failed,
        metrics_object(&outcome.metrics),
    )
}

/// Appends `line` to the record file at `path` (one JSON object per line).
pub fn append_record(path: &Path, line: &str) -> Result<(), String> {
    let io = |e: std::io::Error| format!("{}: {e}", path.display());
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(io)?;
    }
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(io)?;
    writeln!(file, "{line}").map_err(io)
}
