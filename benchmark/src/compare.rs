//! `compare base.json new.json`: the regression rule of this benchmark.
//!
//! Both files hold result records, one JSON object per line, as runs append
//! them. Per workload a file's untraced records count, each metric at their
//! median: one run sees one stretch of the machine's state, several runs
//! see it less.

use std::collections::BTreeMap;
use std::path::Path;

use crate::json::Json;
use crate::manifest::{Manifest, MetricDecl};
use crate::summary::median;

/// What `compare` keeps of one workload's untraced records in a file.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Records {
    /// Seed and geometry of each record: records with equal inputs ran the
    /// same joins.
    inputs: Vec<String>,
    attempted: f64,
    failed: f64,
    /// Each metric's value in every record that has it.
    metrics: BTreeMap<String, Vec<f64>>,
}

impl Records {
    fn value(&self, metric: &str) -> Option<f64> {
        self.metrics.get(metric).map(|values| median(values))
    }
}

/// The untraced records of each workload in `text`.
pub fn parse_records(text: &str) -> Result<BTreeMap<String, Records>, String> {
    let mut records: BTreeMap<String, Records> = BTreeMap::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let doc = Json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        let field = |key: &str| doc.get(key).ok_or(format!("line {}: no '{key}'", i + 1));
        if field("traced")? == &Json::Bool(true) {
            continue;
        }
        let number = |key: &str| -> Result<f64, String> {
            field(key)?
                .as_f64()
                .ok_or(format!("line {}: '{key}' is not a number", i + 1))
        };
        let workload = field("workload")?
            .as_str()
            .ok_or(format!("line {}: 'workload' is not a string", i + 1))?;
        let entry = records.entry(workload.to_string()).or_default();
        entry.inputs.push(format!(
            "seed {} geometry {:?}",
            number("seed")?,
            field("geometry")?
        ));
        entry.attempted += number("attempted")?;
        entry.failed += number("failed")?;
        for (name, m) in field("metrics")?
            .as_object()
            .ok_or(format!("line {}: 'metrics' is not an object", i + 1))?
        {
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or(format!("line {}: metric '{name}' has no value", i + 1))?;
            entry.metrics.entry(name.clone()).or_default().push(value);
        }
    }
    Ok(records)
}

/// Counts the engine makes of its own modeled I/O: with equal inputs they
/// repeat exactly, so any difference is a change of behaviour, not noise.
fn is_exact_count(name: &str) -> bool {
    name.ends_with("_ios") || name.ends_with("_model_io_s")
}

fn verdict(decl: &MetricDecl, base: f64, new: f64, same_inputs: bool) -> Result<(), String> {
    if same_inputs && is_exact_count(&decl.name) {
        return if new == base {
            Ok(())
        } else {
            Err("exact count differs".to_string())
        };
    }
    let bound = decl.bound.unwrap_or(0.0);
    let worse = if decl.lower_is_better {
        new > base * (1.0 + bound)
    } else {
        new < base * (1.0 - bound)
    };
    if worse {
        Err(format!("worse than its bound of {bound}"))
    } else {
        Ok(())
    }
}

/// Writes the comparison table to `out` and returns whether `new` passes:
/// no end-to-end metric worse than its bound, no exact count changed, no
/// rise in the share of failed operations, no workload missing.
pub fn compare(
    manifest: &Manifest,
    base: &BTreeMap<String, Records>,
    new: &BTreeMap<String, Records>,
    out: &mut String,
) -> bool {
    let mut pass = true;
    out.push_str(&format!(
        "{:<14} {:<18} {:>14} {:>14} {:>22} {:>6}  verdict\n",
        "workload", "metric", "base", "new", "new/base", "bound"
    ));
    for workload in &manifest.workloads {
        let (b, n) = match (base.get(workload), new.get(workload)) {
            (Some(b), Some(n)) => (b, n),
            (None, None) => continue,
            _ => {
                out.push_str(&format!("{workload:<14} is in one file only: FAIL\n"));
                pass = false;
                continue;
            }
        };
        let same_inputs = b.inputs.iter().chain(&n.inputs).all(|i| *i == b.inputs[0]);
        if !same_inputs {
            out.push_str(&format!(
                "{workload:<14} seeds or geometries differ: exact counts fall back to their bounds\n"
            ));
        }
        for decl in &manifest.end_to_end {
            let (Some(bv), Some(nv)) = (b.value(&decl.name), n.value(&decl.name)) else {
                out.push_str(&format!("{workload:<14} {:<18} missing: FAIL\n", decl.name));
                pass = false;
                continue;
            };
            let result = verdict(decl, bv, nv, same_inputs);
            out.push_str(&format!(
                "{workload:<14} {:<18} {bv:>14.6} {nv:>14.6} {:>10.4} of {bv:<8.4} {:>6}  {}\n",
                decl.name,
                nv / bv,
                decl.bound.unwrap_or(0.0),
                match &result {
                    Ok(()) => "ok".to_string(),
                    Err(why) => format!("FAIL: {why}"),
                }
            ));
            pass &= result.is_ok();
        }
        let (base_share, new_share) = (b.failed / b.attempted, n.failed / n.attempted);
        let rose = new_share > base_share;
        out.push_str(&format!(
            "{workload:<14} {:<18} {:>14} {:>14} {:>22} {:>6}  {}\n",
            "failed_ops/total",
            format!("{}/{}", b.failed, b.attempted),
            format!("{}/{}", n.failed, n.attempted),
            "",
            "",
            if rose { "FAIL: failures rose" } else { "ok" }
        ));
        pass &= !rose;
    }
    pass
}

/// Compares two record files and prints the table. `Ok(true)` is a pass.
pub fn run(base_path: &Path, new_path: &Path) -> Result<bool, String> {
    let read = |path: &Path| -> Result<BTreeMap<String, Records>, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let records = parse_records(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        if records.is_empty() {
            return Err(format!("{}: no untraced result record", path.display()));
        }
        Ok(records)
    };
    let manifest = Manifest::load()?;
    let mut table = String::new();
    let pass = compare(&manifest, &read(base_path)?, &read(new_path)?, &mut table);
    print!("{table}");
    println!("{}", if pass { "PASS" } else { "FAIL" });
    Ok(pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest() -> Manifest {
        Manifest::parse(
            r#"{"run_seconds": 1,
                "workloads": [{"name": "w1", "why": ""}, {"name": "w2", "why": ""}],
                "end_to_end": [
                  {"name": "a_wall_s", "unit": "s", "better": "lower", "bound": 0.1},
                  {"name": "a_ios", "unit": "pages", "better": "lower", "bound": 0.05}],
                "per_layer": []}"#,
        )
        .unwrap()
    }

    fn line(workload: &str, seed: u64, wall: f64, ios: f64, failed: u64) -> String {
        format!(
            "{{\"workload\": \"{workload}\", \"traced\": false, \"seed\": {seed}, \
             \"geometry\": {{\"n_r\": 10}}, \"attempted\": 50, \"failed\": {failed}, \
             \"metrics\": {{\"a_wall_s\": {{\"value\": {wall}, \"unit\": \"s\"}}, \
             \"a_ios\": {{\"value\": {ios}, \"unit\": \"pages\"}}}}}}\n"
        )
    }

    fn passes(base: &str, new: &str) -> bool {
        let mut table = String::new();
        compare(
            &manifest(),
            &parse_records(base).unwrap(),
            &parse_records(new).unwrap(),
            &mut table,
        )
    }

    #[test]
    fn a_run_compared_with_itself_passes_in_both_directions() {
        let a = line("w1", 1, 1.00, 500.0, 0) + &line("w2", 1, 2.0, 900.0, 0);
        let b = line("w1", 1, 1.09, 500.0, 0) + &line("w2", 1, 1.9, 900.0, 0);
        assert!(passes(&a, &a));
        assert!(
            passes(&a, &b) && passes(&b, &a),
            "within the 10 % bound either way"
        );
    }

    #[test]
    fn a_time_beyond_its_bound_fails_only_in_the_worse_direction() {
        let base = line("w1", 1, 1.0, 500.0, 0);
        let slow = line("w1", 1, 1.2, 500.0, 0);
        assert!(!passes(&base, &slow));
        assert!(passes(&slow, &base), "an improvement is not a regression");
    }

    #[test]
    fn an_exact_count_may_not_move_at_all_on_equal_inputs() {
        let base = line("w1", 1, 1.0, 500.0, 0);
        assert!(
            !passes(&base, &line("w1", 1, 1.0, 499.0, 0)),
            "even downwards"
        );
        // Another seed is another input: the count falls back to its bound.
        assert!(passes(&base, &line("w1", 2, 1.0, 510.0, 0)));
        assert!(!passes(&base, &line("w1", 2, 1.0, 530.0, 0)));
    }

    #[test]
    fn more_failures_or_a_missing_workload_fail() {
        let base = line("w1", 1, 1.0, 500.0, 0);
        assert!(!passes(&base, &line("w1", 1, 1.0, 500.0, 1)));
        let both = base.clone() + &line("w2", 1, 2.0, 900.0, 0);
        assert!(!passes(&both, &base));
    }

    #[test]
    fn a_file_counts_at_the_median_of_its_untraced_records() {
        let text = line("w1", 1, 5.0, 500.0, 0)
            + &line("w1", 1, 1.0, 500.0, 1)
            + &line("w1", 1, 2.0, 500.0, 0)
            + &line("w1", 1, 9.0, 1.0, 0).replace("\"traced\": false", "\"traced\": true");
        let records = parse_records(&text).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(records["w1"].value("a_wall_s"), Some(2.0));
        assert_eq!(
            (records["w1"].failed, records["w1"].attempted),
            (1.0, 150.0)
        );
        // One slow run out of three does not fail the set.
        let base = line("w1", 1, 2.0, 500.0, 0);
        assert!(passes(
            &base,
            &text.replace("\"failed\": 1", "\"failed\": 0")
        ));
        assert!(parse_records("{\"workload\": 3}\n").is_err());
    }
}
