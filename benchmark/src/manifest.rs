//! `BENCHMARK.json` as the harness sees it, and the check that what a run
//! prints is exactly what the file declares.

use crate::json::Json;

/// The declaration this binary was built against.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDecl {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Share of the base value by which an end-to-end metric may get worse.
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` the harness uses.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricDecl>,
    pub per_layer: Vec<MetricDecl>,
}

/// One measured metric as a run prints it.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Spread of the samples behind `value`, or a note on how it was taken.
    pub detail: String,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
            detail: String::new(),
        }
    }
}

impl Manifest {
    /// Parses the `BENCHMARK.json` compiled into the binary.
    pub fn load() -> Result<Manifest, String> {
        Manifest::parse(BENCHMARK_JSON)
    }

    pub fn parse(text: &str) -> Result<Manifest, String> {
        let doc = Json::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let list = |key: &str| -> Result<&[Json], String> {
            doc.get(key)
                .and_then(Json::as_array)
                .ok_or_else(|| format!("BENCHMARK.json: '{key}' is not a list"))
        };
        let text_of = |item: &Json, key: &str| -> Result<String, String> {
            item.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("BENCHMARK.json: an entry has no '{key}'"))
        };
        let metrics = |key: &str| -> Result<Vec<MetricDecl>, String> {
            list(key)?
                .iter()
                .map(|item| {
                    let better = text_of(item, "better")?;
                    if better != "lower" && better != "higher" {
                        return Err(format!("BENCHMARK.json: better = '{better}'"));
                    }
                    Ok(MetricDecl {
                        name: text_of(item, "name")?,
                        unit: text_of(item, "unit")?,
                        lower_is_better: better == "lower",
                        bound: item.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        Ok(Manifest {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("BENCHMARK.json: no 'run_seconds'")?,
            workloads: list("workloads")?
                .iter()
                .map(|w| text_of(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// Every way `printed` departs from `declared`: a malformed name, a value
/// that is not a finite number, a name printed but not declared or printed
/// twice, a unit that differs, a name declared but not printed.
pub fn check_metrics(declared: &[MetricDecl], printed: &[Metric]) -> Vec<String> {
    let mut problems = Vec::new();
    for (i, m) in printed.iter().enumerate() {
        if !valid_name(&m.name) {
            problems.push(format!("metric name '{}' is not [A-Za-z0-9_.-]+", m.name));
        }
        if !m.value.is_finite() {
            problems.push(format!("metric '{}' is not a finite number", m.name));
        }
        if printed[..i].iter().any(|p| p.name == m.name) {
            problems.push(format!("metric '{}' is printed twice", m.name));
        }
        match declared.iter().find(|d| d.name == m.name) {
            None => problems.push(format!(
                "metric '{}' is printed but not declared in BENCHMARK.json",
                m.name
            )),
            Some(d) if d.unit != m.unit => problems.push(format!(
                "metric '{}' is printed in '{}' but declared in '{}'",
                m.name, m.unit, d.unit
            )),
            Some(_) => {}
        }
    }
    for d in declared {
        if !printed.iter().any(|m| m.name == d.name) {
            problems.push(format!(
                "metric '{}' is declared in BENCHMARK.json but not printed",
                d.name
            ));
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decl(name: &str, unit: &str) -> MetricDecl {
        MetricDecl {
            name: name.to_string(),
            unit: unit.to_string(),
            lower_is_better: true,
            bound: Some(0.1),
        }
    }

    #[test]
    fn the_checked_in_declaration_parses_and_names_are_well_formed() {
        let m = Manifest::load().unwrap();
        assert_eq!(m.workloads.len(), 4);
        assert!(m
            .end_to_end
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
        assert!(m.end_to_end.iter().all(|d| d.bound.is_some()));
        assert!(m.per_layer.len() <= 128);
        let mut names: Vec<&str> = m
            .end_to_end
            .iter()
            .chain(&m.per_layer)
            .map(|d| d.name.as_str())
            .collect();
        assert!(names.iter().all(|n| valid_name(n)));
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "a metric name is used once");
    }

    #[test]
    fn names_are_checked_in_both_directions() {
        let declared = [decl("a_s", "s"), decl("b_ios", "pages")];
        let ok = [
            Metric::new("a_s", 1.0, "s"),
            Metric::new("b_ios", 2.0, "pages"),
        ];
        assert!(check_metrics(&declared, &ok).is_empty());

        let undeclared = [ok[0].clone(), ok[1].clone(), Metric::new("c", 1.0, "s")];
        assert_eq!(check_metrics(&declared, &undeclared).len(), 1);
        assert_eq!(
            check_metrics(&declared, &ok[..1]).len(),
            1,
            "declared, not printed"
        );

        let bad = [
            Metric::new("a_s", f64::NAN, "s"),
            Metric::new("b_ios", 2.0, "count"),
            Metric::new("b ios", 2.0, "pages"),
        ];
        // NaN value, wrong unit, malformed + undeclared name.
        assert_eq!(check_metrics(&declared, &bad).len(), 4);
    }
}
