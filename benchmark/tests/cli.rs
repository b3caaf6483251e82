//! The binary as its callers see it: exit codes and the shape of the last
//! line of standard output.

use std::path::PathBuf;
use std::process::{Command, Output};

fn bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_nocap-benchmark"))
        .args(args)
        .output()
        .expect("the benchmark binary runs")
}

/// A directory of this test's own under the package's ignored `out/`.
fn out_dir(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("test-cli-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn record(wall: f64, ios: u64, failed: u64) -> String {
    let metrics: Vec<String> = [
        ("setup_s", 0.2, "s"),
        ("nocap_wall_s", wall, "s"),
        ("dhh_wall_s", 0.2, "s"),
        ("ghj_wall_s", 0.2, "s"),
        ("smj_wall_s", 0.3, "s"),
        ("nocap_ios", ios as f64, "pages"),
        ("nocap_model_io_s", 5.5, "s"),
        ("dhh_ios", 300.0, "pages"),
        ("dhh_model_io_s", 8.5, "s"),
        ("ghj_ios", 300.0, "pages"),
        ("smj_ios", 310.0, "pages"),
        ("peak_rss_mb", 500.0, "MB"),
    ]
    .iter()
    .map(|(name, value, unit)| format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"))
    .collect();
    format!(
        "{{\"workload\": \"zipf_tight\", \"traced\": false, \"seed\": 1, \
         \"geometry\": {{\"n_r\": 5000}}, \"attempted\": 20, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}\n",
        metrics.join(", ")
    )
}

#[test]
fn compare_exit_codes() {
    let dir = out_dir("compare");
    let write = |name: &str, text: String| {
        let path = dir.join(name);
        std::fs::write(&path, text).unwrap();
        path.to_str().unwrap().to_string()
    };
    let base = write("base.json", record(0.20, 200, 0));
    let same = write("same.json", record(0.21, 200, 0));
    let slow = write("slow.json", record(0.30, 200, 0));
    let moved = write("moved.json", record(0.20, 201, 0));
    let failing = write("failing.json", record(0.20, 200, 1));
    let garbage = write("garbage.json", "not json\n".to_string());

    let code = |a: &str, b: &str| bench(&["compare", a, b]).status.code();
    assert_eq!(code(&base, &same), Some(0));
    assert_eq!(code(&same, &base), Some(0), "A/A passes in both directions");
    assert_eq!(code(&base, &slow), Some(1), "a wall time beyond its bound");
    assert_eq!(code(&slow, &base), Some(0), "faster is not a regression");
    assert_eq!(code(&base, &moved), Some(1), "an exact count moved");
    assert_eq!(code(&base, &failing), Some(1), "failures rose");
    assert_eq!(
        code(&base, &garbage),
        Some(2),
        "unreadable input is not a verdict"
    );
    assert_eq!(code(&base, "/nonexistent.json"), Some(2));
    assert_eq!(bench(&["compare", &base]).status.code(), Some(2));

    let table = String::from_utf8(bench(&["compare", &base, &slow]).stdout).unwrap();
    assert!(
        table.contains("nocap_wall_s") && table.contains("FAIL"),
        "{table}"
    );
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--seed", "7"],
        &["--workload", "zipf_tight", "--trace", "2"],
        &["--workload", "zipf_tight", "--bogus"],
    ] {
        let out = bench(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}

#[test]
fn a_smoke_run_ends_with_the_four_key_result_line() {
    let dir = out_dir("smoke");
    let out = bench(&[
        "--workload",
        "uniform_roomy",
        "--seed",
        "7",
        "--seconds",
        "1",
        "--trace",
        "0",
        "--smoke",
        "--out-dir",
        dir.to_str().unwrap(),
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    let last = stdout.lines().last().unwrap();
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": 20, \"failed\": 0, \"metrics\": {")
    );
    assert!(last.contains("\"setup_s\": {\"value\": ") && last.ends_with("}}"));
    // The run also left its self-describing record behind.
    let records = std::fs::read_to_string(dir.join("results.jsonl")).unwrap();
    for key in [
        "git_commit",
        "rustc",
        "\"seed\": 7",
        "nproc",
        "geometry",
        "SimDevice",
    ] {
        assert!(records.contains(key), "record lacks {key}: {records}");
    }
    std::fs::remove_dir_all(dir).unwrap();
}
