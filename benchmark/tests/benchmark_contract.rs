//! Lock-step between the benchmark and `BENCHMARK.json`.
//!
//! Runs the quick suite (every workload at `StudyConfig::smoke_test`
//! size, two timed runs each, traced pass on) and checks that each
//! workload's result line carries exactly the declared per-layer
//! metrics, in the declared units, with finite values, and that its
//! results hold every declared end-to-end metric; then checks that the
//! driver form `--workload W --trace 0` ends with a result line carrying
//! exactly the declared end-to-end metrics.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

#[path = "../src/json.rs"]
#[allow(dead_code)]
mod json;

use json::Json;

fn declared() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn names(list: &Json) -> BTreeSet<String> {
    list.as_arr()
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("named")
                .to_string()
        })
        .collect()
}

fn unit_of(list: &Json, name: &str) -> String {
    list.as_arr()
        .iter()
        .find(|m| m.get("name").and_then(Json::as_str) == Some(name))
        .and_then(|m| m.get("unit"))
        .and_then(Json::as_str)
        .expect("declared metric has a unit")
        .to_string()
}

/// A fresh working directory: the benchmark writes under
/// `target/nt-bench/` relative to it.
fn workdir(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(tag);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the working directory");
    dir
}

fn benchmark(dir: &Path, args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("the benchmark runs")
}

/// The keys, `metrics` names, and declared units of one result line.
fn check_result_line(line: &str, declared: &Json, what: &str) {
    let result = Json::parse(line).unwrap_or_else(|e| panic!("{what}: {e}"));
    let keys: BTreeSet<&str> = result
        .as_obj()
        .expect("an object")
        .keys()
        .map(String::as_str)
        .collect();
    assert_eq!(
        keys,
        BTreeSet::from(["attempted", "correct", "failed", "metrics"]),
        "{what}"
    );
    let metrics = result
        .get("metrics")
        .and_then(Json::as_obj)
        .expect("metrics object");
    let got: BTreeSet<String> = metrics.keys().cloned().collect();
    assert_eq!(got, names(declared), "{what}: metric names");
    for (metric, m) in metrics {
        let value = m.get("value").and_then(Json::as_f64);
        assert!(
            value.is_some_and(f64::is_finite),
            "{what}: {metric} = {value:?}"
        );
        assert_eq!(
            m.get("unit").and_then(Json::as_str),
            Some(unit_of(declared, metric).as_str()),
            "{what}: {metric} unit"
        );
    }
}

#[test]
fn quick_suite_emits_exactly_the_declared_metrics() {
    let spec = declared();
    let e2e = spec.get("end_to_end").expect("end_to_end list");
    let layers = spec.get("per_layer").expect("per_layer list");
    let dir = workdir("contract-suite");
    let out = benchmark(&dir, &["--quick", "--seed", "3"]);
    assert!(
        out.status.success(),
        "quick suite failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Each child's result line carries the per-layer metrics (the suite
    // runs every workload with the traced pass).
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout
        .lines()
        .filter(|l| l.starts_with("{\"attempted\""))
        .collect();
    let workloads = spec.get("workloads").expect("workload list").as_arr();
    assert_eq!(lines.len(), workloads.len(), "one result line per workload");
    for line in &lines {
        check_result_line(line, layers, "per-layer result line");
    }

    // The combined results hold every declared end-to-end metric.
    let text = std::fs::read_to_string(dir.join("target/nt-bench/results.json"))
        .expect("the suite writes its results");
    let results = Json::parse(&text).expect("results parse");
    for w in workloads {
        let name = w
            .get("name")
            .and_then(Json::as_str)
            .expect("named workload");
        let r = results
            .get("workloads")
            .and_then(|all| all.get(name))
            .unwrap_or_else(|| panic!("{name} missing"));
        assert_eq!(r.get("correct"), Some(&Json::Bool(true)), "{name}");
        assert_eq!(r.get("failed").and_then(Json::as_f64), Some(0.0), "{name}");
        for metric in names(e2e) {
            let m = r
                .get("end_to_end")
                .and_then(|m| m.get(&metric))
                .unwrap_or_else(|| panic!("{name}: no {metric}"));
            let median = m.get("median").and_then(Json::as_f64);
            assert!(median.is_some_and(f64::is_finite), "{name}: {metric}");
            assert_eq!(
                m.get("unit").and_then(Json::as_str),
                Some(unit_of(e2e, &metric).as_str()),
                "{name}: {metric} unit"
            );
        }
    }
}

#[test]
fn driver_form_emits_exactly_the_declared_end_to_end_metrics() {
    let spec = declared();
    let dir = workdir("contract-driver");
    let out = benchmark(
        &dir,
        &["--workload", "fleet_hour", "--quick", "--trace", "0"],
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().expect("a result line");
    check_result_line(
        last,
        spec.get("end_to_end").expect("end_to_end"),
        "end-to-end result line",
    );
    let result = Json::parse(last).expect("the last line is JSON");
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
    assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
}
