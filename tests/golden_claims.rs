//! Golden paper-claims lockdown for the streaming analysis pipeline.
//!
//! A fixed-seed smoke-scale study is summarized by the streaming sinks and
//! compared against `tests/golden/smoke_summary.json`, a checked-in flat
//! `{"metric": number}` file. Counts must match exactly; derived fractions
//! and tail exponents get a small relative tolerance so that benign
//! floating-point reassociation (e.g. a different merge order) does not
//! churn the golden file.
//!
//! The §5 content report of the same study, rendered from its §3.1
//! snapshots, is compared byte for byte against
//! `tests/golden/section5_smoke.txt`.
//!
//! The full batch report of the same study — every table, figure and
//! section from the retained fact tables, plus one digest per CSV series —
//! is compared byte for byte against `tests/golden/report_smoke.txt`. It
//! is rendered from a run on one worker and a run on two, and rendered
//! twice from one of them, so a ranked list that leaves ties in hash
//! order fails it.
//!
//! When a change legitimately moves the numbers — a workload tweak, a new
//! record kind — regenerate with:
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test --test golden_claims
//! ```
//!
//! and review the diff like any other source change: it *is* the claim.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

use nt_study::{report, ShardOptions, Study, StudyConfig, StudyData};

const GOLDEN_SEED: u64 = 1999; // SOSP'99.

/// Exact-match metrics (event counts; integers in disguise).
const EXACT: &[&str] = &[
    "records",
    "names",
    "opens_ok",
    "opens_failed",
    "reads_ok",
    "writes_ok",
    "sessions",
    "arrival_gaps",
];

/// Tolerance for derived ratios, quantiles and tail exponents.
const REL_TOL: f64 = 0.05;

fn golden_file(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join(name)
}

/// Computes every locked metric from a fresh streaming run.
fn measure() -> BTreeMap<String, f64> {
    let config = StudyConfig::smoke_test(GOLDEN_SEED);
    let data = Study::try_run_sharded(&config, &ShardOptions::default())
        .expect("golden study runs")
        .data;
    let s = &data.summary;
    let mut m = BTreeMap::new();
    // Head counts — any drift here means the pipeline changed behaviour.
    m.insert("records".into(), s.records as f64);
    m.insert("names".into(), s.names as f64);
    m.insert("opens_ok".into(), s.ops.opens_ok as f64);
    m.insert("opens_failed".into(), s.ops.opens_failed as f64);
    m.insert("reads_ok".into(), s.ops.reads.0 as f64);
    m.insert("writes_ok".into(), s.ops.writes.0 as f64);
    m.insert("sessions".into(), s.sessions.all.len() as f64);
    m.insert("arrival_gaps".into(), s.arrivals.all.len() as f64);
    // §4–§8 claims, as reproduced at smoke scale.
    m.insert(
        "control_only_fraction".into(),
        s.ops.control_only_fraction(),
    );
    m.insert(
        "read_512_4096_fraction".into(),
        s.ops.read_512_4096_fraction(),
    );
    m.insert("open_fail_not_found".into(), s.ops.open_fail_not_found());
    m.insert(
        "fastio_read_fraction".into(),
        s.latency.fastio_read_fraction(),
    );
    m.insert("read_write_byte_ratio".into(), s.read_write_byte_ratio());
    m.insert(
        "session_median_ms".into(),
        s.sessions.all.median().unwrap_or(0.0),
    );
    m.insert(
        "short_session_fraction".into(),
        s.sessions.all.fraction_at_or_below(10.0),
    );
    m.insert(
        "active_second_fraction".into(),
        s.arrivals.active_second_fraction(),
    );
    m.insert("size_tail_alpha".into(), s.size_tail_alpha);
    m.insert("duration_tail_alpha".into(), s.duration_tail_alpha);
    m
}

/// Renders the metric map as the golden file's JSON.
fn render(metrics: &BTreeMap<String, f64>) -> String {
    let mut out = String::from("{\n");
    for (i, (k, v)) in metrics.iter().enumerate() {
        let comma = if i + 1 == metrics.len() { "" } else { "," };
        out.push_str(&format!("  \"{k}\": {v:.6}{comma}\n"));
    }
    out.push_str("}\n");
    out
}

/// Parses the flat `{"key": number}` golden file. Hand-rolled on purpose:
/// the workspace carries no JSON dependency and the format is fixed.
fn parse(text: &str) -> BTreeMap<String, f64> {
    let mut m = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim().trim_end_matches(',');
        let Some(rest) = line.strip_prefix('"') else {
            continue;
        };
        let Some((key, value)) = rest.split_once("\":") else {
            continue;
        };
        let value: f64 = value
            .trim()
            .parse()
            .unwrap_or_else(|e| panic!("bad golden value for {key}: {e}"));
        m.insert(key.to_string(), value);
    }
    m
}

#[test]
fn summary_matches_the_golden_claims() {
    let measured = measure();
    let path = golden_file("smoke_summary.json");
    if std::env::var("GOLDEN_REGEN").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, render(&measured)).unwrap();
        eprintln!("regenerated {}", path.display());
        return;
    }
    let golden = parse(&std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run with GOLDEN_REGEN=1",
            path.display()
        )
    }));
    assert_eq!(
        golden.keys().collect::<Vec<_>>(),
        measured.keys().collect::<Vec<_>>(),
        "metric sets diverge; regenerate with GOLDEN_REGEN=1 and review"
    );
    let mut failures = Vec::new();
    for (key, &want) in &golden {
        let got = measured[key];
        let ok = if EXACT.contains(&key.as_str()) {
            got == want
        } else if want == 0.0 {
            got.abs() < 1e-9
        } else {
            ((got - want) / want).abs() <= REL_TOL
        };
        if !ok {
            failures.push(format!("  {key}: golden {want} measured {got}"));
        }
    }
    assert!(
        failures.is_empty(),
        "golden claims drifted:\n{}\nIf intentional, GOLDEN_REGEN=1 and review the diff.",
        failures.join("\n")
    );
}

#[test]
fn section5_matches_the_golden_report() {
    let data = Study::run(&StudyConfig::smoke_test(GOLDEN_SEED)).expect("golden study runs");
    let measured = report::section5(&data);
    let path = golden_file("section5_smoke.txt");
    if std::env::var("GOLDEN_REGEN").is_ok() {
        std::fs::write(&path, &measured).unwrap();
        eprintln!("regenerated {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run with GOLDEN_REGEN=1",
            path.display()
        )
    });
    assert_eq!(
        measured, golden,
        "the §5 report drifted; if intentional, GOLDEN_REGEN=1 and review the diff"
    );
}

/// The golden study, retained, on `workers` threads: the data every
/// report function reads.
fn report_data(workers: usize) -> StudyData {
    let run = Study::try_run_sharded(
        &StudyConfig::smoke_test(GOLDEN_SEED),
        &ShardOptions {
            workers: Some(workers),
            retain: true,
            ..ShardOptions::default()
        },
    )
    .expect("golden study runs")
    .data;
    StudyData {
        trace_set: run.trace_set.expect("retain keeps the fact tables"),
        config: run.config,
        machines: run.machines,
        total_records: run.total_records,
        stored_bytes: run.stored_bytes,
        profile: run.profile,
    }
}

/// `report::full_report` as text, then each `report::csv_series` row as
/// its name, its point count and an FNV-1a digest of its points' bits:
/// the raw rows would add ~100 KB of full-precision floats.
fn render_report(data: &StudyData) -> String {
    let mut out = report::full_report(data);
    out.push_str("CSV series (points, FNV-1a of the points' bits)\n");
    for (name, points) in report::csv_series(data) {
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        for (x, y) in &points {
            for b in x
                .to_bits()
                .to_le_bytes()
                .into_iter()
                .chain(y.to_bits().to_le_bytes())
            {
                digest ^= u64::from(b);
                digest = digest.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        let _ = writeln!(out, "  {name}: {} {digest:016x}", points.len());
    }
    out
}

#[test]
fn full_report_matches_the_golden_report() {
    let serial = report_data(1);
    let measured = render_report(&serial);
    assert_eq!(
        render_report(&serial),
        measured,
        "two renders of one study differ"
    );
    assert_eq!(
        render_report(&report_data(2)),
        measured,
        "the study on one worker and on two render different reports"
    );
    let path = golden_file("report_smoke.txt");
    if std::env::var("GOLDEN_REGEN").is_ok() {
        std::fs::write(&path, &measured).unwrap();
        eprintln!("regenerated {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run with GOLDEN_REGEN=1",
            path.display()
        )
    });
    assert_eq!(
        measured, golden,
        "the batch report drifted; if intentional, GOLDEN_REGEN=1 and review the diff"
    );
}

#[test]
fn golden_file_is_well_formed() {
    let golden = parse(
        &std::fs::read_to_string(golden_file("smoke_summary.json"))
            .expect("golden file is checked in"),
    );
    assert!(golden.len() >= 15, "got {} metrics", golden.len());
    for (k, v) in &golden {
        assert!(v.is_finite(), "{k} is not finite");
    }
}
