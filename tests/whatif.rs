//! What-if replay subsystem lockdowns.
//!
//! The determinism contract of `nt_study::whatif`: same seed + same
//! segments → bit-identical differential fact tables, regardless of how
//! many workers carried the (variant × machine) grid and regardless of
//! whether the trace came from the live fact tables or from an NTT
//! warehouse directory. Plus: every variant must pass the conservation
//! audit, an injected drift must be named by variant, and the §9-style
//! delta summary is locked against a golden file
//! (`GOLDEN_REGEN=1 cargo test --test whatif` to regenerate). A stored
//! trace with undecodable records fails the study with the first bad
//! machine's typed error, on any worker count.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::OnceLock;

use nt_analysis::TraceSet;
use nt_cache::CacheConfig;
use nt_io::DiskParams;
use nt_study::{
    audit_variant, FaultPlan, ReplayConfig, ShardOptions, Study, StudyConfig, WhatIfError,
    WhatIfReport, WhatIfStudy,
};
use nt_trace::RECORD_SIZE;
use nt_warehouse::format::xxh64;
use nt_warehouse::{NttError, Warehouse, HEADER_SIZE};

/// The faulted 45-machine fleet, trimmed to a tier-1-friendly period.
fn faulted_fleet() -> StudyConfig {
    let mut config = StudyConfig::paper_scale(90_210);
    config.duration = nt_sim::SimDuration::from_secs(300);
    config.snapshot_interval = nt_sim::SimDuration::from_secs(300);
    config.files_per_volume = 600;
    config.web_cache_files = 100;
    config.faults = FaultPlan::lossy();
    config
}

/// The ≥3-variant policy matrix the acceptance criteria call for:
/// a cache-policy axis, a dispatch axis, and the disk latency-model
/// axis, all against the NT-defaults baseline.
fn matrix() -> WhatIfStudy {
    WhatIfStudy::new(ReplayConfig::default())
        .variant(
            "no-read-ahead",
            ReplayConfig {
                cache: CacheConfig {
                    readahead_enabled: false,
                    ..CacheConfig::default()
                },
                ..ReplayConfig::default()
            },
        )
        .variant(
            "irp-only",
            ReplayConfig {
                disable_fastio: true,
                ..ReplayConfig::default()
            },
        )
        .variant(
            "ssd-class-disk",
            ReplayConfig {
                disk: DiskParams::ssd_class(),
                ..ReplayConfig::default()
            },
        )
}

struct Fixture {
    trace: TraceSet,
    /// The matrix answered from the live fact tables on one worker.
    live_serial: WhatIfReport,
    /// The same matrix on many workers.
    live_parallel: WhatIfReport,
    /// The same matrix from the exported NTT warehouse directory.
    stored: WhatIfReport,
}

fn fixture() -> &'static Fixture {
    static DATA: OnceLock<Fixture> = OnceLock::new();
    DATA.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("nt-whatif-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let data = Study::try_run_sharded(
            &faulted_fleet(),
            &ShardOptions {
                retain: true,
                warehouse: Some(dir.clone()),
                ..ShardOptions::default()
            },
        )
        .expect("faulted fleet runs")
        .data;
        let trace = data.trace_set.expect("retained");
        let live_serial = matrix()
            .workers(1)
            .run_trace_set(&trace)
            .expect("serial live matrix reconciles");
        let live_parallel = matrix()
            .workers(8)
            .run_trace_set(&trace)
            .expect("parallel live matrix reconciles");
        let warehouse = Warehouse::open(&dir).expect("fleet exported a warehouse");
        let stored = matrix()
            .workers(3)
            .run(&warehouse)
            .expect("warehouse matrix reconciles");
        let _ = std::fs::remove_dir_all(&dir);
        Fixture {
            trace,
            live_serial,
            live_parallel,
            stored,
        }
    })
}

#[test]
fn matrix_is_bit_identical_across_worker_counts_and_sources() {
    let f = fixture();
    assert_eq!(f.live_serial.machines.len(), 45, "the full faulted fleet");
    assert_eq!(f.live_serial.variants.len(), 3);

    // Worker count never changes a bit.
    assert_eq!(f.live_serial.machines, f.live_parallel.machines);
    assert_eq!(f.live_serial.tables, f.live_parallel.tables);
    assert_eq!(f.live_serial.baseline.rows, f.live_parallel.baseline.rows);
    for (a, b) in f.live_serial.variants.iter().zip(&f.live_parallel.variants) {
        assert_eq!(a.name, b.name);
        assert_eq!(
            a.rows, b.rows,
            "variant '{}' drifted across workers",
            a.name
        );
        assert_eq!(a.total, b.total);
    }
    assert_eq!(f.live_serial.summaries, f.live_parallel.summaries);

    // Neither does the trace source: live fact tables vs the NTT
    // warehouse scan answer with identical differential tables.
    assert_eq!(f.live_serial.machines, f.stored.machines);
    assert_eq!(f.live_serial.tables, f.stored.tables);
    assert_eq!(f.live_serial.baseline.rows, f.stored.baseline.rows);
    for (a, b) in f.live_serial.variants.iter().zip(&f.stored.variants) {
        assert_eq!(
            a.rows, b.rows,
            "variant '{}' drifted across sources",
            a.name
        );
    }
    assert_eq!(f.live_serial.summaries, f.stored.summaries);
}

#[test]
fn the_matrix_actually_moves_the_policies_under_study() {
    let f = fixture();
    let summary = |name: &str| {
        f.live_serial
            .summaries
            .iter()
            .find(|s| s.variant == name)
            .unwrap_or_else(|| panic!("summary row for {name}"))
    };
    // The §9 read-ahead ablation hurts the hit rate and adds disk reads.
    let nra = summary("no-read-ahead");
    assert!(nra.hit_rate_delta < 0.0, "{nra:?}");
    assert_eq!(nra.readahead_efficiency, 0.0);
    // Removing the FastIO table moves reads to the IRP path.
    let irp = f
        .live_serial
        .variants
        .iter()
        .find(|v| v.name == "irp-only")
        .unwrap();
    assert_eq!(irp.total.fastio_reads, 0);
    assert!(irp.total.irp_reads > f.live_serial.baseline.total.irp_reads);
    // The latency-model axis: SSD-class disks slash disk busy time.
    let ssd = f
        .live_serial
        .variants
        .iter()
        .find(|v| v.name == "ssd-class-disk")
        .unwrap();
    assert!(
        ssd.total.disk_busy_ticks * 10 < f.live_serial.baseline.total.disk_busy_ticks,
        "ssd busy {} vs baseline {}",
        ssd.total.disk_busy_ticks,
        f.live_serial.baseline.total.disk_busy_ticks
    );
    // Replayed request counts are variant-invariant: a policy changes
    // how requests are served, never what the trace asked for.
    for table in &f.live_serial.tables {
        for row in &table.rows {
            assert_eq!(
                row.replayed_requests, 0,
                "variant '{}' changed the request stream on machine {}",
                table.variant, row.machine
            );
        }
    }
}

#[test]
fn every_variant_passes_the_conservation_audit_and_drift_is_named() {
    let f = fixture();
    // The fixture reports exist, so every variant already reconciled.
    // Re-audit explicitly, then inject a drift into one variant's
    // outcomes and prove the failure names that variant.
    for run in std::iter::once(&f.live_serial.baseline).chain(&f.live_serial.variants) {
        audit_variant(&run.name, &run.outcomes).expect("clean outcomes reconcile");
    }
    let victim = &f.live_serial.variants[1];
    assert_eq!(victim.name, "irp-only");
    let mut outcomes = victim.outcomes.clone();
    // An over-reported paging read: the I/O layer debits one more I/O
    // than any cache or VM activity credits.
    outcomes[7].io.paging_reads += 1;
    let err = audit_variant(&victim.name, &outcomes).expect_err("drift must fail the audit");
    match &err {
        WhatIfError::Drift {
            variant,
            imbalance,
            report,
        } => {
            assert_eq!(variant, "irp-only");
            assert_eq!(imbalance.account, "paging.read-ios");
            assert!(imbalance.scope.contains("whatif:irp-only"), "{imbalance:?}");
            assert!(report.contains("paging.read-ios"));
        }
        other => panic!("expected Drift, got {other:?}"),
    }
    let rendered = err.to_string();
    assert!(
        rendered.contains("variant 'irp-only'"),
        "the error must name the variant: {rendered}"
    );
}

#[test]
fn whatif_replay_is_attributed_under_the_replay_phase() {
    let f = fixture();
    let stat = f.live_serial.profile.phase(nt_study::Phase::Replay);
    assert!(
        stat.spans > 0 && stat.total_ns > 0,
        "replay work must be attributed under Phase::Replay: {stat:?}"
    );
    // And nothing leaked into unrelated phases' span counts from the
    // what-if engine itself (the replayed machines run observer-less).
    assert_eq!(f.live_serial.profile.phase(nt_study::Phase::Trace).spans, 0);
}

#[test]
fn live_source_covers_the_whole_trace() {
    let f = fixture();
    let records: usize = f
        .live_serial
        .baseline
        .rows
        .iter()
        .map(|r| r.source_records as usize)
        .sum();
    assert_eq!(
        records,
        f.trace.records.len(),
        "every record reaches a replay stream"
    );
    // Every source record is accounted replayed, skipped, or control.
    for row in &f.live_serial.baseline.rows {
        assert_eq!(
            row.source_records,
            row.replayed_requests + row.skipped_records + row.control_records,
            "machine {} leaked records",
            row.machine
        );
    }
}

#[test]
fn a_bad_record_fails_the_study_with_the_first_machine_s_error() {
    let dir = std::env::temp_dir().join(format!("nt-whatif-bad-record-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    Study::try_run_sharded(
        &StudyConfig::smoke_test(7),
        &ShardOptions {
            warehouse: Some(dir.clone()),
            ..ShardOptions::default()
        },
    )
    .expect("smoke study runs");
    // An invalid event code in record 3 of machine 2 and record 0 of
    // machine 4, each segment re-sealed so it still validates: the
    // footer ends with the XXH64 over every byte before it, then the
    // end magic.
    for (file, record) in [("machine-00002.ntt", 3), ("machine-00004.ntt", 0)] {
        let path = dir.join(file);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[HEADER_SIZE + record * RECORD_SIZE] = 0xFF;
        let sealed = bytes.len() - 16;
        let checksum = xxh64(&bytes[..sealed]);
        bytes[sealed..sealed + 8].copy_from_slice(&checksum.to_le_bytes());
        std::fs::write(&path, bytes).unwrap();
    }
    let warehouse = Warehouse::open(&dir).expect("validation does not decode records");
    for workers in [1, 8] {
        match matrix().workers(workers).run(&warehouse) {
            Err(WhatIfError::Source(NttError::BadRecord { index: 3 })) => {}
            other => panic!(
                "{workers} workers: expected machine 2's BadRecord {{ index: 3 }}, got {:?}",
                other.map(|report| report.machines)
            ),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Golden delta-summary lockdown.

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("whatif_delta.json")
}

/// Exact-match metrics (integer counts in disguise).
const EXACT_SUFFIXES: &[&str] = &["disk_ios", "disk_ios_delta", "disk_reads", "disk_writes"];

/// Tolerance for ratios.
const REL_TOL: f64 = 0.05;

fn measure() -> BTreeMap<String, f64> {
    let f = fixture();
    let mut m = BTreeMap::new();
    for s in &f.live_serial.summaries {
        let k = |suffix: &str| format!("{}.{suffix}", s.variant);
        m.insert(k("hit_rate"), s.hit_rate);
        m.insert(k("hit_rate_delta"), s.hit_rate_delta);
        m.insert(k("readahead_efficiency"), s.readahead_efficiency);
        m.insert(k("disk_ios"), s.disk_ios as f64);
        m.insert(k("disk_ios_delta"), s.disk_ios_delta as f64);
        m.insert(k("disk_reads"), s.disk_reads as f64);
        m.insert(k("disk_writes"), s.disk_writes as f64);
    }
    m
}

fn render(metrics: &BTreeMap<String, f64>) -> String {
    let mut out = String::from("{\n");
    for (i, (k, v)) in metrics.iter().enumerate() {
        let comma = if i + 1 == metrics.len() { "" } else { "," };
        out.push_str(&format!("  \"{k}\": {v:.6}{comma}\n"));
    }
    out.push_str("}\n");
    out
}

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
fn delta_summary_matches_the_golden_lockdown() {
    let measured = measure();
    let path = golden_path();
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
        let exact = EXACT_SUFFIXES.iter().any(|s| key.ends_with(s));
        let ok = if exact {
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
        "golden what-if deltas drifted:\n{}\nIf intentional, GOLDEN_REGEN=1 and review the diff.",
        failures.join("\n")
    );
}
