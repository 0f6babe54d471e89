//! Telemetry must observe without perturbing.
//!
//! The §3 filter driver's cardinal rule — instrumentation must not change
//! the workload it watches — applies to `nt-obs` too: running the faulted
//! 45-machine fleet with spans, samplers and the span log all enabled has
//! to produce bit-identical fact tables and loss ledgers to a silent run,
//! while still leaving behind well-formed artefacts (per-machine span
//! JSONL with monotone simulated timestamps, the fleet `timeseries.jsonl`,
//! and a populated [`nt_study::RuntimeProfile`]).

use std::fs;
use std::path::{Path, PathBuf};

use nt_study::{
    FaultPlan, Hop, Phase, ShardOptions, Study, StudyConfig, TelemetryConfig, TelemetryOptions,
};

/// The faulted 45-machine smoke fleet: paper topology, short period.
fn faulted_fleet(seed: u64) -> StudyConfig {
    let mut c = StudyConfig::paper_scale(seed);
    c.duration = nt_sim::SimDuration::from_secs(600);
    c.snapshot_interval = nt_sim::SimDuration::from_secs(300);
    c.files_per_volume = 1_200;
    c.web_cache_files = 150;
    c.faults = FaultPlan::lossy();
    c
}

fn artefact_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("nt-obs-it-{tag}-{}", std::process::id()))
}

/// Pulls the integer value of a `"key":N` field out of a hand-rolled
/// JSONL line (the span log never nests objects).
fn json_u64(line: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\":");
    let at = line.find(&needle)? + needle.len();
    let rest = &line[at..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn check_span_log(path: &Path, machine: u64) {
    let text = fs::read_to_string(path).expect("span log readable");
    let mut last_sim = 0u64;
    let mut lines = 0usize;
    for line in text.lines() {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "span line is a JSON object: {line}"
        );
        assert_eq!(json_u64(line, "m"), Some(machine), "machine id: {line}");
        for key in ["sim", "host_enter_ns", "host_ns", "self_ns", "depth"] {
            assert!(json_u64(line, key).is_some(), "field {key} in {line}");
        }
        let sim = json_u64(line, "sim").unwrap();
        assert!(
            sim >= last_sim,
            "sim stamps are monotone per machine: {sim} after {last_sim}"
        );
        last_sim = sim;
        let total = json_u64(line, "host_ns").unwrap();
        assert!(json_u64(line, "self_ns").unwrap() <= total);
        lines += 1;
    }
    assert!(lines > 0, "machine {machine} logged at least one span");
}

#[test]
fn telemetry_does_not_perturb_the_study() {
    let dir = artefact_dir("fleet");
    let _ = fs::remove_dir_all(&dir);

    let silent = Study::run(&faulted_fleet(4_040)).expect("study runs");

    let mut watched_config = faulted_fleet(4_040);
    watched_config.telemetry = TelemetryConfig::On(TelemetryOptions {
        dir: Some(dir.clone()),
        ..TelemetryOptions::default()
    });
    let watched = Study::run(&watched_config).expect("study runs");

    // The whole point: watching the fleet changes nothing it produces.
    // `assert!` rather than `assert_eq!` — a failure diff over these
    // tables would be megabytes of unreadable output.
    assert!(
        silent.trace_set.records == watched.trace_set.records,
        "record streams are bit-identical with telemetry on"
    );
    assert!(
        silent.trace_set.instances == watched.trace_set.instances,
        "instance tables are bit-identical with telemetry on"
    );
    assert!(
        silent.trace_set.names == watched.trace_set.names,
        "name tables are bit-identical with telemetry on"
    );
    assert_eq!(silent.total_records, watched.total_records);
    assert_eq!(silent.stored_bytes, watched.stored_bytes);
    assert!(
        watched.total_lost() > 0,
        "the lossy plan visibly dropped records, so the ledgers are live"
    );
    for (s, w) in silent.machines.iter().zip(watched.machines.iter()) {
        assert_eq!(s.id, w.id);
        assert_eq!(s.loss, w.loss, "machine {:?} ledger unchanged", s.id);
        assert_eq!(s.residual_dirty_bytes, w.residual_dirty_bytes);
        // The conservation-audit ledgers are posted from these counters,
        // so equality here is equality of every audit account too.
        assert_eq!(s.io, w.io, "machine {:?} io counters unchanged", s.id);
        assert_eq!(s.cache, w.cache, "machine {:?} cache counters", s.id);
        assert_eq!(s.vm, w.vm, "machine {:?} vm counters", s.id);
    }

    // The silent run carries no telemetry at all; the watched run's
    // profile attributes wall-clock to the phases the fleet exercised.
    assert!(silent.profile.is_empty(), "telemetry off leaves no profile");
    assert!(silent.machines.iter().all(|m| m.telemetry.is_none()));
    let profile = watched.profile;
    for phase in [Phase::Dispatch, Phase::Cache, Phase::Trace, Phase::Analysis] {
        assert!(
            profile.phase(phase).spans > 0,
            "phase {phase:?} recorded spans"
        );
    }
    assert!(profile.total_self_ns() > 0);

    // The published per-layer ns/op budget: the silent run has no rows,
    // the watched run prices every phase that ran, dispatch included.
    assert!(silent.layer_budget().is_empty());
    let budget = watched.layer_budget();
    assert!(!budget.is_empty());
    let dispatch = budget
        .iter()
        .find(|b| b.phase == Phase::Dispatch)
        .expect("dispatch layer priced");
    assert!(dispatch.spans > 0);
    assert!(dispatch.ns_per_op > 0.0);
    assert_eq!(
        dispatch.ns_per_op,
        dispatch.self_ns as f64 / dispatch.spans as f64
    );

    // Span logs: one per machine, well-formed JSONL, monotone sim stamps.
    for m in &watched.machines {
        let telemetry = m.telemetry.as_ref().expect("telemetry report present");
        assert!(telemetry.spans_logged > 0);
        let log = dir.join(format!("spans-m{:02}.jsonl", m.id.0));
        check_span_log(&log, u64::from(m.id.0));
        // The sampler landed the headline gauges for this machine.
        for name in ["cache.resident_bytes", "engine.queue_depth", "io.ops"] {
            let series = telemetry
                .series(name)
                .unwrap_or_else(|| panic!("series {name} on machine {:?}", m.id));
            assert!(!series.points.is_empty());
        }
    }

    // The fleet time-series artefact: fleet-scope rows with points.
    let text = fs::read_to_string(dir.join("timeseries.jsonl")).expect("timeseries.jsonl written");
    let fleet_rows: Vec<&str> = text
        .lines()
        .filter(|l| l.contains("\"scope\":\"fleet\""))
        .collect();
    assert!(!fleet_rows.is_empty(), "fleet-scope rows exported");
    assert!(
        fleet_rows
            .iter()
            .any(|l| l.contains("\"series\":\"trace.lost_records\"") && l.contains("\"points\":[[")),
        "fleet loss counter has sampled points"
    );
    assert!(
        text.lines().any(|l| l.contains("\"scope\":\"category:")),
        "per-category rollups exported"
    );

    let _ = fs::remove_dir_all(&dir);
}

/// The causal shipment tracer, flight recorder and watchdogs all ride
/// the sharded pipeline without perturbing it: the faulted 45-machine
/// fleet produces bit-identical fact tables, ledgers and aggregates
/// whether the whole observability stack is on or off, while the traced
/// run additionally leaves behind `trace.json`, the exactly-once
/// `flight-recorder.jsonl` (via `dump_on_loss` under the lossy plan),
/// causal hop spans and typed health findings.
#[test]
fn shipment_tracing_does_not_perturb_the_sharded_study() {
    let dir = artefact_dir("trace-fleet");
    let _ = fs::remove_dir_all(&dir);

    let options = ShardOptions {
        shards: 4,
        retain: true,
        ..ShardOptions::default()
    };
    let silent =
        Study::try_run_sharded(&faulted_fleet(5_050), &options).expect("faulted fleet runs");

    let mut traced_config = faulted_fleet(5_050);
    traced_config.telemetry = TelemetryConfig::On(TelemetryOptions {
        dir: Some(dir.clone()),
        trace_shipments: true,
        flight_recorder: true,
        watchdogs: true,
        dump_on_loss: true,
        ..TelemetryOptions::default()
    });
    let traced = Study::try_run_sharded(&traced_config, &options).expect("faulted fleet runs");

    // Fact tables: bit-identical (retain rebuilt the exact tables).
    let s = silent.data.trace_set.as_ref().expect("silent retained");
    let t = traced.data.trace_set.as_ref().expect("traced retained");
    assert!(
        s.records == t.records,
        "record streams are bit-identical with tracing on"
    );
    assert!(
        s.instances == t.instances,
        "instance tables are bit-identical with tracing on"
    );
    assert!(s.names == t.names, "name tables are bit-identical");

    assert_eq!(silent.data.total_records, traced.data.total_records);
    assert_eq!(silent.data.stored_bytes, traced.data.stored_bytes);
    assert!(
        traced.data.total_lost() > 0,
        "the lossy plan visibly dropped records"
    );
    for (a, b) in silent.data.machines.iter().zip(traced.data.machines.iter()) {
        assert_eq!(a.id, b.id);
        assert_eq!(a.loss, b.loss, "machine {:?} ledger unchanged", a.id);
        assert_eq!(a.io, b.io, "machine {:?} io counters unchanged", a.id);
        assert_eq!(a.cache, b.cache, "machine {:?} cache counters", a.id);
        assert_eq!(a.vm, b.vm, "machine {:?} vm counters", a.id);
    }
    for (a, b) in silent.shards.iter().zip(traced.shards.iter()) {
        assert_eq!(a.records, b.records, "shard {} head-count", a.shard);
        assert_eq!(a.machines, b.machines, "shard {} machine range", a.shard);
    }

    // Aggregates: identical, peak watermarks included.
    assert!(
        silent.data.summary == traced.data.summary,
        "streaming aggregates unchanged by tracing"
    );

    // The silent run carried no observability state at all.
    assert!(silent.data.shipment_spans.is_empty());
    assert!(silent.data.health.is_empty());
    assert!(!silent.data.flight_recorder.is_enabled());
    assert!(silent.shards.iter().all(|s| s.findings.is_empty()));

    // The traced run left the causal timeline and the post-mortem dump.
    assert!(
        !traced.data.shipment_spans.is_empty(),
        "tracing captured hop spans"
    );
    assert!(
        dir.join("trace.json").exists(),
        "Chrome trace artefact written"
    );
    assert!(
        traced.data.flight_recorder.dumped(),
        "dump_on_loss fired the exactly-once flight-recorder dump"
    );
    assert!(dir.join("flight-recorder.jsonl").exists());
    assert!(
        !traced.data.health.is_empty(),
        "watchdogs surfaced findings under the lossy plan"
    );

    let _ = fs::remove_dir_all(&dir);
}

/// Each live batch is timed once, on the thread that delivers it. A
/// machine's buffers reach its own sinks on the worker simulating it,
/// and the task closes those sinks there too, so its profile carries one
/// `Phase::Analysis` delivery span per batch its sink ingested (one
/// `analysis.ingest` hop each) plus its `analysis.finish`. The fleet
/// profile adds no analysis span of its own.
#[test]
fn live_batches_are_timed_once_on_their_own_machine() {
    let mut config = StudyConfig::smoke_test(5);
    config.faults = FaultPlan::lossy();
    config.telemetry = TelemetryConfig::On(TelemetryOptions {
        trace_shipments: true,
        ..TelemetryOptions::default()
    });
    let data = Study::try_run_sharded(
        &config,
        &ShardOptions {
            shards: 2,
            ..ShardOptions::default()
        },
    )
    .expect("smoke study runs")
    .data;

    let mut machine_spans = 0;
    for m in &data.machines {
        let profile = m.telemetry.as_ref().expect("telemetry report").profile;
        let analysis = profile.phase(Phase::Analysis);
        let ingested = data
            .shipment_spans
            .iter()
            .filter(|s| s.machine == m.id.0 && s.hop == Hop::Analyze)
            .count() as u64;
        assert!(ingested > 0, "machine {:?} shipped batches", m.id);
        assert_eq!(
            analysis.spans,
            ingested + 1,
            "machine {:?}: one delivery span per ingested batch, plus its analysis.finish",
            m.id
        );
        assert!(
            analysis.self_ns > 0,
            "machine {:?} timed its delivery",
            m.id
        );
        machine_spans += analysis.spans;
    }
    assert_eq!(
        data.profile.phase(Phase::Analysis).spans,
        machine_spans,
        "the fleet profile holds no analysis span beyond its machines'"
    );
}
