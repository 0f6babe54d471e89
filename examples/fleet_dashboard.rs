//! Watching the fleet run: the `nt-obs` telemetry layer end to end.
//!
//! Runs the faulted 45-machine deployment over the sharded collection
//! tree with the whole observability stack on — span profiler, gauge
//! sampler, causal shipment tracer, flight recorder and health
//! watchdogs — then renders what the layer captured: the wall-clock
//! attribution table ([`nt_study::RuntimeProfile`]), terminal
//! sparklines over the fleet time-series, per-category operation rates,
//! per-hop shipment latency off the causal spans, the watchdog
//! findings, the flight-recorder rings, and the artefact paths
//! (`spans-mNN.jsonl` per machine, `timeseries.jsonl`, the Chrome
//! `trace.json` timeline and the `flight-recorder.jsonl` post-mortem).
//!
//! ```bash
//! cargo run --release --example fleet_dashboard
//! ```

use std::path::PathBuf;

use nt_obs::sparkline::sparkline;
use nt_obs::{Hop, RecorderScope, SeriesData};
use nt_sim::SimDuration;
use nt_study::{
    FaultPlan, MachineOutput, ShardOptions, Study, StudyConfig, TelemetryConfig, TelemetryOptions,
};

/// The faulted paper-shaped fleet at smoke duration, fully watched.
fn config(dir: PathBuf) -> StudyConfig {
    let mut c = StudyConfig::paper_scale(7);
    c.duration = SimDuration::from_secs(900);
    c.snapshot_interval = SimDuration::from_secs(300);
    c.files_per_volume = 1_200;
    c.web_cache_files = 150;
    c.faults = FaultPlan::lossy();
    c.telemetry = TelemetryConfig::On(TelemetryOptions {
        dir: Some(dir),
        trace_shipments: true,
        flight_recorder: true,
        watchdogs: true,
        dump_on_loss: true,
        ..TelemetryOptions::default()
    });
    c
}

/// One dashboard line: sparkline plus min/max/last of a fleet series.
fn strip(label: &str, series: &SeriesData) {
    let values = series.values();
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    println!(
        "  {label:<22} {}  min {:>12.0}  max {:>12.0}  last {:>12.0}",
        sparkline(&values, 40),
        min,
        max,
        series.last().unwrap_or(0.0),
    );
}

/// Sums one series across a set of machines at aligned sample stamps.
fn fleet_series(machines: &[MachineOutput], name: &str) -> Option<SeriesData> {
    let mut merged: Option<SeriesData> = None;
    for m in machines {
        let series = m.telemetry.as_ref()?.series(name)?;
        match merged.as_mut() {
            None => merged = Some(series.clone()),
            Some(acc) => {
                for (point, &(t, v)) in acc.points.iter_mut().zip(&series.points) {
                    debug_assert_eq!(point.0, t, "sampler stamps are fleet-aligned");
                    point.1 += v;
                }
            }
        }
    }
    merged
}

fn main() {
    let dir = std::env::temp_dir().join("nt-fleet-dashboard");
    let _ = std::fs::remove_dir_all(&dir);
    println!("running the faulted 45-machine sharded fleet with the observability stack on …");
    let run = Study::try_run_sharded(
        &config(dir.clone()),
        &ShardOptions {
            shards: 4,
            warehouse: Some(dir.join("warehouse")),
            ..ShardOptions::default()
        },
    )
    .unwrap_or_else(|fault| panic!("{fault}"));
    let data = &run.data;

    println!();
    println!("== runtime profile (host wall-clock per subsystem phase) ==");
    print!("{}", data.profile);

    println!();
    println!("== fleet time-series (sampled every simulated 30 s) ==");
    for name in [
        "cache.resident_bytes",
        "cache.dirty_bytes",
        "engine.queue_depth",
        "io.open_handles",
        "io.ops",
        "io.bytes_read",
        "io.bytes_written",
        "trace.lost_records",
    ] {
        match fleet_series(&data.machines, name) {
            Some(series) => strip(name, &series),
            None => println!("  {name:<22} (no samples)"),
        }
    }

    println!();
    println!("== per-category op rates (ops per sample interval, averaged) ==");
    let mut categories: Vec<_> = data.machines.iter().map(|m| m.category).collect();
    categories.sort_by_key(|c| format!("{c:?}"));
    categories.dedup();
    for category in categories {
        let mut rates: Vec<f64> = Vec::new();
        for m in data.machines.iter().filter(|m| m.category == category) {
            if let Some(series) = m.telemetry.as_ref().and_then(|t| t.series("io.ops")) {
                let r = series.rates();
                if rates.is_empty() {
                    rates = r;
                } else {
                    for (acc, v) in rates.iter_mut().zip(&r) {
                        *acc += v;
                    }
                }
            }
        }
        let mean = if rates.is_empty() {
            0.0
        } else {
            rates.iter().sum::<f64>() / rates.len() as f64
        };
        println!(
            "  {:<16} {}  mean {:>10.1}",
            format!("{category:?}"),
            sparkline(&rates, 40),
            mean,
        );
    }

    println!();
    println!("== causal shipment tracing (agent → collector → analysis/export) ==");
    let spans = &data.shipment_spans;
    let traces: std::collections::BTreeSet<u64> = spans.iter().map(|s| s.ctx.trace_id).collect();
    println!(
        "  batch journeys traced: {}   hop spans: {}",
        traces.len(),
        spans.len()
    );
    for hop in Hop::ALL {
        let mut count = 0u64;
        let (mut sum, mut max) = (0u64, 0u64);
        for s in spans.iter().filter(|s| s.hop == hop) {
            let ticks = s.end_ticks - s.begin_ticks;
            sum += ticks;
            max = max.max(ticks);
            count += 1;
        }
        let mean_s = if count == 0 {
            0.0
        } else {
            sum as f64 / count as f64 / 10_000_000.0
        };
        println!(
            "  {:<18} spans {:>6}   mean {:>8.2} s   max {:>8.2} s  (simulated)",
            hop.name(),
            count,
            mean_s,
            max as f64 / 10_000_000.0,
        );
    }

    println!();
    println!("== pipeline health (watchdog findings) ==");
    if data.health.is_empty() {
        println!("  (no findings — the fleet stayed inside its loss and backlog budgets)");
    }
    for finding in &data.health {
        println!("  {finding}");
    }

    println!();
    println!("== flight recorder (bounded per-scope event rings) ==");
    for (scope, events, evicted) in data.flight_recorder.snapshot() {
        let label = match scope {
            RecorderScope::Machine(m) => format!("machine:{m}"),
            RecorderScope::Shard(s) => format!("shard:{s}"),
            RecorderScope::Fleet => "fleet".to_string(),
        };
        let newest = events.last().map(|e| e.kind()).unwrap_or("-");
        println!(
            "  {label:<12} {:>4} events ({evicted} evicted)   newest: {newest}",
            events.len(),
        );
    }
    println!(
        "  dumped post-mortem: {} (dump_on_loss under the lossy fault plan)",
        data.flight_recorder.dumped(),
    );

    println!();
    println!("== study headline ==");
    println!(
        "  records: {}   compressed bytes: {}   lost to faults: {}",
        data.total_records,
        data.stored_bytes,
        data.total_lost(),
    );
    let logged: u64 = data
        .machines
        .iter()
        .filter_map(|m| m.telemetry.as_ref())
        .map(|t| t.spans_logged)
        .sum();
    println!("  profiler spans logged across the fleet: {logged}");

    println!();
    println!("== artefacts ==");
    println!("  {}", dir.join("timeseries.jsonl").display());
    println!(
        "  {}  (one per machine, 45 files)",
        dir.join("spans-m00.jsonl").display()
    );
    println!(
        "  {}  (Chrome trace-event timeline — load in chrome://tracing or Perfetto)",
        dir.join("trace.json").display()
    );
    println!(
        "  {}  (exactly-once post-mortem dump)",
        dir.join("flight-recorder.jsonl").display()
    );
}
