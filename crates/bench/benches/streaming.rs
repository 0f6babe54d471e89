//! Streaming-pipeline benchmarks: the end-to-end smoke study on one and
//! four shards, online analysis beside materialize-then-analyze on the
//! same records, and the substrate operations the pipeline leans on
//! (event dispatch, range coalescing, sketch ingestion).
//!
//! Besides the usual per-bench console lines this harness can emit a
//! machine-readable baseline: run with `NT_BENCH_WRITE=1` and the results
//! land in `BENCH_streaming.json` at the repository root, which is checked
//! in as the reference measurement (see README.md). `NT_BENCH_ITERS`
//! controls iterations per bench (default 3; CI smokes with 1).
//!
//! With `NT_BENCH_GATE=1` the harness enforces the checked-in baseline
//! two ways. First, the **full-baseline regression gate**: every
//! `*_min_ns` entry in `BENCH_streaming.json` is re-measured and judged
//! against its recorded floor at a [`FULL_TOLERANCE`] of 50 percent
//! slowdown (raw nanoseconds wear host noise that the ratio gates below
//! cancel away, so the raw budget is loose; it exists to catch the 2x
//! cliffs the three ratio gates never saw).
//! Entries recorded at a different `NT_BENCH_ITERS` than the current
//! run are refused outright rather than judged — fewer iterations mean
//! noisier minima, so cross-iteration comparisons would gate on noise.
//! A bench that misses its budget is re-measured before it fails: a
//! real regression is systematic and misses every round, while a noise
//! spike (a background compile landing on one iteration) misses once
//! and passes the re-run — the same discipline the ratio gates use.
//! Stale baseline entries (no longer measured) and new benches (never
//! recorded) also fail, keeping the file and the harness in lock-step.
//! Regenerate with `NT_BENCH_WRITE=1` after an intended change, exactly
//! like the warehouse golden's `GOLDEN_REGEN=1`.
//!
//! Second, the three ratio gates. The harness enforces the
//! telemetry-off overhead budget: the simulate phase of a one-machine
//! study, normalised against the machine-construction phase measured
//! beside it (same volume, file table and allocator — only simulate
//! crosses the instrumented paths), must stay within
//! [`TELEMETRY_TOLERANCE`], 3 percent, of the checked-in baseline
//! (see [`gate`]). The whole `nt-obs` layer rides the study hot paths,
//! so this is the regression tripwire proving the Off configuration
//! stays free.
//!
//! The gate also covers the sharded collection tree: a 4-shard smoke
//! study, normalised against the one-shard study of the same driver
//! measured beside it on the same single worker thread, must stay within
//! [`SHARD_TOLERANCE`], 25 percent, of the checked-in ratio. Every
//! machine task owns its collector handle and sinks, and the fleet root
//! merges the machine partials in machine order whatever the shard
//! count, so the only extra work of four shards is the shard tier's
//! bookkeeping: a tracer handle, a merge-boundary event and a
//! `ShardReport` per shard. The checked-in ratio therefore sits near 1,
//! and the gate catches any cost that grows with the shard count rather
//! than with the machines.
//!
//! And it covers the NTT warehouse encoder: serializing 100k records
//! into a segment, normalised against building the batch fact tables
//! over the same records beside it, must stay within
//! [`WAREHOUSE_TOLERANCE`], 25 percent, of the checked-in ratio. That
//! keeps "export the study while running it" cheap enough to leave on.
//!
//! The four budgets are constants, not environment settings: a budget
//! the environment can set is a knob whose only use is to loosen a gate.

use std::time::Instant;

use nt_analysis::stream::{MachineSink, StreamConfig};
use nt_analysis::{HistogramSketch, TraceSet};
use nt_bench::{check_min_ns, Baseline, Verdict};
use nt_cache::{CacheConfig, RangeSet};
use nt_sim::{Engine, SimDuration, SimTime};
use nt_study::{MachineRun, ReplayConfig, ShardOptions, Study, StudyConfig, WhatIfStudy};
use nt_trace::{CollectionServer, MachineId};

/// One measurement: median-free, warm-up-free wall clock per iteration —
/// the same regime as the vendored criterion harness, but keeping the
/// number so the JSON baseline can be written.
struct Sample {
    name: &'static str,
    ns_per_iter: u128,
    /// Fastest single iteration — the gate compares this, not the mean,
    /// so a background compile on the CI host doesn't trip the budget.
    min_ns: u128,
    /// Work items per iteration (records, events …) for ns/item context.
    elements: u64,
    /// Iterations this sample was measured over — recorded per entry in
    /// the baseline so the gate can refuse cross-`NT_BENCH_ITERS`
    /// comparisons (a min over fewer iterations is a noisier floor).
    iters: u32,
}

fn iterations() -> u32 {
    std::env::var("NT_BENCH_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(3)
}

/// One registered benchmark: its name and its set-up, which builds the
/// bench's fixture and returns the per-iteration element count with the
/// closure to time over it. Each measurement (the full gate's re-measure
/// included) calls the set-up and drops the fixture after its timed runs,
/// so no bench is timed over the heap another bench's fixture left
/// behind, and the gate can re-measure a bench that misses its budget
/// instead of failing on one noisy round.
struct Bench {
    name: &'static str,
    setup: Box<dyn Fn() -> (u64, Run)>,
}

/// The closure a bench times; it owns the bench's fixture.
type Run = Box<dyn FnMut()>;

impl Bench {
    fn new<R: FnMut() + 'static>(
        name: &'static str,
        setup: impl Fn() -> (u64, R) + 'static,
    ) -> Self {
        let setup = move || {
            let (elements, run) = setup();
            (elements, Box::new(run) as Run)
        };
        Bench {
            name,
            setup: Box::new(setup),
        }
    }
}

/// Sets one bench up and times `n` iterations of it: (elements, mean
/// ns/iter, fastest iteration). The fixture is dropped on return.
fn measure_rounds(bench: &Bench, n: u32) -> (u64, u128, u128) {
    let (elements, mut run) = (bench.setup)();
    let mut total = 0u128;
    let mut min_ns = u128::MAX;
    for _ in 0..n {
        let start = Instant::now();
        run();
        let ns = start.elapsed().as_nanos();
        total += ns;
        min_ns = min_ns.min(ns);
    }
    (elements, total / u128::from(n), min_ns)
}

fn measure(bench: &Bench) -> Sample {
    let n = iterations();
    let (elements, ns_per_iter, min_ns) = measure_rounds(bench, n);
    eprintln!(
        "bench streaming/{}: {ns_per_iter} ns/iter ({elements} elements)",
        bench.name
    );
    Sample {
        name: bench.name,
        ns_per_iter,
        min_ns,
        elements,
        iters: n,
    }
}

/// Baseline `*_min_ns` entries the per-bench gate must NOT judge raw:
/// they are the ratio-gate inputs, re-measured and consumed by
/// [`gate_ratio`] below. Raw comparison would gate on host-speed drift —
/// cancelling that drift is the whole reason the ratios exist.
const RATIO_GATE_ENTRIES: &[&str] = &[
    "gate_smoke_serial",
    "gate_reference",
    "gate_sharded",
    "gate_sharded_reference",
    "gate_warehouse",
    "gate_warehouse_reference",
];

// The gates' slowdown budgets, in percent.
const FULL_TOLERANCE: f64 = 50.0;
const TELEMETRY_TOLERANCE: f64 = 3.0;
const SHARD_TOLERANCE: f64 = 25.0;
const WAREHOUSE_TOLERANCE: f64 = 25.0;

/// The full-baseline regression gate: judges this run's samples against
/// every `*_min_ns` entry of the checked-in baseline. Fails on a
/// regression beyond [`FULL_TOLERANCE`] percent, on a stale or
/// missing entry, and refuses entries recorded at a different
/// `NT_BENCH_ITERS` than the current run.
///
/// A bench over budget is re-measured up to twice, folding the new
/// floor into its sample, before the verdict sticks: a real regression
/// is systematic and stays over in every round, while host noise — a
/// background compile landing on one single-iteration minimum — spikes
/// one round and passes the next.
fn gate_full_baseline(baseline: &Baseline, benches: &[Bench], samples: &mut [Sample]) {
    let mut checks = Vec::new();
    for round in 1..=3 {
        let current: Vec<(String, u128, u32)> = samples
            .iter()
            .map(|s| (s.name.to_string(), s.min_ns, s.iters))
            .collect();
        checks = check_min_ns(baseline, &current, RATIO_GATE_ENTRIES, FULL_TOLERANCE);
        let over: Vec<&str> = checks
            .iter()
            .filter(|c| c.verdict == Verdict::Regressed)
            .map(|c| c.name.as_str())
            .collect();
        if over.is_empty() || round == 3 {
            break;
        }
        eprintln!(
            "bench gate [full]: {} bench(es) over budget on round {round} ({}); re-measuring",
            over.len(),
            over.join(", ")
        );
        for bench in benches {
            if !over.contains(&bench.name) {
                continue;
            }
            let sample = samples
                .iter_mut()
                .find(|s| s.name == bench.name)
                .expect("every bench was sampled");
            let (_, _, min_ns) = measure_rounds(bench, sample.iters);
            sample.min_ns = sample.min_ns.min(min_ns);
        }
    }
    let mut failures = 0usize;
    for c in &checks {
        let verdict = match c.verdict {
            Verdict::Ok => "ok",
            Verdict::Regressed => "FAIL (regressed)",
            Verdict::MissingCurrent => "FAIL (stale baseline entry — bench no longer runs)",
            Verdict::MissingBaseline => "FAIL (bench not in baseline)",
            Verdict::ItersMismatch => "REFUSED (recorded at different NT_BENCH_ITERS)",
        };
        eprintln!(
            "bench gate [full/{}]: {} ns vs baseline {} ns ({:+.1}%, budget {FULL_TOLERANCE}%) {verdict}",
            c.name,
            c.current_min_ns.map_or_else(|| "-".into(), |v| v.to_string()),
            c.baseline_min_ns.map_or_else(|| "-".into(), |v| v.to_string()),
            c.delta_pct,
        );
        failures += usize::from(c.failed());
    }
    assert_eq!(
        failures,
        0,
        "full-baseline gate: {failures} of {} benches failed; if the change is \
         intended, regenerate the baseline with NT_BENCH_WRITE=1 at the same \
         NT_BENCH_ITERS the gate runs with",
        checks.len()
    );
}

/// The `NT_BENCH_GATE=1` enforcement pass: the full-baseline per-bench
/// gate above, then the three ratio gates.
///
/// Comparing raw nanoseconds against a baseline recorded in a different
/// process would gate on host-speed drift (shared CPUs, turbo decay),
/// which swings far more than the 3% budget. Instead both the baseline
/// writer and the gate run [`gate_measurements`] and compare the
/// *ratio* of the simulate phase to the machine-construction phase
/// measured beside it: ambient slowdown — CPU sharing, cache and
/// memory-bandwidth pressure — hits both phases alike and cancels,
/// while a real regression on the instrumented simulate path moves
/// the ratio.
fn gate(baseline_path: &str, benches: &[Bench], samples: &mut [Sample]) {
    let json = std::fs::read_to_string(baseline_path)
        .unwrap_or_else(|e| panic!("bench gate needs {baseline_path}: {e}"));
    let baseline = Baseline::parse(&json);
    assert!(
        !baseline.is_empty(),
        "baseline {baseline_path} parsed to nothing; regenerate with NT_BENCH_WRITE=1"
    );
    gate_full_baseline(&baseline, benches, samples);
    let baseline_min = |name: &str| -> f64 {
        baseline.get(&format!("{name}_min_ns")).unwrap_or_else(|| {
            panic!("baseline entry for {name}; regenerate with NT_BENCH_WRITE=1")
        }) as f64
    };
    gate_ratio(
        "telemetry-off overhead",
        baseline_min("gate_smoke_serial") / baseline_min("gate_reference"),
        TELEMETRY_TOLERANCE,
        gate_measurements,
    );
    gate_ratio(
        "sharded-tree overhead",
        baseline_min("gate_sharded") / baseline_min("gate_sharded_reference"),
        SHARD_TOLERANCE,
        gate_sharded_measurements,
    );
    gate_ratio(
        "warehouse encode overhead",
        baseline_min("gate_warehouse") / baseline_min("gate_warehouse_reference"),
        WAREHOUSE_TOLERANCE,
        gate_warehouse_measurements,
    );
}

/// Judges one (numerator, reference) ratio against its baseline.
///
/// A real regression is systematic: it shows up in every measurement
/// round. Host noise is not: it spikes one round and misses the next.
/// Up to three rounds run, and the best one is judged — a true slowdown
/// beyond the budget still fails all three.
fn gate_ratio(what: &str, baseline_ratio: f64, tolerance: f64, measure: fn() -> (u128, u128)) {
    let mut best_delta = f64::INFINITY;
    for round in 1..=3 {
        let (numerator, reference) = measure();
        let current_ratio = numerator as f64 / reference as f64;
        let delta = 100.0 * (current_ratio - baseline_ratio) / baseline_ratio;
        best_delta = best_delta.min(delta);
        let verdict = if delta > tolerance { "FAIL" } else { "ok" };
        eprintln!(
            "bench gate [{what}] round {round}: ratio {current_ratio:.3} vs baseline \
             {baseline_ratio:.3} ({delta:+.1}%, budget {tolerance}%) {verdict}",
        );
        if best_delta <= tolerance {
            break;
        }
    }
    assert!(
        best_delta <= tolerance,
        "{what} exceeds the {tolerance}% budget in every round; \
         if the regression is intended, regenerate the baseline with NT_BENCH_WRITE=1"
    );
}

/// Times the gate's two measurements, interleaved on one thread so both
/// sample the same host conditions, with enough iterations that the
/// minima converge to the host's floor. The gated number simulates one
/// machine straight into a local collection server — single-threaded
/// (no worker threads to pick up scheduler jitter) yet
/// crossing every dispatch/cache/vm/trace hot path the telemetry layer
/// instruments. The reference — populating a §5 content volume — has
/// the same allocation-heavy namespace-churn profile (so cache and
/// memory pressure move both and cancel in the ratio) but never touches
/// those hot paths, so an off-path regression moves only the numerator.
fn gate_measurements() -> (u128, u128) {
    let mut config = StudyConfig::smoke_test(13);
    config.duration = SimDuration::from_secs(120);
    let spec = config.machines[0].clone();
    // Per block: time machine construction (the reference — it never
    // crosses the instrumented dispatch path) and the simulate phase
    // that runs over it (the numerator — every span/sampler check sits
    // on it). Both walk the same volume, file table and allocator, so
    // ambient cache and memory-bandwidth pressure moves them together
    // and cancels in the ratio. The block ratios are reduced by median
    // below, which shrugs off the blocks a noisy neighbour landed on.
    let mut ratios = Vec::new();
    for block in 0..12 {
        // Symmetric floors: both sides take the minimum over the same
        // number of passes, so transient spikes can't bias the ratio
        // toward either workload.
        let mut reference_ns = u128::MAX;
        let mut study_ns = u128::MAX;
        for _round in 0..3 {
            let start = Instant::now();
            let mut run = MachineRun::build(&config, 0, &spec);
            reference_ns = reference_ns.min(start.elapsed().as_nanos());
            let mut server = CollectionServer::new();
            let start = Instant::now();
            run.simulate(&config, &mut server);
            std::hint::black_box(server.records_for(MachineId(0)).len());
            study_ns = study_ns.min(start.elapsed().as_nanos());
        }
        // The first blocks warm the allocator and caches; skip them.
        if block >= 2 {
            ratios.push((study_ns, reference_ns));
        }
    }
    ratios.sort_by(|a, b| (a.0 * b.1).cmp(&(b.0 * a.1)));
    ratios[ratios.len() / 2]
}

/// The smoke study on `shards` shard collectors and one worker thread.
fn smoke_study(config: &StudyConfig, shards: usize) -> usize {
    let options = ShardOptions {
        shards,
        workers: Some(1),
        ..ShardOptions::default()
    };
    Study::try_run_sharded(config, &options)
        .expect("smoke study runs")
        .data
        .total_records
}

/// Times the sharded-tree gate's two measurements, interleaved like
/// [`gate_measurements`]: a 4-shard smoke study (numerator) against the
/// one-shard study of the same driver (reference), both on one worker
/// thread so the only difference is the tree: four shards' tracer
/// handles, merge-boundary events and reports instead of one.
fn gate_sharded_measurements() -> (u128, u128) {
    let config = StudyConfig::smoke_test(13);
    let mut ratios = Vec::new();
    for block in 0..6 {
        let mut flat_ns = u128::MAX;
        let mut tree_ns = u128::MAX;
        for _round in 0..2 {
            let start = Instant::now();
            std::hint::black_box(smoke_study(&config, 1));
            flat_ns = flat_ns.min(start.elapsed().as_nanos());
            let start = Instant::now();
            std::hint::black_box(smoke_study(&config, 4));
            tree_ns = tree_ns.min(start.elapsed().as_nanos());
        }
        if block >= 1 {
            ratios.push((tree_ns, flat_ns));
        }
    }
    ratios.sort_by(|a, b| (a.0 * b.1).cmp(&(b.0 * a.1)));
    ratios[ratios.len() / 2]
}

/// Times the warehouse gate's two measurements, interleaved like the
/// others: serializing 100k records into an NTT segment (numerator)
/// against the validate-and-decode pass over those same bytes
/// (reference). Both are linear scans of the same ~9 MB — checksum,
/// fixed-width field moves — so ambient memory-bandwidth pressure moves
/// them together and cancels in the ratio; a regression specific to the
/// writer — interning, footer accounting, buffer growth — moves only
/// the numerator.
fn gate_warehouse_measurements() -> (u128, u128) {
    use nt_warehouse::Segment;
    let (records, names) = warehouse_stream_100k();
    let encoded = encode_warehouse_segment(&records, &names);
    let mut ratios = Vec::new();
    for block in 0..8 {
        let mut encode_ns = u128::MAX;
        let mut reference_ns = u128::MAX;
        for _round in 0..3 {
            let start = Instant::now();
            let seg = Segment::parse(encoded.clone()).expect("fresh segment is valid");
            let decoded: u64 = seg
                .reader()
                .records()
                .map(|v| v.to_record().expect("valid record").length)
                .sum();
            std::hint::black_box(decoded);
            reference_ns = reference_ns.min(start.elapsed().as_nanos());
            let start = Instant::now();
            std::hint::black_box(encode_warehouse_segment(&records, &names).len());
            encode_ns = encode_ns.min(start.elapsed().as_nanos());
        }
        if block >= 2 {
            ratios.push((encode_ns, reference_ns));
        }
    }
    ratios.sort_by(|a, b| (a.0 * b.1).cmp(&(b.0 * a.1)));
    ratios[ratios.len() / 2]
}

/// 100k records with one machine-run's kind mix: the smoke stream,
/// tiled forward in time so timestamps stay monotone across copies.
fn warehouse_stream_100k() -> (Vec<nt_trace::TraceRecord>, Vec<nt_trace::NameRecord>) {
    let (base, names) = one_machine_stream();
    let span = base.iter().map(|r| r.end_ticks).max().unwrap_or(0) + 1;
    let mut records = Vec::with_capacity(100_000);
    let mut shift = 0u64;
    'fill: loop {
        for r in &base {
            if records.len() == 100_000 {
                break 'fill;
            }
            let mut r = *r;
            r.start_ticks += shift;
            r.end_ticks += shift;
            records.push(r);
        }
        shift += span;
    }
    (records, names)
}

/// One full export: agent-sized batches, names, footer and checksum.
fn encode_warehouse_segment(
    records: &[nt_trace::TraceRecord],
    names: &[nt_trace::NameRecord],
) -> Vec<u8> {
    let mut w = nt_warehouse::SegmentWriter::new(0);
    for chunk in records.chunks(3_000) {
        w.push_batch(chunk).expect("bench batches fit u32");
    }
    for name in names {
        w.push_name(name).expect("bench paths fit u32");
    }
    w.finish()
}

/// One machine-run's worth of records and names.
fn one_machine_stream() -> (Vec<nt_trace::TraceRecord>, Vec<nt_trace::NameRecord>) {
    let mut config = StudyConfig::smoke_test(9);
    config.duration = SimDuration::from_secs(120);
    let mut run = MachineRun::build(&config, 0, &config.machines[0].clone());
    let mut server = CollectionServer::new();
    run.simulate(&config, &mut server);
    let records = server.records_for(MachineId(0));
    let names: Vec<_> = server
        .names_for(MachineId(0))
        .into_iter()
        .cloned()
        .collect();
    (records, names)
}

fn main() {
    let mut benches: Vec<Bench> = Vec::new();

    // Substrate: raw event dispatch, the floor under every simulated op.
    benches.push(Bench::new("engine_schedule_and_fire_10k", || {
        (10_000, || {
            let mut engine: Engine<u64> = Engine::new();
            for i in 0..10_000u64 {
                engine.schedule_at(SimTime::from_micros(i * 7 % 9_999), |w, _| *w += 1);
            }
            let mut fired = 0u64;
            engine.run(&mut fired);
            std::hint::black_box(fired);
        })
    }));

    // Substrate: range coalescing, the cache manager's hot structure.
    benches.push(Bench::new("range_set_insert_coalesce_1k", || {
        (1_000, || {
            let mut rs = RangeSet::new();
            for i in 0..1_000u64 {
                let s = (i * 37) % 100_000;
                rs.insert(s, s + 64);
            }
            std::hint::black_box(rs.covered_bytes());
        })
    }));

    // Driver-stack dispatch: 100k warm FastIO reads through a machine
    // whose driver stack is empty — the shape every production machine
    // has. The number is the per-op floor of dispatch; the NT_BENCH_GATE
    // ratio below proves the end-to-end simulate phase stays within
    // budget of its baseline.
    benches.push(Bench::new("machine_dispatch_warm_read_100k", || {
        (100_000, || {
            use nt_fs::{NtPath, VolumeConfig};
            use nt_io::{
                AccessMode, CreateOptions, DiskParams, Disposition, Machine, MachineConfig,
                NullObserver, ProcessId,
            };
            let mut m = Machine::new(MachineConfig::default(), NullObserver);
            let vol = m.add_local_volume(
                'C',
                VolumeConfig::local_ntfs(1 << 30),
                DiskParams::local_ide(),
            );
            let (reply, h) = m.create(
                ProcessId(1),
                vol,
                &NtPath::parse(r"\bench.dat"),
                AccessMode::ReadWrite,
                Disposition::OpenIf,
                CreateOptions::default(),
                SimTime::from_secs(1),
            );
            assert!(reply.status.is_success());
            let h = h.expect("open succeeded");
            let mut at = SimTime::from_secs(2);
            at = m.write(h, Some(0), 65_536, at).end;
            for _ in 0..100_000u32 {
                at = m.read(h, Some(0), 4_096, at).end;
            }
            std::hint::black_box(m.metrics().fastio_reads);
        })
    }));

    // Sketch ingestion: the per-record overhead the streaming sinks add.
    benches.push(Bench::new("histogram_sketch_record_100k", || {
        (100_000, || {
            let mut h = HistogramSketch::new();
            for i in 0..100_000u64 {
                h.record(((i * 2_654_435_761) % (1 << 24)) as f64);
            }
            std::hint::black_box(h.len());
        })
    }));

    // Head-to-head on identical input: one machine's stream through a
    // MachineSink (online aggregates) vs TraceSet::build (fact tables).
    benches.push(Bench::new("sink_ingest_one_machine", || {
        let (records, names) = one_machine_stream();
        (records.len() as u64, move || {
            let mut sink = MachineSink::new(0, &StreamConfig::default());
            for (seq, chunk) in records.chunks(3_000).enumerate() {
                sink.on_batch(Some(seq as u64), chunk.to_vec(), None);
            }
            for name in &names {
                sink.on_name(name.clone());
            }
            std::hint::black_box(sink.records());
        })
    }));
    benches.push(Bench::new("trace_set_build_one_machine", || {
        let (records, names) = one_machine_stream();
        (records.len() as u64, move || {
            std::hint::black_box(
                TraceSet::build(vec![(0, records.clone(), names.clone())])
                    .instances
                    .len(),
            );
        })
    }));

    // Warehouse encode: 100k records through the NTT segment writer —
    // interning, batch table, footer accounting, checksum, all of it.
    benches.push(Bench::new("warehouse_export_100k", || {
        let (records, names) = warehouse_stream_100k();
        (100_000, move || {
            std::hint::black_box(encode_warehouse_segment(&records, &names).len());
        })
    }));

    // End to end at smoke scale: the full study on one worker thread
    // and one shard, scheduler-jitter-free.
    let config = StudyConfig::smoke_test(13);
    {
        let config = config.clone();
        benches.push(Bench::new("smoke_study_serial", move || {
            let config = config.clone();
            (1, move || {
                std::hint::black_box(smoke_study(&config, 1));
            })
        }));
    }
    // The same study through the sharded collection tree — the whole
    // agent → shard → fleet reduction, auto-sized workers.
    {
        let config = config.clone();
        benches.push(Bench::new("sharded_study_smoke", move || {
            let config = config.clone();
            (1, move || {
                let options = ShardOptions {
                    shards: 4,
                    ..ShardOptions::default()
                };
                std::hint::black_box(
                    Study::try_run_sharded(&config, &options)
                        .expect("smoke study runs")
                        .data
                        .total_records,
                );
            })
        }));
    }

    // What-if matrix replay: a smoke-scale trace answered under a
    // 3-variant policy matrix (plus baseline) — stream extraction, the
    // (variant × machine) grid on the work-stealing pool, per-variant
    // conservation audit, and the differential tables. Every trace
    // record is replayed once per matrix row.
    {
        let config = config.clone();
        benches.push(Bench::new("whatif_matrix_smoke", move || {
            let trace = Study::run(&config).expect("study runs").trace_set;
            (trace.records.len() as u64 * 4, move || {
                use nt_io::DiskParams;
                let report = WhatIfStudy::new(ReplayConfig::default())
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
                    .run_trace_set(&trace)
                    .expect("smoke variants reconcile");
                std::hint::black_box(report.tables.len());
            })
        }));
    }

    let mut samples: Vec<Sample> = benches.iter().map(measure).collect();

    // Context the timings need: stream volume and the streaming memory
    // footprint at this scale.
    let streamed = Study::try_run_sharded(&config, &ShardOptions::default())
        .expect("smoke study runs")
        .data;
    let extras = [
        ("smoke_total_records", streamed.total_records as u128),
        ("smoke_stored_bytes", streamed.stored_bytes as u128),
        (
            "smoke_peak_state_bytes",
            streamed.summary.peak_state_bytes as u128,
        ),
    ];

    let baseline_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_streaming.json");
    if std::env::var("NT_BENCH_GATE").is_ok() {
        gate(baseline_path, &benches, &mut samples);
    }

    if std::env::var("NT_BENCH_WRITE").is_ok() {
        let (gate_study, gate_reference) = gate_measurements();
        let (gate_sharded, gate_sharded_reference) = gate_sharded_measurements();
        let (gate_warehouse, gate_warehouse_reference) = gate_warehouse_measurements();
        let path = baseline_path;
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"iterations\": {},\n", iterations()));
        for s in &samples {
            out.push_str(&format!(
                "  \"{}_ns_per_iter\": {},\n",
                s.name, s.ns_per_iter
            ));
            out.push_str(&format!("  \"{}_min_ns\": {},\n", s.name, s.min_ns));
            out.push_str(&format!("  \"{}_iters\": {},\n", s.name, s.iters));
            out.push_str(&format!("  \"{}_elements\": {},\n", s.name, s.elements));
        }
        out.push_str(&format!("  \"gate_smoke_serial_min_ns\": {gate_study},\n"));
        out.push_str(&format!("  \"gate_reference_min_ns\": {gate_reference},\n"));
        out.push_str(&format!("  \"gate_sharded_min_ns\": {gate_sharded},\n"));
        out.push_str(&format!(
            "  \"gate_sharded_reference_min_ns\": {gate_sharded_reference},\n"
        ));
        out.push_str(&format!("  \"gate_warehouse_min_ns\": {gate_warehouse},\n"));
        out.push_str(&format!(
            "  \"gate_warehouse_reference_min_ns\": {gate_warehouse_reference},\n"
        ));
        for (i, (k, v)) in extras.iter().enumerate() {
            let comma = if i + 1 == extras.len() { "" } else { "," };
            out.push_str(&format!("  \"{k}\": {v}{comma}\n"));
        }
        out.push_str("}\n");
        std::fs::write(path, out).expect("baseline written");
        eprintln!("bench streaming: wrote {path}");
    }
}
