//! Determinism and regression guarantees of the collection pipeline.
//!
//! The study's value rests on reproducibility: the same seed must yield
//! the same trace bit-for-bit, no matter how many worker threads carried
//! the machines, and the fault-injection layer must be invisible when its
//! plan is empty. These tests pin all three properties.

use std::collections::HashMap;

use nt_study::{MachineRun, ShardOptions, StreamOptions, Study, StudyConfig};
use nt_trace::{CollectionServer, MachineId};

fn per_machine_counts(data: &nt_study::StudyData) -> HashMap<u32, usize> {
    let mut counts: HashMap<u32, usize> = HashMap::new();
    for (m, _) in data.trace_set.records.iter() {
        *counts.entry(m).or_default() += 1;
    }
    counts
}

#[test]
fn same_seed_same_study() {
    let config = StudyConfig::smoke_test(21);
    let a = Study::run(&config).expect("study runs");
    let b = Study::run(&config).expect("study runs");
    assert_eq!(a.total_records, b.total_records, "record head-count");
    assert_eq!(a.stored_bytes, b.stored_bytes, "compressed footprint");
    assert_eq!(
        per_machine_counts(&a),
        per_machine_counts(&b),
        "per-machine record counts"
    );
    assert_eq!(
        a.trace_set.records, b.trace_set.records,
        "the full record streams are identical"
    );
    // And a different seed actually changes the trace.
    let mut other = config.clone();
    other.seed = 22;
    let c = Study::run(&other).expect("study runs");
    assert_ne!(a.trace_set.records, c.trace_set.records);
}

#[test]
fn parallel_study_equals_serial_study() {
    let config = StudyConfig::smoke_test(33);
    let parallel = Study::run(&config).expect("study runs");
    let serial = Study::try_run_sharded(
        &config,
        &ShardOptions {
            workers: Some(1),
            retain: true,
            ..ShardOptions::default()
        },
    )
    .expect("study runs")
    .data;
    let serial_tables = serial.trace_set.as_ref().expect("retain keeps the tables");
    assert_eq!(parallel.total_records, serial.total_records);
    assert_eq!(parallel.stored_bytes, serial.stored_bytes);
    assert_eq!(parallel.trace_set.records, serial_tables.records);
    assert_eq!(
        parallel.trace_set.instances.len(),
        serial_tables.instances.len()
    );
    for (p, s) in parallel.machines.iter().zip(serial.machines.iter()) {
        assert_eq!(p.id, s.id);
        assert_eq!(p.loss, s.loss, "ledgers agree machine by machine");
    }
}

#[test]
fn zero_fault_plan_is_byte_identical_to_the_direct_pipeline() {
    // The fault layer must be a no-op when the plan is empty: running the
    // study through the fault-aware handles produces byte-for-byte the same
    // compressed batches as shipping each machine straight into a local
    // collection server, the pre-fault pipeline shape.
    let config = StudyConfig::smoke_test(55);
    assert!(config.faults.is_none(), "smoke preset carries no faults");
    let study = Study::run(&config).expect("study runs");

    let mut direct = CollectionServer::new();
    for (index, spec) in config.machines.iter().enumerate() {
        let mut run = MachineRun::build(&config, index, spec);
        let mut server = CollectionServer::new();
        run.simulate(&config, &mut server);
        let ledger = run.loss_ledger();
        assert!(ledger.reconciles());
        assert_eq!(ledger.lost(), 0, "clean runs lose nothing");
        direct.merge(server);
    }
    assert_eq!(study.total_records, direct.total_records());
    assert_eq!(
        study.stored_bytes,
        direct.stored_bytes(),
        "identical batch boundaries compress to identical bytes"
    );
    for index in 0..config.machines.len() {
        let id = MachineId(index as u32);
        let direct_records = direct.records_for(id);
        let study_records: Vec<_> = study
            .trace_set
            .records
            .iter()
            .filter(|(m, _)| *m == id.0)
            .map(|(_, r)| r)
            .collect();
        let mut sorted = direct_records.clone();
        sorted.sort_by_key(|r| (r.start_ticks, r.file_object));
        assert_eq!(
            study_records.len(),
            sorted.len(),
            "machine {index} record counts"
        );
        assert_eq!(study_records, sorted, "machine {index} record streams");
    }
}

#[test]
fn streaming_study_is_deterministic() {
    let config = StudyConfig::smoke_test(34);
    let run = || {
        Study::try_run_sharded(&config, &ShardOptions::default())
            .expect("study runs")
            .data
    };
    let (a, b) = (run(), run());
    assert_eq!(a.total_records, b.total_records);
    assert_eq!(a.stored_bytes, b.stored_bytes);
    assert_eq!(a.summary.records, b.summary.records);
    assert_eq!(a.summary.names, b.summary.names);
    assert_eq!(a.summary.ops.opens_ok, b.summary.ops.opens_ok);
    assert_eq!(a.summary.ops.opens_failed, b.summary.ops.opens_failed);
    assert_eq!(a.summary.sessions.all.len(), b.summary.sessions.all.len());
    assert_eq!(a.summary.arrivals.all.len(), b.summary.arrivals.all.len());
    assert_eq!(a.summary.size_tail_alpha, b.summary.size_tail_alpha);
    assert_eq!(a.summary.duration_tail_alpha, b.summary.duration_tail_alpha);
    assert_eq!(a.summary.peak_open_sessions, b.summary.peak_open_sessions);
    assert_eq!(a.summary.peak_state_bytes, b.summary.peak_state_bytes);
}

#[test]
fn multi_day_faulted_fleet_run_balances_every_ledger() {
    // The full 45-machine fleet over two simulated days with the lossy
    // fault plan active — agent suspensions, shipping refusals and
    // network partitions all firing. Fault windows may only remove
    // records, and only into the explicit loss buckets: the driver
    // reconciles every machine, shard and fleet ledger before it
    // returns, so an `Ok` here is the books closing at scale.
    //
    // This run is ~10 M surviving records; it needs the lazy-writer
    // worklist in `nt-cache` (the per-second scan used to walk every
    // cache map, which made multi-day simulations quadratic in traced
    // time and this test infeasible).
    let mut config = StudyConfig::evaluation(91);
    config.duration = nt_sim::SimDuration::from_secs(2 * 86_400);
    config.snapshot_interval = nt_sim::SimDuration::from_secs(86_400);
    config.files_per_volume = 100;
    config.web_cache_files = 20;
    config.faults = nt_study::FaultPlan::lossy();
    assert_eq!(config.machines.len(), 45, "paper fleet");

    let run = Study::try_run_sharded(&config, &ShardOptions::default())
        .unwrap_or_else(|fault| panic!("{fault}"));
    let data = &run.data;
    assert!(
        data.total_lost() > 0,
        "the lossy plan should have dropped records"
    );
    assert!(
        data.total_records > 1_000_000,
        "multi-day scale, got {} records",
        data.total_records
    );
    let delivered: u64 = data.machines.iter().map(|m| m.loss.delivered).sum();
    assert_eq!(delivered, data.total_records as u64, "head-count");
    assert_eq!(
        data.summary.records, data.total_records as u64,
        "every shipped record was analysed"
    );
}

/// FNV-1a over a `Debug` rendering: a stable, dependency-free digest for
/// locking large fact tables against refactors without checking the
/// tables themselves in.
fn fnv1a(digest: &mut u64, text: &str) {
    for b in text.bytes() {
        *digest ^= u64::from(b);
        *digest = digest.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Digest of a trace set's three tables: records, instances, names.
fn digest_trace_set(set: &nt_analysis::TraceSet) -> [u64; 3] {
    let seed = 0xcbf2_9ce4_8422_2325u64;
    let mut records = seed;
    for (m, r) in set.records.iter() {
        fnv1a(&mut records, &format!("{m}:{r:?}"));
    }
    let mut instances = seed;
    for inst in &set.instances {
        fnv1a(&mut instances, &format!("{inst:?}"));
    }
    let mut names = seed;
    let mut sorted: Vec<_> = set.names.iter().collect();
    sorted.sort();
    for ((m, fo), path) in sorted {
        fnv1a(&mut names, &format!("{m}:{fo}:{path}"));
    }
    [records, instances, names]
}

fn digest_study(data: &nt_study::StudyData) -> [u64; 5] {
    let seed = 0xcbf2_9ce4_8422_2325u64;
    let [records, instances, names] = digest_trace_set(&data.trace_set);
    let mut ledgers = seed;
    let mut counters = seed;
    for m in &data.machines {
        fnv1a(&mut ledgers, &format!("{:?}:{:?}", m.id, m.loss));
        fnv1a(
            &mut counters,
            &format!(
                "{:?}:{:?}:{:?}:{:?}:{}",
                m.id, m.io, m.cache, m.vm, m.residual_dirty_bytes
            ),
        );
    }
    [records, instances, names, ledgers, counters]
}

/// The faulted 45-machine fleet used by the refactor lock below.
fn locked_fleet() -> StudyConfig {
    let mut config = StudyConfig::paper_scale(4_242);
    config.duration = nt_sim::SimDuration::from_secs(600);
    config.snapshot_interval = nt_sim::SimDuration::from_secs(300);
    config.files_per_volume = 1_200;
    config.web_cache_files = 150;
    config.faults = nt_study::FaultPlan::lossy();
    config
}

/// Golden digests of the locked fleet's fact tables, name table, loss
/// ledgers and per-machine counters (the inputs of every conservation
/// account), captured on `main` before the driver-stack refactor landed.
/// A change here means the simulated trace itself changed — which the
/// refactor, and any future stack work, must not do.
const LOCKED_FLEET_DIGESTS: [u64; 5] = [
    0x751949feb61e3785,
    0x4c7494fcd271444b,
    0x76f9a98f439129cd,
    0xe5dc45272e52c2fa,
    0x5fc4a9729afaeef1,
];

#[test]
fn driver_stack_keeps_the_faulted_fleet_bit_identical() {
    // Telemetry off and on must both reproduce the recorded digests:
    // the stack refactor (and the span filter it hangs telemetry on)
    // may not move a single byte of the study's output.
    let silent = Study::run(&locked_fleet()).expect("study runs");
    assert_eq!(
        digest_study(&silent),
        LOCKED_FLEET_DIGESTS,
        "telemetry-off fleet diverged from the pre-refactor tables"
    );

    let dir = std::env::temp_dir().join(format!("nt-determinism-lock-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut watched_config = locked_fleet();
    watched_config.telemetry = nt_study::TelemetryConfig::On(nt_study::TelemetryOptions {
        dir: Some(dir.clone()),
        ..nt_study::TelemetryOptions::default()
    });
    let watched = Study::run(&watched_config).expect("study runs");
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(
        digest_study(&watched),
        LOCKED_FLEET_DIGESTS,
        "telemetry-on fleet diverged from the pre-refactor tables"
    );
}

#[test]
fn warehouse_reimport_of_the_faulted_fleet_is_bit_identical_to_live_ingest() {
    // The 45-machine faulted fleet, exported to an NTT warehouse while
    // it streams, then re-ingested from disk in parallel, one task and
    // one fresh streaming sink per segment, merged in machine order.
    // Everything analytical must be bit-identical to the live run: the
    // retained fact tables digest-for-digest, the streaming summary
    // field-for-field (peak watermarks included: the live run delivers
    // each machine's batches in stamp order, the re-ingest in stored
    // order, and the two orders are one), and the directly-follows
    // graph over per-file event sequences at similarity exactly 1.0 —
    // not approximately: any dropped, duplicated or reordered record
    // moves the score strictly below one.
    let config = locked_fleet();
    let dir = std::env::temp_dir().join(format!("nt-determinism-warehouse-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut live = Study::try_run_sharded(
        &config,
        &ShardOptions {
            retain: true,
            warehouse: Some(dir.clone()),
            ..ShardOptions::default()
        },
    )
    .expect("study runs")
    .data;
    assert!(live.total_lost() > 0, "the lossy plan should have fired");
    let stats = live.warehouse.take().expect("export stats present");
    assert_eq!(stats.len(), 45, "one segment per machine");
    assert_eq!(
        stats.iter().map(|s| s.records).sum::<u64>(),
        live.summary.records,
        "the warehouse holds exactly what the analysis saw"
    );

    let mut ingest = Study::ingest_warehouse(
        &dir,
        &StreamOptions {
            retain: true,
            ..StreamOptions::default()
        },
    )
    .expect("the exported warehouse re-ingests");
    let _ = std::fs::remove_dir_all(&dir);

    let live_set = live.trace_set.take().expect("retained");
    let ingest_set = ingest.trace_set.take().expect("retained");
    assert_eq!(
        digest_trace_set(&live_set),
        digest_trace_set(&ingest_set),
        "fact-table/name-table digests diverge between live and reimported ingest"
    );

    assert!(
        live.summary == ingest.summary,
        "streaming summaries diverge"
    );

    let live_dfg = nt_analysis::dfg::Dfg::of_trace_set(&live_set);
    let reimported_dfg = nt_analysis::dfg::Dfg::of_trace_set(&ingest_set);
    assert!(live_dfg.events > 50_000, "got {} events", live_dfg.events);
    assert_eq!(
        live_dfg.similarity(&reimported_dfg),
        1.0,
        "DFG similarity between live and reimported runs must be exactly 1.0"
    );
}

/// The documented memory ceiling for the streaming analysis state at the
/// paper's 45-machine deployment shape (see EXPERIMENTS.md). The ceiling
/// covers the per-machine sinks — open-session builders, CDF sketches
/// and spill buffers — not the simulators themselves, which exist in
/// either pipeline.
const STREAMING_STATE_CEILING_BYTES: usize = 64 << 20;

#[test]
fn paper_shaped_streaming_run_stays_under_the_memory_ceiling() {
    // The full 45-machine fleet at a shortened tracing period. Without
    // `retain`, no record stream is ever materialized: the analysis state
    // must stay bounded no matter how long the trace runs, and the spill
    // runs keep the tail analyses exact on disk.
    let mut config = StudyConfig::evaluation(7);
    config.duration = nt_sim::SimDuration::from_secs(600);
    config.snapshot_interval = nt_sim::SimDuration::from_secs(300);
    config.files_per_volume = 1_000;
    config.web_cache_files = 100;
    let spill_dir =
        std::env::temp_dir().join(format!("nt-determinism-spill-{}", std::process::id()));
    let data = Study::try_run_sharded(
        &config,
        &ShardOptions {
            retain: false,
            spill_dir: Some(spill_dir.clone()),
            ..ShardOptions::default()
        },
    )
    .expect("study runs")
    .data;
    let _ = std::fs::remove_dir_all(&spill_dir);
    assert_eq!(data.machines.len(), 45);
    assert!(data.trace_set.is_none(), "nothing materialized");
    assert!(
        data.summary.records > 10_000,
        "got {} records",
        data.summary.records
    );
    assert!(
        data.summary.peak_state_bytes < STREAMING_STATE_CEILING_BYTES,
        "peak streaming state {} exceeds the {} MiB ceiling",
        data.summary.peak_state_bytes,
        STREAMING_STATE_CEILING_BYTES >> 20
    );
}

/// One pass of a watch-heavy, deferred-close-heavy scenario on a bare
/// machine, returning the observer's record streams as rendered lines.
fn watched_machine_run() -> (Vec<String>, Vec<String>) {
    use nt_fs::{NtPath, VolumeConfig};
    use nt_io::{
        AccessMode, CreateOptions, DiskParams, Disposition, Machine, MachineConfig, ProcessId,
        VecObserver,
    };
    use nt_sim::{SimDuration, SimTime};

    let mut m = Machine::new(MachineConfig::default(), VecObserver::default());
    let vol = m.add_local_volume(
        'C',
        VolumeConfig::local_ntfs(1 << 30),
        DiskParams::local_ide(),
    );
    let p = ProcessId(7);
    let dir_opts = CreateOptions {
        directory: true,
        ..CreateOptions::default()
    };
    let mut at = SimTime::from_secs(1);

    // Arm change-notification watches on several directories at once.
    for d in 0..4 {
        let (reply, h) = m.create(
            p,
            vol,
            &NtPath::parse(&format!(r"\watched-{d}")),
            AccessMode::ReadWrite,
            Disposition::OpenIf,
            dir_opts,
            at,
        );
        assert!(reply.status.is_success());
        at = m.watch_directory(h.expect("dir opened"), at).end;
    }

    // Dirty several files per watched directory (each create fires that
    // directory's pending notification), then close them all while the
    // lazy writer still holds their data — a pile of deferred closes.
    let mut files = Vec::new();
    for d in 0..4 {
        for f in 0..3 {
            let path = format!(r"\watched-{d}\f{f}.dat");
            let (reply, h) = m.create(
                p,
                vol,
                &NtPath::parse(&path),
                AccessMode::ReadWrite,
                Disposition::OpenIf,
                CreateOptions::default(),
                at,
            );
            assert!(reply.status.is_success());
            let h = h.expect("file opened");
            at = m.write(h, Some(0), 48 * 1024, at).end;
            files.push((h, path));
        }
    }
    for (h, _) in &files {
        at = m.close(*h, at).end;
    }

    // Truncating reopens purge the cache map and release the deferred
    // closes queued behind the lazy writer; interleave with background
    // pumping so pending completions drain between requests.
    for (_, path) in &files {
        let (reply, h) = m.create(
            p,
            vol,
            &NtPath::parse(path),
            AccessMode::ReadWrite,
            Disposition::OverwriteIf,
            CreateOptions::default(),
            at,
        );
        assert!(reply.status.is_success());
        at = m.close(h.expect("reopened"), at).end;
        m.pump(at);
    }
    m.pump(at + SimDuration::from_secs(600));

    let events = m
        .observer()
        .events
        .iter()
        .map(|e| format!("{e:?}"))
        .collect();
    let objects = m
        .observer()
        .objects
        .iter()
        .map(|o| format!("{o:?}"))
        .collect();
    (events, objects)
}

#[test]
fn machine_record_stream_is_identical_across_runs_in_one_process() {
    // Two full machines in the same process: any per-instance hash-map
    // RandomState deciding watch, deferred-close or pending-completion
    // order would make the second stream diverge from the first. The
    // kernel maps are BTreeMaps and the pending queue is an arena-backed
    // binary heap precisely so this holds.
    let (events_a, objects_a) = watched_machine_run();
    let (events_b, objects_b) = watched_machine_run();
    assert!(!events_a.is_empty());
    assert_eq!(events_a, events_b, "event streams identical run-to-run");
    assert_eq!(objects_a, objects_b, "name records identical run-to-run");
}
