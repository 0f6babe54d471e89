//! Scale-up invariants of the sharded collection tree.
//!
//! Two locks on the study driver, `Study::try_run_sharded`:
//!
//! 1. **Memory**: the flat pipeline's documented ceiling — 64 MiB of
//!    live analysis state per 45-machine fleet — becomes a *per-shard*
//!    budget proportional to the shard's machine count. A
//!    1,000-machine / 8-shard run must hold every shard under its
//!    budget, because the whole point of the tree is that analysis
//!    state scales with shard width, not fleet width.
//! 2. **Bit-identity**: shard count and worker count are performance
//!    knobs, nothing more. On the faulted 45-machine fleet, the fact
//!    tables, name tables and loss ledgers must be byte-identical
//!    across shard counts 1/4/8 and worker counts 1/N, telemetry on or
//!    off — and the merged summary must satisfy `==`, which is exact
//!    (integer and fixed-point state only), its peak watermarks
//!    included.

use nt_study::{sharded_ledgers, ShardOptions, Study, StudyConfig};

/// The flat pipeline's documented analysis-state ceiling for the
/// paper's 45-machine deployment (see `tests/determinism.rs` and
/// EXPERIMENTS.md).
const PER_45_MACHINES_CEILING_BYTES: usize = 64 << 20;

/// The ceiling scaled to one shard's machine count.
fn shard_budget_bytes(machines: usize) -> usize {
    (PER_45_MACHINES_CEILING_BYTES * machines).div_ceil(45)
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("nt-shard-scale-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

#[test]
fn thousand_machine_sharded_run_holds_every_shard_under_budget() {
    // 1,000 machines in the paper's category proportions, 8 shards,
    // spill runs on disk — the org-scale shape from the ROADMAP. The
    // driver's audit doubles as the conservation check: every machine,
    // every shard and the fleet root must balance at width 1,000 exactly
    // as they do at width 45.
    let config = StudyConfig::org_scale(31, 1_000);
    let spill_dir = temp_dir("spill");
    let data = Study::try_run_sharded(
        &config,
        &ShardOptions {
            shards: 8,
            spill_dir: Some(spill_dir.clone()),
            ..ShardOptions::default()
        },
    )
    .expect("audited sharded run balances");
    let _ = std::fs::remove_dir_all(&spill_dir);
    assert_eq!(data.data.machines.len(), 1_000);
    assert_eq!(data.shards.len(), 8);
    let (ledgers, shard_ledgers, _) = sharded_ledgers(&data);
    assert_eq!(ledgers.len(), 1_000);
    assert_eq!(shard_ledgers.len(), 8);
    assert!(
        data.data.summary.records > 100_000,
        "org-scale head-count, got {}",
        data.data.summary.records
    );
    assert!(data.data.trace_set.is_none(), "nothing materialized");
    for shard in &data.shards {
        let budget = shard_budget_bytes(shard.machines.len());
        assert_eq!(shard.machines.len(), 125, "near-even split");
        assert!(shard.total_records > 0, "shard {} was idle", shard.shard);
        assert!(
            shard.peak_state_bytes < budget,
            "shard {} peak analysis state {} exceeds its {} byte budget",
            shard.shard,
            shard.peak_state_bytes,
            budget
        );
    }
    // The shard partials partition the fleet exactly.
    let analysed: u64 = data.shards.iter().map(|s| s.records).sum();
    assert_eq!(analysed, data.data.summary.records);
    let shipped: usize = data.shards.iter().map(|s| s.total_records).sum();
    assert_eq!(shipped, data.data.total_records);
}

/// FNV-1a over a `Debug` rendering (same digest the determinism suite
/// uses to lock fact tables without checking them in).
fn fnv1a(digest: &mut u64, text: &str) {
    for b in text.bytes() {
        *digest ^= u64::from(b);
        *digest = digest.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Digests of everything the scale-up must not move: the record table,
/// the open/close instance table, the name table, and every machine's
/// loss ledger.
fn digest_tables(data: &nt_study::StreamedStudyData) -> [u64; 4] {
    let seed = 0xcbf2_9ce4_8422_2325u64;
    let ts = data.trace_set.as_ref().expect("retain keeps the tables");
    let mut records = seed;
    for (m, r) in ts.records.iter() {
        fnv1a(&mut records, &format!("{m}:{r:?}"));
    }
    let mut instances = seed;
    for inst in &ts.instances {
        fnv1a(&mut instances, &format!("{inst:?}"));
    }
    let mut names = seed;
    let mut sorted: Vec<_> = ts.names.iter().collect();
    sorted.sort();
    for ((m, fo), path) in sorted {
        fnv1a(&mut names, &format!("{m}:{fo}:{path}"));
    }
    let mut ledgers = seed;
    for m in &data.machines {
        fnv1a(&mut ledgers, &format!("{:?}:{:?}", m.id, m.loss));
    }
    [records, instances, names, ledgers]
}

/// The faulted 45-machine fleet the digests run on: the full paper
/// roster with the lossy fault plan active, shortened to keep six runs
/// affordable.
fn faulted_fleet(telemetry_on: bool) -> StudyConfig {
    let mut config = StudyConfig::paper_scale(2_020);
    config.duration = nt_sim::SimDuration::from_secs(300);
    config.snapshot_interval = nt_sim::SimDuration::from_secs(150);
    config.files_per_volume = 600;
    config.web_cache_files = 80;
    config.faults = nt_study::FaultPlan::lossy();
    if telemetry_on {
        config.telemetry = nt_study::TelemetryConfig::On(nt_study::TelemetryOptions {
            sample_interval: nt_sim::SimDuration::from_secs(30),
            ..nt_study::TelemetryOptions::default()
        });
    }
    config
}

/// One retained run of the faulted fleet.
fn run(telemetry_on: bool, shards: usize, workers: Option<usize>) -> nt_study::ShardedStudyData {
    Study::try_run_sharded(
        &faulted_fleet(telemetry_on),
        &ShardOptions {
            shards,
            workers,
            retain: true,
            ..ShardOptions::default()
        },
    )
    .expect("faulted fleet runs")
}

#[test]
fn digests_are_bit_identical_across_shard_and_worker_counts() {
    // The reference is the flat topology: one shard, default workers.
    let mut flat = run(false, 1, None).data;
    let reference = digest_tables(&flat);
    assert!(flat.total_lost() > 0, "the lossy plan should drop records");
    let want = std::mem::take(&mut flat.summary);

    // (shards, workers, telemetry) — every axis the issue names.
    let variants: &[(usize, Option<usize>, bool)] = &[
        (1, Some(1), false),
        (4, Some(1), false),
        (4, None, false),
        (8, None, false),
        (8, None, true),
    ];
    for &(shards, workers, telemetry_on) in variants {
        let mut sharded = run(telemetry_on, shards, workers);
        let label = format!("shards={shards} workers={workers:?} telemetry={telemetry_on}");
        assert_eq!(sharded.shards.len(), shards, "{label}");
        assert_eq!(
            digest_tables(&sharded.data),
            reference,
            "{label}: fact tables, name table or loss ledgers diverged"
        );
        assert_eq!(
            sharded.data.total_records, flat.total_records,
            "{label}: pool head-count"
        );
        assert_eq!(
            sharded.data.stored_bytes, flat.stored_bytes,
            "{label}: stored bytes"
        );
        // Exact summary equality — the hierarchical merge is integer
        // and fixed-point state only, and every machine's batches reach
        // its sink in stamp order, so `==` holds for the whole summary.
        let got = std::mem::take(&mut sharded.data.summary);
        assert_eq!(got, want, "{label}: merged summary");
    }
}
