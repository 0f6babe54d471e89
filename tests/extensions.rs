//! Integration tests for the systems beyond the core reproduction:
//! sharing/locking, the MDL path, the collector pool, the OLAP cube, the
//! replay engine and the synthetic-benchmark loop.

use nt_analysis::{dimensions, processes, profile};
use nt_cache::CacheConfig;
use nt_io::{EventKind, FastIoKind};
use nt_study::{ReplayConfig, Study, StudyConfig, StudyData, SyntheticBench, WhatIfStudy};
use std::sync::OnceLock;

fn data() -> &'static StudyData {
    static DATA: OnceLock<StudyData> = OnceLock::new();
    DATA.get_or_init(|| Study::run(&StudyConfig::smoke_test(404)).expect("study runs"))
}

#[test]
fn lock_traffic_appears_in_traces() {
    // The administrative machines run database engines that take
    // byte-range locks; the FastIO lock calls must reach the trace.
    let locks = data()
        .trace_set
        .records
        .iter()
        .filter(|(_, r)| {
            matches!(
                r.kind(),
                EventKind::FastIo(FastIoKind::Lock)
                    | EventKind::FastIo(FastIoKind::UnlockSingle)
                    | EventKind::FastIo(FastIoKind::UnlockAll)
            )
        })
        .count();
    assert!(locks > 0, "lock operations recorded");
    let granted: u64 = data().machines.iter().map(|m| m.io.locks_granted).sum();
    assert!(granted > 0);
}

#[test]
fn cifs_server_mdl_traffic_appears() {
    // §3.4 noise: the system process serves remote clients via MDL reads.
    let mdl = data()
        .trace_set
        .records
        .iter()
        .filter(|(_, r)| r.kind() == EventKind::FastIo(FastIoKind::MdlRead))
        .count();
    assert!(mdl > 0, "MDL reads recorded");
    // All MDL traffic comes from the system process (id 0).
    for (_, r) in data()
        .trace_set
        .records
        .iter()
        .filter(|(_, r)| r.kind() == EventKind::FastIo(FastIoKind::MdlRead))
    {
        assert_eq!(r.process, 0, "only the kernel service uses MDL (§10)");
    }
}

#[test]
fn cube_conserves_and_drills() {
    let cube = dimensions::type_cube(&data().trace_set);
    assert!(cube.consistent());
    // The transient-files category exists (scratch + web cache churn).
    let transient = cube.drill_down(dimensions::TopCategory::TransientFiles);
    assert!(!transient.is_empty());
}

#[test]
fn process_analysis_finds_system_noise() {
    let a = processes::process_analysis(&data().trace_set);
    // The system process (0) appears on machines that served remotes.
    let system_machines = a.per_process.keys().filter(|(_, p)| *p == 0).count();
    assert!(system_machines > 0, "§3.4 server sessions traced");
    assert!(a.top_decile_share > 0.05);
}

#[test]
fn replay_policy_ordering_is_sane() {
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
        .run_trace_set(&data().trace_set)
        .expect("every variant reconciles");
    let baseline = &report.baseline.total;
    let (no_ra, irp_only) = (&report.variants[0].total, &report.variants[1].total);
    assert!(baseline.hit_rate() > no_ra.hit_rate(), "read-ahead helps");
    assert_eq!(irp_only.fastio_reads, 0);
    assert_eq!(
        baseline.replayed_requests, irp_only.replayed_requests,
        "the same trace is replayed under every policy"
    );
}

#[test]
fn fit_generate_refit_preserves_tail_weight() {
    // The §7 loop: fit a profile, generate synthetic load, and verify the
    // generated arrivals are still bursty (dispersion ≫ 1).
    let p = profile::fit_profile(&data().trace_set).expect("fit succeeds");
    let mut bench = SyntheticBench::new(p, nt_io::MachineConfig::default(), 300, 77);
    bench.run(nt_sim::SimDuration::from_secs(600));
    let binned = nt_analysis::burstiness::bin_arrivals(&bench.open_ticks, 10);
    assert!(
        binned.dispersion() > 1.5,
        "synthetic load keeps its burstiness: {}",
        binned.dispersion()
    );
}

#[test]
fn agent_outages_thin_the_trace_but_nothing_breaks() {
    // §3 failure injection: agents suspend during connection losses; the
    // analysis pipeline must tolerate the resulting gaps.
    let mut flaky = StudyConfig::smoke_test(404);
    flaky.faults.agent_outage_mean = Some(nt_sim::SimDuration::from_secs(45));
    let lossy = Study::run(&flaky).expect("study runs");
    // The machine-side counters see every open; the filter misses the
    // ones issued while suspended.
    let machine_opens: u64 = lossy
        .machines
        .iter()
        .map(|m| m.io.opens + m.io.open_failures)
        .sum();
    let traced_opens = lossy.trace_set.creates().count() as u64;
    assert!(
        traced_opens < machine_opens,
        "outages lose create records: traced {traced_opens} vs issued {machine_opens}"
    );
    assert!(
        traced_opens > machine_opens / 10,
        "but most of the trace survives"
    );
    // The clean run records everything.
    let clean = data();
    let clean_machine_opens: u64 = clean
        .machines
        .iter()
        .map(|m| m.io.opens + m.io.open_failures)
        .sum();
    assert_eq!(
        clean.trace_set.creates().count() as u64,
        clean_machine_opens,
        "without outages the filter misses nothing"
    );
    // The fact tables and every analysis still build.
    assert!(!lossy.trace_set.instances.is_empty());
    let o = nt_analysis::ops::operational_stats(&lossy.trace_set);
    assert!(o.opens_ok > 0);
    let t = nt_analysis::patterns::access_patterns(&lossy.trace_set);
    let total = t.read_only.share_accesses.mean
        + t.write_only.share_accesses.mean
        + t.read_write.share_accesses.mean;
    assert!((total - 100.0).abs() < 1e-6 || total == 0.0);
}

#[test]
fn fat_volumes_appear_in_snapshots() {
    // A quarter of non-scientific machines run FAT: their snapshots have
    // files without creation/last-access times.
    let mut fat_machines = 0;
    for m in &data().machines {
        let has_fat_files = m
            .snapshots
            .iter()
            .any(|s| s.records.iter().any(|r| !r.is_dir && r.creation.is_none()));
        if has_fat_files {
            fat_machines += 1;
        }
    }
    // With 5 machines at 25% each this can be 0 by chance for some seeds;
    // seed 404 was chosen so at least one FAT volume exists.
    assert!(
        fat_machines >= 1,
        "at least one FAT machine in the smoke fleet"
    );
}
