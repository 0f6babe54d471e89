//! The downstream-user workflow the paper's introduction promises: use
//! the collected traces as input for file-system simulation studies and
//! as configuration for realistic benchmarks.
//!
//! 1. Run a study and collect a trace.
//! 2. Answer a what-if matrix over it: a baseline policy plus named
//!    variants (§9 ablations and a disk latency-model axis), replayed in
//!    parallel, audited, and differenced against the baseline.
//! 3. Fit a workload profile and run a profile-driven synthetic bench.
//!
//! ```text
//! cargo run --release --example policy_replay
//! ```

use nt_analysis::profile::fit_profile;
use nt_cache::CacheConfig;
use nt_io::{DiskParams, MachineConfig};
use nt_sim::SimDuration;
use nt_study::{ReplayConfig, Study, StudyConfig, SyntheticBench, WhatIfStudy};

fn main() {
    // 1. Collect a trace.
    eprintln!("collecting a trace (5 machines, 5 simulated minutes) ...");
    let data = Study::run(&StudyConfig::smoke_test(7)).expect("study runs");
    println!(
        "trace: {} records, {} open sessions\n",
        data.total_records,
        data.trace_set.instances.len()
    );

    // 2. The what-if matrix: every variant replayed over every machine
    // on the work-stealing pool, reconciled by the conservation ledger,
    // and differenced against the baseline.
    println!("what-if study: 5 policy variants vs the NT-defaults baseline");
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
            "lazy-writer-8s",
            ReplayConfig {
                cache: CacheConfig {
                    lazy_write_interval: SimDuration::from_secs(8),
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
            "tiny-cache-256k",
            ReplayConfig {
                cache_budget_bytes: 256 << 10,
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
        .run_trace_set(&data.trace_set)
        .expect("every variant reconciles");

    println!("\n{}", report.render_summary());

    // The per-machine differential fact tables behind the summary.
    println!("per-machine read-hit movement (variant − baseline):");
    for table in &report.tables {
        let moved: Vec<String> = table
            .rows
            .iter()
            .filter(|r| r.read_hits != 0)
            .map(|r| format!("m{}:{:+}", r.machine, r.read_hits))
            .collect();
        println!(
            "  {:<16} {}",
            table.variant,
            if moved.is_empty() {
                "(no movement)".to_string()
            } else {
                moved.join(" ")
            }
        );
    }
    println!(
        "\ndisk busy time: baseline {} ms vs ssd-class {} ms",
        report.baseline.total.disk_busy_ticks / 10_000,
        report
            .variants
            .iter()
            .find(|v| v.name == "ssd-class-disk")
            .map(|v| v.total.disk_busy_ticks / 10_000)
            .unwrap_or(0)
    );

    // 3. Fit a profile and drive a synthetic bench from it.
    println!("\nfitting a workload profile from the trace:");
    let profile = fit_profile(&data.trace_set).expect("trace large enough to fit");
    println!(
        "  control fraction {:.0}%, open failures {:.0}%, classes RO/WO/RW {:.0}/{:.0}/{:.0}%",
        100.0 * profile.control_fraction,
        100.0 * profile.open_failure_fraction,
        100.0 * profile.class_shares.0,
        100.0 * profile.class_shares.1,
        100.0 * profile.class_shares.2,
    );
    println!(
        "  read-size median {:.0} B, file-size p90 {:.0} KB, inter-arrival alpha {:.2}",
        profile.read_sizes.median(),
        profile.file_sizes.quantile(0.9) / 1024.0,
        profile.interarrival_alpha
    );
    println!("\nrunning the profile-driven synthetic bench (10 simulated minutes):");
    let mut bench = SyntheticBench::new(profile, MachineConfig::default(), 500, 11);
    let metrics = bench.run(SimDuration::from_secs(600));
    println!(
        "  {} opens, {} reads ({} FastIO), {} writes, {:.1} MB moved",
        metrics.opens,
        metrics.fastio_reads + metrics.irp_reads,
        metrics.fastio_reads,
        metrics.fastio_writes + metrics.irp_writes,
        (metrics.bytes_read + metrics.bytes_written) as f64 / 1.0e6
    );
    let binned = nt_analysis::burstiness::bin_arrivals(&bench.open_ticks, 1);
    println!(
        "  synthetic arrival dispersion at 1 s bins: {:.1} (Poisson would be ~1)",
        binned.dispersion()
    );
}
