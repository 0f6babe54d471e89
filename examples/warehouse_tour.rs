//! A tour of the §4 data warehouse: the star schema's fact tables, the
//! dimension drill-down, the per-process slice — and, at the end, the
//! §9 workflow the warehouse exists for: replaying the *stored* trace
//! under a what-if policy matrix without the original fleet.
//!
//! "We developed a de-normalized star schema for the trace data … an
//! example of categorization is that a mailbox file with a .mbx type is
//! part of the mail files category, which is part of the application
//! files category."
//!
//! ```text
//! cargo run --release --example warehouse_tour
//! ```

use nt_analysis::dimensions::{type_cube, LeafCategory, TopCategory};
use nt_analysis::processes::process_analysis;
use nt_cache::CacheConfig;
use nt_io::DiskParams;
use nt_study::{ReplayConfig, ShardOptions, Study, StudyConfig, WhatIfStudy};
use nt_warehouse::Warehouse;

fn main() {
    // Run the study so every shipment is teed into an NTT warehouse on
    // disk beside the live analysis.
    let dir = std::env::temp_dir().join(format!("ntt-tour-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    eprintln!(
        "running a smoke-scale study (warehouse tee -> {}) ...",
        dir.display()
    );
    let data = Study::try_run_sharded(
        &StudyConfig::smoke_test(21),
        &ShardOptions {
            retain: true,
            warehouse: Some(dir.clone()),
            ..ShardOptions::default()
        },
    )
    .expect("smoke study runs")
    .data;
    let ts = data
        .trace_set
        .as_ref()
        .expect("retained under ShardOptions::retain");
    println!(
        "fact tables: {} trace records, {} instance rows, {} name-dimension entries\n",
        ts.records.len(),
        ts.instances.len(),
        ts.names.len()
    );

    let cube = type_cube(ts);
    println!("level 1 — top categories (by bytes moved):");
    let mut tops: Vec<_> = cube.by_top.iter().collect();
    tops.sort_by_key(|(_, m)| std::cmp::Reverse(m.bytes()));
    for (top, m) in &tops {
        println!(
            "  {:<22} {:>6} opens  {:>9.2} MB  mean session {:>7.2} ms",
            format!("{top:?}"),
            m.opens,
            m.bytes() as f64 / 1.0e6,
            m.mean_duration_ms()
        );
    }

    println!("\nlevel 2 — drill into TransientFiles (the §5 churn):");
    for (leaf, m) in cube.drill_down(TopCategory::TransientFiles) {
        println!(
            "  {:<22} {:>6} opens  {:>9.2} MB",
            format!("{leaf:?}"),
            m.opens,
            m.bytes() as f64 / 1.0e6
        );
    }

    println!("\nlevel 3 — extensions inside WebCache:");
    for (ext, m) in cube
        .extensions_of(LeafCategory::WebCache)
        .into_iter()
        .take(5)
    {
        println!("  .{ext:<8} {:>6} opens", m.opens);
    }

    println!("\nthe .mbx worked example:");
    let leaf = LeafCategory::of_extension(Some("mbx"));
    println!("  .mbx -> {:?} -> {:?}", leaf, leaf.top());

    let procs = process_analysis(ts);
    println!(
        "\nprocess slice: {} (machine, process) pairs, busiest decile issues {:.0}% of opens",
        procs.per_process.len(),
        100.0 * procs.top_decile_share
    );
    println!(
        "heavy tails (Hill alpha): activity spans {:.2}, files per process {:.2}",
        procs.span_alpha, procs.files_alpha
    );
    assert!(cube.consistent(), "roll-up conserves the grand total");
    println!("\nroll-up consistency check passed.");

    // The §9 workflow: the trace at rest is a full simulation input.
    // Open the exported warehouse and answer a what-if matrix from it —
    // no live fleet, no retained fact tables needed.
    println!("\nwhat-if replay from the stored warehouse:");
    let warehouse = Warehouse::open(&dir).expect("warehouse was just exported");
    println!(
        "  {} segments, {} stored records",
        warehouse.segments().len(),
        warehouse.total_records()
    );
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
            "ssd-class-disk",
            ReplayConfig {
                disk: DiskParams::ssd_class(),
                ..ReplayConfig::default()
            },
        )
        .run(&warehouse)
        .expect("stored variants reconcile");
    println!("\n{}", report.render_summary());

    // The same matrix from the live fact tables answers identically —
    // each machine's stream is normalized to one canonical order,
    // whichever source it came from.
    let live = WhatIfStudy::new(ReplayConfig::default())
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
            "ssd-class-disk",
            ReplayConfig {
                disk: DiskParams::ssd_class(),
                ..ReplayConfig::default()
            },
        )
        .run_trace_set(ts)
        .expect("live variants reconcile");
    assert_eq!(
        report.tables, live.tables,
        "warehouse-sourced and live-sourced differential tables must be bit-identical"
    );
    println!("live-vs-warehouse differential tables: bit-identical.");
    let _ = std::fs::remove_dir_all(&dir);
}
