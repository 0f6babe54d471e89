//! Lossy-deployment comparison: the same study run clean and under
//! `FaultPlan::lossy()`, with per-machine loss ledgers and the degraded
//! analyses side by side.
//!
//! ```bash
//! cargo run --release --example lossy_study
//! ```

use nt_analysis::{arrivals, gaps::LossWindows, ops};
use nt_study::{FaultPlan, FaultSchedule, Study, StudyConfig, StudyData};

fn seconds(ticks: u64) -> f64 {
    ticks as f64 / nt_sim::TICKS_PER_SEC as f64
}

fn summarize(label: &str, data: &StudyData) {
    println!("== {label} ==");
    println!(
        "  records collected: {}   compressed bytes: {}",
        data.total_records, data.stored_bytes
    );
    println!(
        "  {:<10} {:>9} {:>9} {:>9} {:>9} {:>8} {:>8}",
        "machine", "recorded", "delivered", "overflow", "suspended", "retries", "down(s)"
    );
    for report in data.loss_reports() {
        let l = report.ledger;
        assert!(l.reconciles(), "ledger reconciles for {:?}", report.machine);
        println!(
            "  {:<10} {:>9} {:>9} {:>9} {:>9} {:>8} {:>8.1}",
            format!("{:?}", report.machine),
            l.recorded,
            l.delivered,
            l.dropped_overflow,
            l.dropped_suspended,
            l.batches_retried,
            seconds(l.downtime_ticks),
        );
    }
    println!("  total lost: {}", data.total_lost());
}

fn main() {
    let seed = 1;
    let clean_config = StudyConfig::smoke_test(seed);
    let mut lossy_config = clean_config.clone();
    lossy_config.faults = FaultPlan::lossy();

    let clean = Study::run(&clean_config).expect("study runs");
    let lossy = Study::run(&lossy_config).expect("study runs");

    summarize("clean deployment", &clean);
    summarize("lossy deployment (FaultPlan::lossy)", &lossy);

    // The degraded analysis excludes the holes the schedule predicts.
    let schedule = FaultSchedule::materialize(&lossy_config, 3);
    let mut windows = LossWindows::new();
    for (index, faults) in schedule.machines.iter().enumerate() {
        for w in &faults.agent_outages {
            windows.add(index as u32, *w);
        }
    }

    let clean_arrivals = arrivals::open_arrivals(&clean.trace_set);
    let naive = arrivals::open_arrivals(&lossy.trace_set);
    let degraded = arrivals::open_arrivals_excluding(&lossy.trace_set, &windows);
    println!("\n== degraded analysis (figure 11) ==");
    println!(
        "  lossy virtual time excluded: {:.1} s across {} windows",
        seconds(windows.total_lossy_ticks()),
        windows.flattened().len()
    );
    println!(
        "  inter-arrival pairs: clean {}   lossy naive {}   lossy excluded {}",
        clean_arrivals.all.len(),
        naive.all.len(),
        degraded.all.len()
    );
    println!(
        "  active-second fraction: clean {:.3}   lossy naive {:.3}   lossy excluded {:.3}",
        clean_arrivals.active_second_fraction,
        naive.active_second_fraction,
        degraded.active_second_fraction
    );

    let clean_ops = ops::operational_stats(&clean.trace_set);
    let lossy_ops = ops::operational_stats(&lossy.trace_set);
    println!(
        "  control-only opens: clean {:.3}   lossy {:.3}",
        clean_ops.control_only_fraction, lossy_ops.control_only_fraction
    );
}
