//! An org-scale study through the sharded collection tree: machines in
//! the paper's five-category proportions, partitioned across shard
//! collectors, merged shard → fleet, with the per-tier conservation
//! ledgers reconciled at the end.
//!
//! ```text
//! cargo run --release --example sharded_fleet                    # 450 machines, 4 shards
//! cargo run --release --example sharded_fleet -- machines=1000 shards=8
//! cargo run --release --example sharded_fleet -- seed=7
//! ```

use nt_study::{ShardOptions, Study, StudyConfig};

fn main() {
    let mut seed = 1;
    let mut machines = 450;
    let mut shards = 4;
    for arg in std::env::args().skip(1) {
        if let Some(s) = arg.strip_prefix("seed=") {
            seed = s.parse().expect("seed must be an integer");
        } else if let Some(s) = arg.strip_prefix("machines=") {
            machines = s.parse().expect("machines must be an integer");
        } else if let Some(s) = arg.strip_prefix("shards=") {
            shards = s.parse().expect("shards must be an integer");
        }
    }
    let config = StudyConfig::org_scale(seed, machines);
    eprintln!(
        "running {} machines across {} shards for {} simulated seconds ...",
        config.machines.len(),
        shards,
        config.duration.as_secs()
    );
    let started = std::time::Instant::now();
    let data = Study::try_run_sharded(
        &config,
        &ShardOptions {
            shards,
            ..ShardOptions::default()
        },
    )
    .unwrap_or_else(|fault| panic!("{fault}"));
    eprintln!(
        "collected {} records ({:.1} MB compressed) in {:.1}s wall time",
        data.data.total_records,
        data.data.stored_bytes as f64 / 1.0e6,
        started.elapsed().as_secs_f64()
    );
    println!(
        "{} shards; every machine, shard and fleet ledger balanced",
        data.shards.len()
    );
    for shard in &data.shards {
        println!(
            "  shard {}: machines {:>4}..{:<4}  {:>8} records analysed, \
             {:>9} shipped, peak analysis state {:>9} bytes",
            shard.shard,
            shard.machines.start,
            shard.machines.end,
            shard.records,
            shard.total_records,
            shard.peak_state_bytes
        );
    }
    let summary = &data.data.summary;
    println!(
        "fleet: {} machines, {} records, {} file names",
        summary.machines, summary.records, summary.names
    );
}
