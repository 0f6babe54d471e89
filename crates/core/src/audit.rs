//! Conservation audits of the pipeline.
//!
//! The paper's tables are accounting identities over ~190 M records, so
//! the reproduction carries its own bookkeeping: every simulator layer
//! posts debits and credits into [`nt_audit::Ledger`]s — one per
//! machine, one per shard collector and one for the fleet root — and
//! [`crate::Study::try_run_sharded`] reconciles them at end of every run,
//! failing loudly with the first unbalanced account instead of silently
//! rendering drifted tables. The accounts tie the layers to each other:
//!
//! - the I/O dispatcher's request counts against its §10 path split
//!   (FastIO / IRP / lock conflicts / stat failures);
//! - paging I/O counts and bytes against their originators (cache demand
//!   misses + read-ahead + VM section faults; lazy writer + flushes);
//! - the cache's requested bytes against both the dispatcher's view and
//!   the cache's own hit/resident/pending split;
//! - every newly dirtied byte against its exit route (lazy write, flush,
//!   purge, or residue still dirty at shutdown);
//! - trace events emitted against the agent's intake, the agent's intake
//!   against delivery + loss, delivery against records analysed, and the
//!   per-machine deliveries against the fleet's collected total;
//! - each shard's machines' deliveries against the shard's head-count —
//!   what the collection servers accepted through those machines'
//!   handles — and the shard head-counts against the fleet total.

use std::collections::BTreeMap;

use nt_audit::{accounts, Ledger};

use crate::shard::ShardedStudyData;
use crate::study::StudyFault;

/// Builds the three ledger tiers of a run by letting each layer post its
/// own side of every account. Public so callers can read the books of a
/// finished run, and so the audit suite can rebuild ledgers from
/// deliberately perturbed shard reports and prove the reconciliation
/// names the offending shard.
///
/// - Each **machine** ledger posts the full per-layer accounts: I/O,
///   cache, VM, the agent's loss ledger, and the records analysed.
/// - Each **shard** ledger balances [`accounts::SHARD_RECORDS`]: the
///   shard's machines' delivered records, as their agents counted them
///   (debit), against the shard's head-count, summed from those
///   machines' collector handles (credit).
/// - The **fleet** ledger balances [`accounts::POOL_RECORDS`] (every
///   machine's deliveries vs the fleet total) and
///   [`accounts::FLEET_ROLLUP_RECORDS`] (per-shard head-counts vs the
///   fleet total) — the roll-up leg that makes a drifting shard visible
///   at the root even when every machine balances.
pub fn sharded_ledgers(data: &ShardedStudyData) -> (Vec<Ledger>, Vec<Ledger>, Ledger) {
    let run = &data.data;
    let analysed: BTreeMap<u32, u64> = run.summary.machine_records.iter().copied().collect();
    let mut ledgers = Vec::with_capacity(run.machines.len());
    let mut fleet = Ledger::new("fleet");
    for m in &run.machines {
        let mut ledger = Ledger::new(format!("machine-{}", m.id.0));
        m.io.post_conservation(&mut ledger);
        m.cache
            .post_conservation(m.residual_dirty_bytes, &mut ledger);
        m.vm.post_conservation(&mut ledger);
        m.loss.post_conservation(&mut ledger);
        ledger.credit(
            accounts::ANALYSIS_RECORDS,
            analysed.get(&m.id.0).copied().unwrap_or(0),
        );
        fleet.debit(accounts::POOL_RECORDS, m.loss.delivered);
        ledgers.push(ledger);
    }
    fleet.credit(accounts::POOL_RECORDS, run.total_records as u64);
    let mut shard_ledgers = Vec::with_capacity(data.shards.len());
    for report in &data.shards {
        let mut ledger = Ledger::new(format!("shard-{}", report.shard));
        for m in &run.machines[report.machines.clone()] {
            ledger.debit(accounts::SHARD_RECORDS, m.loss.delivered);
        }
        ledger.credit(accounts::SHARD_RECORDS, report.total_records as u64);
        shard_ledgers.push(ledger);
        fleet.debit(accounts::FLEET_ROLLUP_RECORDS, report.total_records as u64);
    }
    fleet.credit(accounts::FLEET_ROLLUP_RECORDS, run.total_records as u64);
    (ledgers, shard_ledgers, fleet)
}

/// Reconciles every ledger of a run bottom-up — machines, then shards,
/// then the fleet root — so the first [`StudyFault::Drift`] names the
/// lowest tier that broke.
pub(crate) fn reconcile(data: &ShardedStudyData) -> Result<(), StudyFault> {
    let (machines, shards, fleet) = sharded_ledgers(data);
    for ledger in machines.iter().chain(&shards).chain([&fleet]) {
        if let Err(imbalance) = ledger.reconcile() {
            return Err(StudyFault::Drift {
                imbalance,
                report: ledger.report(),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StudyConfig;
    use crate::shard::ShardOptions;
    use crate::study::Study;

    #[test]
    fn an_over_reporting_shard_is_a_drift_fault_naming_it() {
        let config = StudyConfig::smoke_test(406);
        let options = ShardOptions {
            shards: 2,
            ..ShardOptions::default()
        };
        let mut data = Study::try_run_sharded(&config, &options).expect("clean run balances");
        reconcile(&data).expect("the driver already reconciled these books");
        data.shards[1].total_records += 3;
        let fault = reconcile(&data).expect_err("a cooked head-count is drift");
        let StudyFault::Drift { imbalance, report } = &fault else {
            panic!("expected drift, got {fault}");
        };
        assert_eq!(
            imbalance.scope, "shard-1",
            "shards reconcile before the root"
        );
        assert_eq!(imbalance.account, accounts::SHARD_RECORDS);
        assert!(report.contains("DRIFT"), "{report}");
        assert!(fault.to_string().contains("shard-1"), "{fault}");
    }
}
