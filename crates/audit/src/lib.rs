//! Conservation ledgers for the trace-study pipeline.
//!
//! The paper's headline results are accounting identities — bytes moved
//! by FastIO vs IRP vs paging I/O (§10), records traced vs records
//! analysed (§4), cache hits vs paging reads (§9) — so silent drift
//! between simulator layers corrupts every table downstream. This crate
//! is the bookkeeping: a [`Ledger`] of named double-entry accounts that
//! the instrumented layers post debits and credits into, plus
//! [`Ledger::reconcile`], which surfaces the *first* unbalanced account
//! as an [`Imbalance`].
//!
//! The crate is deliberately a leaf — no dependency on any simulator
//! layer — so `nt-io`, `nt-cache`, `nt-vm`, `nt-trace` and `nt-analysis`
//! can all post into the same ledger without a dependency cycle. Each
//! layer owns a posting routine (`post_conservation` by convention) that
//! translates its own counters into debits/credits on the accounts in
//! [`accounts`]; the study driver assembles one ledger per machine plus
//! one fleet-global ledger and reconciles them at end of run.
//!
//! Debit/credit convention: the layer that *originates* a quantity
//! debits it (the dispatcher saw N read requests; the machine emitted N
//! trace events), and every layer that *accounts for a share* of it
//! credits its share (N₁ rode FastIO, N₂ took the IRP path, …). A
//! balanced account means nothing leaked between the layers.

use std::collections::BTreeMap;
use std::fmt;

/// Account names shared by the posting layers. Keeping them here (rather
/// than stringly-typed at each call site) means a typo is a compile
/// error, not a silently always-balanced orphan account.
pub mod accounts {
    /// Read requests accepted by the dispatcher vs the §10 path buckets
    /// (FastIO + IRP + lock conflicts + stat failures).
    pub const READ_DISPATCH: &str = "io.read-dispatch";
    /// Write requests accepted by the dispatcher vs its path buckets.
    pub const WRITE_DISPATCH: &str = "io.write-dispatch";
    /// Paging reads the I/O layer performed vs their originators (cache
    /// demand misses + read-ahead + VM section faults).
    pub const PAGING_READ_IOS: &str = "paging.read-ios";
    /// Bytes moved by paging reads vs originator byte counts.
    pub const PAGING_READ_BYTES: &str = "paging.read-bytes";
    /// Paging writes performed vs originators (lazy writer + flushes +
    /// write-through).
    pub const PAGING_WRITE_IOS: &str = "paging.write-ios";
    /// Bytes moved by paging writes vs originator byte counts.
    pub const PAGING_WRITE_BYTES: &str = "paging.write-bytes";
    /// Bytes applications asked the cache for, as seen by the I/O layer,
    /// vs as seen by the cache manager (catches file-size drift between
    /// the namespace and the cache maps).
    pub const CACHE_REQUEST_BYTES: &str = "cache.request-bytes";
    /// The cache's own split of every requested byte: hit + resident-on-
    /// miss + pending-on-miss.
    pub const CACHE_READ_SPLIT: &str = "cache.read-split";
    /// Every byte that became dirty vs its exit route (lazy writer +
    /// flush + purge + still-dirty residue at end of run).
    pub const DIRTY_LIFECYCLE: &str = "cache.dirty-lifecycle";
    /// Trace events the machine emitted vs the agent's intake (recorded
    /// + dropped while suspended).
    pub const TRACE_EVENTS: &str = "trace.events";
    /// Records the agent accepted vs their fate (delivered + dropped on
    /// buffer overflow) — the `LossLedger` identity, as an account.
    pub const TRACE_RECORDS: &str = "trace.records";
    /// Records delivered to the collection tier vs records the analysis
    /// sinks actually analysed for this machine.
    pub const ANALYSIS_RECORDS: &str = "analysis.records";
    /// Fleet-global: per-machine delivered sums vs the pool's total.
    pub const POOL_RECORDS: &str = "pool.records";
    /// Shard tier: the shard's machines' delivered sums vs the shard
    /// collector pool's own total — the per-shard leg of the sharded
    /// roll-up.
    pub const SHARD_RECORDS: &str = "shard.records";
    /// Fleet root of the sharded roll-up: per-shard pool totals vs the
    /// fleet-merged total.
    pub const FLEET_ROLLUP_RECORDS: &str = "fleet.rollup-records";
    /// What-if replay: source records fed to a machine's replay vs their
    /// fate in the replayed stack (replayed + skipped + control).
    pub const REPLAY_RECORDS: &str = "replay.records";
}

/// One account's running debit and credit totals.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Entry {
    /// Sum of postings on the originating side.
    pub debit: u64,
    /// Sum of postings on the accounted-for side.
    pub credit: u64,
}

impl Entry {
    /// Signed drift (credit − debit); zero when balanced.
    pub fn drift(&self) -> i128 {
        self.credit as i128 - self.debit as i128
    }
}

/// The first unbalanced account found by [`Ledger::reconcile`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Imbalance {
    /// The ledger's scope (e.g. `machine-7` or `fleet`).
    pub scope: String,
    /// The offending account name.
    pub account: &'static str,
    /// Debit total at reconciliation.
    pub debit: u64,
    /// Credit total at reconciliation.
    pub credit: u64,
}

impl fmt::Display for Imbalance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "conservation violated in {}: account '{}' has debit {} vs credit {} (drift {:+})",
            self.scope,
            self.account,
            self.debit,
            self.credit,
            self.credit as i128 - self.debit as i128
        )
    }
}

impl std::error::Error for Imbalance {}

/// A scoped set of double-entry conservation accounts.
///
/// Accounts materialize on first posting; `BTreeMap` keeps report and
/// reconciliation order deterministic.
#[derive(Clone, Debug)]
pub struct Ledger {
    scope: String,
    accounts: BTreeMap<&'static str, Entry>,
}

impl Ledger {
    /// An empty ledger labelled `scope` (shown in failure reports).
    pub fn new(scope: impl Into<String>) -> Self {
        Ledger {
            scope: scope.into(),
            accounts: BTreeMap::new(),
        }
    }

    /// The ledger's scope label.
    pub fn scope(&self) -> &str {
        &self.scope
    }

    /// Posts on the originating side of `account`.
    pub fn debit(&mut self, account: &'static str, amount: u64) {
        self.accounts.entry(account).or_default().debit += amount;
    }

    /// Posts on the accounted-for side of `account`.
    pub fn credit(&mut self, account: &'static str, amount: u64) {
        self.accounts.entry(account).or_default().credit += amount;
    }

    /// The current totals of one account, if anything was posted to it.
    pub fn entry(&self, account: &str) -> Option<Entry> {
        self.accounts.get(account).copied()
    }

    /// All accounts in name order.
    pub fn entries(&self) -> impl Iterator<Item = (&'static str, Entry)> + '_ {
        self.accounts.iter().map(|(&name, &e)| (name, e))
    }

    /// Checks every account; returns the first (in account-name order)
    /// whose debits and credits disagree.
    pub fn reconcile(&self) -> Result<(), Imbalance> {
        for (&account, entry) in &self.accounts {
            if entry.debit != entry.credit {
                return Err(Imbalance {
                    scope: self.scope.clone(),
                    account,
                    debit: entry.debit,
                    credit: entry.credit,
                });
            }
        }
        Ok(())
    }

    /// A one-line-per-account textual report, for drift diagnostics
    /// and EXPERIMENTS.md examples.
    pub fn report(&self) -> String {
        use fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "ledger {}", self.scope);
        for (name, e) in self.entries() {
            let state = if e.debit == e.credit { "ok" } else { "DRIFT" };
            let _ = writeln!(
                out,
                "  {name:<24} debit {:>14} credit {:>14} {state}",
                e.debit, e.credit
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_ledger_reconciles() {
        let mut l = Ledger::new("machine-0");
        l.debit(accounts::READ_DISPATCH, 10);
        l.credit(accounts::READ_DISPATCH, 4);
        l.credit(accounts::READ_DISPATCH, 6);
        assert_eq!(l.reconcile(), Ok(()));
        let e = l.entry(accounts::READ_DISPATCH).unwrap();
        assert_eq!((e.debit, e.credit, e.drift()), (10, 10, 0));
    }

    #[test]
    fn first_unbalanced_account_is_reported_in_name_order() {
        let mut l = Ledger::new("machine-3");
        l.debit(accounts::TRACE_RECORDS, 5);
        l.credit(accounts::TRACE_RECORDS, 5);
        // Two drifting accounts; 'cache.request-bytes' sorts before
        // 'paging.read-ios', so it must be the one reported.
        l.debit(accounts::PAGING_READ_IOS, 3);
        l.debit(accounts::CACHE_REQUEST_BYTES, 100);
        l.credit(accounts::CACHE_REQUEST_BYTES, 90);
        let err = l.reconcile().unwrap_err();
        assert_eq!(err.account, accounts::CACHE_REQUEST_BYTES);
        assert_eq!(err.scope, "machine-3");
        assert_eq!((err.debit, err.credit), (100, 90));
        let msg = err.to_string();
        assert!(msg.contains("machine-3"), "{msg}");
        assert!(msg.contains("-10"), "{msg}");
    }

    #[test]
    fn empty_and_untouched_accounts_balance() {
        let l = Ledger::new("fleet");
        assert_eq!(l.reconcile(), Ok(()));
        assert_eq!(l.entry(accounts::POOL_RECORDS), None);
    }

    #[test]
    fn report_flags_drift() {
        let mut l = Ledger::new("machine-1");
        l.debit(accounts::TRACE_EVENTS, 2);
        l.credit(accounts::TRACE_EVENTS, 1);
        l.debit(accounts::TRACE_RECORDS, 1);
        l.credit(accounts::TRACE_RECORDS, 1);
        let r = l.report();
        assert!(r.contains("trace.events"));
        assert!(r.contains("DRIFT"));
        assert!(r.contains("ok"));
    }
}
