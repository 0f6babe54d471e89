//! Pipeline health watchdogs.
//!
//! The collection pipeline (agent → shard collector → fleet) can
//! degrade long before it fails: a collector outage backs batches up in
//! the agents, a suspended agent burns through its loss budget, a shard
//! stops hearing from its machines entirely. The watchdogs turn those
//! conditions into typed [`HealthFinding`]s, sampled **on the simulated
//! clock** from deterministic quantities only (agent queue depths and
//! `LossLedger` rates — never host time), so
//! the findings a run produces are a pure function of its seed.
//!
//! Machine-scope findings are edge-triggered: a [`Watchdog`] emits one
//! finding when a condition crosses its threshold and re-arms only after
//! the condition clears, so a long outage reads as one event, not one
//! per sample.

use std::fmt;

/// A typed health finding from the pipeline watchdogs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HealthFinding {
    /// A shard's machines stopped delivering batches well before the end
    /// of the tracing period — the shard's collector tier went quiet.
    StalledShard {
        /// Shard index.
        shard: u32,
        /// Simulated tick of the last successful batch delivery into the
        /// shard (0 when nothing was ever delivered).
        last_delivery_ticks: u64,
        /// Quiet ticks between that delivery and the end of the period.
        idle_ticks: u64,
    },
    /// An agent's pending-shipment queue backed up past the threshold —
    /// the collector tier is refusing or outaged and batches are piling
    /// up machine-side.
    BackloggedCollector {
        /// Machine id.
        machine: u32,
        /// Simulated tick of the sample that crossed the threshold.
        ticks: u64,
        /// Batches waiting machine-side for a live collector.
        pending_batches: u64,
        /// Records across those batches.
        pending_records: u64,
    },
    /// The machine's record-loss rate crossed the budget: dropped records
    /// (buffer overflow + suspension) per mille of recorded.
    LossBudgetBurn {
        /// Machine id.
        machine: u32,
        /// Simulated tick of the sample that crossed the threshold.
        ticks: u64,
        /// Records lost so far.
        lost: u64,
        /// Records recorded so far.
        recorded: u64,
        /// Loss rate in per-mille (lost * 1000 / recorded).
        burn_per_mille: u64,
    },
}

impl HealthFinding {
    /// Stable lower-snake-case name used in dumps and reports.
    pub const fn kind(&self) -> &'static str {
        match self {
            HealthFinding::StalledShard { .. } => "stalled_shard",
            HealthFinding::BackloggedCollector { .. } => "backlogged_collector",
            HealthFinding::LossBudgetBurn { .. } => "loss_budget_burn",
        }
    }

    /// The finding as the JSON fields of a flight-recorder line (no
    /// enclosing braces; starts with `"kind":...`).
    pub(crate) fn json_fields(&self) -> String {
        match self {
            HealthFinding::StalledShard {
                shard,
                last_delivery_ticks,
                idle_ticks,
            } => format!(
                "\"kind\":\"stalled_shard\",\"shard\":{shard},\
                 \"last_delivery_ticks\":{last_delivery_ticks},\"idle_ticks\":{idle_ticks}"
            ),
            HealthFinding::BackloggedCollector {
                machine,
                ticks,
                pending_batches,
                pending_records,
            } => format!(
                "\"kind\":\"backlogged_collector\",\"machine\":{machine},\"ticks\":{ticks},\
                 \"pending_batches\":{pending_batches},\"pending_records\":{pending_records}"
            ),
            HealthFinding::LossBudgetBurn {
                machine,
                ticks,
                lost,
                recorded,
                burn_per_mille,
            } => format!(
                "\"kind\":\"loss_budget_burn\",\"machine\":{machine},\"ticks\":{ticks},\
                 \"lost\":{lost},\"recorded\":{recorded},\"burn_per_mille\":{burn_per_mille}"
            ),
        }
    }
}

impl fmt::Display for HealthFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HealthFinding::StalledShard {
                shard, idle_ticks, ..
            } => {
                write!(
                    f,
                    "shard {shard} stalled: quiet for the last {:.0}s of the period",
                    *idle_ticks as f64 / 10_000_000.0
                )
            }
            HealthFinding::BackloggedCollector {
                machine,
                pending_batches,
                pending_records,
                ..
            } => write!(
                f,
                "machine {machine}: collector backlog of {pending_batches} batches \
                 ({pending_records} records) waiting machine-side"
            ),
            HealthFinding::LossBudgetBurn {
                machine,
                burn_per_mille,
                lost,
                ..
            } => write!(
                f,
                "machine {machine}: loss budget burning at {burn_per_mille}\u{2030} \
                 ({lost} records lost)"
            ),
        }
    }
}

/// Per-machine watchdog state: thresholds plus the edge-trigger latches.
#[derive(Debug, Default)]
pub struct Watchdog {
    burning: bool,
    backlogged: bool,
}

impl Watchdog {
    /// Loss-rate threshold: 10‰ (1%) of recorded records lost.
    pub(crate) const LOSS_BURN_PER_MILLE: u64 = 10;
    /// Minimum recorded records before the burn rate is meaningful.
    pub(crate) const LOSS_BURN_FLOOR: u64 = 1_000;
    /// Pending-batch depth that counts as a backlogged collector.
    pub(crate) const BACKLOG_BATCHES: u64 = 3;
    /// Quiet time (in 100ns ticks) before a shard counts as stalled:
    /// 120 simulated seconds, four 30-second shipping cadences.
    pub(crate) const STALL_TICKS: u64 = 120 * 10_000_000;

    /// Fresh watchdog with both latches armed.
    pub fn new() -> Self {
        Watchdog::default()
    }

    /// One sampler tick for one machine. All inputs are deterministic
    /// simulated quantities; the return lists the findings whose
    /// condition crossed its threshold at this sample.
    pub fn sample(
        &mut self,
        machine: u32,
        ticks: u64,
        recorded: u64,
        lost: u64,
        pending_batches: u64,
        pending_records: u64,
    ) -> Vec<HealthFinding> {
        let mut findings = Vec::new();
        let burn = if recorded >= Self::LOSS_BURN_FLOOR {
            lost.saturating_mul(1_000) / recorded
        } else {
            0
        };
        if burn >= Self::LOSS_BURN_PER_MILLE {
            if !self.burning {
                self.burning = true;
                findings.push(HealthFinding::LossBudgetBurn {
                    machine,
                    ticks,
                    lost,
                    recorded,
                    burn_per_mille: burn,
                });
            }
        } else {
            self.burning = false;
        }
        if pending_batches >= Self::BACKLOG_BATCHES {
            if !self.backlogged {
                self.backlogged = true;
                findings.push(HealthFinding::BackloggedCollector {
                    machine,
                    ticks,
                    pending_batches,
                    pending_records,
                });
            }
        } else {
            self.backlogged = false;
        }
        findings
    }

    /// Post-run shard check: a shard whose last successful delivery sits
    /// more than `STALL_TICKS` before the end of the period
    /// stalled. Evaluated once per shard at merge time.
    pub fn stalled_shard(
        shard: u32,
        last_delivery_ticks: u64,
        end_ticks: u64,
    ) -> Option<HealthFinding> {
        let idle = end_ticks.saturating_sub(last_delivery_ticks);
        if idle > Self::STALL_TICKS {
            Some(HealthFinding::StalledShard {
                shard,
                last_delivery_ticks,
                idle_ticks: idle,
            })
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loss_burn_is_edge_triggered() {
        let mut w = Watchdog::new();
        // Below the floor: no finding no matter the rate.
        assert!(w.sample(1, 100, 10, 10, 0, 0).is_empty());
        // Crosses: one finding.
        let f = w.sample(1, 200, 10_000, 200, 0, 0);
        assert_eq!(f.len(), 1);
        assert_eq!(
            f[0],
            HealthFinding::LossBudgetBurn {
                machine: 1,
                ticks: 200,
                lost: 200,
                recorded: 10_000,
                burn_per_mille: 20,
            }
        );
        // Still burning: latched, no repeat.
        assert!(w.sample(1, 300, 11_000, 220, 0, 0).is_empty());
        // Clears, then crosses again: re-armed.
        assert!(w.sample(1, 400, 1_000_000, 100, 0, 0).is_empty());
        assert_eq!(w.sample(1, 500, 1_000_000, 20_000, 0, 0).len(), 1);
    }

    #[test]
    fn backlog_is_edge_triggered() {
        let mut w = Watchdog::new();
        assert!(w.sample(2, 100, 0, 0, 2, 900).is_empty());
        let f = w.sample(2, 200, 0, 0, 3, 1_400);
        assert_eq!(
            f,
            vec![HealthFinding::BackloggedCollector {
                machine: 2,
                ticks: 200,
                pending_batches: 3,
                pending_records: 1_400,
            }]
        );
        assert!(w.sample(2, 300, 0, 0, 5, 2_000).is_empty());
        assert!(w.sample(2, 400, 0, 0, 0, 0).is_empty());
        assert_eq!(w.sample(2, 500, 0, 0, 4, 1_600).len(), 1);
    }

    #[test]
    fn shard_stall_threshold() {
        let end = 6_000_000_000; // 600 s
        assert!(Watchdog::stalled_shard(0, end - Watchdog::STALL_TICKS, end).is_none());
        let f = Watchdog::stalled_shard(3, 1_000_000_000, end).unwrap();
        assert_eq!(f.kind(), "stalled_shard");
        assert_eq!(
            f,
            HealthFinding::StalledShard {
                shard: 3,
                last_delivery_ticks: 1_000_000_000,
                idle_ticks: 5_000_000_000,
            }
        );
        // A shard that never delivered is maximally stalled.
        assert!(Watchdog::stalled_shard(1, 0, end).is_some());
    }

    #[test]
    fn json_fields_are_wellformed() {
        let f = HealthFinding::LossBudgetBurn {
            machine: 7,
            ticks: 42,
            lost: 5,
            recorded: 5_000,
            burn_per_mille: 1,
        };
        let line = format!("{{{}}}", f.json_fields());
        assert!(line.contains("\"kind\":\"loss_budget_burn\""));
        assert!(line.starts_with('{') && line.ends_with('}'));
    }
}
