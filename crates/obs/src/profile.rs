//! Runtime self-profiling: host wall-clock attribution per subsystem
//! phase, accumulated by the span layer.

use std::fmt;

use crate::Phase;

/// Accumulated wall-clock for one [`Phase`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseStat {
    /// Number of spans closed in this phase.
    pub spans: u64,
    /// Exclusive (self) nanoseconds: time inside the phase's spans minus
    /// time inside nested child spans.
    pub self_ns: u64,
    /// Inclusive nanoseconds: child spans included. Nested spans of the
    /// same phase are double-counted here (as in any inclusive profile),
    /// so `self_ns` is the column that sums to real elapsed time.
    pub total_ns: u64,
}

/// Per-phase wall-clock attribution for one machine or a whole study.
///
/// Profiles add: merging every machine's profile (plus the study-side
/// export profiler) yields the fleet view reported in `StudyData`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RuntimeProfile {
    phases: [PhaseStat; Phase::ALL.len()],
}

impl RuntimeProfile {
    /// The accumulated stat for one phase.
    pub fn phase(&self, phase: Phase) -> PhaseStat {
        self.phases[phase.index()]
    }

    /// Folds one closed span into the profile.
    pub(crate) fn record(&mut self, phase: Phase, self_ns: u64, total_ns: u64) {
        let s = &mut self.phases[phase.index()];
        s.spans += 1;
        s.self_ns = s.self_ns.saturating_add(self_ns);
        s.total_ns = s.total_ns.saturating_add(total_ns);
    }

    /// Adds another profile into this one.
    pub fn merge(&mut self, other: &RuntimeProfile) {
        for (mine, theirs) in self.phases.iter_mut().zip(other.phases.iter()) {
            mine.spans += theirs.spans;
            mine.self_ns = mine.self_ns.saturating_add(theirs.self_ns);
            mine.total_ns = mine.total_ns.saturating_add(theirs.total_ns);
        }
    }

    /// Sum of exclusive time over all phases — the instrumented share of
    /// the run's wall-clock.
    pub fn total_self_ns(&self) -> u64 {
        self.phases.iter().map(|s| s.self_ns).sum()
    }

    /// Total number of closed spans.
    pub(crate) fn total_spans(&self) -> u64 {
        self.phases.iter().map(|s| s.spans).sum()
    }

    /// True when nothing was recorded (telemetry off).
    pub fn is_empty(&self) -> bool {
        self.total_spans() == 0
    }
}

/// One row of the per-layer ns/op budget table: how much host wall-clock
/// one span (one operation) of the phase costs on average. Published in
/// `StudyData` so perf regressions show up as budget drift, the same way
/// determinism drift shows up in the digest suite.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PhaseBudget {
    /// The driver layer / subsystem phase.
    pub phase: Phase,
    /// Operations (closed spans) attributed to the phase.
    pub spans: u64,
    /// Exclusive nanoseconds spent in the phase.
    pub self_ns: u64,
    /// Average exclusive nanoseconds per operation.
    pub ns_per_op: f64,
}

impl RuntimeProfile {
    /// The per-layer ns/op budget: one row per phase that recorded at
    /// least one span, in [`Phase::ALL`] order. Empty with telemetry off.
    pub fn layer_budget(&self) -> Vec<PhaseBudget> {
        Phase::ALL
            .iter()
            .map(|&phase| (phase, self.phase(phase)))
            .filter(|(_, s)| s.spans > 0)
            .map(|(phase, s)| PhaseBudget {
                phase,
                spans: s.spans,
                self_ns: s.self_ns,
                ns_per_op: s.self_ns as f64 / s.spans as f64,
            })
            .collect()
    }
}

impl fmt::Display for PhaseBudget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<10} {:>10} ops {:>12} {:>10.1} ns/op",
            self.phase.name(),
            self.spans,
            fmt_ns(self.self_ns),
            self.ns_per_op
        )
    }
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

impl fmt::Display for RuntimeProfile {
    /// A small fixed-width table:
    ///
    /// ```text
    /// phase        spans        self       total   self%
    /// dispatch    123456     1.23s       1.80s    61.2%
    /// ```
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let grand = self.total_self_ns().max(1);
        writeln!(
            f,
            "{:<10} {:>10} {:>12} {:>12} {:>7}",
            "phase", "spans", "self", "total", "self%"
        )?;
        for phase in Phase::ALL {
            let s = self.phase(phase);
            writeln!(
                f,
                "{:<10} {:>10} {:>12} {:>12} {:>6.1}%",
                phase.name(),
                s.spans,
                fmt_ns(s.self_ns),
                fmt_ns(s.total_ns),
                100.0 * s.self_ns as f64 / grand as f64,
            )?;
        }
        write!(
            f,
            "{:<10} {:>10} {:>12}",
            "(sum)",
            self.total_spans(),
            fmt_ns(self.total_self_ns())
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_merge_accumulate() {
        let mut a = RuntimeProfile::default();
        a.record(Phase::Dispatch, 10, 15);
        a.record(Phase::Dispatch, 5, 5);
        a.record(Phase::Cache, 7, 7);
        let mut b = RuntimeProfile::default();
        b.record(Phase::Cache, 3, 3);
        a.merge(&b);
        assert_eq!(a.phase(Phase::Dispatch).spans, 2);
        assert_eq!(a.phase(Phase::Dispatch).self_ns, 15);
        assert_eq!(a.phase(Phase::Dispatch).total_ns, 20);
        assert_eq!(a.phase(Phase::Cache).self_ns, 10);
        assert_eq!(a.total_self_ns(), 25);
        assert_eq!(a.total_spans(), 4);
        assert!(!a.is_empty());
        assert!(RuntimeProfile::default().is_empty());
    }

    #[test]
    fn layer_budget_averages_self_time() {
        let mut p = RuntimeProfile::default();
        p.record(Phase::Dispatch, 100, 120);
        p.record(Phase::Dispatch, 50, 60);
        p.record(Phase::Trace, 30, 30);
        let budget = p.layer_budget();
        assert_eq!(budget.len(), 2, "only phases with spans appear");
        assert_eq!(budget[0].phase, Phase::Dispatch);
        assert_eq!(budget[0].spans, 2);
        assert_eq!(budget[0].self_ns, 150);
        assert!((budget[0].ns_per_op - 75.0).abs() < f64::EPSILON);
        assert_eq!(budget[1].phase, Phase::Trace);
        assert!(budget[1].to_string().contains("ns/op"));
        assert!(RuntimeProfile::default().layer_budget().is_empty());
    }

    #[test]
    fn display_renders_every_phase() {
        let mut p = RuntimeProfile::default();
        p.record(Phase::Vm, 1_500_000, 1_500_000);
        let s = p.to_string();
        for phase in Phase::ALL {
            assert!(s.contains(phase.name()), "missing {}", phase.name());
        }
        assert!(s.contains("1.50ms"));
    }
}
