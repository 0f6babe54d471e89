//! Fault-injection primitives shared across the collection pipeline.
//!
//! The paper's agents were not perfectly reliable: §3 notes that "if a
//! trace agent loses contact with the collection servers it will suspend
//! the local operation until the connection is re-established", and §3.2's
//! triple buffering exists precisely because buffers can fill faster than
//! they drain. This module gives the simulated pipeline the vocabulary to
//! schedule such failures deterministically: half-open time windows in
//! 100 ns ticks, and a per-machine [`LossLedger`] that accounts for every
//! record an agent saw — delivered, dropped to overflow, or lost while
//! suspended.

/// A half-open window of virtual time, `[start_ticks, end_ticks)`, in the
/// 100 ns units of the trace records.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TickWindow {
    /// First tick inside the window.
    pub start_ticks: u64,
    /// First tick after the window.
    pub end_ticks: u64,
}

impl TickWindow {
    /// A window covering `[start, end)`; an inverted pair collapses to
    /// an empty window at `start`.
    pub fn new(start_ticks: u64, end_ticks: u64) -> Self {
        TickWindow {
            start_ticks,
            end_ticks: end_ticks.max(start_ticks),
        }
    }

    /// True when `t` falls inside the window.
    pub fn contains(&self, t: u64) -> bool {
        self.start_ticks <= t && t < self.end_ticks
    }

    /// True when the window intersects the span `[lo, hi]`.
    pub fn overlaps(&self, lo: u64, hi: u64) -> bool {
        self.start_ticks <= hi && lo < self.end_ticks
    }

    /// Window length in ticks.
    pub fn duration_ticks(&self) -> u64 {
        self.end_ticks - self.start_ticks
    }
}

/// True when any window in the slice contains `t`.
pub(crate) fn any_contains(windows: &[TickWindow], t: u64) -> bool {
    windows.iter().any(|w| w.contains(t))
}

/// End-of-run accounting of one agent's losses. Every record the filter
/// driver saw lands in exactly one bucket, so the totals must reconcile:
/// `delivered + dropped_overflow == recorded`, and records observed while
/// the agent was suspended appear only in `dropped_suspended` (they were
/// never recorded at all, matching the paper's agents which stop rather
/// than spill to disk).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct LossLedger {
    /// Records the filter tried to record while connected: those accepted
    /// into the triple buffer plus those the full buffers turned away.
    pub recorded: u64,
    /// Records that reached a collection server.
    pub delivered: u64,
    /// Records dropped because every buffer was full.
    pub dropped_overflow: u64,
    /// Requests observed while the agent was suspended (never recorded).
    pub dropped_suspended: u64,
    /// Batches delivered to a collection server.
    pub batches_shipped: u64,
    /// Delivery attempts that found no reachable server and were retried.
    pub batches_retried: u64,
    /// Total virtual time the agent spent suspended, in ticks.
    pub downtime_ticks: u64,
}

impl LossLedger {
    /// The reconciliation invariant: after the final flush nothing may be
    /// in flight, so delivered plus overflow-dropped covers every record
    /// the buffers accepted.
    pub fn reconciles(&self) -> bool {
        self.delivered + self.dropped_overflow == self.recorded
    }

    /// Records lost for any reason.
    pub fn lost(&self) -> u64 {
        self.dropped_overflow + self.dropped_suspended
    }

    /// Posts the trace agent's side of the conservation accounts.
    ///
    /// Every event the machine emitted (the I/O layer's `TRACE_EVENTS`
    /// debit) is credited here as recorded-or-dropped-while-suspended;
    /// every recorded record is then debited again and credited to its
    /// fate (delivered or overflow-dropped) — [`reconciles`] as a ledger
    /// account. Delivered records become the debit that the analysis
    /// sinks must account for.
    ///
    /// [`reconciles`]: LossLedger::reconciles
    pub fn post_conservation(&self, ledger: &mut nt_audit::Ledger) {
        use nt_audit::accounts::*;
        ledger.credit(TRACE_EVENTS, self.recorded + self.dropped_suspended);
        ledger.debit(TRACE_RECORDS, self.recorded);
        ledger.credit(TRACE_RECORDS, self.delivered + self.dropped_overflow);
        ledger.debit(ANALYSIS_RECORDS, self.delivered);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_membership() {
        let w = TickWindow::new(100, 200);
        assert!(!w.contains(99));
        assert!(w.contains(100));
        assert!(w.contains(199));
        assert!(!w.contains(200));
        assert_eq!(w.duration_ticks(), 100);
    }

    #[test]
    fn window_overlap() {
        let w = TickWindow::new(100, 200);
        assert!(w.overlaps(150, 160));
        assert!(w.overlaps(50, 100));
        assert!(w.overlaps(199, 500));
        assert!(!w.overlaps(200, 500));
        assert!(!w.overlaps(0, 99));
    }

    #[test]
    fn inverted_window_is_empty() {
        let w = TickWindow::new(300, 200);
        assert_eq!(w.duration_ticks(), 0);
        assert!(!w.contains(300));
    }

    #[test]
    fn ledger_reconciliation() {
        let mut l = LossLedger {
            recorded: 100,
            delivered: 90,
            dropped_overflow: 10,
            dropped_suspended: 7,
            ..LossLedger::default()
        };
        assert!(l.reconciles());
        assert_eq!(l.lost(), 17);
        l.delivered = 89;
        assert!(!l.reconciles());
    }
}
