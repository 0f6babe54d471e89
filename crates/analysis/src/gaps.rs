//! Trace-gap detection and lossy-window bookkeeping.
//!
//! A trace collected under faults (§3: suspended agents, collector
//! downtime) has holes: spans of virtual time in which a machine's
//! requests were issued but never recorded. Arrival and burstiness
//! statistics computed naively over such a trace are corrupted — a
//! suspension reads as one giant inter-arrival gap and a run of empty
//! bins. [`LossWindows`] names the holes, from the fault schedule that
//! produced them, and the degraded analysis entry points
//! ([`crate::arrivals::open_arrivals_excluding`],
//! [`crate::burstiness::burstiness_excluding`]) excise them instead of
//! averaging over them.

use std::collections::HashMap;

use nt_trace::TickWindow;

/// Per-machine windows of virtual time known (or suspected) to be lossy.
#[derive(Clone, Debug, Default)]
pub struct LossWindows {
    by_machine: HashMap<u32, Vec<TickWindow>>,
}

impl LossWindows {
    /// No lossy windows: the clean-trace case.
    pub fn new() -> Self {
        Self::default()
    }

    /// Marks a window of one machine's stream as lossy. Empty windows are
    /// ignored.
    pub fn add(&mut self, machine: u32, window: TickWindow) {
        if window.duration_ticks() > 0 {
            let ws = self.by_machine.entry(machine).or_default();
            ws.push(window);
            ws.sort_by_key(|w| w.start_ticks);
        }
    }

    /// The lossy windows of one machine, sorted by start.
    pub fn for_machine(&self, machine: u32) -> &[TickWindow] {
        self.by_machine.get(&machine).map_or(&[], Vec::as_slice)
    }

    /// True when no window is registered anywhere.
    pub fn is_empty(&self) -> bool {
        self.by_machine.values().all(Vec::is_empty)
    }

    /// Every window across machines, sorted by start (fleet-wide
    /// analyses treat any machine's hole as suspect).
    pub fn flattened(&self) -> Vec<TickWindow> {
        let mut all: Vec<TickWindow> = self.by_machine.values().flatten().copied().collect();
        all.sort_by_key(|w| w.start_ticks);
        all
    }

    /// Total lossy virtual time across machines, in ticks.
    pub fn total_lossy_ticks(&self) -> u64 {
        self.by_machine
            .values()
            .flatten()
            .map(|w| w.duration_ticks())
            .sum()
    }

    /// True when the span `[lo, hi]` of `machine`'s stream touches a
    /// lossy window.
    pub(crate) fn span_is_lossy(&self, machine: u32, lo: u64, hi: u64) -> bool {
        self.for_machine(machine).iter().any(|w| w.overlaps(lo, hi))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_windows_report_clean() {
        let lw = LossWindows::new();
        assert!(lw.is_empty());
        assert!(lw.for_machine(0).is_empty());
        assert!(!lw.span_is_lossy(0, 0, u64::MAX));
        assert_eq!(lw.total_lossy_ticks(), 0);
    }

    #[test]
    fn windows_accumulate_per_machine() {
        let mut lw = LossWindows::new();
        lw.add(1, TickWindow::new(500, 900));
        lw.add(1, TickWindow::new(100, 200));
        lw.add(2, TickWindow::new(0, 50));
        lw.add(2, TickWindow::new(10, 10)); // empty: ignored
        assert_eq!(lw.for_machine(1).len(), 2);
        assert_eq!(lw.for_machine(1)[0].start_ticks, 100, "sorted by start");
        assert_eq!(lw.for_machine(2).len(), 1);
        assert_eq!(lw.total_lossy_ticks(), 400 + 100 + 50);
        assert!(lw.span_is_lossy(1, 150, 160));
        assert!(!lw.span_is_lossy(1, 250, 400));
        assert!(!lw.span_is_lossy(3, 0, u64::MAX));
        assert_eq!(lw.flattened().len(), 3);
    }
}
