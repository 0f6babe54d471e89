//! The stock filter drivers the study's stack ships with.
//!
//! * [`AntivirusFilter`] — the canonical third-party filter the paper
//!   names (§3.2: "virus scanners are implemented this way"): adds scan
//!   latency to every create and read passing through.
//! * [`FastIoVeto`] — a filter whose FastIO table is empty, forcing the
//!   documented IRP fallback for every procedural call (what a filter
//!   that fails to implement the FastIO methods does to a system, §10).

use std::any::Any;

use nt_sim::SimDuration;

use crate::fastio::FastIoDispatch;
use crate::request::MajorFunction;
use crate::stack::{FilterAction, FilterDriver, IrpFrame};

/// A virus-scanner layer: every create and read passing through pays a
/// scan delay before reaching the FSD.
///
/// The delay moves the frame's clock forward, so the FSD serves the
/// request at the delayed time and the whole slowdown lands in the
/// trace's own timestamps — the §3.2 observation that filter drivers are
/// where real-world I/O divergence comes from, made measurable.
pub struct AntivirusFilter {
    scan_cost: SimDuration,
    scans: u64,
}

impl AntivirusFilter {
    /// A scanner charging `scan_cost` per create/read.
    pub fn new(scan_cost: SimDuration) -> Self {
        AntivirusFilter {
            scan_cost,
            scans: 0,
        }
    }

    /// Files scanned so far.
    pub fn scans(&self) -> u64 {
        self.scans
    }
}

impl FilterDriver for AntivirusFilter {
    fn name(&self) -> &'static str {
        "antivirus"
    }

    fn intercepts(&self) -> bool {
        true
    }

    fn pre(&mut self, frame: &mut IrpFrame) -> FilterAction {
        if matches!(
            frame.major,
            Some(MajorFunction::Create) | Some(MajorFunction::Read)
        ) {
            self.scans += 1;
            frame.now += self.scan_cost;
        }
        FilterAction::Pass
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// A filter exposing an empty FastIO table.
///
/// Attaching one turns every would-be FastIO call into its IRP fallback
/// machine-wide — same service times, same record stream modulo the
/// [`EventKind`](crate::request::EventKind) relabelling — which is how
/// `tests/filter_stack.rs` proves the fallback rule preserves the fact
/// tables.
#[derive(Default)]
pub struct FastIoVeto;

impl FilterDriver for FastIoVeto {
    fn name(&self) -> &'static str {
        "fastio-veto"
    }

    fn fastio(&self) -> FastIoDispatch {
        FastIoDispatch::empty()
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stack::DriverStack;
    use nt_sim::SimTime;

    #[test]
    fn antivirus_charges_latency_on_create_and_read_only() {
        let mut av = AntivirusFilter::new(SimDuration::from_millis(2));
        let mut frame = IrpFrame {
            major: Some(MajorFunction::Read),
            label: "read",
            now: SimTime::from_secs(1),
        };
        assert!(matches!(av.pre(&mut frame), FilterAction::Pass));
        assert_eq!(
            frame.now,
            SimTime::from_secs(1) + SimDuration::from_millis(2)
        );
        assert_eq!(av.scans(), 1);
        let mut close = IrpFrame {
            major: Some(MajorFunction::Close),
            label: "close",
            ..frame
        };
        let before = close.now;
        av.pre(&mut close);
        assert_eq!(close.now, before, "closes are not scanned");
        assert_eq!(av.scans(), 1);
    }

    #[test]
    fn veto_empties_the_stack_table() {
        let mut stack = DriverStack::new();
        stack.attach(Box::new(FastIoVeto));
        assert!(stack.fastio().is_empty());
        assert!(!stack.fastio_supported(crate::request::FastIoKind::Read));
    }
}
