//! The stock filter drivers the study's stack ships with.
//!
//! * `ObserverFilter` — the paper's instrument itself: wraps an
//!   [`IoObserver`] (the trace agent, a test vector, or nothing) as a
//!   stack layer that consumes every trace record.
//! * [`SpanFilter`] — nt-obs span instrumentation as a layer: opens a
//!   dispatch span when a packet descends past it and closes it when the
//!   completion comes back up.
//! * [`AntivirusFilter`] — the canonical third-party filter the paper
//!   names (§3.2: "virus scanners are implemented this way"): adds scan
//!   latency to every create and read passing through.
//! * [`FastIoVeto`] — a filter whose FastIO table is empty, forcing the
//!   documented IRP fallback for every procedural call (what a filter
//!   that fails to implement the FastIO methods does to a system, §10).

use std::any::Any;

use nt_obs::{Phase, SpanGuard, Telemetry};
use nt_sim::SimDuration;

use crate::fastio::FastIoDispatch;
use crate::machine::OpReply;
use crate::observer::{FileObjectInfo, IoObserver};
use crate::request::{IoEvent, MajorFunction};
use crate::stack::{FilterAction, FilterDriver, IrpFrame};

/// An [`IoObserver`] attached as a stack layer.
///
/// Observation only: the packet path is untouched (`intercepts` stays
/// false, the FastIO table stays full), so a stack holding nothing but
/// an `ObserverFilter` adds no work to dispatch beyond the record
/// broadcast the observer exists for.
pub(crate) struct ObserverFilter<O: IoObserver> {
    observer: O,
}

impl<O: IoObserver> ObserverFilter<O> {
    /// Wraps `observer` as an attachable layer.
    pub fn new(observer: O) -> Self {
        ObserverFilter { observer }
    }

    /// The wrapped observer.
    pub fn inner(&self) -> &O {
        &self.observer
    }

    /// Mutable access to the wrapped observer.
    pub(crate) fn inner_mut(&mut self) -> &mut O {
        &mut self.observer
    }
}

impl<O: IoObserver> FilterDriver for ObserverFilter<O> {
    fn name(&self) -> &'static str {
        "observer"
    }

    fn wants_events(&self) -> bool {
        O::ENABLED
    }

    fn event(&mut self, event: &IoEvent) {
        self.observer.event(event);
    }

    fn file_object(&mut self, info: &FileObjectInfo) {
        self.observer.file_object(info);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// nt-obs span instrumentation as a stack layer.
///
/// A packet descending past this filter opens a [`Phase::Dispatch`] span
/// named after the frame's label; the completion coming back up closes
/// it. Spans nest naturally when an operation dispatches another (an
/// image load issuing its create, for instance), because the guards form
/// a LIFO that mirrors the descent.
pub struct SpanFilter {
    telemetry: Telemetry,
    open: Vec<SpanGuard>,
}

impl SpanFilter {
    /// A span layer logging through `telemetry`.
    pub fn new(telemetry: Telemetry) -> Self {
        SpanFilter {
            telemetry,
            open: Vec::new(),
        }
    }
}

impl FilterDriver for SpanFilter {
    fn name(&self) -> &'static str {
        "spans"
    }

    fn intercepts(&self) -> bool {
        true
    }

    fn pre(&mut self, frame: &mut IrpFrame) -> FilterAction {
        self.open
            .push(self.telemetry.span(Phase::Dispatch, frame.label, frame.now));
        FilterAction::Pass
    }

    fn post(&mut self, _frame: &IrpFrame, _reply: &mut OpReply) {
        self.open.pop();
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

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

    fn as_any_mut(&mut self) -> &mut dyn Any {
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

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::VecObserver;
    use crate::stack::DriverStack;
    use nt_sim::SimTime;

    #[test]
    fn observer_filter_relays_and_is_findable() {
        let mut stack = DriverStack::new();
        stack.attach(Box::new(ObserverFilter::new(VecObserver::default())));
        assert!(stack.events_wanted());
        assert!(!stack.intercepting(), "observation is not interception");
        let ev = IoEvent {
            kind: crate::request::EventKind::Irp(MajorFunction::Create),
            file_object: crate::types::FileObjectId(1),
            fcb: crate::types::FcbId(1),
            process: crate::types::ProcessId(1),
            volume: 0,
            local: true,
            paging_io: false,
            readahead: false,
            offset: 0,
            length: 0,
            transferred: 0,
            file_size: 0,
            byte_offset: 0,
            status: crate::status::NtStatus::Success,
            start: SimTime::ZERO,
            end: SimTime::ZERO,
            access: None,
            disposition: None,
            options: None,
            set_info: None,
            created: false,
        };
        stack.event(&ev);
        let filter: &ObserverFilter<VecObserver> = stack.find().expect("attached above");
        assert_eq!(filter.inner().events.len(), 1);
    }

    #[test]
    fn antivirus_charges_latency_on_create_and_read_only() {
        let mut av = AntivirusFilter::new(SimDuration::from_millis(2));
        let mut frame = IrpFrame {
            major: Some(MajorFunction::Read),
            label: "read",
            handle: None,
            process: None,
            offset: 0,
            length: 4096,
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
