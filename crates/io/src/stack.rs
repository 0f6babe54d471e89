//! The layered driver stack every request descends.
//!
//! §3.2 of the paper: "in Windows NT each I/O request is encapsulated
//! into an I/O request packet (IRP) which the I/O manager hands to the
//! highest driver in the stack; each driver may complete the request,
//! pass it down, or do work on both the way down and — via a completion
//! routine — the way back up." The study's tracer was exactly such a
//! layer: a filter driver attached above the FSD.
//!
//! [`DriverStack`] reifies that chain. Every IRP the machine dispatches
//! descends the attached [`FilterDriver`]s in order (`IoCallDriver`
//! style): each layer's [`FilterDriver::pre`] may complete the request
//! short of the FSD, adjust the frame (e.g. add latency, as a virus
//! scanner does), or pass it down; every layer the packet passed sees
//! the completed reply on the way back up through
//! [`FilterDriver::post`]. The FSD plus cache-manager/VM fast path sits
//! at the bottom, below the deepest filter.
//!
//! The FastIO path never descends the stack — it is procedural (§10) —
//! but each layer exposes a [`FastIoDispatch`] table, and the stack's
//! effective table is their intersection: one layer opting a routine out
//! forces the documented IRP fallback for the whole machine.

use std::any::Any;

use nt_sim::SimTime;

use crate::fastio::FastIoDispatch;
use crate::machine::OpReply;
use crate::observer::FileObjectInfo;
use crate::request::{IoEvent, MajorFunction};
use crate::types::{HandleId, ProcessId};

/// The request packet a filter sees on the way down.
///
/// Filters may push [`IrpFrame::now`] forward in [`FilterDriver::pre`]
/// to model per-layer service time (the FSD then runs at the delayed
/// time, so the added latency is visible in the trace's timestamps), but
/// must not move it backward.
#[derive(Clone, Copy, Debug)]
pub struct IrpFrame {
    /// The packet's major function. `None` for composite background
    /// drives (image load, section fault, lazy-writer tick) that issue
    /// several packets internally.
    pub major: Option<MajorFunction>,
    /// Stable label for span instrumentation ("read", "close", …).
    pub label: &'static str,
    /// Target handle, when the request has one.
    pub handle: Option<HandleId>,
    /// Requesting process, when known at dispatch time.
    pub process: Option<ProcessId>,
    /// Request byte offset (data ops), 0 otherwise.
    pub offset: u64,
    /// Requested length in bytes (data ops), 0 otherwise.
    pub length: u64,
    /// Arrival time at the current layer.
    pub now: SimTime,
}

/// What a filter decided to do with a descending packet.
pub enum FilterAction {
    /// Hand the packet to the next layer down (or the FSD).
    Pass,
    /// Complete the request here; lower layers never see the packet and
    /// only the layers it already passed observe the completion.
    Complete(OpReply),
}

/// One layer in the driver stack.
///
/// All methods have pass-through defaults, so a filter implements only
/// what it cares about: an observer overrides [`FilterDriver::event`], a
/// latency-adding layer overrides [`FilterDriver::pre`], a FastIO veto
/// overrides [`FilterDriver::fastio`]. Filters that override `pre`/`post`
/// must also return `true` from [`FilterDriver::intercepts`]; the stack
/// skips the whole descent when no attached layer intercepts, keeping an
/// observation-only stack off the dispatch hot path.
pub trait FilterDriver: 'static {
    /// Display name (layer diagrams, runtime profile, examples).
    fn name(&self) -> &'static str;

    /// Sees the packet on the way down.
    fn pre(&mut self, frame: &mut IrpFrame) -> FilterAction {
        let _ = frame;
        FilterAction::Pass
    }

    /// Sees the completed reply on the way back up (only for packets
    /// this layer passed down).
    fn post(&mut self, frame: &IrpFrame, reply: &mut OpReply) {
        let _ = (frame, reply);
    }

    /// This layer's FastIO method table. Defaults to the full table —
    /// attaching the filter changes nothing on the procedural path.
    fn fastio(&self) -> FastIoDispatch {
        FastIoDispatch::full()
    }

    /// Whether `pre`/`post` do anything. The stack caches the OR of all
    /// layers and bypasses the descent entirely when false.
    fn intercepts(&self) -> bool {
        false
    }

    /// Whether this layer consumes trace records. When no attached layer
    /// does, the machine skips building [`IoEvent`] values entirely.
    fn wants_events(&self) -> bool {
        false
    }

    /// A completed request's trace record (both paths, §3.2).
    fn event(&mut self, event: &IoEvent) {
        let _ = event;
    }

    /// The auxiliary record mapping a new file object to its name.
    fn file_object(&mut self, info: &FileObjectInfo) {
        let _ = info;
    }

    /// Downcast support for [`DriverStack::find`].
    fn as_any(&self) -> &dyn Any;

    /// Downcast support for `DriverStack::find_mut`.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// Where a request was completed, per layer (examples' per-layer view).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LayerCounters {
    /// Packets this layer completed itself (short-circuits).
    pub completed: u64,
    /// Packets this layer passed down the stack.
    pub passed: u64,
}

/// The machine's driver chain, top layer first.
///
/// Index 0 is the highest attached filter — the first to see a
/// descending packet and the last to see its completion.
pub struct DriverStack {
    filters: Vec<Box<dyn FilterDriver>>,
    counters: Vec<LayerCounters>,
    /// Packets that reached the FSD at the bottom.
    fsd_completed: u64,
    /// Cached OR of `wants_events` over the layers.
    events_wanted: bool,
    /// Cached OR of `intercepts` over the layers.
    intercepting: bool,
    /// Cached intersection of the layers' FastIO tables (the FSD's own
    /// table is full).
    fastio: FastIoDispatch,
    /// Pooled per-layer frame records — the stack's `IO_STACK_LOCATION`
    /// array. The descent pushes the packet as each layer passed it down;
    /// the ascent hands every layer back its own view. Mark/truncate
    /// discipline keeps nested dispatches (image load issuing a create)
    /// correct, and the Vec's capacity survives across requests, so the
    /// warm dispatch path allocates nothing.
    frames: Vec<IrpFrame>,
}

impl DriverStack {
    /// An empty stack: the I/O manager talks straight to the FSD.
    pub fn new() -> Self {
        DriverStack {
            filters: Vec::new(),
            counters: Vec::new(),
            fsd_completed: 0,
            events_wanted: false,
            intercepting: false,
            fastio: FastIoDispatch::full(),
            frames: Vec::new(),
        }
    }

    /// Attaches `filter` at the top of the stack (above every layer
    /// already present), as `IoAttachDevice` does.
    pub fn attach(&mut self, filter: Box<dyn FilterDriver>) {
        self.filters.insert(0, filter);
        self.counters.insert(0, LayerCounters::default());
        self.refresh();
    }

    /// Recomputes the cached aggregate views of the layers.
    fn refresh(&mut self) {
        self.events_wanted = self.filters.iter().any(|f| f.wants_events());
        self.intercepting = self.filters.iter().any(|f| f.intercepts());
        self.fastio = self
            .filters
            .iter()
            .fold(FastIoDispatch::full(), |t, f| t.intersect(f.fastio()));
    }

    /// Number of attached layers (the FSD below them is not counted).
    pub fn len(&self) -> usize {
        self.filters.len()
    }

    /// True when no filter is attached.
    pub fn is_empty(&self) -> bool {
        self.filters.is_empty()
    }

    /// True when some layer consumes trace records.
    #[inline]
    pub(crate) fn events_wanted(&self) -> bool {
        self.events_wanted
    }

    /// True when some layer intercepts packets (pre/post).
    #[inline]
    pub fn intercepting(&self) -> bool {
        self.intercepting
    }

    /// The stack's effective FastIO table.
    pub fn fastio(&self) -> FastIoDispatch {
        self.fastio
    }

    /// Whether a FastIO call of `kind` goes through, or falls back to
    /// its IRP (§10's per-entry opt-out rule).
    #[inline]
    pub(crate) fn fastio_supported(&self, kind: crate::request::FastIoKind) -> bool {
        self.fastio.supports(kind)
    }

    /// Broadcasts a trace record to every layer that wants one.
    #[inline]
    pub fn event(&mut self, event: &IoEvent) {
        for f in &mut self.filters {
            if f.wants_events() {
                f.event(event);
            }
        }
    }

    /// Broadcasts a file-object name record.
    pub fn file_object(&mut self, info: &FileObjectInfo) {
        for f in &mut self.filters {
            if f.wants_events() {
                f.file_object(info);
            }
        }
    }

    /// Runs layer `i`'s pre hook, recording where the packet went.
    pub(crate) fn pre(&mut self, i: usize, frame: &mut IrpFrame) -> FilterAction {
        let action = self.filters[i].pre(frame);
        match action {
            FilterAction::Pass => self.counters[i].passed += 1,
            FilterAction::Complete(_) => self.counters[i].completed += 1,
        }
        action
    }

    /// Runs layer `i`'s completion hook.
    pub(crate) fn post(&mut self, i: usize, frame: &IrpFrame, reply: &mut OpReply) {
        self.filters[i].post(frame, reply);
    }

    /// Start of this dispatch's frame records in the pooled array.
    pub(crate) fn frames_mark(&self) -> usize {
        self.frames.len()
    }

    /// Records the packet as one layer passed it down.
    pub(crate) fn push_frame(&mut self, frame: IrpFrame) {
        self.frames.push(frame);
    }

    /// The recorded frame at absolute position `at`.
    pub(crate) fn frame_at(&self, at: usize) -> IrpFrame {
        self.frames[at]
    }

    /// Releases this dispatch's frame records back to the pool.
    pub(crate) fn truncate_frames(&mut self, mark: usize) {
        self.frames.truncate(mark);
    }

    /// Records a packet that the FSD completed.
    pub(crate) fn note_fsd_completion(&mut self) {
        self.fsd_completed += 1;
    }

    /// Packets completed by the FSD at the bottom of the stack.
    pub fn fsd_completed(&self) -> u64 {
        self.fsd_completed
    }

    /// The attached layers' names and completion counters, top first.
    pub fn layers(&self) -> Vec<(&'static str, LayerCounters)> {
        self.filters
            .iter()
            .zip(&self.counters)
            .map(|(f, c)| (f.name(), *c))
            .collect()
    }

    /// The first attached layer of concrete type `T`, top-down.
    pub fn find<T: FilterDriver>(&self) -> Option<&T> {
        self.filters.iter().find_map(|f| f.as_any().downcast_ref())
    }

    /// Mutable access to the first layer of concrete type `T`.
    pub(crate) fn find_mut<T: FilterDriver>(&mut self) -> Option<&mut T> {
        self.filters
            .iter_mut()
            .find_map(|f| f.as_any_mut().downcast_mut())
    }
}

impl Default for DriverStack {
    fn default() -> Self {
        DriverStack::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fastio::FastIoDispatch;
    use crate::request::FastIoKind;
    use crate::status::NtStatus;

    struct Completer;
    impl FilterDriver for Completer {
        fn name(&self) -> &'static str {
            "completer"
        }
        fn pre(&mut self, frame: &mut IrpFrame) -> FilterAction {
            FilterAction::Complete(OpReply {
                status: NtStatus::AccessDenied,
                transferred: 0,
                end: frame.now,
            })
        }
        fn intercepts(&self) -> bool {
            true
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    struct Veto;
    impl FilterDriver for Veto {
        fn name(&self) -> &'static str {
            "veto"
        }
        fn fastio(&self) -> FastIoDispatch {
            FastIoDispatch::full().without(FastIoKind::Read)
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn attach_puts_the_new_layer_on_top_and_refreshes_caches() {
        let mut s = DriverStack::new();
        assert!(s.is_empty());
        assert!(!s.intercepting());
        s.attach(Box::new(Veto));
        assert!(!s.intercepting(), "a table-only filter never intercepts");
        assert!(!s.fastio_supported(FastIoKind::Read));
        assert!(s.fastio_supported(FastIoKind::Write));
        s.attach(Box::new(Completer));
        assert!(s.intercepting());
        assert_eq!(s.layers()[0].0, "completer", "last attached is on top");
        assert!(s.find::<Veto>().is_some());
        assert!(s.find_mut::<Completer>().is_some());
    }

    #[test]
    fn counters_track_where_packets_complete() {
        let mut s = DriverStack::new();
        s.attach(Box::new(Completer));
        let mut frame = IrpFrame {
            major: Some(MajorFunction::Read),
            label: "read",
            handle: None,
            process: None,
            offset: 0,
            length: 0,
            now: SimTime::ZERO,
        };
        match s.pre(0, &mut frame) {
            FilterAction::Complete(reply) => assert_eq!(reply.status, NtStatus::AccessDenied),
            FilterAction::Pass => panic!("completer completes"),
        }
        assert_eq!(s.layers()[0].1.completed, 1);
        assert_eq!(s.fsd_completed(), 0);
    }
}
