//! One traced workstation: volumes, cache, VM, FCBs, handles and the I/O
//! manager's dispatch engine.
//!
//! Requests enter through Win32-level methods ([`Machine::create`],
//! [`Machine::read`], … — implemented in the [`crate::ops`] modules).
//! Each builds an [`IrpFrame`] and hands it to `Machine::dispatch`,
//! which walks the attached [`DriverStack`] `IoCallDriver`-style: every
//! filter sees the packet on the way down (and may complete it, adjust
//! its clock, or pass it on) and the completed reply on the way back up.
//! The FSD plus cache-manager/VM fast path at the bottom computes the
//! completion time through the latency model and reports every IRP and
//! FastIO call — including the paging I/O triggered by the cache and VM
//! managers — to the machine's observer, the study's trace agent.
//!
//! Background activity (read-ahead completions, the deferred second stage
//! of the two-stage close) is queued internally with its due time and
//! applied by [`Machine::pump`], which every public operation calls first.
//! The machine owns the lazy writer's schedule: one scan per
//! [`CacheConfig::lazy_write_interval`] (§9.2: every second). The driver
//! that owns the clock runs it by calling [`Machine::run_lazy_writer`]
//! with the current time: the live study's engine re-arms on the due
//! time it returns, and the synthetic bench and what-if replay call it
//! before each request they issue.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

use nt_cache::{CacheConfig, CacheManager, CacheOpenHints, CLEAN_CLOSE_DELAY};
use nt_fs::{FileAttributes, Namespace, NodeId, VolumeConfig, VolumeId};
use nt_obs::{Phase, Telemetry};
use nt_sim::SimTime;
use nt_vm::VmManager;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::arena::{Arena, ArenaHandle};
use crate::fastio::irp_fallback;
use crate::fcb::FcbTable;
use crate::latency::{DiskParams, LatencyModel};
use crate::observer::IoObserver;
use crate::request::{EventKind, FastIoKind, IoEvent, MajorFunction};
use crate::stack::{DriverStack, FilterAction, FilterDriver, IrpFrame};
use crate::status::NtStatus;
use crate::types::{AccessMode, CreateOptions, FcbId, FileObjectId, HandleId, ProcessId};

/// Stable identity of a file for cache/VM keying: sections and cache maps
/// outlive FCBs (image pages survive process exit, §3.3).
pub(crate) type FileKey = (VolumeId, NodeId);

/// One pended change-notification: `(handle, file object, fcb, process,
/// registration time)`.
pub(crate) type WatchEntry = (HandleId, FileObjectId, FcbId, ProcessId, SimTime);

/// Hands one trace event to the machine's observer, counting it either
/// way.
///
/// Expands inside `impl<O: IoObserver> Machine<O>`. The `IoEvent`
/// expression is only evaluated when `O::ENABLED`: a machine whose
/// observer is `NullObserver` skips the whole struct construction on its
/// request hot path. The counter still advances so the conservation
/// ledger's TRACE_EVENTS debit stays identical whether or not anyone is
/// listening.
macro_rules! emit_event {
    ($self:ident, $ev:expr) => {{
        $self.metrics.events_emitted += 1;
        if O::ENABLED {
            let ev = $ev;
            $self.observer.event(&ev);
        }
    }};
}
pub(crate) use emit_event;

/// Result of one I/O operation.
#[derive(Clone, Copy, Debug)]
pub struct OpReply {
    /// Completion status.
    pub status: NtStatus,
    /// Bytes transferred (reads/writes), entries returned (directory).
    pub transferred: u64,
    /// Completion timestamp; the caller resumes no earlier than this.
    pub end: SimTime,
}

impl OpReply {
    pub(crate) fn at(status: NtStatus, end: SimTime) -> Self {
        OpReply {
            status,
            transferred: 0,
            end,
        }
    }
}

/// Machine-wide request counters (the §8/§10 denominators).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IoMetrics {
    /// Successful opens.
    pub opens: u64,
    /// Failed opens (§8.4: 12 %).
    pub open_failures: u64,
    /// Data reads served on the FastIO path.
    pub fastio_reads: u64,
    /// Data reads served on the IRP path (non-paging).
    pub irp_reads: u64,
    /// Data writes on the FastIO path.
    pub fastio_writes: u64,
    /// Data writes on the IRP path (non-paging).
    pub irp_writes: u64,
    /// Paging reads (PagingIO bit set).
    pub paging_reads: u64,
    /// Paging writes.
    pub paging_writes: u64,
    /// Read errors (end-of-file), §8.4's 0.2 %.
    pub read_errors: u64,
    /// Control / query / directory operations.
    pub control_ops: u64,
    /// Failed control operations (§8.4: 8 %).
    pub control_failures: u64,
    /// Cleanup IRPs issued.
    pub cleanups: u64,
    /// Close IRPs issued.
    pub closes: u64,
    /// Bytes read by applications (either path).
    pub bytes_read: u64,
    /// Bytes written by applications.
    pub bytes_written: u64,
    /// Files deleted via explicit disposition.
    pub explicit_deletes: u64,
    /// Files destroyed by truncating dispositions.
    pub overwrite_truncates: u64,
    /// Files deleted through the temporary-attribute/delete-on-close path.
    pub delete_on_close: u64,
    /// Opens denied by share-mode arbitration.
    pub sharing_violations: u64,
    /// Byte-range lock requests granted.
    pub locks_granted: u64,
    /// Byte-range lock requests denied (lock conflicts).
    pub lock_conflicts: u64,
    /// Requests against remote volumes refused because the network link
    /// was partitioned (fault injection).
    pub network_failures: u64,
    /// Data-read requests accepted by the dispatcher (valid handle with
    /// read access). Conservation: every one lands in exactly one of
    /// `fastio_reads`, `irp_reads`, `read_lock_conflicts` or
    /// `read_stat_failures`.
    pub read_dispatches: u64,
    /// Data-write requests accepted by the dispatcher; same identity
    /// against the write buckets.
    pub write_dispatches: u64,
    /// Data reads refused by byte-range lock arbitration.
    pub read_lock_conflicts: u64,
    /// Data writes refused by byte-range lock arbitration.
    pub write_lock_conflicts: u64,
    /// Data reads aborted because the size query failed.
    pub read_stat_failures: u64,
    /// Data writes aborted because the size update failed.
    pub write_stat_failures: u64,
    /// Bytes moved by paging reads (cache misses, read-ahead and VM
    /// section faults). Conservation: equals the cache's
    /// `demand_read_bytes + readahead_bytes` plus the VM's
    /// `paged_in_bytes`.
    pub paging_read_bytes: u64,
    /// Bytes moved by paging writes (lazy writer, flushes, write-through).
    pub paging_write_bytes: u64,
    /// Bytes requested by copy-reads that went through the cache manager
    /// (mirror of the cache's `requested_read_bytes`).
    pub cached_read_requested_bytes: u64,
    /// Trace events handed to the observer — the debit side of the
    /// records-traced ledger.
    pub events_emitted: u64,
}

impl IoMetrics {
    /// Posts the I/O layer's side of the conservation accounts.
    ///
    /// The dispatcher originates (debits) everything it accepted — read and
    /// write requests, paging traffic, cache-bound request bytes, trace
    /// events — and credits the §10 path split it performed itself. The
    /// cache, VM, and trace layers credit the rest; a balanced ledger means
    /// no request was double-counted or silently dropped between layers.
    pub fn post_conservation(&self, ledger: &mut nt_audit::Ledger) {
        use nt_audit::accounts::*;
        ledger.debit(READ_DISPATCH, self.read_dispatches);
        ledger.credit(
            READ_DISPATCH,
            self.fastio_reads + self.irp_reads + self.read_lock_conflicts + self.read_stat_failures,
        );
        ledger.debit(WRITE_DISPATCH, self.write_dispatches);
        ledger.credit(
            WRITE_DISPATCH,
            self.fastio_writes
                + self.irp_writes
                + self.write_lock_conflicts
                + self.write_stat_failures,
        );
        ledger.debit(PAGING_READ_IOS, self.paging_reads);
        ledger.debit(PAGING_READ_BYTES, self.paging_read_bytes);
        ledger.debit(PAGING_WRITE_IOS, self.paging_writes);
        ledger.debit(PAGING_WRITE_BYTES, self.paging_write_bytes);
        ledger.debit(CACHE_REQUEST_BYTES, self.cached_read_requested_bytes);
        ledger.debit(TRACE_EVENTS, self.events_emitted);
    }
}

/// Static configuration of a machine: what a study, an ablation or a
/// what-if variant sets. The rest are constants of the layers that read them.
#[derive(Clone, Debug)]
pub struct MachineConfig {
    /// Seed for the machine's service-time randomness.
    pub seed: u64,
    /// Cache-manager policy axes.
    pub cache: CacheConfig,
    /// Budget for clean resident cache data before cold maps are trimmed.
    pub cache_budget_bytes: u64,
    /// Ablation: remove the FastIO dispatch table, forcing every data
    /// request down the IRP path (what a filter driver that fails to
    /// implement the FastIO methods does to a system, §10). Unlike a
    /// [`crate::filters::FastIoVeto`] — which relabels the call but keeps
    /// the cache-copy service time — this ablation also charges the IRP
    /// path's latency.
    pub disable_fastio: bool,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            seed: 0,
            cache: CacheConfig::default(),
            cache_budget_bytes: 1 << 20,
            disable_fastio: false,
        }
    }
}

pub(crate) struct OpenHandle {
    pub(crate) fo: FileObjectId,
    pub(crate) fcb: FcbId,
    pub(crate) fcb_slot: ArenaHandle,
    pub(crate) volume: VolumeId,
    pub(crate) node: NodeId,
    pub(crate) process: ProcessId,
    pub(crate) access: AccessMode,
    pub(crate) options: CreateOptions,
    pub(crate) byte_offset: u64,
    pub(crate) dir_cursor: usize,
    pub(crate) mapped: bool,
}

pub(crate) enum Pending {
    RaComplete {
        key: FileKey,
        offset: u64,
        len: u64,
    },
    CloseIrp {
        fo: FileObjectId,
        fcb: FcbId,
        fcb_slot: ArenaHandle,
        volume: VolumeId,
        node: NodeId,
        process: ProcessId,
    },
}

/// One simulated workstation.
///
/// The type parameter is the machine's observer — the trace agent, a test
/// vector, or [`crate::observer::NullObserver`] — which receives every
/// record the FSD completes. Filters that act on packets attach to the
/// driver stack through [`Machine::attach_filter`].
pub struct Machine<O: IoObserver> {
    pub(crate) ns: Namespace,
    pub(crate) fcbs: FcbTable,
    pub(crate) cache: CacheManager<FileKey>,
    pub(crate) vm: VmManager<FileKey>,
    pub(crate) latency: LatencyModel,
    pub(crate) stack: DriverStack,
    pub(crate) rng: SmallRng,
    pub(crate) handles: Arena<OpenHandle>,
    pub(crate) next_fo: u64,
    /// Scheduled background actions in a slab; the heap carries each
    /// action's due time, a FIFO tie-break sequence and its packed slot.
    pub(crate) pending: BinaryHeap<Reverse<(SimTime, u64, u64)>>,
    pub(crate) pending_actions: Arena<Pending>,
    pub(crate) pending_seq: u64,
    /// File objects whose deferred close waits for the lazy writer to
    /// drain; several opens of the same file can be queued at once. The
    /// stored time is each cleanup's completion, which its close IRP
    /// must not precede. BTreeMap: iteration feeds events, so the order
    /// must be deterministic.
    #[allow(clippy::type_complexity)]
    pub(crate) deferred_close:
        BTreeMap<FileKey, Vec<(FileObjectId, FcbId, ArenaHandle, ProcessId, SimTime)>>,
    /// Pending change-notification IRPs per watched directory. The IRP
    /// stays pended from registration until a change in the directory
    /// completes it (FindFirstChangeNotification). BTreeMap for the same
    /// reason as `deferred_close`.
    pub(crate) watches: BTreeMap<FileKey, Vec<WatchEntry>>,
    /// Share-mode arbitration and byte-range locks, keyed by file.
    pub(crate) shares: crate::sharing::ShareRegistry,
    pub(crate) metrics: IoMetrics,
    pub(crate) config: MachineConfig,
    /// When the lazy writer's next scan is due; it scans once per
    /// `config.cache.lazy_write_interval`.
    pub(crate) next_lazy_scan: SimTime,
    /// False while the network link to the file servers is partitioned;
    /// requests against redirector volumes then fail with
    /// [`NtStatus::NetworkUnreachable`].
    pub(crate) network_up: bool,
    pub(crate) observer: O,
    /// Opens each dispatch's span; the cache and VM managers hold clones.
    pub(crate) telemetry: Telemetry,
}

impl<O: IoObserver> Machine<O> {
    /// Creates a machine with no volumes and an empty driver stack,
    /// reporting its records to `observer`.
    ///
    /// Panics when `config.cache.lazy_write_interval` is zero: the lazy
    /// writer could never advance the clock.
    pub fn new(config: MachineConfig, observer: O) -> Self {
        let lazy_period = config.cache.lazy_write_interval;
        assert!(
            !lazy_period.is_zero(),
            "lazy_write_interval must be positive"
        );
        Machine {
            ns: Namespace::new(),
            fcbs: FcbTable::new(),
            cache: CacheManager::new(config.cache.clone()),
            vm: VmManager::new(),
            latency: LatencyModel::new(Vec::new()),
            stack: DriverStack::new(),
            rng: SmallRng::seed_from_u64(config.seed),
            handles: Arena::new(),
            next_fo: 1,
            pending: BinaryHeap::new(),
            pending_actions: Arena::new(),
            pending_seq: 0,
            deferred_close: BTreeMap::new(),
            watches: BTreeMap::new(),
            shares: crate::sharing::ShareRegistry::new(),
            metrics: IoMetrics::default(),
            config,
            next_lazy_scan: SimTime::ZERO + lazy_period,
            network_up: true,
            observer,
            telemetry: Telemetry::off(),
        }
    }

    /// Attaches a telemetry handle: every dispatch opens a
    /// [`Phase::Dispatch`] span through it, and the cache and VM managers
    /// share it so their spans nest under the dispatch spans.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.cache.set_telemetry(telemetry.clone());
        self.vm.set_telemetry(telemetry.clone());
        self.telemetry = telemetry;
    }

    /// Partitions (`false`) or heals (`true`) the network link. While
    /// partitioned, opens, reads and writes on remote volumes fail with
    /// [`NtStatus::NetworkUnreachable`]; local volumes are unaffected.
    pub fn set_network_available(&mut self, up: bool) {
        self.network_up = up;
    }

    /// Adds a local volume with its disk model.
    pub fn add_local_volume(
        &mut self,
        drive: char,
        config: VolumeConfig,
        disk: DiskParams,
    ) -> VolumeId {
        let id = self.ns.mount_local(drive, config);
        self.latency.add_volume(disk);
        id
    }

    /// Connects a redirector share.
    pub fn add_share(
        &mut self,
        server: &str,
        share: &str,
        config: VolumeConfig,
        disk: DiskParams,
    ) -> VolumeId {
        let id = self.ns.mount_share(server, share, config);
        self.latency.add_volume(disk);
        id
    }

    /// The machine's namespace (for workload setup and snapshots).
    pub fn namespace(&self) -> &Namespace {
        &self.ns
    }

    /// Mutable namespace access (initial content population).
    pub fn namespace_mut(&mut self) -> &mut Namespace {
        &mut self.ns
    }

    /// The driver stack the machine dispatches through.
    pub fn stack(&self) -> &DriverStack {
        &self.stack
    }

    /// Attaches `filter` at the top of the driver stack, above every
    /// layer already present.
    pub fn attach_filter(&mut self, filter: Box<dyn FilterDriver>) {
        self.stack.attach(filter);
    }

    /// The machine's observer (the one [`Machine::new`] was given).
    pub fn observer(&self) -> &O {
        &self.observer
    }

    /// Mutable observer access (e.g. to drain collected records).
    pub fn observer_mut(&mut self) -> &mut O {
        &mut self.observer
    }

    /// Request counters.
    pub fn metrics(&self) -> IoMetrics {
        self.metrics
    }

    /// Cache-manager counters (§9 analysis).
    pub fn cache_metrics(&self) -> nt_cache::CacheMetrics {
        self.cache.metrics()
    }

    /// VM counters (§3.3 analysis).
    pub fn vm_metrics(&self) -> nt_vm::VmMetrics {
        self.vm.metrics()
    }

    /// Cumulative disk service ticks across the machine's volumes — the
    /// what-if latency-model axis (§9 simulation studies).
    pub fn disk_busy_ticks(&self) -> u64 {
        self.latency.disk_busy_ticks()
    }

    /// Dirty cached bytes that have not reached the disk (yet). At end of
    /// run this is the residual term of the dirty-byte conservation
    /// ledger: bytes dirtied = lazy + flush + purged + residual.
    pub fn residual_dirty_bytes(&self) -> u64 {
        self.cache.dirty_bytes()
    }

    /// Number of open handles.
    pub fn open_handles(&self) -> usize {
        self.handles.len()
    }

    /// Bytes currently resident in the cache manager (sampler gauge).
    pub fn cache_resident_bytes(&self) -> u64 {
        self.cache.resident_bytes()
    }

    /// Number of files whose close is still waiting on the lazy writer.
    pub fn deferred_closes(&self) -> usize {
        self.deferred_close.len()
    }

    // ------------------------------------------------------------------
    // IRP dispatch through the driver stack
    // ------------------------------------------------------------------

    /// Sends `frame` down the driver stack and, if no filter completes
    /// it, into the FSD closure; the reply ascends back through every
    /// layer the packet passed.
    ///
    /// One [`Phase::Dispatch`] span, named after the frame's label,
    /// brackets the whole request; with telemetry off its guard is empty.
    /// When no attached filter intercepts packets the descent is skipped
    /// outright.
    pub(crate) fn dispatch_with<R: Default>(
        &mut self,
        mut frame: IrpFrame,
        fsd: impl FnOnce(&mut Self, &IrpFrame) -> (OpReply, R),
    ) -> (OpReply, R) {
        let _span = self.telemetry.span(Phase::Dispatch, frame.label, frame.now);
        if !self.stack.intercepting() {
            let out = fsd(self, &frame);
            self.stack.note_fsd_completion();
            return out;
        }
        let layers = self.stack.len();
        let mark = self.stack.frames_mark();
        let mut depth = layers;
        let mut short_circuit = None;
        for i in 0..layers {
            match self.stack.pre(i, &mut frame) {
                FilterAction::Pass => self.stack.push_frame(frame),
                FilterAction::Complete(reply) => {
                    depth = i;
                    short_circuit = Some(reply);
                    break;
                }
            }
        }
        let (mut reply, value) = match short_circuit {
            Some(reply) => (reply, R::default()),
            None => {
                let out = fsd(self, &frame);
                self.stack.note_fsd_completion();
                out
            }
        };
        // Ascend: each layer completes against its own recorded stack
        // location, the packet exactly as it passed it down.
        for i in (0..depth).rev() {
            let layer_frame = self.stack.frame_at(mark + i);
            self.stack.post(i, &layer_frame, &mut reply);
        }
        self.stack.truncate_frames(mark);
        (reply, value)
    }

    /// [`Machine::dispatch_with`] for operations with no extra result.
    pub(crate) fn dispatch(
        &mut self,
        frame: IrpFrame,
        fsd: impl FnOnce(&mut Self, &IrpFrame) -> OpReply,
    ) -> OpReply {
        self.dispatch_with(frame, |m, f| (fsd(m, f), ())).0
    }

    /// The event kind a FastIO call of `kind` actually rides: the
    /// procedural path when every layer's table implements it, or the
    /// documented IRP fallback when some layer opted out (§10).
    pub(crate) fn fastio_event_kind(&self, kind: FastIoKind) -> EventKind {
        if self.stack.fastio_supported(kind) {
            EventKind::FastIo(kind)
        } else {
            EventKind::Irp(irp_fallback(kind))
        }
    }

    // ------------------------------------------------------------------
    // Background completions
    // ------------------------------------------------------------------

    pub(crate) fn schedule(&mut self, due: SimTime, action: Pending) {
        let seq = self.pending_seq;
        self.pending_seq += 1;
        let slot = self.pending_actions.insert(action);
        self.pending.push(Reverse((due, seq, slot.pack())));
    }

    /// Applies background completions due at or before `now`.
    pub fn pump(&mut self, now: SimTime) {
        while let Some(&Reverse((due, _, slot))) = self.pending.peek() {
            if due > now {
                break;
            }
            self.pending.pop();
            let Some(action) = self.pending_actions.remove_raw(slot) else {
                continue;
            };
            match action {
                Pending::RaComplete { key, offset, len } => {
                    self.cache.complete_paging_read(&key, offset, len);
                }
                Pending::CloseIrp {
                    fo,
                    fcb,
                    fcb_slot,
                    volume,
                    node,
                    process,
                } => {
                    self.emit_close_irp(fo, fcb, fcb_slot, volume, node, process, due);
                }
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn emit_close_irp(
        &mut self,
        fo: FileObjectId,
        fcb: FcbId,
        fcb_slot: ArenaHandle,
        volume: VolumeId,
        node: NodeId,
        process: ProcessId,
        now: SimTime,
    ) {
        let end = now + self.latency.fastio_metadata();
        let file_size = self
            .ns
            .volume(volume)
            .ok()
            .and_then(|v| v.file_size(node).ok())
            .unwrap_or(0);
        emit_event!(
            self,
            IoEvent {
                kind: EventKind::Irp(MajorFunction::Close),
                file_object: fo,
                fcb,
                process,
                volume: volume.0,
                local: self.ns.is_local(volume),
                paging_io: false,
                readahead: false,
                offset: 0,
                length: 0,
                transferred: 0,
                file_size,
                byte_offset: 0,
                status: NtStatus::Success,
                start: now,
                end,
                access: None,
                disposition: None,
                options: None,
                set_info: None,
                created: false,
            }
        );
        self.metrics.closes += 1;
        self.fcbs.close(fcb_slot);
    }

    /// Completes any deferred closes queued on `key` — the cache map is
    /// about to be purged (delete/overwrite), so the lazy writer will
    /// never signal the drain.
    pub(crate) fn release_deferred(&mut self, key: FileKey, now: SimTime) {
        if let Some(waiters) = self.deferred_close.remove(&key) {
            let (volume, node) = key;
            for (fo, fcb, fcb_slot, process, cleaned) in waiters {
                let at = now.max(cleaned + CLEAN_CLOSE_DELAY);
                self.emit_close_irp(fo, fcb, fcb_slot, volume, node, process, at);
            }
        }
    }

    pub(crate) fn next_file_object(&mut self) -> FileObjectId {
        let id = FileObjectId(self.next_fo);
        self.next_fo += 1;
        id
    }

    pub(crate) fn parent_of(&self, volume: VolumeId, node: NodeId) -> Option<NodeId> {
        self.ns
            .volume(volume)
            .ok()
            .and_then(|v| v.node(node).ok())
            .and_then(|n| n.parent)
    }

    pub(crate) fn is_compressed(&self, volume: VolumeId, node: NodeId) -> bool {
        self.ns
            .volume(volume)
            .ok()
            .and_then(|v| v.node(node).ok())
            .and_then(|n| n.file().map(|f| f.attributes))
            .map(|a| a.contains(FileAttributes::COMPRESSED))
            .unwrap_or(false)
    }

    pub(crate) fn hints_for(options: CreateOptions) -> CacheOpenHints {
        CacheOpenHints {
            sequential_only: options.sequential_only,
            write_through: options.write_through,
            temporary: options.temporary,
        }
    }

    pub(crate) fn advance_offset(&mut self, handle: HandleId, new_offset: u64) {
        if let Some(h) = self.handles.get_raw_mut(handle.0) {
            h.byte_offset = new_offset;
        }
    }

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn emit_read_event(
        &mut self,
        kind: EventKind,
        fo: FileObjectId,
        fcb: FcbId,
        process: ProcessId,
        volume: VolumeId,
        local: bool,
        paging: bool,
        readahead: bool,
        offset: u64,
        length: u64,
        transferred: u64,
        file_size: u64,
        byte_offset: u64,
        start: SimTime,
        end: SimTime,
    ) {
        emit_event!(
            self,
            IoEvent {
                kind,
                file_object: fo,
                fcb,
                process,
                volume: volume.0,
                local,
                paging_io: paging,
                readahead,
                offset,
                length,
                transferred,
                file_size,
                byte_offset,
                status: NtStatus::Success,
                start,
                end,
                access: None,
                disposition: None,
                options: None,
                set_info: None,
                created: false,
            }
        );
    }

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn emit_write_event(
        &mut self,
        kind: EventKind,
        fo: FileObjectId,
        fcb: FcbId,
        process: ProcessId,
        volume: VolumeId,
        local: bool,
        paging: bool,
        offset: u64,
        length: u64,
        file_size: u64,
        byte_offset: u64,
        start: SimTime,
        end: SimTime,
    ) {
        emit_event!(
            self,
            IoEvent {
                kind,
                file_object: fo,
                fcb,
                process,
                volume: volume.0,
                local,
                paging_io: paging,
                readahead: false,
                offset,
                length,
                transferred: length,
                file_size,
                byte_offset,
                status: NtStatus::Success,
                start,
                end,
                access: None,
                disposition: None,
                options: None,
                set_info: None,
                created: false,
            }
        );
    }
}
