//! The per-machine trace agent and its filter driver (§3).
//!
//! "On each system a trace agent is installed that provides an access
//! point for remote control of the tracing process. The trace agent is
//! responsible for taking the periodic snapshots and for directing the
//! stream of trace events towards the collection servers. … If a trace
//! agent loses contact with the collection servers it will suspend the
//! local operation until the connection is re-established."

use std::collections::VecDeque;

use nt_io::observer::FileObjectInfo;
use nt_io::{IoEvent, IoObserver};
use nt_obs::{FlightEvent, FlightRecorder, Phase, RecorderScope, ShipmentTracer, Telemetry};

use crate::buffer::TripleBuffer;
use crate::collector::MachineId;
use crate::fault::LossLedger;
use crate::pool::RecordSink;
use crate::record::{NameRecord, TraceRecord};

/// A full buffer on the delivery queue, carrying the simulated ticks the
/// shipment-trace spans are cut from: when its first record was captured
/// (the batch window opening) and when it was queued for shipment.
struct PendingBatch {
    seq: u64,
    open_ticks: u64,
    enqueue_ticks: u64,
    records: Vec<TraceRecord>,
}

/// Connection state of an agent.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AgentState {
    /// Streaming to a collection server.
    Connected,
    /// Lost contact; local tracing is suspended and events are not
    /// recorded (the paper's agents stop rather than spill to disk).
    Suspended,
}

/// The filter driver: an [`IoObserver`] converting every request into a
/// [`TraceRecord`] in the triple-buffered store.
///
/// Full buffers move to a pending queue stamped with a per-machine
/// sequence number, so a delivery that fails (collection servers down)
/// simply leaves the batch queued for the next attempt, and batches that
/// fail over between servers still reassemble in agent order.
pub struct TraceFilter {
    machine: MachineId,
    buffer: TripleBuffer,
    names: Vec<NameRecord>,
    state: AgentState,
    /// Buffers filled and awaiting shipping (observable to tests).
    fills: u64,
    /// Full buffers taken out of the triple buffer, awaiting delivery.
    pending: VecDeque<PendingBatch>,
    /// Name records awaiting delivery.
    pending_names: VecDeque<(u64, NameRecord)>,
    next_batch_seq: u64,
    next_name_seq: u64,
    delivered: u64,
    dropped_suspended: u64,
    batches_shipped: u64,
    batches_retried: u64,
    downtime_ticks: u64,
    /// Tick at which the current suspension began, when suspended.
    suspended_at: Option<u64>,
    telemetry: Telemetry,
    /// Emits batch/ship hop spans on successful deliveries.
    tracer: ShipmentTracer,
    /// Receives this machine's pipeline events (suspensions, drops,
    /// refusals) for the post-mortem dump.
    recorder: FlightRecorder,
    /// Latest finite tick a batch was successfully delivered at.
    last_delivery_ticks: u64,
    /// Suspension drops already reported to the flight recorder.
    reported_suspended: u64,
    /// Overflow drops already reported to the flight recorder.
    reported_overflow: u64,
}

impl TraceFilter {
    /// A connected filter for one machine.
    pub fn new(machine: MachineId) -> Self {
        Self::with_capacity(machine, crate::buffer::BUFFER_CAPACITY)
    }

    /// A connected filter whose storage buffers hold `capacity` records
    /// (fault plans squeeze this below the paper's 3,000).
    pub fn with_capacity(machine: MachineId, capacity: usize) -> Self {
        TraceFilter {
            machine,
            buffer: TripleBuffer::with_capacity(capacity),
            names: Vec::new(),
            state: AgentState::Connected,
            fills: 0,
            pending: VecDeque::new(),
            pending_names: VecDeque::new(),
            next_batch_seq: 0,
            next_name_seq: 0,
            delivered: 0,
            dropped_suspended: 0,
            batches_shipped: 0,
            batches_retried: 0,
            downtime_ticks: 0,
            suspended_at: None,
            telemetry: Telemetry::off(),
            tracer: ShipmentTracer::off(),
            recorder: FlightRecorder::off(),
            last_delivery_ticks: 0,
            reported_suspended: 0,
            reported_overflow: 0,
        }
    }

    /// Attaches a telemetry handle; shipping spans inherit the machine's
    /// simulated clock from the enclosing dispatch span high-water mark.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Attaches the shipment tracer (batch/ship hop spans on delivery)
    /// and flight recorder (suspensions, drops, refusals into this
    /// machine's scope). Both default to off and cost nothing then.
    pub fn set_shipment_hooks(&mut self, tracer: ShipmentTracer, recorder: FlightRecorder) {
        self.tracer = tracer;
        self.recorder = recorder;
    }

    /// The machine this filter instruments.
    pub fn machine(&self) -> MachineId {
        self.machine
    }

    /// Current connection state.
    pub fn state(&self) -> AgentState {
        self.state
    }

    /// Simulates losing / regaining the collection-server connection,
    /// without downtime accounting (tests and legacy callers).
    pub fn set_state(&mut self, state: AgentState) {
        self.state = state;
    }

    /// State change at a known virtual time; suspended spans accumulate
    /// into the ledger's `downtime_ticks`.
    pub fn transition(&mut self, state: AgentState, now_ticks: u64) {
        if state == self.state {
            return;
        }
        match state {
            AgentState::Suspended => {
                self.suspended_at = Some(now_ticks);
                self.recorder.record(
                    RecorderScope::Machine(self.machine.0),
                    FlightEvent::AgentSuspended { ticks: now_ticks },
                );
            }
            AgentState::Connected => {
                if let Some(since) = self.suspended_at.take() {
                    self.downtime_ticks += now_ticks.saturating_sub(since);
                }
                self.recorder.record(
                    RecorderScope::Machine(self.machine.0),
                    FlightEvent::AgentResumed {
                        ticks: now_ticks,
                        downtime_ticks: self.downtime_ticks,
                    },
                );
                // A reconnect is where suspension drops become visible;
                // report the delta while the window is fresh.
                self.report_drops(now_ticks);
            }
        }
        self.state = state;
    }

    /// Records accepted so far.
    pub fn recorded(&self) -> u64 {
        self.buffer.recorded()
    }

    /// True when the buffers ever overflowed (§3.2: never in the study).
    pub fn overflowed(&self) -> bool {
        self.buffer.overflowed()
    }

    /// Times a buffer filled.
    pub fn buffer_fills(&self) -> u64 {
        self.fills
    }

    /// Records sitting in taken-but-undelivered batches.
    pub fn pending_records(&self) -> usize {
        self.pending.iter().map(|b| b.records.len()).sum()
    }

    /// Taken-but-undelivered batches — the collector backlog the
    /// watchdogs sample.
    pub fn pending_batches(&self) -> usize {
        self.pending.len()
    }

    /// Latest finite simulated tick a batch delivery succeeded at
    /// (0 when none has) — feeds the shard-stall watchdog.
    pub fn last_delivery_ticks(&self) -> u64 {
        self.last_delivery_ticks
    }

    /// Reports any record drops (overflow or suspension) that happened
    /// since the last report as one aggregated flight-recorder event
    /// carrying both deltas and cumulative totals.
    fn report_drops(&mut self, now_ticks: u64) {
        if !self.recorder.is_enabled() {
            return;
        }
        let total_overflow = self.buffer.dropped();
        let total_suspended = self.dropped_suspended;
        let overflow_delta = total_overflow - self.reported_overflow;
        let suspended_delta = total_suspended - self.reported_suspended;
        if overflow_delta == 0 && suspended_delta == 0 {
            return;
        }
        self.reported_overflow = total_overflow;
        self.reported_suspended = total_suspended;
        self.recorder.record(
            RecorderScope::Machine(self.machine.0),
            FlightEvent::RecordsDropped {
                ticks: now_ticks,
                suspended_delta,
                overflow_delta,
                total_suspended,
                total_overflow,
            },
        );
    }

    /// End-of-run loss accounting for this agent.
    pub fn ledger(&self) -> LossLedger {
        LossLedger {
            recorded: self.buffer.recorded() + self.buffer.dropped(),
            delivered: self.delivered,
            dropped_overflow: self.buffer.dropped(),
            dropped_suspended: self.dropped_suspended,
            batches_shipped: self.batches_shipped,
            batches_retried: self.batches_retried,
            downtime_ticks: self.downtime_ticks,
        }
    }

    /// Moves full buffers and queued names into the pending queue,
    /// stamping per-machine sequence numbers and the enqueue tick.
    fn enqueue_ready(&mut self, now_ticks: u64) {
        for batch in self.buffer.take_queued() {
            // The batch window opened when its first record was captured;
            // an (impossible) empty batch would open at enqueue time.
            let open_ticks = batch.first().map_or(now_ticks, |r| r.start_ticks);
            self.pending.push_back(PendingBatch {
                seq: self.next_batch_seq,
                open_ticks,
                enqueue_ticks: now_ticks,
                records: batch,
            });
            self.next_batch_seq += 1;
        }
        for name in self.names.drain(..) {
            self.pending_names.push_back((self.next_name_seq, name));
            self.next_name_seq += 1;
        }
    }

    /// Delivers pending batches front-to-back. Stops at the first refusal
    /// (no reachable server) and counts it as a retried attempt; the
    /// refused batch stays queued. Returns `true` when nothing is left.
    fn deliver_pending<S: RecordSink + ?Sized>(&mut self, sink: &mut S, now_ticks: u64) -> bool {
        while let Some(batch) = self.pending.front() {
            if !sink.ingest_at(self.machine, batch.seq, &batch.records, now_ticks) {
                self.batches_retried += 1;
                self.recorder.record(
                    RecorderScope::Machine(self.machine.0),
                    FlightEvent::ShipmentRefused {
                        ticks: now_ticks,
                        seq: batch.seq,
                        pending_records: self.pending_records() as u64,
                    },
                );
                return false;
            }
            self.delivered += batch.records.len() as u64;
            self.batches_shipped += 1;
            if let Some(batch) = self.pending.pop_front() {
                self.tracer.agent_delivery(
                    self.machine.0,
                    batch.seq,
                    batch.open_ticks,
                    batch.enqueue_ticks,
                    now_ticks,
                    batch.records.len() as u64,
                );
                if now_ticks != u64::MAX && !batch.records.is_empty() {
                    self.last_delivery_ticks = self.last_delivery_ticks.max(now_ticks);
                }
                // The sink copied the records; hand the storage back to
                // the triple buffer so the next fill reuses it.
                self.buffer.recycle(batch.records);
            }
        }
        while let Some((seq, name)) = self.pending_names.front() {
            if !sink.ingest_name_at(self.machine, *seq, name.clone(), now_ticks) {
                return false;
            }
            self.pending_names.pop_front();
        }
        true
    }

    /// Ships all queued full buffers and name records to the sink — a
    /// local [`crate::CollectionServer`] or a [`crate::CollectorHandle`]
    /// delivering into a study's analysis sinks.
    pub fn ship<S: RecordSink + ?Sized>(&mut self, sink: &mut S) {
        // No real outage window reaches u64::MAX, so delivery always goes
        // through — the pre-fault shipping path.
        self.ship_at(sink, u64::MAX);
    }

    /// Shipping attempt at a known virtual time. Returns `false` when a
    /// collector outage blocked delivery; the batches stay pending and the
    /// caller should retry later (with backoff).
    pub fn ship_at<S: RecordSink + ?Sized>(&mut self, sink: &mut S, now_ticks: u64) -> bool {
        // span_child, not span: `ship` passes u64::MAX for "no outage",
        // which must not poison the simulated high-water mark.
        let _span = self.telemetry.span_child(Phase::Trace, "trace.ship");
        self.enqueue_ready(now_ticks);
        self.report_drops(now_ticks);
        self.deliver_pending(sink, now_ticks)
    }

    /// Ships everything including the active partial buffer (period end).
    /// The final flush models the study's controlled shutdown: the
    /// collection servers are back up, so nothing is refused.
    pub fn final_flush<S: RecordSink + ?Sized>(&mut self, sink: &mut S) {
        let _span = self.telemetry.span_child(Phase::Trace, "trace.final_flush");
        self.deliver_pending(sink, u64::MAX);
        let rest = self.buffer.drain_all();
        let seq = self.next_batch_seq;
        self.next_batch_seq += 1;
        let open_ticks = rest.first().map_or(u64::MAX, |r| r.start_ticks);
        if sink.ingest_at(self.machine, seq, &rest, u64::MAX) {
            self.delivered += rest.len() as u64;
            self.batches_shipped += 1;
            self.tracer.agent_delivery(
                self.machine.0,
                seq,
                open_ticks,
                u64::MAX,
                u64::MAX,
                rest.len() as u64,
            );
        }
        for name in self.names.drain(..) {
            let seq = self.next_name_seq;
            self.next_name_seq += 1;
            let _ = sink.ingest_name_at(self.machine, seq, name, u64::MAX);
        }
        // The tail of the drop accounting: anything dropped since the
        // last shipment lands in the dump before the run closes.
        self.report_drops(u64::MAX);
    }
}

impl IoObserver for TraceFilter {
    fn file_object(&mut self, info: &FileObjectInfo) {
        if self.state == AgentState::Suspended {
            return;
        }
        self.names.push(NameRecord {
            file_object: info.id.0,
            volume: info.volume,
            process: info.process.0,
            path: info.path.clone(),
            at_ticks: info.at.ticks(),
        });
    }

    fn event(&mut self, event: &IoEvent) {
        if self.state == AgentState::Suspended {
            self.dropped_suspended += 1;
            return;
        }
        if self.buffer.push(TraceRecord::from_event(event)) {
            self.fills += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::CollectionServer;
    use nt_io::FcbId;
    use nt_io::{EventKind, FileObjectId, MajorFunction, NtStatus, ProcessId};
    use nt_sim::SimTime;

    fn event(i: u64) -> IoEvent {
        IoEvent {
            kind: EventKind::Irp(MajorFunction::Read),
            file_object: FileObjectId(i),
            fcb: FcbId(0),
            process: ProcessId(1),
            volume: 0,
            local: true,
            paging_io: false,
            readahead: false,
            offset: 0,
            length: 512,
            transferred: 512,
            file_size: 4096,
            byte_offset: 0,
            status: NtStatus::Success,
            start: SimTime::from_ticks(i * 100),
            end: SimTime::from_ticks(i * 100 + 30),
            access: None,
            disposition: None,
            options: None,
            set_info: None,
            created: false,
        }
    }

    #[test]
    fn filter_records_and_ships() {
        let mut f = TraceFilter::new(MachineId(3));
        let mut srv = CollectionServer::new();
        for i in 0..5_000u64 {
            f.event(&event(i));
        }
        assert_eq!(f.recorded(), 5_000);
        assert_eq!(f.buffer_fills(), 1);
        f.ship(&mut srv);
        assert_eq!(srv.total_records(), 3_000, "one full buffer shipped");
        f.final_flush(&mut srv);
        assert_eq!(srv.total_records(), 5_000);
        let back = srv.records_for(MachineId(3));
        assert_eq!(back.len(), 5_000);
        assert_eq!(back[0].file_object, 0);
        assert_eq!(back[4_999].file_object, 4_999);
        let ledger = f.ledger();
        assert!(ledger.reconciles());
        assert_eq!(ledger.delivered, 5_000);
        assert_eq!(ledger.batches_shipped, 2);
    }

    #[test]
    fn suspended_agent_records_nothing() {
        let mut f = TraceFilter::new(MachineId(1));
        f.set_state(AgentState::Suspended);
        f.event(&event(1));
        assert_eq!(f.recorded(), 0);
        assert_eq!(f.ledger().dropped_suspended, 1);
        f.set_state(AgentState::Connected);
        f.event(&event(2));
        assert_eq!(f.recorded(), 1);
    }

    #[test]
    fn name_records_ship_with_buffers() {
        let mut f = TraceFilter::new(MachineId(1));
        let mut srv = CollectionServer::new();
        f.file_object(&FileObjectInfo {
            id: FileObjectId(77),
            volume: 0,
            path: r"\boot.ini".into(),
            process: ProcessId(4),
            at: SimTime::ZERO,
        });
        f.ship(&mut srv);
        let names = srv.names_for(MachineId(1));
        assert_eq!(names.len(), 1);
        assert_eq!(names[0].file_object, 77);
    }

    #[test]
    fn transition_accumulates_downtime() {
        let mut f = TraceFilter::new(MachineId(2));
        f.transition(AgentState::Suspended, 1_000);
        f.transition(AgentState::Suspended, 1_500); // no-op, already down
        f.transition(AgentState::Connected, 4_000);
        f.transition(AgentState::Suspended, 10_000);
        f.transition(AgentState::Connected, 11_000);
        assert_eq!(f.ledger().downtime_ticks, 3_000 + 1_000);
    }

    #[test]
    fn refused_shipment_stays_pending_until_retry() {
        /// A sink that refuses everything before `up_at`.
        struct FlakySink {
            inner: CollectionServer,
            up_at: u64,
        }
        impl RecordSink for FlakySink {
            fn ingest_at(
                &mut self,
                machine: MachineId,
                seq: u64,
                records: &[TraceRecord],
                now_ticks: u64,
            ) -> bool {
                if now_ticks < self.up_at {
                    return false;
                }
                self.inner.ingest_seq(machine, seq, records);
                true
            }
            fn ingest_name_at(
                &mut self,
                machine: MachineId,
                seq: u64,
                name: NameRecord,
                now_ticks: u64,
            ) -> bool {
                if now_ticks < self.up_at {
                    return false;
                }
                self.inner.ingest_name_seq(machine, seq, name);
                true
            }
        }

        let mut f = TraceFilter::new(MachineId(5));
        let mut sink = FlakySink {
            inner: CollectionServer::new(),
            up_at: 500,
        };
        for i in 0..6_100u64 {
            f.event(&event(i));
        }
        assert!(!f.ship_at(&mut sink, 100), "server down: refused");
        assert_eq!(f.pending_records(), 6_000);
        assert_eq!(sink.inner.total_records(), 0);
        assert!(!f.ship_at(&mut sink, 200), "still down: counted as retry");
        assert!(f.ship_at(&mut sink, 600), "server back: delivered");
        assert_eq!(sink.inner.total_records(), 6_000);
        assert_eq!(f.pending_records(), 0);
        f.final_flush(&mut sink);
        assert_eq!(sink.inner.total_records(), 6_100);
        let ledger = f.ledger();
        assert!(ledger.reconciles());
        assert_eq!(ledger.batches_retried, 2);
        assert_eq!(ledger.batches_shipped, 3);
        let back = sink.inner.records_for(MachineId(5));
        assert_eq!(back.len(), 6_100);
        assert!(back.windows(2).all(|w| w[0].file_object < w[1].file_object));
    }
}
