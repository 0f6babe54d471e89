//! The collection servers.
//!
//! §3: "The collection servers are three dedicated file servers that take
//! the incoming event streams and store them in compressed formats for
//! later retrieval." A study keeps what it can observe of those servers —
//! each one's downtime windows and head-count — and runs nothing of its
//! own. A trace agent ships through its machine's [`CollectorHandle`],
//! which borrows the run's one outage table, picks the server, counts the
//! buffer and its compressed footprint exactly as [`CollectionServer`]
//! stores it, and hands the buffer to the [`ShipmentConsumer`] the handle
//! was made with — the machine's own sinks — on the shipping thread. Each
//! machine's buffers therefore reach its consumer in the agent's sequence
//! order, and no collection state is shared between machines.
//!
//! A handle fails over to the next live server when its primary is down.
//! When every server is down the shipment is refused and the agent keeps
//! the batch for a later retry.

use nt_obs::{
    FlightEvent, FlightRecorder, Phase, RecorderScope, ShipmentTracer, Telemetry, TraceContext,
};

use crate::collector::{CollectionServer, MachineId, RecordBatch};
use crate::fault::{any_contains, TickWindow};
use crate::record::{NameRecord, TraceRecord};

/// The causal baggage a record batch carries into the consumer: the
/// collect-hop [`TraceContext`] (for downstream tiers to parent-link
/// their spans to), the simulated delivery tick, and the server that
/// accepted it. Attached by the [`CollectorHandle`] when shipment
/// tracing is on; `None` otherwise.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BatchMeta {
    /// The collect-hop context; downstream hops are its children.
    pub ctx: TraceContext,
    /// Simulated tick the collector accepted the batch.
    pub deliver_ticks: u64,
    /// Index of the accepting collection server.
    pub server: u32,
}

/// A destination for shipments — the streaming alternative to
/// [`CollectionServer`]'s store-then-retrieve. Implementations route each
/// shipment to per-machine state: distinct machines may be delivered
/// concurrently from different worker threads, each machine from one
/// thread at a time.
///
/// Callers deliver each machine's batches, and its names, in the agent's
/// stamp order: a [`CollectorHandle`] ships them as the agent does, and a
/// warehouse re-ingest replays them in stored order. Sinks process each
/// delivery as it arrives and do not reorder.
pub trait ShipmentConsumer: Send + Sync {
    /// Consumes one shipped buffer. `seq` is the agent's own sequence
    /// stamp (`None` = unstamped shipping); `meta` is the batch's causal
    /// trace baggage when shipment tracing is on.
    fn batch(
        &self,
        machine: MachineId,
        seq: Option<u64>,
        records: Vec<TraceRecord>,
        meta: Option<BatchMeta>,
    );

    /// Consumes one file-object name record.
    fn name(&self, machine: MachineId, seq: Option<u64>, name: NameRecord);
}

/// Anything a trace agent can ship records into — a local store or a
/// handle on the study's collection servers.
pub trait RecordSink {
    /// Delivers one buffer stamped with the agent's sequence number.
    /// Returns `false` when the sink is unreachable at `now_ticks` (a
    /// collector outage); the caller must keep the batch and retry.
    /// Sinks with no notion of downtime accept unconditionally.
    fn ingest_at(
        &mut self,
        machine: MachineId,
        seq: u64,
        records: &[TraceRecord],
        now_ticks: u64,
    ) -> bool;

    /// Delivers one file-object name record; see [`Self::ingest_at`].
    fn ingest_name_at(
        &mut self,
        machine: MachineId,
        seq: u64,
        name: NameRecord,
        now_ticks: u64,
    ) -> bool;
}

impl RecordSink for CollectionServer {
    fn ingest_at(
        &mut self,
        machine: MachineId,
        seq: u64,
        records: &[TraceRecord],
        _now_ticks: u64,
    ) -> bool {
        self.ingest_seq(machine, seq, records);
        true
    }

    fn ingest_name_at(
        &mut self,
        machine: MachineId,
        seq: u64,
        name: NameRecord,
        _now_ticks: u64,
    ) -> bool {
        self.ingest_name_seq(machine, seq, name);
        true
    }
}

/// What the collection servers accepted from one machine: its
/// [`CollectorHandle`]'s head-count.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StreamingTotals {
    /// Records the servers accepted.
    pub total_records: usize,
    /// Compressed footprint the batches *would* occupy on a collection
    /// server (each shipment is compressed for accounting exactly like
    /// `CollectionServer::ingest_seq` stores it, then dropped).
    pub stored_bytes: usize,
}

/// One machine's handle on the study's collection servers. It ships to
/// the machine's assigned server, fails over to the next live server
/// during outages, refuses the shipment when every server is down,
/// counts what the servers accepted, and delivers each accepted
/// shipment into its machine's consumer on the calling thread.
///
/// Nothing is retained: the consumer sees each buffer once, which is
/// what lets paper-scale studies run without materializing ~190 M
/// records.
pub struct CollectorHandle<'a> {
    /// Downtime windows per server, indexed by server.
    servers: &'a [Vec<TickWindow>],
    consumer: &'a dyn ShipmentConsumer,
    primary: usize,
    /// Shipments that landed on a non-primary server.
    failovers: u64,
    totals: StreamingTotals,
    tracer: ShipmentTracer,
    recorder: FlightRecorder,
    /// The shipping machine's telemetry: each batch's delivery into the
    /// consumer is timed on it, inside the agent's `trace.ship` span.
    telemetry: Telemetry,
}

impl<'a> CollectorHandle<'a> {
    /// `machine`'s handle on the collection servers whose downtime
    /// windows `servers` lists, one entry per server (the study ran
    /// three; an empty table is one server that never goes down).
    /// Machines hash to servers for a stable assignment, and a server
    /// whose window covers the shipment time refuses it. The handle
    /// emits collect-hop spans through `tracer` (shard-stamped when the
    /// tracer is), attaches [`BatchMeta`] to every accepted batch, and
    /// records failovers into `recorder`; off handles make both no-ops.
    /// Accepted shipments are delivered into `consumer`, timed on
    /// `telemetry`; both should be the shipping machine's own.
    pub fn new(
        machine: MachineId,
        servers: &'a [Vec<TickWindow>],
        tracer: ShipmentTracer,
        recorder: FlightRecorder,
        telemetry: &Telemetry,
        consumer: &'a dyn ShipmentConsumer,
    ) -> Self {
        CollectorHandle {
            servers,
            consumer,
            primary: machine.0 as usize % servers.len().max(1),
            failovers: 0,
            totals: StreamingTotals::default(),
            tracer,
            recorder,
            telemetry: telemetry.clone(),
        }
    }

    /// The first server reachable at `now_ticks`, trying the primary
    /// first and rotating through the servers.
    fn live_server(&self, now_ticks: u64) -> Option<usize> {
        let n = self.servers.len().max(1);
        (0..n).map(|i| (self.primary + i) % n).find(|&s| {
            !self
                .servers
                .get(s)
                .is_some_and(|w| any_contains(w, now_ticks))
        })
    }

    /// Shipments this handle delivered to a non-primary server.
    pub fn failovers(&self) -> u64 {
        self.failovers
    }

    /// What the servers have accepted through this handle.
    pub fn totals(&self) -> StreamingTotals {
        self.totals
    }
}

impl RecordSink for CollectorHandle<'_> {
    fn ingest_at(
        &mut self,
        machine: MachineId,
        seq: u64,
        records: &[TraceRecord],
        now_ticks: u64,
    ) -> bool {
        let Some(server) = self.live_server(now_ticks) else {
            return false;
        };
        if server != self.primary {
            self.failovers += 1;
            self.recorder.record(
                RecorderScope::Machine(machine.0),
                FlightEvent::Failover {
                    ticks: now_ticks,
                    seq,
                    from_server: self.primary as u32,
                    to_server: server as u32,
                },
            );
        }
        if !records.is_empty() {
            // The collect hop: span emitted here (server and shard are
            // known), context handed on so downstream tiers parent-link
            // to it.
            let meta = self
                .tracer
                .collect(
                    machine.0,
                    seq,
                    now_ticks,
                    records.len() as u64,
                    server as u32,
                )
                .map(|ctx| BatchMeta {
                    ctx,
                    deliver_ticks: now_ticks,
                    server: server as u32,
                });
            self.totals.total_records += records.len();
            self.totals.stored_bytes += RecordBatch::compress(records).compressed_bytes();
            let _span = self.telemetry.span_child(Phase::Analysis, "analysis.batch");
            self.consumer
                .batch(machine, Some(seq), records.to_vec(), meta);
        }
        true
    }

    fn ingest_name_at(
        &mut self,
        machine: MachineId,
        seq: u64,
        name: NameRecord,
        now_ticks: u64,
    ) -> bool {
        let Some(server) = self.live_server(now_ticks) else {
            return false;
        };
        if server != self.primary {
            self.failovers += 1;
        }
        self.consumer.name(machine, Some(seq), name);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nt_io::{EventKind, MajorFunction, NtStatus};
    use std::sync::Mutex;

    fn rec(i: u64) -> TraceRecord {
        TraceRecord {
            code: EventKind::Irp(MajorFunction::Read).code(),
            flags: 0,
            status: NtStatus::Success,
            set_info: None,
            access: None,
            disposition: None,
            options: None,
            file_object: i,
            fcb: 0,
            process: 0,
            volume: 0,
            offset: 0,
            length: 512,
            transferred: 512,
            file_size: 0,
            byte_offset: 0,
            start_ticks: i * 1000,
            end_ticks: i * 1000 + 10,
        }
    }

    fn name(m: u32) -> NameRecord {
        NameRecord {
            file_object: m as u64,
            volume: 0,
            process: 0,
            path: format!(r"\m{m}.txt"),
            at_ticks: 0,
        }
    }

    /// One delivered batch: machine, agent stamp, records, baggage.
    type Delivery = (MachineId, u64, Vec<TraceRecord>, Option<BatchMeta>);

    /// Logs every delivery in call order.
    #[derive(Default)]
    struct Log {
        batches: Mutex<Vec<Delivery>>,
        names: Mutex<Vec<(MachineId, u64)>>,
    }

    impl ShipmentConsumer for Log {
        fn batch(
            &self,
            m: MachineId,
            seq: Option<u64>,
            records: Vec<TraceRecord>,
            meta: Option<BatchMeta>,
        ) {
            let seq = seq.expect("handles forward the agent's stamp");
            self.batches.lock().unwrap().push((m, seq, records, meta));
        }

        fn name(&self, m: MachineId, seq: Option<u64>, _name: NameRecord) {
            let seq = seq.expect("handles forward the agent's stamp");
            self.names.lock().unwrap().push((m, seq));
        }
    }

    impl Log {
        /// The stamps `machine`'s batches arrived with, in arrival order.
        fn stamps(&self, machine: MachineId) -> Vec<u64> {
            let batches = self.batches.lock().unwrap();
            batches
                .iter()
                .filter(|d| d.0 == machine)
                .map(|d| d.1)
                .collect()
        }
    }

    /// Machine `m`'s untraced handle on `servers`, delivering into
    /// `consumer`.
    fn handle<'a>(
        servers: &'a [Vec<TickWindow>],
        m: u32,
        consumer: &'a dyn ShipmentConsumer,
    ) -> CollectorHandle<'a> {
        CollectorHandle::new(
            MachineId(m),
            servers,
            ShipmentTracer::off(),
            FlightRecorder::off(),
            &Telemetry::off(),
            consumer,
        )
    }

    #[test]
    fn pool_collects_from_concurrent_agents() {
        let log = Log::default();
        let servers = vec![Vec::new(); 3];
        let shipped: usize = std::thread::scope(|scope| {
            let agents: Vec<_> = (0..9u32)
                .map(|m| {
                    let mut h = handle(&servers, m, &log);
                    scope.spawn(move || {
                        for batch in 0..4u64 {
                            let records: Vec<TraceRecord> =
                                (0..50).map(|i| rec(batch * 50 + i)).collect();
                            assert!(h.ingest_at(MachineId(m), batch, &records, 0));
                        }
                        assert!(h.ingest_name_at(MachineId(m), 4, name(m), 0));
                        h.totals().total_records
                    })
                })
                .collect();
            agents.into_iter().map(|a| a.join().unwrap()).sum()
        });
        assert_eq!(shipped, 9 * 4 * 50, "the nine handles' totals");
        for m in 0..9u32 {
            assert_eq!(log.stamps(MachineId(m)), vec![0, 1, 2, 3], "machine {m}");
        }
        assert_eq!(log.names.lock().unwrap().len(), 9);
    }

    #[test]
    fn machine_assignment_is_stable() {
        let log = Log::default();
        let servers = vec![Vec::new(); 3];
        let a = handle(&servers, 4, &log);
        let b = handle(&servers, 4, &log);
        assert_eq!(a.primary, b.primary, "same machine, same server");
        let c = handle(&servers, 5, &log);
        assert_ne!(a.primary, c.primary, "different machine, other server");
    }

    #[test]
    fn empty_batches_are_not_shipped() {
        let log = Log::default();
        let servers = vec![Vec::new(); 1];
        let mut h = handle(&servers, 0, &log);
        assert!(
            h.ingest_at(MachineId(0), 0, &[], 10),
            "accepted, not shipped"
        );
        assert_eq!(h.totals(), StreamingTotals::default());
        assert!(log.batches.lock().unwrap().is_empty());
    }

    #[test]
    fn outage_refuses_then_fails_over() {
        // Server 0 down for ticks [100, 200); server 1 down always.
        let servers = vec![
            vec![TickWindow::new(100, 200)],
            vec![TickWindow::new(0, u64::MAX)],
        ];
        let log = Log::default();
        let mut h = handle(&servers, 0, &log); // primary = server 0
        let records: Vec<TraceRecord> = (0..10).map(rec).collect();
        assert!(h.ingest_at(MachineId(0), 0, &records, 50), "before outage");
        assert!(
            !h.ingest_at(MachineId(0), 1, &records, 150),
            "every server down: refused"
        );
        assert!(h.ingest_at(MachineId(0), 1, &records, 250), "after outage");
        assert_eq!(h.failovers(), 0, "primary recovered, no failover needed");

        // Machine 1's primary is the always-down server 1: it fails over.
        let mut h1 = handle(&servers, 1, &log);
        assert!(h1.ingest_at(MachineId(1), 0, &records, 50));
        assert_eq!(h1.failovers(), 1);
        assert_eq!(h.totals().total_records, 20, "the refusal counts nothing");
        assert_eq!(h1.totals().total_records, 10);
        assert_eq!(log.batches.lock().unwrap().len(), 3);
    }

    #[test]
    fn handle_accounts_exactly_like_storage() {
        // Batch 1 of every machine ships while server 0 is down.
        fn ship(sink: &mut dyn RecordSink) {
            for m in 0..4u32 {
                for batch in 0..3u64 {
                    let records: Vec<TraceRecord> = (0..25).map(|i| rec(batch * 25 + i)).collect();
                    assert!(sink.ingest_at(MachineId(m), batch, &records, batch * 100 + 50));
                }
                assert!(sink.ingest_name_at(MachineId(m), 3, name(m), 350));
            }
        }

        // The same shipments stored by a collection server …
        let mut stored = CollectionServer::new();
        ship(&mut stored);

        // … and forwarded by a handle whose primary fails over, which
        // keeps nothing but must account the identical compressed
        // footprint, whichever server took each batch.
        let log = Log::default();
        let servers = vec![vec![TickWindow::new(100, 200)], Vec::new()];
        let mut h = handle(&servers, 0, &log);
        ship(&mut h);
        assert_eq!(h.failovers(), 4, "every machine's batch 1 failed over");
        let totals = h.totals();

        assert_eq!(totals.total_records, stored.total_records());
        assert_eq!(totals.stored_bytes, stored.stored_bytes());
        let batches = log.batches.lock().unwrap();
        assert!(
            batches.iter().all(|d| d.3.is_none()),
            "untraced handle attaches no baggage"
        );
        let delivered: usize = batches.iter().map(|d| d.2.len()).sum();
        assert_eq!(delivered, totals.total_records);
        assert_eq!(log.names.lock().unwrap().len(), 4);
    }

    #[test]
    fn panicking_consumer_unwinds_the_shipping_caller() {
        struct Bomb;
        impl ShipmentConsumer for Bomb {
            fn batch(
                &self,
                _m: MachineId,
                _seq: Option<u64>,
                _records: Vec<TraceRecord>,
                _meta: Option<BatchMeta>,
            ) {
                panic!("consumer exploded");
            }
            fn name(&self, _m: MachineId, _seq: Option<u64>, _name: NameRecord) {}
        }
        let servers = vec![Vec::new(); 1];
        let mut h = handle(&servers, 0, &Bomb);
        let records: Vec<TraceRecord> = (0..5).map(rec).collect();
        // Delivery runs on the caller's thread, so the consumer's panic
        // is the caller's: a study's machine task, caught by its pool.
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            h.ingest_at(MachineId(0), 0, &records, 0)
        }))
        .expect_err("the consumer's panic reaches the caller");
        let message = crate::steal::panic_text(payload.as_ref());
        assert!(message.contains("consumer exploded"), "{message}");
    }

    #[test]
    fn traced_pool_stamps_meta_and_records_failovers() {
        let tracer = ShipmentTracer::new(11, 10_000);
        let recorder = FlightRecorder::new(16);
        // Primary (server 0) down in [100, 200): batch 1 fails over.
        let servers = vec![vec![TickWindow::new(100, 200)], Vec::new()];
        let log = Log::default();
        let mut h = CollectorHandle::new(
            MachineId(0),
            &servers,
            tracer.for_shard(3),
            recorder.clone(),
            &Telemetry::off(),
            &log,
        );
        let records: Vec<TraceRecord> = (0..5).map(rec).collect();
        assert!(h.ingest_at(MachineId(0), 0, &records, 50));
        assert!(h.ingest_at(MachineId(0), 1, &records, 150), "failover");

        // Delivered in call order, each with its baggage.
        let seen: Vec<(u64, BatchMeta)> = log
            .batches
            .lock()
            .unwrap()
            .iter()
            .map(|d| (d.1, d.3.expect("traced handle attaches baggage")))
            .collect();
        assert_eq!(seen.iter().map(|s| s.0).collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(seen[0].1.server, 0);
        assert_eq!(seen[0].1.deliver_ticks, 50);
        assert_eq!(seen[1].1.server, 1, "batch 1 landed on the secondary");
        // The carried context is the collect hop of the derived chain.
        let expect = TraceContext::root(11, 0, 0)
            .child(nt_obs::Hop::Ship)
            .child(nt_obs::Hop::Collect);
        assert_eq!(seen[0].1.ctx, expect);

        // Collect spans were emitted with server + shard attribution.
        let spans = tracer.take_sorted();
        assert_eq!(spans.len(), 2);
        assert!(spans.iter().all(|s| s.hop == nt_obs::Hop::Collect));
        assert_eq!(spans[1].server, Some(1));
        assert_eq!(spans[1].shard, Some(3));

        // The failover landed in the machine's flight-recorder scope.
        let snap = recorder.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].0, RecorderScope::Machine(0));
        assert_eq!(
            snap[0].1,
            vec![FlightEvent::Failover {
                ticks: 150,
                seq: 1,
                from_server: 0,
                to_server: 1,
            }]
        );
    }

    #[test]
    fn failover_batches_arrive_in_sequence_order() {
        // Primary down in the middle window; the agent ships batch 1 to
        // the secondary, then batch 2 back on the primary. Delivery runs
        // on the shipping thread, so the consumer sees the stamps in the
        // order the agent shipped them, whichever server took each.
        let servers = vec![vec![TickWindow::new(100, 200)], Vec::new()];
        let log = Log::default();
        let mut h = handle(&servers, 0, &log);
        let batch = |lo: u64| -> Vec<TraceRecord> { (lo..lo + 5).map(rec).collect() };
        assert!(h.ingest_at(MachineId(0), 0, &batch(0), 50));
        assert!(h.ingest_at(MachineId(0), 1, &batch(5), 150), "failover");
        assert!(h.ingest_at(MachineId(0), 2, &batch(10), 250));
        assert_eq!(h.failovers(), 1);
        assert_eq!(log.stamps(MachineId(0)), vec![0, 1, 2]);
        let ids: Vec<u64> = log
            .batches
            .lock()
            .unwrap()
            .iter()
            .flat_map(|d| d.2.iter().map(|r| r.file_object))
            .collect();
        assert_eq!(ids, (0..15).collect::<Vec<u64>>(), "agent order");
    }
}
