//! The collection-server pool.
//!
//! §3: "The collection servers are three dedicated file servers that take
//! the incoming event streams and store them in compressed formats for
//! later retrieval." [`StreamingPool`] runs one thread per server; trace
//! agents ship full buffers through a channel to the server their machine
//! is assigned to, and the server forwards each one to a
//! [`ShipmentConsumer`] — the study's analysis sinks — after accounting
//! its compressed footprint exactly as [`CollectionServer`] stores it.
//!
//! The pool can also simulate server outages: each server carries a set of
//! downtime windows, and a [`CollectorHandle`] fails over to the next live
//! server when its primary is down. When every server is down the shipment
//! is refused and the agent keeps the batch for a later retry.

use crossbeam::channel::{unbounded, Sender};
use std::fmt;
use std::sync::Arc;
use std::thread::JoinHandle;

use nt_obs::{FlightEvent, FlightRecorder, RecorderScope, ShipmentTracer, TraceContext};

use crate::collector::{CollectionServer, MachineId, RecordBatch};
use crate::fault::{any_contains, TickWindow};
use crate::record::{NameRecord, TraceRecord};

/// The causal baggage a record batch carries across the collector
/// channel: the collect-hop [`TraceContext`] (for downstream tiers to
/// parent-link their spans to), the simulated delivery tick, and the
/// server that accepted it. Attached by the [`CollectorHandle`] when
/// shipment tracing is on; `None` otherwise.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BatchMeta {
    /// The collect-hop context; downstream hops are its children.
    pub ctx: TraceContext,
    /// Simulated tick the collector accepted the batch.
    pub deliver_ticks: u64,
    /// Index of the accepting collection server.
    pub server: u32,
}

/// A destination for shipments on the collection-server threads — the
/// streaming alternative to [`CollectionServer`]'s store-then-retrieve.
/// Implementations route each shipment to per-machine state (distinct
/// machines may be consumed concurrently from different server threads;
/// one machine's shipments arrive from one agent but possibly via
/// several servers, carrying the agent's sequence stamp for reassembly).
pub trait ShipmentConsumer: Send + Sync {
    /// Consumes one shipped buffer. `seq` is the agent's own sequence
    /// stamp (`None` = plain arrival-order shipping); `meta` is the
    /// batch's causal trace baggage when shipment tracing is on.
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
/// channel to a remote collection server.
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

enum Shipment {
    /// `(machine, agent sequence, records, trace baggage)`.
    Batch(MachineId, u64, Vec<TraceRecord>, Option<BatchMeta>),
    Name(MachineId, u64, NameRecord),
}

/// A collection-server thread died mid-run (panicked), so the records it
/// held were lost. Surfaced as an error so a study can report the fault
/// (and whatever the surviving servers collected) instead of aborting
/// the whole process.
#[derive(Debug)]
pub struct CollectionFault {
    /// Index of the dead server in the pool.
    pub server: usize,
    /// The panic payload, when it carried a message.
    pub message: String,
}

impl fmt::Display for CollectionFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "collection server {} panicked: {}",
            self.server, self.message
        )
    }
}

impl std::error::Error for CollectionFault {}

/// A per-machine handle that ships to the assigned collection server,
/// failing over to the next live server during outages.
#[derive(Clone)]
pub struct CollectorHandle {
    senders: Vec<Sender<Shipment>>,
    primary: usize,
    /// Downtime windows per server, indexed like `senders`.
    outages: Arc<Vec<Vec<TickWindow>>>,
    /// Shipments that landed on a non-primary server.
    failovers: u64,
    /// Emits the collect-hop span and stamps [`BatchMeta`] on batches.
    tracer: ShipmentTracer,
    /// Receives failover events for this machine's scope.
    recorder: FlightRecorder,
}

impl CollectorHandle {
    /// The first server reachable at `now_ticks`, trying the primary
    /// first and rotating through the pool.
    fn live_server(&self, now_ticks: u64) -> Option<usize> {
        let n = self.senders.len();
        (0..n)
            .map(|i| (self.primary + i) % n)
            .find(|&s| !any_contains(&self.outages[s], now_ticks))
    }

    /// Shipments this handle delivered to a non-primary server.
    pub fn failovers(&self) -> u64 {
        self.failovers
    }
}

impl RecordSink for CollectorHandle {
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
            // known), context attached to the shipment so downstream
            // tiers parent-link to it across the channel.
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
            // A closed pool drops the shipment, like an agent whose
            // server went away (§3: the agent would suspend).
            let _ =
                self.senders[server].send(Shipment::Batch(machine, seq, records.to_vec(), meta));
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
        let _ = self.senders[server].send(Shipment::Name(machine, seq, name));
        true
    }
}

/// What a [`StreamingPool`]'s servers accounted while forwarding.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StreamingTotals {
    /// Records that passed through the pool.
    pub total_records: usize,
    /// Compressed footprint the batches *would* occupy on a collection
    /// server (each shipment is compressed for accounting exactly like
    /// [`CollectionServer::ingest_seq`] stores it, then dropped).
    pub stored_bytes: usize,
}

/// A pool of collection-server threads that forward shipments into a
/// [`ShipmentConsumer`] instead of storing them.
///
/// Agents ship through a [`CollectorHandle`], which fails over to the
/// next live server during an outage and refuses the shipment when
/// every server is down. Nothing is retained: the consumer sees each
/// buffer once and the pool's memory stays bounded by the channel
/// backlog, which is what lets paper-scale studies run without
/// materializing ~190 M records.
pub struct StreamingPool {
    senders: Vec<Sender<Shipment>>,
    handles: Vec<JoinHandle<StreamingTotals>>,
    outages: Arc<Vec<Vec<TickWindow>>>,
    tracer: ShipmentTracer,
    recorder: FlightRecorder,
}

impl StreamingPool {
    /// Starts `servers` forwarding threads (the study ran three) over
    /// `consumer`. Each server carries its downtime windows in
    /// `outages`, indexed by server; a server whose window covers the
    /// shipment time refuses it and handles fail over. Missing entries
    /// mean "always up". The handles this pool hands out emit
    /// collect-hop spans through `tracer` (shard-stamped when the
    /// tracer is), attach [`BatchMeta`] to every accepted batch, and
    /// record failovers into `recorder`; off handles make both no-ops.
    pub fn start(
        servers: usize,
        mut outages: Vec<Vec<TickWindow>>,
        consumer: Arc<dyn ShipmentConsumer>,
        tracer: ShipmentTracer,
        recorder: FlightRecorder,
    ) -> Self {
        let servers = servers.max(1);
        outages.resize(servers, Vec::new());
        let mut senders = Vec::with_capacity(servers);
        let mut handles = Vec::with_capacity(servers);
        for _ in 0..servers {
            let (tx, rx) = unbounded::<Shipment>();
            senders.push(tx);
            let consumer = Arc::clone(&consumer);
            handles.push(std::thread::spawn(move || {
                let mut totals = StreamingTotals::default();
                while let Ok(shipment) = rx.recv() {
                    match shipment {
                        Shipment::Batch(m, seq, records, meta) => {
                            totals.total_records += records.len();
                            totals.stored_bytes +=
                                RecordBatch::compress(&records).compressed_bytes();
                            consumer.batch(m, Some(seq), records, meta);
                        }
                        Shipment::Name(m, seq, name) => consumer.name(m, Some(seq), name),
                    }
                }
                totals
            }));
        }
        StreamingPool {
            senders,
            handles,
            outages: Arc::new(outages),
            tracer,
            recorder,
        }
    }

    /// The handle a machine's agent should ship through; machines hash
    /// to servers for a stable assignment.
    pub fn handle_for(&self, machine: MachineId) -> CollectorHandle {
        CollectorHandle {
            senders: self.senders.clone(),
            primary: machine.0 as usize % self.senders.len(),
            outages: Arc::clone(&self.outages),
            failovers: 0,
            tracer: self.tracer.clone(),
            recorder: self.recorder.clone(),
        }
    }

    /// Closes the streams, joins the servers and sums their accounting.
    ///
    /// Every [`CollectorHandle`] must have been dropped first — a live
    /// handle keeps its server's channel open and `finish` would wait for
    /// it (the agents disconnect before the servers shut down, §3).
    ///
    /// A panicked forwarding thread (most likely a panic in the
    /// [`ShipmentConsumer`]) is reported as the first [`CollectionFault`]
    /// (the remaining servers are still joined, so no thread is leaked)
    /// rather than propagating the panic.
    pub fn finish(self) -> Result<StreamingTotals, CollectionFault> {
        drop(self.senders);
        let mut totals = StreamingTotals::default();
        let mut fault = None;
        for (server, h) in self.handles.into_iter().enumerate() {
            match h.join() {
                Ok(t) => {
                    totals.total_records += t.total_records;
                    totals.stored_bytes += t.stored_bytes;
                }
                Err(payload) => {
                    fault.get_or_insert(CollectionFault {
                        server,
                        message: crate::steal::panic_text(payload.as_ref()),
                    });
                }
            }
        }
        match fault {
            Some(f) => Err(f),
            None => Ok(totals),
        }
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

    /// Stores every forwarded shipment in a [`CollectionServer`], so a
    /// test reads back what the pool delivered in the server's own
    /// sequence-ordered terms.
    #[derive(Default)]
    struct Store(Mutex<CollectionServer>);

    impl ShipmentConsumer for Store {
        fn batch(
            &self,
            m: MachineId,
            seq: Option<u64>,
            records: Vec<TraceRecord>,
            _meta: Option<BatchMeta>,
        ) {
            let seq = seq.expect("pools forward the agent's stamp");
            self.0.lock().unwrap().ingest_seq(m, seq, &records);
        }

        fn name(&self, m: MachineId, seq: Option<u64>, name: NameRecord) {
            let seq = seq.expect("pools forward the agent's stamp");
            self.0.lock().unwrap().ingest_name_seq(m, seq, name);
        }
    }

    /// An untraced pool of `servers` forwarding into `store`.
    fn start_pool(
        servers: usize,
        outages: Vec<Vec<TickWindow>>,
        store: &Arc<Store>,
    ) -> StreamingPool {
        StreamingPool::start(
            servers,
            outages,
            Arc::clone(store) as Arc<dyn ShipmentConsumer>,
            ShipmentTracer::off(),
            FlightRecorder::off(),
        )
    }

    /// Joins `pool` and takes what its servers forwarded into `store`.
    fn finish(pool: StreamingPool, store: &Store) -> (StreamingTotals, CollectionServer) {
        let totals = pool.finish().expect("no server died");
        (totals, std::mem::take(&mut *store.0.lock().unwrap()))
    }

    #[test]
    fn pool_collects_from_concurrent_agents() {
        let store = Arc::new(Store::default());
        let pool = start_pool(3, Vec::new(), &store);
        std::thread::scope(|scope| {
            for m in 0..9u32 {
                let mut handle = pool.handle_for(MachineId(m));
                scope.spawn(move || {
                    for batch in 0..4u64 {
                        let records: Vec<TraceRecord> =
                            (0..50).map(|i| rec(batch * 50 + i)).collect();
                        assert!(handle.ingest_at(MachineId(m), batch, &records, 0));
                    }
                    assert!(handle.ingest_name_at(MachineId(m), 4, name(m), 0));
                });
            }
        });
        let (totals, merged) = finish(pool, &store);
        assert_eq!(totals.total_records, 9 * 4 * 50);
        assert_eq!(merged.total_records(), 9 * 4 * 50);
        assert_eq!(merged.machines().len(), 9);
        for m in 0..9u32 {
            assert_eq!(merged.records_for(MachineId(m)).len(), 200);
            assert_eq!(merged.names_for(MachineId(m)).len(), 1);
        }
    }

    #[test]
    fn machine_assignment_is_stable() {
        let store = Arc::new(Store::default());
        let pool = start_pool(3, Vec::new(), &store);
        let a = pool.handle_for(MachineId(4));
        let b = pool.handle_for(MachineId(4));
        assert_eq!(a.primary, b.primary, "same machine, same server");
        let c = pool.handle_for(MachineId(5));
        assert_ne!(a.primary, c.primary, "different machine, other server");
        // Handles keep their server's channel open; drop them before the
        // pool shuts down.
        drop((a, b, c));
        pool.finish().expect("no server died");
    }

    #[test]
    fn empty_batches_are_not_shipped() {
        let store = Arc::new(Store::default());
        let pool = start_pool(1, Vec::new(), &store);
        let mut h = pool.handle_for(MachineId(0));
        assert!(
            h.ingest_at(MachineId(0), 0, &[], 10),
            "accepted, not shipped"
        );
        drop(h);
        let (totals, merged) = finish(pool, &store);
        assert_eq!(totals, StreamingTotals::default());
        assert_eq!(merged.total_records(), 0);
    }

    #[test]
    fn outage_refuses_then_fails_over() {
        // Server 0 down for ticks [100, 200); server 1 down always.
        let outages = vec![
            vec![TickWindow::new(100, 200)],
            vec![TickWindow::new(0, u64::MAX)],
        ];
        let store = Arc::new(Store::default());
        let pool = start_pool(2, outages, &store);
        let mut h = pool.handle_for(MachineId(0)); // primary = server 0
        let records: Vec<TraceRecord> = (0..10).map(rec).collect();
        assert!(h.ingest_at(MachineId(0), 0, &records, 50), "before outage");
        assert!(
            !h.ingest_at(MachineId(0), 1, &records, 150),
            "every server down: refused"
        );
        assert!(h.ingest_at(MachineId(0), 1, &records, 250), "after outage");
        assert_eq!(h.failovers(), 0, "primary recovered, no failover needed");

        // Machine 1's primary is the always-down server 1: it fails over.
        let mut h1 = pool.handle_for(MachineId(1));
        assert!(h1.ingest_at(MachineId(1), 0, &records, 50));
        assert_eq!(h1.failovers(), 1);
        drop((h, h1));
        let (totals, merged) = finish(pool, &store);
        assert_eq!(totals.total_records, 30);
        assert_eq!(merged.total_records(), 30);
    }

    #[test]
    fn streaming_pool_accounts_exactly_like_storage() {
        #[derive(Default)]
        struct Counter {
            records: Mutex<usize>,
            names: Mutex<usize>,
        }
        impl ShipmentConsumer for Counter {
            fn batch(
                &self,
                _m: MachineId,
                _seq: Option<u64>,
                records: Vec<TraceRecord>,
                meta: Option<BatchMeta>,
            ) {
                assert!(meta.is_none(), "untraced pool attaches no baggage");
                *self.records.lock().unwrap() += records.len();
            }
            fn name(&self, _m: MachineId, _seq: Option<u64>, _name: NameRecord) {
                *self.names.lock().unwrap() += 1;
            }
        }

        fn ship(sink: &mut dyn RecordSink) {
            for m in 0..4u32 {
                for batch in 0..3u64 {
                    let records: Vec<TraceRecord> = (0..25).map(|i| rec(batch * 25 + i)).collect();
                    assert!(sink.ingest_at(MachineId(m), batch, &records, 10));
                }
                assert!(sink.ingest_name_at(MachineId(m), 3, name(m), 10));
            }
        }

        // The same shipments stored by a collection server …
        let mut stored = CollectionServer::new();
        ship(&mut stored);

        // … and forwarded by a streaming pool, which keeps nothing but
        // must account the identical compressed footprint.
        let consumer = Arc::new(Counter::default());
        let streaming = StreamingPool::start(
            2,
            Vec::new(),
            consumer.clone() as Arc<dyn ShipmentConsumer>,
            ShipmentTracer::off(),
            FlightRecorder::off(),
        );
        let mut h = streaming.handle_for(MachineId(0));
        ship(&mut h);
        drop(h);
        let totals = streaming.finish().expect("no server died");

        assert_eq!(totals.total_records, stored.total_records());
        assert_eq!(totals.stored_bytes, stored.stored_bytes());
        assert_eq!(*consumer.records.lock().unwrap(), totals.total_records);
        assert_eq!(*consumer.names.lock().unwrap(), 4);
    }

    #[test]
    fn panicking_consumer_is_a_collection_fault_not_an_abort() {
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
        let pool = StreamingPool::start(
            1,
            Vec::new(),
            Arc::new(Bomb),
            ShipmentTracer::off(),
            FlightRecorder::off(),
        );
        let mut h = pool.handle_for(MachineId(0));
        let records: Vec<TraceRecord> = (0..5).map(rec).collect();
        assert!(h.ingest_at(MachineId(0), 0, &records, 0));
        drop(h);
        // Before finish() returned Result, the dead thread's panic was
        // re-raised here and took the whole process down.
        let fault = pool.finish().expect_err("the server thread died");
        assert_eq!(fault.server, 0);
        assert!(fault.message.contains("consumer exploded"), "{fault}");
        assert!(fault.to_string().contains("collection server 0"));
    }

    #[test]
    fn traced_pool_stamps_meta_and_records_failovers() {
        #[derive(Default)]
        struct MetaLog {
            seen: Mutex<Vec<(u64, BatchMeta)>>,
        }
        impl ShipmentConsumer for MetaLog {
            fn batch(
                &self,
                _m: MachineId,
                seq: Option<u64>,
                _records: Vec<TraceRecord>,
                meta: Option<BatchMeta>,
            ) {
                self.seen
                    .lock()
                    .unwrap()
                    .push((seq.unwrap(), meta.expect("traced pool attaches baggage")));
            }
            fn name(&self, _m: MachineId, _seq: Option<u64>, _name: NameRecord) {}
        }

        let tracer = ShipmentTracer::new(11, 10_000);
        let recorder = FlightRecorder::new(16);
        // Primary (server 0) down in [100, 200): batch 1 fails over.
        let outages = vec![vec![TickWindow::new(100, 200)], Vec::new()];
        let consumer = Arc::new(MetaLog::default());
        let pool = StreamingPool::start(
            2,
            outages,
            consumer.clone() as Arc<dyn ShipmentConsumer>,
            tracer.clone().for_shard(3),
            recorder.clone(),
        );
        let mut h = pool.handle_for(MachineId(0));
        let records: Vec<TraceRecord> = (0..5).map(rec).collect();
        assert!(h.ingest_at(MachineId(0), 0, &records, 50));
        assert!(h.ingest_at(MachineId(0), 1, &records, 150), "failover");
        drop(h);
        pool.finish().expect("no server died");

        let mut seen = consumer.seen.lock().unwrap().clone();
        seen.sort_by_key(|&(seq, _)| seq);
        assert_eq!(seen.len(), 2);
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
    fn failover_batches_reassemble_in_sequence_order() {
        // Primary down in the middle window; the agent ships batch 1 to
        // the secondary, then batch 2 back on the primary. Every batch
        // reaches the consumer with its agent sequence stamp, so the
        // store returns them in sequence order regardless of which
        // server forwarded what.
        let outages = vec![vec![TickWindow::new(100, 200)], Vec::new()];
        let store = Arc::new(Store::default());
        let pool = start_pool(2, outages, &store);
        let mut h = pool.handle_for(MachineId(0));
        let batch = |lo: u64| -> Vec<TraceRecord> { (lo..lo + 5).map(rec).collect() };
        assert!(h.ingest_at(MachineId(0), 0, &batch(0), 50));
        assert!(h.ingest_at(MachineId(0), 1, &batch(5), 150), "failover");
        assert!(h.ingest_at(MachineId(0), 2, &batch(10), 250));
        assert_eq!(h.failovers(), 1);
        drop(h);
        let (_, merged) = finish(pool, &store);
        let back = merged.records_for(MachineId(0));
        assert_eq!(back.len(), 15);
        let ids: Vec<u64> = back.iter().map(|r| r.file_object).collect();
        assert_eq!(ids, (0..15).collect::<Vec<u64>>(), "agent order restored");
    }
}
