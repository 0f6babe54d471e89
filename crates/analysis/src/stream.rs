//! Streaming ingestion sinks — the bounded-memory analysis path.
//!
//! The study's own pipeline post-processed ~190 million records into a
//! data warehouse; materializing that stream in memory is exactly what
//! `Scale::Paper` could not do. This module replaces the
//! store-everything trace path: each machine gets a [`MachineSink`] that
//! consumes shipments *as they arrive from the collection servers*,
//! reassembles the agent's sequence order, drives the instance-table
//! state machine ([`crate::schema::InstanceBuilder`]) and folds every
//! record and finished session into online aggregates — exact counters,
//! [`crate::sketch::HistogramSketch`] CDF sketches, and
//! [`crate::sketch::SpillRuns`] spill buffers for the tail analyses that
//! need order statistics. [`AnalysisSet`] bundles the sinks into a
//! [`nt_trace::ShipmentConsumer`] and merges them deterministically into
//! a [`StudySummary`] at shutdown.
//!
//! With `retain` enabled the sinks additionally keep the raw stream and
//! rebuild the exact [`TraceSet`] fact tables at the end — that mode
//! exists so smoke-scale tests can prove the streaming path is
//! byte-identical to the legacy in-memory path; paper-scale runs leave
//! it off and stay bounded.

use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, PoisonError};

use nt_obs::{Hop, Phase, ShipmentTracer, Telemetry};
use nt_trace::{BatchMeta, MachineId, NameRecord, ShipmentConsumer, TraceRecord, RECORD_SIZE};

use crate::arrivals::ArrivalAccumulator;
use crate::latency::LatencyAccumulator;
use crate::ops::OpsAccumulator;
use crate::schema::{InstanceBuilder, TraceSet};
use crate::sessions::SessionAccumulator;
use crate::sizes::SizeAccumulator;
use crate::sketch::SpillRuns;
use crate::tails::hill_estimator_from_tail;

/// One machine's reassembled stream, in [`TraceSet::build`] input shape.
type MachineStream = (u32, Vec<TraceRecord>, Vec<NameRecord>);

/// Configuration of the streaming sinks.
#[derive(Clone, Debug)]
pub struct StreamConfig {
    /// Keep the raw records and names and rebuild the exact [`TraceSet`]
    /// at finish. Defeats the memory bound — smoke-scale testing only.
    pub retain: bool,
    /// Directory for spill runs; `None` keeps tail samples in memory
    /// (fine below paper scale).
    pub spill_dir: Option<PathBuf>,
    /// Resident samples per spill buffer before a sorted run is written.
    pub spill_buffer: usize,
    /// Telemetry handle for analysis-ingest spans; off by default. The
    /// whole streaming fleet shares one handle (the ingest phase has no
    /// machine identity), so the study-side profiler sees every batch.
    pub telemetry: Telemetry,
    /// Shipment tracer for causal `analysis.ingest` spans; off by
    /// default. Sinks parent-link each stamped batch to the collector
    /// hop carried in its [`BatchMeta`].
    pub tracer: ShipmentTracer,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            retain: false,
            spill_dir: None,
            spill_buffer: 65_536,
            telemetry: Telemetry::off(),
            tracer: ShipmentTracer::off(),
        }
    }
}

/// One machine's streaming sink.
///
/// Shipments may arrive through any collection server, but they carry
/// the agent's own sequence stamp; the sink parks out-of-order batches
/// and processes them in sequence, so the instance state machine sees
/// the agent's stream exactly as the legacy
/// `CollectionServer::records_for` reassembly would replay it. Refused
/// shipments are retried by the agent with the *same* stamp, so a gap
/// can only ever close (or the stream ends and `finish` drains the park
/// in stamp order).
pub struct MachineSink {
    machine: u32,
    retain: bool,
    next_seq: u64,
    parked: BTreeMap<u64, Vec<TraceRecord>>,
    parked_records: usize,
    builder: InstanceBuilder,
    /// §8 operational counters and sketches.
    pub ops: OpsAccumulator,
    /// Figure-13/14 latency/size sketches.
    pub latency: LatencyAccumulator,
    /// Figure-3/4 accessed-size sketches.
    pub sizes: SizeAccumulator,
    /// Figure-5/12 duration sketches.
    pub sessions: SessionAccumulator,
    /// Figure-11 inter-arrival sketches.
    pub arrivals: ArrivalAccumulator,
    size_spill: SpillRuns,
    duration_spill: SpillRuns,
    records: u64,
    names: u64,
    name_arrival: u64,
    retained_records: Vec<TraceRecord>,
    retained_names: Vec<(u64, NameRecord)>,
    peak_open_sessions: usize,
    peak_parked_records: usize,
    peak_state_bytes: usize,
    telemetry: Telemetry,
    tracer: ShipmentTracer,
}

impl MachineSink {
    /// A sink for `machine` under `config`.
    pub fn new(machine: u32, config: &StreamConfig) -> Self {
        let spill = |tag: &str| {
            SpillRuns::new(
                config.spill_buffer,
                config.spill_dir.clone(),
                format!("m{machine}-{tag}"),
            )
        };
        MachineSink {
            machine,
            retain: config.retain,
            next_seq: 0,
            parked: BTreeMap::new(),
            parked_records: 0,
            builder: InstanceBuilder::new(machine),
            ops: OpsAccumulator::new(),
            latency: LatencyAccumulator::new(),
            sizes: SizeAccumulator::new(),
            sessions: SessionAccumulator::new(),
            arrivals: ArrivalAccumulator::new(),
            size_spill: spill("sizes"),
            duration_spill: spill("durations"),
            records: 0,
            names: 0,
            name_arrival: u64::MAX / 2,
            retained_records: Vec::new(),
            retained_names: Vec::new(),
            peak_open_sessions: 0,
            peak_parked_records: 0,
            peak_state_bytes: 0,
            telemetry: config.telemetry.clone(),
            tracer: config.tracer.clone(),
        }
    }

    /// Consumes one shipped buffer. Batches at the expected stamp (or
    /// unstamped ones) are processed immediately; future stamps park
    /// until the gap closes.
    pub fn on_batch(
        &mut self,
        seq: Option<u64>,
        records: Vec<TraceRecord>,
        meta: Option<BatchMeta>,
    ) {
        let _span = self.telemetry.span_child(Phase::Analysis, "analysis.batch");
        // The ingest hop marks *arrival* at the analysis tier; parked
        // batches still arrived now, so the span precedes the parking
        // discipline.
        if let (Some(meta), Some(seq)) = (meta, seq) {
            self.tracer.downstream(
                Hop::Analyze,
                meta.ctx,
                self.machine,
                seq,
                meta.deliver_ticks,
                records.len() as u64,
            );
        }
        match seq {
            Some(s) if s > self.next_seq => {
                self.parked_records += records.len();
                self.parked.insert(s, records);
                self.peak_parked_records = self.peak_parked_records.max(self.parked_records);
            }
            Some(s) if s == self.next_seq => {
                self.process(records);
                self.next_seq += 1;
                while let Some(parked) = self.parked.remove(&self.next_seq) {
                    self.parked_records -= parked.len();
                    self.process(parked);
                    self.next_seq += 1;
                }
            }
            // Stale stamp (the legacy store would keep it too) or
            // arrival-order shipping: process in place.
            _ => self.process(records),
        }
        self.note_peaks();
    }

    /// Consumes one file-object name record. Names only feed the path
    /// post-pass of the retained fact tables; without `retain` they are
    /// counted and dropped — that is what keeps the name dimension out
    /// of the paper-scale memory bound.
    pub fn on_name(&mut self, seq: Option<u64>, name: NameRecord) {
        self.names += 1;
        if self.retain {
            let key = seq.unwrap_or_else(|| {
                let k = self.name_arrival;
                self.name_arrival += 1;
                k
            });
            self.retained_names.push((key, name));
        }
    }

    fn process(&mut self, records: Vec<TraceRecord>) {
        self.records += records.len() as u64;
        for rec in &records {
            self.ops.push_record(rec);
            self.latency.push_record(rec);
            self.builder.push(rec);
        }
        if self.retain {
            self.retained_records.extend(records);
        }
        for inst in self.builder.drain_done() {
            self.ops.push_instance(&inst);
            self.sessions.push_instance(&inst);
            self.sizes.push_instance(&inst);
            self.arrivals.push_instance(&inst);
            if inst.usage_class().is_some() {
                self.size_spill.push(inst.file_size.max(1) as f64);
            }
            if let Some(t) = inst.duration_ticks() {
                let ms = t as f64 / 10_000.0;
                if ms > 0.0 {
                    self.duration_spill.push(ms);
                }
            }
        }
        // Sampled here — once per batch *processed*, in stamp order —
        // rather than per batch *delivered*, so the watermark cannot see
        // how far out of order failover delivery ran.
        self.peak_open_sessions = self.peak_open_sessions.max(self.builder.open_sessions());
    }

    fn note_peaks(&mut self) {
        self.peak_state_bytes = self.peak_state_bytes.max(self.state_bytes());
    }

    /// Bytes of live streaming state (excluding any `retain` buffers,
    /// which exist precisely to be unbounded).
    pub fn state_bytes(&self) -> usize {
        self.builder.state_bytes()
            + self.parked_records * RECORD_SIZE
            + self.ops.state_bytes()
            + self.latency.state_bytes()
            + self.sizes.state_bytes()
            + self.sessions.state_bytes()
            + self.arrivals.state_bytes()
            + self.size_spill.state_bytes()
            + self.duration_spill.state_bytes()
    }

    /// Records consumed so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    fn into_summary(mut self) -> MachineSummary {
        // A gap that never closed (stream end): drain in stamp order.
        let parked: Vec<Vec<TraceRecord>> =
            std::mem::take(&mut self.parked).into_values().collect();
        for records in parked {
            self.process(records);
        }
        self.parked_records = 0;
        self.note_peaks();
        let builder = std::mem::replace(&mut self.builder, InstanceBuilder::new(self.machine));
        for inst in builder.finish() {
            self.ops.push_instance(&inst);
            self.sessions.push_instance(&inst);
            self.sizes.push_instance(&inst);
            self.arrivals.push_instance(&inst);
            if inst.usage_class().is_some() {
                self.size_spill.push(inst.file_size.max(1) as f64);
            }
            // Still-open sessions have no duration; nothing to spill.
        }
        let retained = self.retain.then(|| {
            self.retained_names.sort_by_key(|(k, _)| *k);
            (
                std::mem::take(&mut self.retained_records),
                self.retained_names
                    .drain(..)
                    .map(|(_, n)| n)
                    .collect::<Vec<NameRecord>>(),
            )
        });
        MachineSummary {
            machine: self.machine,
            records: self.records,
            names: self.names,
            ops: self.ops,
            latency: self.latency,
            sizes: self.sizes,
            sessions: self.sessions,
            arrivals: self.arrivals,
            size_spill: self.size_spill,
            duration_spill: self.duration_spill,
            retained,
            peak_open_sessions: self.peak_open_sessions,
            peak_parked_records: self.peak_parked_records,
            peak_state_bytes: self.peak_state_bytes,
        }
    }
}

struct MachineSummary {
    machine: u32,
    records: u64,
    names: u64,
    ops: OpsAccumulator,
    latency: LatencyAccumulator,
    sizes: SizeAccumulator,
    sessions: SessionAccumulator,
    arrivals: ArrivalAccumulator,
    size_spill: SpillRuns,
    duration_spill: SpillRuns,
    retained: Option<(Vec<TraceRecord>, Vec<NameRecord>)>,
    peak_open_sessions: usize,
    peak_parked_records: usize,
    peak_state_bytes: usize,
}

/// The merged study-level aggregates the streaming path produces.
///
/// `PartialEq` is exact: every field is an integer, an exactly-mergeable
/// sketch, or a float computed once at the fleet root — so two runs that
/// partitioned the fleet differently can be compared with `==`. The one
/// caveat: [`StudySummary::peak_parked_records`] and
/// [`StudySummary::peak_state_bytes`] are scheduling watermarks (how far
/// out of order failover delivery ran), not analytical facts — identity
/// tests zero them before comparing.
#[derive(Debug, Default, PartialEq)]
pub struct StudySummary {
    /// Machines that contributed.
    pub machines: usize,
    /// Records consumed.
    pub records: u64,
    /// Records consumed per machine, in machine-id order — the credit
    /// side of the `analysis.records` conservation account.
    pub machine_records: Vec<(u32, u64)>,
    /// Sinks whose mutex was poisoned by a panicking server thread. The
    /// counters up to the panic are preserved and merged; a non-zero
    /// value means the run had a collection fault, not clean data loss.
    pub poisoned_sinks: usize,
    /// Name records seen.
    pub names: u64,
    /// §8 operational counters and sketches, merged across machines.
    pub ops: OpsAccumulator,
    /// Figure-13/14 latency/size sketches.
    pub latency: LatencyAccumulator,
    /// Figure-3/4 accessed-size sketches.
    pub sizes: SizeAccumulator,
    /// Figure-5/12 duration sketches.
    pub sessions: SessionAccumulator,
    /// Figure-11 inter-arrival sketches.
    pub arrivals: ArrivalAccumulator,
    /// Hill α of accessed file sizes (top decile, from spilled order
    /// statistics).
    pub size_tail_alpha: f64,
    /// Hill α of session durations.
    pub duration_tail_alpha: f64,
    /// Largest concurrent open-session count across machines (summed
    /// peak, conservative).
    pub peak_open_sessions: usize,
    /// Largest parked (out-of-order) record backlog.
    pub peak_parked_records: usize,
    /// Largest live streaming state, bytes, summed across machines.
    pub peak_state_bytes: usize,
}

impl StudySummary {
    /// Ratio of read bytes to write bytes over successful requests.
    pub fn read_write_byte_ratio(&self) -> f64 {
        let w = self.ops.write_sizes.sum();
        if w <= 0.0 {
            0.0
        } else {
            self.ops.read_sizes.sum() / w
        }
    }
}

fn spill_alpha(spill: &mut SpillRuns) -> f64 {
    let n = spill.len() as usize;
    if n < 3 {
        return 0.0;
    }
    let k = (n / 10).max(2).min(n - 1);
    hill_estimator_from_tail(&spill.top_k(k + 1))
}

/// What [`AnalysisSet::finish`] returns.
pub struct StreamedAnalysis {
    /// The merged aggregates.
    pub summary: StudySummary,
    /// The exact fact tables, only under [`StreamConfig::retain`].
    pub trace_set: Option<TraceSet>,
}

/// A mergeable partial aggregate over any subset of machines — what one
/// shard collector hands the fleet root.
///
/// [`AnalysisSet::finish_shard`] produces one; [`ShardSummary::merge`]
/// folds a sibling in (exact: all state is integer or min/max, so any
/// merge tree over the same machines yields the same bytes); and
/// [`ShardSummary::into_analysis`] closes the hierarchy at the fleet
/// root, where the spill-backed tail alphas and the optional fact tables
/// are computed exactly once. The flat path is the one-shard special
/// case: [`AnalysisSet::finish`] is `finish_shard().into_analysis()`.
#[derive(Debug, Default)]
pub struct ShardSummary {
    /// The partial aggregates. Tail alphas stay 0 until the fleet root
    /// computes them in [`ShardSummary::into_analysis`].
    pub summary: StudySummary,
    size_spill: Option<SpillRuns>,
    duration_spill: Option<SpillRuns>,
    streams: Option<Vec<MachineStream>>,
}

impl ShardSummary {
    /// Absorbs a sibling shard into this one.
    ///
    /// Callers that care about byte-identical fact tables and ledgers
    /// must merge siblings in machine-id order — the sketches don't care,
    /// but `machine_records` and the retained streams are appended in
    /// arrival order.
    pub fn merge(&mut self, other: ShardSummary) {
        let s = &mut self.summary;
        let o = other.summary;
        s.machines += o.machines;
        s.records += o.records;
        s.machine_records.extend(o.machine_records);
        s.poisoned_sinks += o.poisoned_sinks;
        s.names += o.names;
        s.ops.merge(&o.ops);
        s.latency.merge(&o.latency);
        s.sizes.merge(&o.sizes);
        s.sessions.merge(&o.sessions);
        s.arrivals.merge(&o.arrivals);
        s.peak_open_sessions += o.peak_open_sessions;
        s.peak_parked_records += o.peak_parked_records;
        s.peak_state_bytes += o.peak_state_bytes;
        match (&mut self.size_spill, other.size_spill) {
            (Some(all), Some(one)) => all.absorb(one),
            (slot @ None, one) => *slot = one,
            _ => {}
        }
        match (&mut self.duration_spill, other.duration_spill) {
            (Some(all), Some(one)) => all.absorb(one),
            (slot @ None, one) => *slot = one,
            _ => {}
        }
        match (&mut self.streams, other.streams) {
            (Some(all), Some(mut one)) => all.append(&mut one),
            (slot @ None, one) => *slot = one,
            _ => {}
        }
    }

    /// Closes the hierarchy: computes the spill-backed tail alphas and
    /// (under retain) rebuilds the exact fact tables. Fleet root only.
    pub fn into_analysis(mut self) -> StreamedAnalysis {
        if let Some(spill) = &mut self.size_spill {
            self.summary.size_tail_alpha = spill_alpha(spill);
        }
        if let Some(spill) = &mut self.duration_spill {
            self.summary.duration_tail_alpha = spill_alpha(spill);
        }
        let trace_set = self.streams.map(TraceSet::build);
        StreamedAnalysis {
            summary: self.summary,
            trace_set,
        }
    }
}

/// The full set of per-machine sinks, shared by the collection-server
/// threads: a [`ShipmentConsumer`] whose machines are fixed up front so
/// that concurrent servers contend only on the one sink a shipment
/// belongs to.
pub struct AnalysisSet {
    index: HashMap<u32, usize>,
    sinks: Vec<Mutex<MachineSink>>,
    retain: bool,
    telemetry: Telemetry,
}

impl AnalysisSet {
    /// Sinks for `machines` (order fixes the deterministic merge order)
    /// under `config`.
    pub fn new(machines: &[u32], config: &StreamConfig) -> Self {
        let mut ids: Vec<u32> = machines.to_vec();
        ids.sort_unstable();
        ids.dedup();
        let index = ids.iter().enumerate().map(|(i, &m)| (m, i)).collect();
        let sinks = ids
            .iter()
            .map(|&m| Mutex::new(MachineSink::new(m, config)))
            .collect();
        AnalysisSet {
            index,
            sinks,
            retain: config.retain,
            telemetry: config.telemetry.clone(),
        }
    }

    /// Locks one sink, recovering from poison: a server thread that
    /// panicked mid-batch must surface as a collection fault in the
    /// summary (`poisoned_sinks`), not abort every other machine's
    /// analysis.
    fn lock_sink(&self, i: usize) -> MutexGuard<'_, MachineSink> {
        self.sinks[i].lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Current live streaming state across machines, bytes. Racy by
    /// nature when servers are still running; exact after they stop.
    pub fn memory_estimate_bytes(&self) -> usize {
        (0..self.sinks.len())
            .map(|i| self.lock_sink(i).state_bytes())
            .sum()
    }

    /// Merges every sink — in machine-id order, so the result does not
    /// depend on server-thread interleaving — and produces the summary
    /// (plus the exact fact tables under `retain`).
    pub fn finish(self) -> StreamedAnalysis {
        self.finish_shard().into_analysis()
    }

    /// Merges every sink into a [`ShardSummary`] — the shard tier of the
    /// hierarchical reduce. Tail alphas and fact tables are deferred to
    /// [`ShardSummary::into_analysis`] at the fleet root.
    pub fn finish_shard(self) -> ShardSummary {
        let _span = self
            .telemetry
            .span_child(Phase::Analysis, "analysis.finish");
        let mut shard = ShardSummary {
            streams: self.retain.then(Vec::new),
            ..ShardSummary::default()
        };
        let summary = &mut shard.summary;
        for sink in self.sinks {
            if sink.is_poisoned() {
                summary.poisoned_sinks += 1;
            }
            let ms = sink
                .into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .into_summary();
            summary.machines += 1;
            summary.records += ms.records;
            summary.machine_records.push((ms.machine, ms.records));
            summary.names += ms.names;
            summary.ops.merge(&ms.ops);
            summary.latency.merge(&ms.latency);
            summary.sizes.merge(&ms.sizes);
            summary.sessions.merge(&ms.sessions);
            summary.arrivals.merge(&ms.arrivals);
            summary.peak_open_sessions += ms.peak_open_sessions;
            summary.peak_parked_records += ms.peak_parked_records;
            summary.peak_state_bytes += ms.peak_state_bytes;
            match &mut shard.size_spill {
                None => shard.size_spill = Some(ms.size_spill),
                Some(all) => all.absorb(ms.size_spill),
            }
            match &mut shard.duration_spill {
                None => shard.duration_spill = Some(ms.duration_spill),
                Some(all) => all.absorb(ms.duration_spill),
            }
            if let (Some(streams), Some((records, names))) = (&mut shard.streams, ms.retained) {
                streams.push((ms.machine, records, names));
            }
        }
        shard
    }
}

impl ShipmentConsumer for AnalysisSet {
    fn batch(
        &self,
        machine: MachineId,
        seq: Option<u64>,
        records: Vec<TraceRecord>,
        meta: Option<BatchMeta>,
    ) {
        debug_assert!(
            self.index.contains_key(&machine.0),
            "shipment from unregistered machine {machine:?}"
        );
        if let Some(&i) = self.index.get(&machine.0) {
            self.lock_sink(i).on_batch(seq, records, meta);
        }
    }

    fn name(&self, machine: MachineId, seq: Option<u64>, name: NameRecord) {
        if let Some(&i) = self.index.get(&machine.0) {
            self.lock_sink(i).on_name(seq, name);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::operational_stats;
    use crate::schema::test_support::synthetic_trace_set;

    /// Rebuilds shippable raw streams from a synthetic trace set.
    fn raw_streams(ts: &TraceSet) -> (Vec<TraceRecord>, Vec<NameRecord>) {
        let records: Vec<TraceRecord> = ts.records.iter().map(|(_, r)| r).collect();
        let mut names: Vec<NameRecord> = ts
            .names
            .iter()
            .map(|(&(_, fo), path)| NameRecord {
                file_object: fo,
                volume: 0,
                process: 0,
                path: path.clone(),
                at_ticks: 0,
            })
            .collect();
        names.sort_by_key(|n| n.file_object);
        (records, names)
    }

    #[test]
    fn retained_fact_tables_match_batch_build() {
        let ts = synthetic_trace_set(300, 41);
        let (records, names) = raw_streams(&ts);
        let config = StreamConfig {
            retain: true,
            ..StreamConfig::default()
        };
        let set = AnalysisSet::new(&[0], &config);
        // Ship in agent order but deliver the even-seq batches late to
        // exercise the reorderer.
        let chunks: Vec<Vec<TraceRecord>> = records.chunks(97).map(|c| c.to_vec()).collect();
        let late: Vec<(u64, Vec<TraceRecord>)> = chunks
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 2 == 0)
            .map(|(i, c)| (i as u64, c.clone()))
            .collect();
        for (i, c) in chunks.iter().enumerate().filter(|(i, _)| i % 2 == 1) {
            set.batch(MachineId(0), Some(i as u64), c.clone(), None);
        }
        for (i, c) in late {
            set.batch(MachineId(0), Some(i), c, None);
        }
        for (i, n) in names.iter().enumerate() {
            set.name(MachineId(0), Some(i as u64), n.clone());
        }
        let out = set.finish();
        let rebuilt = out.trace_set.expect("retain mode");
        let direct = TraceSet::build(vec![(0, records, names)]);
        assert_eq!(rebuilt.records, direct.records);
        assert_eq!(rebuilt.instances, direct.instances);
        assert_eq!(rebuilt.names, direct.names);
        assert_eq!(out.summary.records, ts.records.len() as u64);
    }

    #[test]
    fn streaming_counters_match_batch_analysis() {
        let ts = synthetic_trace_set(400, 42);
        let (records, names) = raw_streams(&ts);
        let set = AnalysisSet::new(&[0], &StreamConfig::default());
        for (i, c) in records.chunks(128).enumerate() {
            set.batch(MachineId(0), Some(i as u64), c.to_vec(), None);
        }
        for (i, n) in names.into_iter().enumerate() {
            set.name(MachineId(0), Some(i as u64), n);
        }
        let out = set.finish();
        assert!(out.trace_set.is_none(), "no retain, no fact tables");
        let s = &out.summary;
        let batch = operational_stats(&ts);
        assert_eq!(s.ops.opens_ok, batch.opens_ok);
        assert_eq!(s.ops.opens_failed, batch.opens_failed);
        assert_eq!(s.ops.control_only_fraction(), batch.control_only_fraction);
        assert_eq!(s.ops.read_failure_rate(), batch.read_failure_rate);
        assert!(s.size_tail_alpha >= 0.0 && s.size_tail_alpha.is_finite());
        assert!(s.peak_state_bytes > 0);
        assert!(s.records > 0);
    }

    #[test]
    fn out_of_order_delivery_is_invisible() {
        let ts = synthetic_trace_set(250, 43);
        let (records, _) = raw_streams(&ts);
        let run = |scramble: bool| {
            let set = AnalysisSet::new(&[0], &StreamConfig::default());
            let chunks: Vec<(u64, Vec<TraceRecord>)> = records
                .chunks(64)
                .enumerate()
                .map(|(i, c)| (i as u64, c.to_vec()))
                .collect();
            if scramble {
                // Reverse within blocks of 5 — heavy local reordering.
                for block in chunks.chunks(5) {
                    for (i, c) in block.iter().rev() {
                        set.batch(MachineId(0), Some(*i), c.clone(), None);
                    }
                }
            } else {
                for (i, c) in chunks {
                    set.batch(MachineId(0), Some(i), c, None);
                }
            }
            set.finish().summary
        };
        let a = run(false);
        let b = run(true);
        assert_eq!(a.records, b.records);
        assert_eq!(a.ops.opens_ok, b.ops.opens_ok);
        assert_eq!(
            a.ops.read_gaps_us.quantile(0.9),
            b.ops.read_gaps_us.quantile(0.9)
        );
        assert_eq!(a.sessions.all.quantile(0.5), b.sessions.all.quantile(0.5));
        assert_eq!(a.size_tail_alpha, b.size_tail_alpha);
        assert!(b.peak_parked_records > 0, "the scramble really parked");
    }

    #[test]
    fn memory_estimate_moves_with_state() {
        let ts = synthetic_trace_set(150, 44);
        let (records, _) = raw_streams(&ts);
        let set = AnalysisSet::new(&[0], &StreamConfig::default());
        let before = set.memory_estimate_bytes();
        for (i, c) in records.chunks(256).enumerate() {
            set.batch(MachineId(0), Some(i as u64), c.to_vec(), None);
        }
        assert!(set.memory_estimate_bytes() > before);
    }
}
