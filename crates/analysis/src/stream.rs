//! Streaming ingestion sinks — the bounded-memory analysis path.
//!
//! The study's own pipeline post-processed ~190 million records into a
//! data warehouse; materializing that stream in memory is exactly what
//! `Scale::Paper` could not do. This module replaces the
//! store-everything trace path: each machine gets a [`MachineSink`] that
//! consumes shipments *as the agent ships them*, in the agent's sequence
//! order, drives the instance-table state machine
//! (`schema::InstanceBuilder`) and folds every record and
//! finished session into online aggregates — exact counters,
//! [`crate::sketch::HistogramSketch`] CDF sketches, and
//! [`crate::sketch::SpillRuns`] spill buffers for the tail analyses that
//! need order statistics. [`AnalysisSet`] bundles the sinks into a
//! [`nt_trace::ShipmentConsumer`]; each sink closes into a one-machine
//! [`ShardSummary`], and the set folds them, in machine-id order, into
//! one partial that closes into a [`StudySummary`].
//!
//! With `retain` enabled the sinks additionally keep the raw stream and
//! rebuild the exact [`TraceSet`] fact tables at the end. `Study::run`
//! retains at every scale, because the report code and the tests read
//! those tables, and the tests use them to prove the streaming
//! aggregates match a batch build of the same records. Retention costs
//! memory in proportion to the trace, so a run that must stay bounded —
//! the paper-scale roster — leaves it off.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, PoisonError};

use nt_obs::{Hop, Phase, ShipmentTracer, Telemetry};
use nt_trace::{BatchMeta, MachineId, NameRecord, ShipmentConsumer, TraceRecord};

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

/// Resident samples per spill buffer before a sorted run is written.
const SPILL_BUFFER: usize = 65_536;

/// Configuration of the streaming sinks.
#[derive(Clone, Debug)]
pub struct StreamConfig {
    /// Keep the raw records and names and rebuild the exact [`TraceSet`]
    /// at finish. Defeats the memory bound: memory grows with the trace.
    /// `Study::run` sets it for the report code; bounded runs leave it
    /// off.
    pub retain: bool,
    /// Directory for spill runs; `None` keeps tail samples in memory
    /// (fine below paper scale).
    pub spill_dir: Option<PathBuf>,
    /// Telemetry handle for the `analysis.finish` span that closes the
    /// set; off by default. A live study passes each machine's own
    /// handle, so the finish lands on the machine's profile. Per-batch
    /// work is timed by whoever delivers it, on a handle of the
    /// delivering thread: a live study's collector handle times each
    /// batch on its machine's telemetry.
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
            telemetry: Telemetry::off(),
            tracer: ShipmentTracer::off(),
        }
    }
}

/// One machine's streaming sink.
///
/// Shipments carry the agent's own sequence stamp, and every caller
/// delivers them in stamp order — a live study's collector handle as the
/// agent ships, a re-ingest in stored order — so the sink processes each
/// batch as it arrives and the instance state machine sees the agent's
/// stream exactly as the stored-batch reassembly
/// `CollectionServer::records_for` replays it, which the benchmark's
/// serial pass and the batch-build tests read. Debug builds check the
/// order.
pub struct MachineSink {
    machine: u32,
    retain: bool,
    /// The stamp the next stamped batch must carry.
    next_seq: u64,
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
    retained_records: Vec<TraceRecord>,
    retained_names: Vec<NameRecord>,
    peak_open_sessions: usize,
    peak_state_bytes: usize,
    tracer: ShipmentTracer,
}

impl MachineSink {
    /// A sink for `machine` under `config`.
    pub fn new(machine: u32, config: &StreamConfig) -> Self {
        let spill = |tag: &str| {
            SpillRuns::new(
                SPILL_BUFFER,
                config.spill_dir.clone(),
                format!("m{machine}-{tag}"),
            )
        };
        MachineSink {
            machine,
            retain: config.retain,
            next_seq: 0,
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
            retained_records: Vec::new(),
            retained_names: Vec::new(),
            peak_open_sessions: 0,
            peak_state_bytes: 0,
            tracer: config.tracer.clone(),
        }
    }

    /// Consumes one shipped buffer. A stamped batch must carry the stamp
    /// after the previous one's, starting from 0.
    pub fn on_batch(
        &mut self,
        seq: Option<u64>,
        records: Vec<TraceRecord>,
        meta: Option<BatchMeta>,
    ) {
        if let Some(seq) = seq {
            debug_assert_eq!(
                seq, self.next_seq,
                "machine {}: batch out of stamp order",
                self.machine
            );
            self.next_seq = seq + 1;
            if let Some(meta) = meta {
                self.tracer.downstream(
                    Hop::Analyze,
                    meta.ctx,
                    self.machine,
                    seq,
                    meta.deliver_ticks,
                    records.len() as u64,
                );
            }
        }
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
        self.note_peaks();
    }

    /// Consumes one file-object name record. Names only feed the path
    /// post-pass of the retained fact tables, kept in arrival order;
    /// without `retain` they are counted and dropped — that is what
    /// keeps the name dimension out of the paper-scale memory bound.
    pub fn on_name(&mut self, name: NameRecord) {
        self.names += 1;
        if self.retain {
            self.retained_names.push(name);
        }
    }

    fn note_peaks(&mut self) {
        self.peak_open_sessions = self.peak_open_sessions.max(self.builder.open_sessions());
        self.peak_state_bytes = self.peak_state_bytes.max(self.state_bytes());
    }

    /// Bytes of live streaming state (excluding any `retain` buffers,
    /// which exist precisely to be unbounded).
    pub(crate) fn state_bytes(&self) -> usize {
        self.builder.state_bytes()
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

    /// Closes the sink into a one-machine partial.
    fn into_shard(mut self) -> ShardSummary {
        self.note_peaks();
        for inst in self.builder.finish() {
            self.ops.push_instance(&inst);
            self.sessions.push_instance(&inst);
            self.sizes.push_instance(&inst);
            self.arrivals.push_instance(&inst);
            if inst.usage_class().is_some() {
                self.size_spill.push(inst.file_size.max(1) as f64);
            }
            // Still-open sessions have no duration; nothing to spill.
        }
        ShardSummary {
            summary: StudySummary {
                machines: 1,
                records: self.records,
                machine_records: vec![(self.machine, self.records)],
                names: self.names,
                ops: self.ops,
                latency: self.latency,
                sizes: self.sizes,
                sessions: self.sessions,
                arrivals: self.arrivals,
                peak_open_sessions: self.peak_open_sessions,
                peak_state_bytes: self.peak_state_bytes,
                ..StudySummary::default()
            },
            size_spill: Some(self.size_spill),
            duration_spill: Some(self.duration_spill),
            streams: self
                .retain
                .then(|| vec![(self.machine, self.retained_records, self.retained_names)]),
        }
    }
}

/// The merged study-level aggregates the streaming path produces.
///
/// `PartialEq` is exact: every field is an integer, an exactly-mergeable
/// sketch, or a float computed once at the fleet root — so two runs that
/// partitioned the fleet differently can be compared with `==`, the
/// watermarks included: each sink processes its machine's batches as
/// they arrive, in stamp order, so [`StudySummary::peak_state_bytes`]
/// depends only on each machine's stream, never on thread timing.
#[derive(Debug, Default, PartialEq)]
pub struct StudySummary {
    /// Machines that contributed.
    pub machines: usize,
    /// Records consumed.
    pub records: u64,
    /// Records consumed per machine, in machine-id order — the credit
    /// side of the `analysis.records` conservation account.
    pub machine_records: Vec<(u32, u64)>,
    /// Sinks whose mutex was poisoned by a delivery that panicked. The
    /// counters up to the panic are preserved and merged; a non-zero
    /// value means a consumer fault, not clean data loss.
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
    /// Always 0: every sink processes its batches as they arrive. The
    /// benchmark still reads it.
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
/// machine task of a live study, or one segment task of a re-ingest,
/// hands the fleet root.
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

/// A set of per-machine sinks: a [`ShipmentConsumer`] whose machines are
/// fixed up front. A study or re-ingest task builds a one-machine set and
/// delivers into it from its own thread; a set over several machines may
/// be delivered concurrently, and contends only on the one sink a
/// shipment belongs to.
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

    /// Locks one sink, recovering from poison: a delivery that panicked
    /// mid-batch unwinds its own caller (in a study, the machine's task)
    /// and is counted in `poisoned_sinks`; it must not abort every other
    /// machine's analysis.
    fn lock_sink(&self, i: usize) -> MutexGuard<'_, MachineSink> {
        self.sinks[i].lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Merges every sink — in machine-id order, so the result does not
    /// depend on which thread delivered what — and produces the summary
    /// (plus the exact fact tables under `retain`).
    pub fn finish(self) -> StreamedAnalysis {
        self.finish_shard().into_analysis()
    }

    /// Closes every sink into a one-machine [`ShardSummary`] and folds
    /// them with [`ShardSummary::merge`], in machine-id order — the shard
    /// tier of the hierarchical reduce. Tail alphas and fact tables are
    /// deferred to [`ShardSummary::into_analysis`] at the fleet root.
    pub fn finish_shard(self) -> ShardSummary {
        let _span = self
            .telemetry
            .span_child(Phase::Analysis, "analysis.finish");
        let mut shard = ShardSummary {
            streams: self.retain.then(Vec::new),
            ..ShardSummary::default()
        };
        for sink in self.sinks {
            let poisoned = sink.is_poisoned();
            let mut one = sink
                .into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .into_shard();
            one.summary.poisoned_sinks = usize::from(poisoned);
            shard.merge(one);
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

    fn name(&self, machine: MachineId, _seq: Option<u64>, name: NameRecord) {
        if let Some(&i) = self.index.get(&machine.0) {
            self.lock_sink(i).on_name(name);
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
        for (i, c) in records.chunks(97).enumerate() {
            set.batch(MachineId(0), Some(i as u64), c.to_vec(), None);
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
    #[cfg(debug_assertions)]
    #[should_panic(expected = "out of stamp order")]
    fn a_batch_out_of_stamp_order_fails_a_debug_build() {
        let mut sink = MachineSink::new(0, &StreamConfig::default());
        sink.on_batch(Some(1), Vec::new(), None);
    }
}
