//! The traced pass: per-layer metrics measured from outside the
//! program, by timing calls into each layer's public functions.
//!
//! - **(a)** One run of the workload's operation with the self-profiler
//!   on gives per-phase self time, with process CPU taken around it.
//! - **(b)** A serial pass over the study behind the workload (its own
//!   study, or the set-up study whose output it consumes), machine by
//!   machine: build, simulate into a collection server, one extra
//!   snapshot, analysis of the collected stream, warehouse encode and
//!   decode, and (outside `whatif_matrix`) a baseline replay.
//! - **(c)** For `whatif_matrix`, one span per (variant × machine)
//!   replay cell of the matrix.

use std::time::Duration;

use nt_analysis::stream::{AnalysisSet, StreamConfig};
use nt_trace::{CollectionServer, MachineId, ShipmentConsumer, TraceRecord};
use nt_warehouse::{Segment, SegmentReader, SegmentWriter};

use crate::adapter::{
    self, Phase, Policy, RuntimeProfile, SerialMachine, StudyFacts, BATCH_RECORDS, WORKERS,
};
use crate::spans::Tracer;
use crate::stats;
use crate::workloads::{execute, judge, Input, Outcome, Prepared};

/// A per-layer reading: name, value, unit.
pub type Reading = (&'static str, f64, &'static str);

const MIB: f64 = 1024.0 * 1024.0;

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Self time and span count of the phases a machine's profile gained
/// between two readings.
#[derive(Default)]
struct PhaseDelta {
    self_ns: [u64; Phase::ALL.len()],
    spans: [u64; Phase::ALL.len()],
}

impl PhaseDelta {
    fn add(&mut self, before: &RuntimeProfile, after: &RuntimeProfile) {
        for (i, &p) in Phase::ALL.iter().enumerate() {
            self.self_ns[i] += after.phase(p).self_ns - before.phase(p).self_ns;
            self.spans[i] += after.phase(p).spans - before.phase(p).spans;
        }
    }

    fn get(&self, phase: Phase) -> (f64, f64) {
        let i = Phase::ALL
            .iter()
            .position(|&p| p == phase)
            .expect("phase is listed");
        (self.self_ns[i] as f64 / 1e9, self.spans[i] as f64)
    }

    fn total_s(&self) -> f64 {
        self.self_ns.iter().sum::<u64>() as f64 / 1e9
    }
}

/// Sums of the serial pass.
#[derive(Default)]
struct Serial {
    build: Vec<f64>,
    simulate: Vec<f64>,
    snapshot_s: f64,
    analysis_s: f64,
    encode_s: f64,
    decode_s: f64,
    phases: PhaseDelta,
    counters: adapter::MachineCounters,
    records: u64,
    segment_bytes: u64,
    replay_cells: Vec<(f64, u64)>,
}

/// Medians of the untraced timed runs, the base of the overhead and
/// utilization ratios.
pub struct Untraced {
    pub wall_s: f64,
    pub cpu_s: f64,
}

/// Runs the traced pass and returns every per-layer reading. An `Err`
/// is a failed run: the traced run's output differed from the
/// reference, or a layer call failed.
pub fn traced_pass(
    prepared: &Prepared,
    timed: &Untraced,
    tracer: &mut Tracer,
) -> Result<Vec<Reading>, String> {
    // (a) The workload's own operation, profiled.
    let traced_config = prepared.study.traced();
    let root = tracer.open("traced_run", None);
    let run = match &prepared.input {
        Input::Study(_) => execute(&prepared.input, Some(&traced_config))?,
        _ => execute(&prepared.input, None)?,
    };
    tracer.close(root);
    let Outcome { facts, profile, .. } =
        judge(run.outcome, prepared.reference).map_err(|e| format!("traced run: {e}"))?;
    let facts: StudyFacts = match &prepared.setup_facts {
        Some(f) => f.clone(),
        None => facts.ok_or("a study run reports its facts")?,
    };

    // (b) and (c).
    let serial = serial_pass(prepared, tracer)?;

    let mut out: Vec<Reading> = Vec::new();
    let mut put = |name, value, unit| out.push((name, value, unit));

    let build_s: f64 = serial.build.iter().sum();
    let simulate_s: f64 = serial.simulate.iter().sum();
    let per_machine: Vec<f64> = serial
        .build
        .iter()
        .zip(&serial.simulate)
        .map(|(b, s)| b + s)
        .collect();
    let c = &serial.counters;
    put("workload.build_s", build_s, "s");
    put(
        "workload.build_ns_per_file",
        ratio(build_s * 1e9, c.initial_files as f64),
        "ns",
    );
    put("sim.events", c.events as f64, "count");
    put("sim.simulate_s", simulate_s, "s");
    put("sim.unclaimed_s", simulate_s - serial.phases.total_s(), "s");
    put("sim.machine_p50_s", stats::median(&per_machine), "s");
    put("sim.machine_p95_s", nearest_rank(&per_machine, 0.95), "s");

    let (dispatch_s, dispatch_n) = serial.phases.get(Phase::Dispatch);
    put("io.ops", c.io_ops as f64, "count");
    put("io.dispatch_s", dispatch_s, "s");
    put(
        "io.dispatch_ns_per_op",
        ratio(dispatch_s * 1e9, dispatch_n),
        "ns",
    );
    put(
        "io.fastio_frac",
        ratio(c.fastio_ops as f64, (c.fastio_ops + c.irp_ops) as f64),
        "ratio",
    );

    let (cache_s, cache_n) = serial.phases.get(Phase::Cache);
    put("cache.s", cache_s, "s");
    put("cache.ns_per_op", ratio(cache_s * 1e9, cache_n), "ns");
    put(
        "cache.hit_ratio",
        ratio(c.read_hits as f64, (c.read_hits + c.read_misses) as f64),
        "ratio",
    );

    let (vm_s, vm_n) = serial.phases.get(Phase::Vm);
    put("vm.s", vm_s, "s");
    put("vm.ns_per_op", ratio(vm_s * 1e9, vm_n), "ns");
    put("vm.hard_faults", c.hard_faults as f64, "count");

    let (agent_s, _) = serial.phases.get(Phase::Trace);
    put("trace.agent_s", agent_s, "s");
    put(
        "trace.ns_per_batch",
        ratio(agent_s * 1e9, c.batches_shipped as f64),
        "ns",
    );
    put("trace.batches", facts.batches_shipped as f64, "count");
    put(
        "trace.stored_bytes_per_record",
        ratio(facts.stored_bytes as f64, facts.total_records as f64),
        "B",
    );
    put(
        "trace.snapshot_ms",
        ratio(serial.snapshot_s * 1e3, serial.build.len() as f64),
        "ms",
    );
    put("trace.snapshots_held", facts.snapshots_held as f64, "count");

    put("analysis.s", serial.analysis_s, "s");
    put(
        "analysis.ns_per_record",
        ratio(serial.analysis_s * 1e9, serial.records as f64),
        "ns",
    );
    put(
        "analysis.peak_state_mb",
        facts.peak_state_bytes as f64 / MIB,
        "MiB",
    );
    put(
        "analysis.peak_parked_records",
        facts.peak_parked_records as f64,
        "count",
    );

    let records = serial.records as f64;
    put(
        "warehouse.encode_ns_per_record",
        ratio(serial.encode_s * 1e9, records),
        "ns",
    );
    put(
        "warehouse.decode_ns_per_record",
        ratio(serial.decode_s * 1e9, records),
        "ns",
    );
    put(
        "warehouse.bytes_per_record",
        ratio(serial.segment_bytes as f64, records),
        "B",
    );

    let cells: Vec<f64> = serial.replay_cells.iter().map(|c| c.0).collect();
    let replay_s: f64 = cells.iter().sum();
    let replayed: u64 = serial.replay_cells.iter().map(|c| c.1).sum();
    put("replay.s", replay_s, "s");
    put(
        "replay.ns_per_record",
        ratio(replay_s * 1e9, replayed as f64),
        "ns",
    );
    put("replay.cells", cells.len() as f64, "count");
    put(
        "replay.cell_max_over_median",
        ratio(
            cells.iter().copied().fold(0.0, f64::max),
            stats::median(&cells),
        ),
        "ratio",
    );

    // The serial work the timed operation parallelizes: machine tasks
    // and their analysis for a study, replay cells for the matrix,
    // decode and analysis for a re-ingest.
    let serial_s = match &prepared.input {
        Input::Study(_) => build_s + simulate_s + serial.analysis_s,
        Input::Matrix { .. } => replay_s,
        Input::Warehouse(_) => serial.decode_s + serial.analysis_s,
    };
    put(
        "core.unclaimed_frac",
        1.0 - ratio(profile.total_self_ns() as f64 / 1e9, run.cpu_s),
        "ratio",
    );
    put(
        "core.cpu_util",
        ratio(timed.cpu_s, timed.wall_s * WORKERS as f64),
        "ratio",
    );
    put(
        "core.parallel_speedup",
        ratio(serial_s, run.wall_s),
        "ratio",
    );
    put("obs.overhead", ratio(run.wall_s, timed.wall_s), "ratio");
    Ok(out)
}

/// Nearest-rank percentile.
fn nearest_rank(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n => v[((p * n as f64).ceil() as usize).clamp(1, n) - 1],
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// (b), plus (c) for the matrix: every machine of the study, serially.
fn serial_pass(prepared: &Prepared, tracer: &mut Tracer) -> Result<Serial, String> {
    let config = prepared.study.traced();
    let schedule = adapter::schedule(&config);
    let baseline = Policy::baseline();
    let replay_inline = !matches!(prepared.input, Input::Matrix { .. });
    let mut s = Serial::default();
    let root = tracer.open("serial_pass", None);
    for index in 0..config.machines() {
        let span = tracer.open(format!("machine.{index}"), Some(root));
        let parent = Some(span);
        let (mut machine, d) = tracer.time("workload.build", parent, || {
            SerialMachine::build(&config, &schedule, index)
        });
        s.build.push(secs(d));
        let before = machine.profile();
        let mut server = CollectionServer::new();
        let (_, d) = tracer.time("sim.simulate", parent, || {
            machine.simulate(&config, &mut server)
        });
        s.simulate.push(secs(d));
        s.phases.add(&before, &machine.profile());
        let (_, d) = tracer.time("trace.snapshot", parent, || machine.extra_snapshot(&config));
        s.snapshot_s += secs(d);
        let m = machine.counters();
        let c = &mut s.counters;
        c.io_ops += m.io_ops;
        c.fastio_ops += m.fastio_ops;
        c.irp_ops += m.irp_ops;
        c.read_hits += m.read_hits;
        c.read_misses += m.read_misses;
        c.hard_faults += m.hard_faults;
        c.batches_shipped += m.batches_shipped;
        c.events += m.events;
        c.initial_files += m.initial_files;
        let id = machine.id();
        drop(machine);

        let (records, names) = adapter::collected(&server, id);
        drop(server);
        s.records += records.len() as u64;
        let batches: Vec<Vec<TraceRecord>> =
            records.chunks(BATCH_RECORDS).map(<[_]>::to_vec).collect();

        let (bytes, d) = tracer.time("warehouse.encode", parent, || {
            let mut w = SegmentWriter::new(id);
            for b in &batches {
                w.push_batch(b)?;
            }
            for n in &names {
                w.push_name(n)?;
            }
            Ok::<_, nt_warehouse::NttError>(w.finish())
        });
        let bytes = bytes.map_err(|e| format!("segment encode: {e}"))?;
        s.encode_s += secs(d);
        s.segment_bytes += bytes.len() as u64;
        drop(batches);

        let (decoded, d) = tracer.time("warehouse.decode", parent, || {
            let segment = Segment::parse(bytes)?;
            let reader = segment.reader();
            let mut first = 0u64;
            let mut out = Vec::new();
            for batch in reader.batches() {
                let recs = SegmentReader::decode_batch(batch, first)?;
                first += recs.len() as u64;
                out.push(recs);
            }
            Ok::<_, nt_warehouse::NttError>(out)
        });
        let decoded = decoded.map_err(|e| format!("segment decode: {e}"))?;
        s.decode_s += secs(d);

        let ((), d) = tracer.time("analysis.ingest", parent, || {
            let set = AnalysisSet::new(&[id], &StreamConfig::default());
            for (seq, batch) in decoded.into_iter().enumerate() {
                set.batch(MachineId(id), Some(seq as u64), batch, None);
            }
            for (seq, name) in names.iter().enumerate() {
                set.name(MachineId(id), Some(seq as u64), name.clone());
            }
            std::hint::black_box(set.finish());
        });
        s.analysis_s += secs(d);

        if replay_inline {
            let stream = adapter::Stream::new(id, records, &names);
            let (_, d) = tracer.time("replay.cell", parent, || {
                adapter::replay_cell(&stream, &baseline)
            });
            s.replay_cells.push((secs(d), stream.records()));
        }
        tracer.close(span);
    }
    tracer.close(root);

    if let Input::Matrix { matrix, trace } = &prepared.input {
        let streams = adapter::replay_streams(trace);
        let root = tracer.open("replay_matrix", None);
        for row in 0..matrix.rows() {
            let policy = matrix.row(row);
            for stream in &streams {
                let (_, d) = tracer.time(format!("replay.cell.{row}"), Some(root), || {
                    adapter::replay_cell(stream, &policy)
                });
                s.replay_cells.push((secs(d), stream.records()));
            }
        }
        tracer.close(root);
    }
    Ok(s)
}
