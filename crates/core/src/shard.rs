//! The study driver: agent → shard collector → fleet.
//!
//! The paper traced 45 desktops through three collection servers; the
//! org-scale question is what the same pipeline looks like at 1,000 or
//! 10,000 machines. This module partitions the fleet into contiguous
//! shards, runs every machine simulation on one fleet-wide
//! work-stealing pool ([`nt_trace::steal`]), and merges the machines'
//! [`ShardSummary`] partials at the fleet root, in machine order, where
//! tail alphas and (under retain) the exact fact tables are computed
//! once. One shard is the paper's flat topology; it is the only pipeline
//! the study has.
//!
//! A study runs on its `workers` threads and no others, and every
//! machine task owns its collection path from start to finish, as a
//! re-ingest task owns its segment: a one-machine [`AnalysisSet`], under
//! an export its own segment writer behind a `Tee`, and the
//! [`CollectorHandle`] its agent ships through. The handle reads the
//! run's one collector outage table, counts what the three servers
//! accepted, and delivers each buffer into the machine's sinks on the
//! worker simulating it, in the agent's stamp order; nothing in the path
//! is reachable from another machine's task. The task closes its set
//! into a partial; the driver sums a shard's partials and handle totals
//! into its [`ShardReport`] and writes the segments once every task has
//! finished.
//!
//! The load-bearing invariant: **shard count and worker count are pure
//! performance knobs.** Every machine derives its faults from its fleet
//! index and ships to three servers whose outage windows come from one
//! shared [`FaultSchedule`], so each machine's experience is
//! identical to the flat topology's; and every aggregate the sinks keep
//! is integer or min/max state, so the hierarchical merge is exact, not
//! merely close. `tests/shard_scale.rs` pins this: digests of the fact
//! tables, name tables and loss ledgers are bit-identical across shard
//! counts 1/4/8 and worker counts 1/N.

use std::path::PathBuf;

use nt_analysis::stream::{AnalysisSet, ShardSummary, StreamConfig};
use nt_obs::{
    FlightEvent, HealthFinding, MachineTelemetry, Phase, RecorderScope, Telemetry, Watchdog,
};
use nt_trace::{CollectorHandle, ShipmentConsumer, StreamingTotals};
use nt_warehouse::writer::segment_file_name;
use nt_warehouse::{NttError, SegmentWriter};

use crate::config::StudyConfig;
use crate::fault::FaultSchedule;
use crate::run::MachineRun;
use crate::study::{
    dump_flight_recorder, write_trace_artefact, Instruments, MachineOutput, StreamedStudyData,
    Study, StudyFault,
};
use crate::warehouse::Tee;

/// Knobs of the study driver. The defaults reproduce the flat topology
/// (one shard, auto-sized workers).
#[derive(Clone, Debug)]
pub struct ShardOptions {
    /// Number of shard collectors; clamped to `1..=machines`.
    pub shards: usize,
    /// Worker threads for the fleet-wide work-stealing pool; `None`
    /// means one per available core.
    pub workers: Option<usize>,
    /// Keep raw records and rebuild the exact fact tables — what
    /// [`Study::run`] does for the report code; defeats the memory
    /// bound.
    pub retain: bool,
    /// Spill directory for the tail-analysis sample runs; shared across
    /// shards (run files are namespaced by machine id).
    pub spill_dir: Option<PathBuf>,
    /// Export the run as an NTT warehouse into this directory (created
    /// before any machine runs); one segment file per machine, named by
    /// machine id, written once every machine task has finished.
    pub warehouse: Option<PathBuf>,
}

impl Default for ShardOptions {
    fn default() -> Self {
        ShardOptions {
            shards: 1,
            workers: None,
            retain: false,
            spill_dir: None,
            warehouse: None,
        }
    }
}

/// What one shard contributed, before its partial was merged away.
#[derive(Clone, Debug)]
pub struct ShardReport {
    /// Shard index.
    pub shard: usize,
    /// Fleet machine indices this shard collected, `[start, end)`.
    pub machines: std::ops::Range<usize>,
    /// Records the shard's machines' sinks analysed: the sum of their
    /// partials.
    pub records: u64,
    /// Records the collection servers accepted from the shard's machines
    /// (its head-count): the sum of their collector handles' totals.
    pub total_records: usize,
    /// Compressed footprint of those records at the collection servers,
    /// bytes: the sum of the machines' handle totals.
    pub stored_bytes: usize,
    /// The sum of the shard's machines' peak live analysis state, bytes
    /// — the quantity the per-shard memory budget bounds.
    pub peak_state_bytes: usize,
    /// Shard-level health findings (currently the post-run stall check);
    /// empty with watchdogs off.
    pub findings: Vec<HealthFinding>,
}

/// What the study driver produces: the fleet-level data plus the
/// per-shard accounting.
pub struct ShardedStudyData {
    /// The fleet-root study data, bit-identical for every shard count.
    pub data: StreamedStudyData,
    /// Per-shard reports, in shard order.
    pub shards: Vec<ShardReport>,
}

/// What one machine task hands the driver.
struct MachineTask {
    output: MachineOutput,
    /// The machine's closed one-machine analysis set.
    partial: ShardSummary,
    /// What the collection servers accepted from the machine.
    shipped: StreamingTotals,
    /// Under an export, the machine's segment or its writer's first
    /// refusal.
    segment: Option<Result<SegmentWriter, NttError>>,
}

/// Contiguous, near-even split of `0..n` into `k` ranges (the first
/// `n % k` get one extra).
pub(crate) fn shard_ranges(n: usize, k: usize) -> Vec<std::ops::Range<usize>> {
    let k = k.clamp(1, n.max(1));
    let base = n / k;
    let extra = n % k;
    let mut next = 0;
    (0..k)
        .map(|s| {
            let len = base + usize::from(s < extra);
            let range = next..next + len;
            next += len;
            range
        })
        .collect()
}

impl Study {
    /// Runs every machine of the deployment through the sharded
    /// collection tree and audits the result.
    ///
    /// Machines are independent (separate engines, separate RNG streams)
    /// and run on worker threads; their agents ship trace buffers
    /// through the three collection servers — the §3 topology — into
    /// per-machine analysis sinks on the same worker instead of storing
    /// them, so memory stays bounded by live analysis state rather than
    /// by trace volume (unless `options.retain` keeps the fact tables).
    ///
    /// Before it returns, the driver reconciles every conservation
    /// ledger of [`crate::sharded_ledgers`] bottom-up — machines, then
    /// shards, then the fleet root — so the first
    /// [`StudyFault::Drift`] names the lowest tier that broke. A machine
    /// task that panics — in its simulation or in a sink its buffers
    /// reach — comes back as [`StudyFault::Worker`] naming the machine.
    /// Every fault dumps the flight recorder (exactly once per run), as
    /// does a run that lost records under `dump_on_loss`.
    pub fn try_run_sharded(
        config: &StudyConfig,
        options: &ShardOptions,
    ) -> Result<ShardedStudyData, StudyFault> {
        let instruments = Instruments::for_config(config);
        let result = Self::sharded_run_inner(config, options, &instruments)
            .and_then(|data| crate::audit::reconcile(&data).map(|()| data));
        let reason = match &result {
            Err(StudyFault::Drift { imbalance, .. }) => {
                Some(format!("conservation-drift: {imbalance}"))
            }
            Err(fault) => Some(format!("study-fault: {fault}")),
            Ok(run) if instruments.dump_on_loss && run.data.total_lost() > 0 => Some(format!(
                "loss-on-shutdown: {} records lost",
                run.data.total_lost()
            )),
            Ok(_) => None,
        };
        if let Some(reason) = reason {
            dump_flight_recorder(&instruments.recorder, config, &reason);
        }
        result
    }

    fn sharded_run_inner(
        config: &StudyConfig,
        options: &ShardOptions,
        instruments: &Instruments,
    ) -> Result<ShardedStudyData, StudyFault> {
        let n = config.machines.len();
        let workers = options.workers.unwrap_or_else(host_workers).min(n.max(1));
        let ranges = shard_ranges(n, options.shards);
        // One schedule for the whole fleet, materialized exactly like
        // the flat path's (three servers): machine faults key off the
        // fleet index and every machine's handle reads the same collector
        // outage windows, so a machine cannot tell how many shards the
        // tree has.
        let schedule = FaultSchedule::materialize(config, 3);
        if let Some(dir) = &options.warehouse {
            std::fs::create_dir_all(dir).map_err(NttError::Io)?;
        }

        // Fleet index → owning shard, for the machine tasks.
        let shard_of: Vec<usize> = ranges
            .iter()
            .enumerate()
            .flat_map(|(s, r)| r.clone().map(move |_| s))
            .collect();
        let stream = StreamConfig {
            retain: options.retain,
            spill_dir: options.spill_dir.clone(),
            ..StreamConfig::default()
        };

        // Every machine simulation, fleet-wide, on one stealing pool:
        // a shard of cheap WalkUp machines finishes early and its
        // workers drain the Scientific shard's backlog. Each task owns
        // its machine's collector handle and sinks, as a re-ingest task
        // owns its segment's, and its buffers reach them on the worker
        // simulating it, so a panicking sink unwinds that machine's task.
        let (tasks, panic) = nt_trace::steal::run_indexed(n, workers, |index| {
            let spec = &config.machines[index];
            let faults = schedule.for_machine(index);
            let shard = shard_of[index];
            let tracer = instruments.tracer.for_shard(shard as u32);
            let mut run = MachineRun::build_with_faults(config, index, spec, &faults);
            run.set_instruments(&tracer, &instruments.recorder, instruments.watchdogs);
            let analysis = AnalysisSet::new(
                &[run.id.0],
                &StreamConfig {
                    telemetry: run.telemetry().clone(),
                    tracer: tracer.clone(),
                    ..stream.clone()
                },
            );
            let tee = options
                .warehouse
                .as_ref()
                .map(|_| Tee::new(&analysis, run.id.0, tracer.clone()));
            let consumer: &dyn ShipmentConsumer = match &tee {
                Some(tee) => tee,
                None => &analysis,
            };
            let mut sink = CollectorHandle::new(
                run.id,
                &schedule.collectors,
                tracer,
                instruments.recorder.clone(),
                run.telemetry(),
                consumer,
            );
            run.simulate_with_faults(config, &faults, &mut sink);
            let shipped = sink.totals();
            let segment = tee.map(Tee::into_segment);
            // Closed before the machine's telemetry is reported, so its
            // `analysis.finish` lands on the machine's own profile.
            let partial = analysis.finish_shard();
            MachineTask {
                output: MachineOutput {
                    id: run.id,
                    category: run.category,
                    snapshots: std::mem::take(&mut run.snapshots),
                    io: run.io_metrics(),
                    cache: run.cache_metrics(),
                    vm: run.vm_metrics(),
                    loss: run.loss_ledger(),
                    residual_dirty_bytes: run.residual_dirty_bytes(),
                    telemetry: run.telemetry_report(),
                    health: run.take_health(),
                    last_delivery_ticks: run.last_delivery_ticks(),
                },
                partial,
                shipped,
                segment,
            }
        });
        if let Some(p) = panic {
            return Err(StudyFault::Worker(format!(
                "machine {}: {}",
                p.index, p.message
            )));
        }
        // No task panicked, so every slot holds its machine's task, in
        // machine order.
        let mut machines = Vec::with_capacity(n);
        let mut partials = Vec::with_capacity(n);
        let mut segments = Vec::with_capacity(n);
        for task in tasks.into_iter().flatten() {
            machines.push(task.output);
            partials.push((task.partial, task.shipped));
            segments.extend(task.segment);
        }

        // Shard tier: sum each shard's machine partials and handle totals
        // into its report and merge the partials straight into the fleet
        // root, in machine order.
        // Start from an empty set's partial, as a re-ingest does: under
        // retain it carries an empty stream list, so an empty fleet still
        // yields empty fact tables. Merges are exact, so no grouping of
        // them could show in the result.
        let mut fleet = AnalysisSet::new(&[], &stream).finish_shard();
        let mut partials = partials.into_iter();
        let mut shards = Vec::with_capacity(ranges.len());
        let end_ticks = config.duration.ticks();
        for (s, range) in ranges.iter().enumerate() {
            let (mut records, mut peak_state_bytes) = (0, 0);
            let (mut total_records, mut stored_bytes) = (0, 0);
            for (partial, shipped) in partials.by_ref().take(range.len()) {
                records += partial.summary.records;
                peak_state_bytes += partial.summary.peak_state_bytes;
                total_records += shipped.total_records;
                stored_bytes += shipped.stored_bytes;
                fleet.merge(partial);
            }
            // Shard boundary crossed: note what this collector merged
            // away, then run the post-run stall check over its machines'
            // last successful deliveries.
            instruments.recorder.record(
                RecorderScope::Shard(s as u32),
                FlightEvent::MergeBoundary {
                    shard: s as u32,
                    machines: range.len() as u64,
                    records,
                },
            );
            let mut findings = Vec::new();
            if instruments.watchdogs {
                let last = machines[range.clone()]
                    .iter()
                    .map(|m| m.last_delivery_ticks)
                    .max()
                    .unwrap_or(0);
                if let Some(f) = Watchdog::stalled_shard(s as u32, last, end_ticks) {
                    instruments.recorder.record(
                        RecorderScope::Shard(s as u32),
                        FlightEvent::Finding(f.clone()),
                    );
                    findings.push(f);
                }
            }
            shards.push(ShardReport {
                shard: s,
                machines: range.clone(),
                records,
                total_records,
                stored_bytes,
                peak_state_bytes,
                findings,
            });
        }
        let analysis = fleet.into_analysis();

        // Warehouse tier: every task has finished, so write the segments
        // in machine order; the first refusal, a push the writer refused
        // or a failed write, stops the export. The study-side profiler
        // times only these writes: every machine's sinks were timed on
        // its own telemetry.
        let export_telemetry = match config.telemetry.is_on() {
            true => Telemetry::profiler(),
            false => Telemetry::off(),
        };
        let warehouse_stats = match &options.warehouse {
            Some(dir) => {
                let _span =
                    export_telemetry.span_child(Phase::Warehouse, "warehouse.export_sharded");
                let mut stats = Vec::with_capacity(n);
                for (machine, segment) in machines.iter().zip(segments) {
                    let path = dir.join(segment_file_name(machine.id.0));
                    stats.push(segment?.write_to(&path)?);
                }
                Some(stats)
            }
            None => None,
        };

        let profile = crate::study::fleet_profile(&machines, &export_telemetry);
        write_sharded_telemetry(config, &machines, &shard_of);
        let total_records = shards.iter().map(|s| s.total_records).sum();
        let stored_bytes = shards.iter().map(|s| s.stored_bytes).sum();
        // Every shard tracer shares the root tracer's span store, so one
        // drain collects the whole tree.
        let shipment_spans = instruments.tracer.take_sorted();
        write_trace_artefact(config, &instruments.tracer, &shipment_spans);
        let health: Vec<HealthFinding> = machines
            .iter()
            .flat_map(|m| m.health.iter().cloned())
            .chain(shards.iter().flat_map(|s| s.findings.iter().cloned()))
            .collect();
        Ok(ShardedStudyData {
            data: StreamedStudyData {
                config: config.clone(),
                summary: analysis.summary,
                trace_set: analysis.trace_set,
                machines,
                total_records,
                stored_bytes,
                profile,
                warehouse: warehouse_stats,
                shipment_spans,
                health,
                flight_recorder: instruments.recorder.clone(),
            },
            shards,
        })
    }
}

/// Worker threads when the caller leaves the count open: one per core
/// the host offers, or 4 when it cannot say.
pub(crate) fn host_workers() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4)
}

/// Writes the fleet-aggregated `timeseries.jsonl` when telemetry is on
/// and an artefact directory is configured: fleet, category, `shard:<k>`
/// and machine scopes. Export must never fail the study; errors are
/// reported and swallowed.
fn write_sharded_telemetry(config: &StudyConfig, machines: &[MachineOutput], shard_of: &[usize]) {
    let Some(dir) = config.telemetry.options().and_then(|o| o.dir.as_ref()) else {
        return;
    };
    let labelled: Vec<(u32, String, usize, &MachineTelemetry)> = machines
        .iter()
        .filter_map(|m| {
            m.telemetry.as_ref().map(|t| {
                let shard = shard_of.get(m.id.0 as usize).copied().unwrap_or(0);
                (m.id.0, format!("{:?}", m.category), shard, t)
            })
        })
        .collect();
    let borrowed: Vec<(u32, &str, usize, &MachineTelemetry)> = labelled
        .iter()
        .map(|(id, cat, shard, t)| (*id, cat.as_str(), *shard, *t))
        .collect();
    let rows = nt_obs::export::sharded_rows(&borrowed);
    let path = dir.join("timeseries.jsonl");
    if let Err(e) = nt_obs::write_timeseries_jsonl(&path, &rows) {
        eprintln!("nt-obs: cannot write {}: {e}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_ranges_cover_contiguously() {
        for (n, k) in [(45, 8), (10, 3), (3, 8), (1_000, 8), (5, 1), (0, 4)] {
            let ranges = shard_ranges(n, k);
            let mut next = 0;
            for r in &ranges {
                assert_eq!(r.start, next, "n={n} k={k}");
                next = r.end;
            }
            assert_eq!(next, n, "n={n} k={k}");
            let lens: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
            let (min, max) = (lens.iter().min().unwrap(), lens.iter().max().unwrap());
            assert!(max - min <= 1, "near-even split: {lens:?}");
        }
    }

    #[test]
    fn shard_reports_partition_the_head_count() {
        let config = StudyConfig::smoke_test(18);
        let sharded = Study::try_run_sharded(
            &config,
            &ShardOptions {
                shards: 3,
                ..ShardOptions::default()
            },
        )
        .expect("smoke study runs");
        assert_eq!(sharded.shards.len(), 3);
        let per_shard: usize = sharded.shards.iter().map(|s| s.total_records).sum();
        assert_eq!(per_shard, sharded.data.total_records);
        let analysed: u64 = sharded.shards.iter().map(|s| s.records).sum();
        assert_eq!(analysed, sharded.data.summary.records);
        for s in &sharded.shards {
            assert!(!s.machines.is_empty());
            assert!(s.peak_state_bytes > 0);
        }
    }
}
