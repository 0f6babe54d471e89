//! The study driver: agent → shard collector → fleet.
//!
//! The paper traced 45 desktops through three collection servers; the
//! org-scale question is what the same pipeline looks like at 1,000 or
//! 10,000 machines. This module partitions the fleet into contiguous
//! shards, gives each shard its own three-server [`StreamingPool`] and
//! [`AnalysisSet`] (so per-shard analysis state is bounded by the
//! shard's machine count, not the fleet's), runs every machine
//! simulation on one fleet-wide work-stealing pool
//! ([`nt_trace::steal`]), and merges the per-shard [`ShardSummary`]
//! partials at the fleet root, where tail alphas and (under retain) the
//! exact fact tables are computed once. One shard is the paper's flat
//! topology; it is the only pipeline the study has.
//!
//! The load-bearing invariant: **shard count and worker count are pure
//! performance knobs.** Every machine derives its faults from its fleet
//! index and ships through a 3-server pool whose outage windows come
//! from one shared [`FaultSchedule`], so each machine's experience is
//! identical to the flat topology's; and every aggregate the sinks keep
//! is integer or min/max state, so the hierarchical merge is exact, not
//! merely close. `tests/shard_scale.rs` pins this: digests of the fact
//! tables, name tables and loss ledgers are bit-identical across shard
//! counts 1/4/8 and worker counts 1/N.

use std::path::PathBuf;
use std::sync::Arc;

use nt_analysis::stream::{AnalysisSet, ShardSummary, StreamConfig};
use nt_obs::{FlightEvent, HealthFinding, MachineTelemetry, RecorderScope, Telemetry, Watchdog};
use nt_trace::{ShipmentConsumer, StreamingPool};

use crate::config::StudyConfig;
use crate::fault::FaultSchedule;
use crate::run::MachineRun;
use crate::study::{
    dump_flight_recorder, write_trace_artefact, Instruments, MachineOutput, StreamedStudyData,
    Study, StudyFault,
};

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
    /// Export the run as an NTT warehouse into this directory; shared
    /// across shards (segment files are namespaced by machine id, and
    /// each shard's sink only owns its own machine range).
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
    /// Records the shard's sinks analysed.
    pub records: u64,
    /// Records shipped through the shard's pool (its head-count).
    pub total_records: usize,
    /// Compressed footprint at the shard's collection servers, bytes.
    pub stored_bytes: usize,
    /// Peak live analysis state across the shard's sinks, bytes — the
    /// quantity the per-shard memory budget bounds.
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
    /// and run on worker threads; their agents stream trace buffers to
    /// their shard's three collection-server threads — the §3 topology —
    /// which forward every buffer into per-machine analysis sinks
    /// instead of storing it, so memory stays bounded by live analysis
    /// state rather than by trace volume (unless `options.retain` keeps
    /// the fact tables).
    ///
    /// Before it returns, the driver reconciles every conservation
    /// ledger of [`crate::sharded_ledgers`] bottom-up — machines, then
    /// shards, then the fleet root — so the first
    /// [`StudyFault::Drift`] names the lowest tier that broke. Worker
    /// and collection-server panics come back as a [`StudyFault`] too.
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
        let workers = options
            .workers
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|p| p.get())
                    .unwrap_or(4)
            })
            .min(n.max(1));
        let ranges = shard_ranges(n, options.shards);
        // One schedule for the whole fleet, materialized exactly like
        // the flat path's (three servers): machine faults key off the
        // fleet index and every shard's pool replays the same collector
        // outage windows, so a machine cannot tell how many shards the
        // tree has.
        let schedule = FaultSchedule::materialize(config, 3);
        let analysis_telemetry = match config.telemetry.is_on() {
            true => Telemetry::profiler(),
            false => Telemetry::off(),
        };
        let consumers: Vec<Arc<AnalysisSet>> = ranges
            .iter()
            .enumerate()
            .map(|(s, r)| {
                let ids: Vec<u32> = (r.start as u32..r.end as u32).collect();
                Arc::new(AnalysisSet::new(
                    &ids,
                    &StreamConfig {
                        retain: options.retain,
                        spill_dir: options.spill_dir.clone(),
                        telemetry: analysis_telemetry.clone(),
                        tracer: instruments.tracer.for_shard(s as u32),
                        ..StreamConfig::default()
                    },
                ))
            })
            .collect();
        let warehouse_sinks: Vec<Option<Arc<nt_warehouse::WarehouseSink>>> =
            match &options.warehouse {
                Some(dir) => ranges
                    .iter()
                    .map(|r| {
                        let ids: Vec<u32> = (r.start as u32..r.end as u32).collect();
                        nt_warehouse::WarehouseSink::create(dir, &ids).map(|s| Some(Arc::new(s)))
                    })
                    .collect::<Result<_, _>>()?,
                None => vec![None; ranges.len()],
            };
        let pools: Vec<StreamingPool> = consumers
            .iter()
            .zip(&warehouse_sinks)
            .enumerate()
            .map(|(s, (c, w))| {
                let shard_tracer = instruments.tracer.for_shard(s as u32);
                let consumer: Arc<dyn ShipmentConsumer> = match w {
                    Some(sink) => Arc::new(crate::warehouse::Tee {
                        analysis: Arc::clone(c),
                        warehouse: Arc::clone(sink),
                        tracer: shard_tracer.clone(),
                    }),
                    None => Arc::clone(c) as Arc<dyn ShipmentConsumer>,
                };
                StreamingPool::start(
                    3,
                    schedule.collectors.clone(),
                    consumer,
                    shard_tracer,
                    instruments.recorder.clone(),
                )
            })
            .collect();

        // Fleet index → owning shard, for the machine tasks.
        let shard_of: Vec<usize> = ranges
            .iter()
            .enumerate()
            .flat_map(|(s, r)| r.clone().map(move |_| s))
            .collect();

        // Every machine simulation, fleet-wide, on one stealing pool:
        // a shard of cheap WalkUp machines finishes early and its
        // workers drain the Scientific shard's backlog.
        let (outputs, panic) = nt_trace::steal::run_indexed(n, workers, |index| {
            let spec = &config.machines[index];
            let faults = schedule.for_machine(index);
            let mut run = MachineRun::build_with_faults(config, index, spec, &faults);
            run.set_instruments(
                &instruments.tracer.for_shard(shard_of[index] as u32),
                &instruments.recorder,
                instruments.watchdogs,
            );
            let mut sink = pools[shard_of[index]].handle_for(run.id);
            run.simulate_with_faults(config, &faults, &mut sink);
            MachineOutput {
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
            }
        });

        // Join every shard's servers before surfacing any fault — a
        // panicked machine must not leak forwarding threads.
        let mut totals = Vec::with_capacity(pools.len());
        let mut collection_fault = None;
        for pool in pools {
            match pool.finish() {
                Ok(t) => totals.push(t),
                Err(fault) => {
                    collection_fault.get_or_insert(fault);
                }
            }
        }
        if let Some(p) = panic {
            return Err(StudyFault::Worker(format!(
                "machine {}: {}",
                p.index, p.message
            )));
        }
        if let Some(fault) = collection_fault {
            return Err(fault.into());
        }
        let mut machines: Vec<MachineOutput> = outputs.into_iter().flatten().collect();
        machines.sort_by_key(|m| m.id);

        // Shard tier: close each shard's sinks into a mergeable partial,
        // and merge it straight into the fleet root. Merges are exact, so
        // no grouping of them could show in the result.
        let mut fleet = ShardSummary::default();
        let mut shards = Vec::with_capacity(consumers.len());
        let end_ticks = config.duration.ticks();
        for (s, consumer) in consumers.into_iter().enumerate() {
            let consumer = Arc::try_unwrap(consumer)
                .unwrap_or_else(|_| panic!("server threads still hold shard {s} after finish"));
            let partial = consumer.finish_shard();
            // Shard boundary crossed: note what this collector merged
            // away, then run the post-run stall check over its machines'
            // last successful deliveries.
            instruments.recorder.record(
                RecorderScope::Shard(s as u32),
                FlightEvent::MergeBoundary {
                    shard: s as u32,
                    machines: ranges[s].len() as u64,
                    records: partial.summary.records,
                },
            );
            let mut findings = Vec::new();
            if instruments.watchdogs {
                let last = machines[ranges[s].clone()]
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
                machines: ranges[s].clone(),
                records: partial.summary.records,
                total_records: totals[s].total_records,
                stored_bytes: totals[s].stored_bytes,
                peak_state_bytes: partial.summary.peak_state_bytes,
                findings,
            });
            fleet.merge(partial);
        }
        let analysis = fleet.into_analysis();

        // Warehouse tier: each shard's sink writes its own machine range
        // into the shared directory; the stats concatenate in machine
        // order because shards are contiguous and ascending.
        let warehouse_stats = match options.warehouse.is_some() {
            true => {
                let _span = analysis_telemetry
                    .span_child(nt_obs::Phase::Warehouse, "warehouse.export_sharded");
                let mut stats = Vec::with_capacity(n);
                for (s, sink) in warehouse_sinks.into_iter().enumerate() {
                    let sink = sink.expect("warehouse sinks exist for every shard");
                    let sink = Arc::try_unwrap(sink).unwrap_or_else(|_| {
                        panic!("the tee still holds shard {s}'s warehouse after finish")
                    });
                    stats.extend(sink.finish()?);
                }
                Some(stats)
            }
            false => None,
        };

        let profile = crate::study::fleet_profile(&machines, &analysis_telemetry);
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
