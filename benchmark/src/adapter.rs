//! Every call the benchmark makes into `nt-study` goes through this
//! module. The rest of the benchmark sees benchmark-owned results, so
//! when the study drivers change shape only this file follows.
//!
//! The three timed entry points:
//! - [`run_study`] calls `Study::try_run_sharded` with one shard and two
//!   workers — the flat collection topology on a fixed thread count;
//! - [`run_matrix`] calls `WhatIfStudy::run_trace_set` on two workers;
//! - [`ingest`] calls `Study::ingest_warehouse`.
//!
//! Results come back as opaque handles whose `summarize` checks them
//! and drops the study output, so the caller can keep both outside its
//! timed window.

use std::path::Path;

use nt_analysis::TraceSet;
use nt_cache::CacheConfig;
use nt_io::DiskParams;
use nt_sim::{SimDuration, SimTime};
use nt_study::{
    sharded_ledgers, FaultSchedule, MachineFaults, MachineRun, ReplayConfig, ReplayStream,
    ShardOptions, ShardedStudyData, StreamOptions, Study, StudyConfig, TelemetryConfig,
    TelemetryOptions, WarehouseIngest, WhatIfReport, WhatIfStudy,
};
use nt_trace::{CollectionServer, LossLedger, MachineId, NameRecord, TraceRecord};

pub use nt_study::{Phase, RuntimeProfile};

use crate::stats::Fnv;

/// Worker threads every driver runs with. The study adds its own three
/// collector threads on top.
pub const WORKERS: usize = 2;

/// Collection servers per pool, as in the paper's deployment (§3).
const COLLECTORS: usize = 3;

/// The §3.2 agent buffer holds 3,000 records; the serial pass cuts
/// collected streams into shipments of this size.
pub const BATCH_RECORDS: usize = 3_000;

/// Scale of the study behind a workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// `StudyConfig::smoke_test`: five machines, five simulated minutes.
    Smoke,
    /// `StudyConfig::evaluation`: 45 machines, one simulated hour.
    Evaluation,
}

/// The deployment a study workload simulates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Deployment {
    /// The evaluation fleet, clean.
    Fleet,
    /// The evaluation roster for four simulated hours with daily
    /// snapshots: the study whose warehouse export is re-ingested.
    WarehouseExport,
}

const HOUR: u64 = 3_600;
const DAY: u64 = 86_400;

/// An opaque study configuration.
#[derive(Clone)]
pub struct Config(StudyConfig);

impl Config {
    pub fn new(deployment: Deployment, scale: Scale, seed: u64) -> Config {
        let mut c = match scale {
            Scale::Smoke => StudyConfig::smoke_test(seed),
            Scale::Evaluation => StudyConfig::evaluation(seed),
        };
        if deployment == Deployment::WarehouseExport {
            if scale == Scale::Evaluation {
                c.duration = SimDuration::from_secs(4 * HOUR);
            }
            c.snapshot_interval = SimDuration::from_secs(DAY);
        }
        Config(c)
    }

    /// The same study with the self-profiler on and no span log.
    pub fn traced(&self) -> Config {
        let mut c = self.0.clone();
        c.telemetry = TelemetryConfig::On(TelemetryOptions {
            log_spans: false,
            ..TelemetryOptions::default()
        });
        Config(c)
    }

    pub fn machines(&self) -> usize {
        self.0.machines.len()
    }
}

/// What a study run left behind that the per-layer metrics read.
#[derive(Clone, Debug, Default)]
pub struct StudyFacts {
    /// Trace events the machines' filter drivers saw: recorded ones plus
    /// those a suspended agent let pass.
    pub observed: u64,
    pub batches_shipped: u64,
    pub total_records: u64,
    pub stored_bytes: u64,
    pub snapshots_held: u64,
    pub peak_state_bytes: u64,
    pub peak_parked_records: u64,
}

/// A checked study run.
pub struct StudyRun {
    /// Trace events observed: the records a clean run collects, plus
    /// what a faulted run loses, which cost the simulation the same.
    pub records: u64,
    /// FNV-1a over the scrubbed summary, every machine's loss ledger,
    /// and the record and byte totals.
    pub digest: u64,
    /// FNV-1a over the scrubbed summary alone — what a warehouse
    /// re-ingest must reproduce.
    pub summary_digest: u64,
    pub facts: StudyFacts,
    pub profile: RuntimeProfile,
    /// The exact fact tables, when the run retained them.
    pub trace_set: Option<TraceSet>,
}

/// A finished, unchecked study run.
pub struct StudyOutput(ShardedStudyData);

/// Runs the study; `retain` keeps the fact tables, `warehouse` exports
/// every shipment into a segment directory.
pub fn run_study(
    config: &Config,
    retain: bool,
    warehouse: Option<&Path>,
) -> Result<StudyOutput, String> {
    let options = ShardOptions {
        shards: 1,
        workers: Some(WORKERS),
        retain,
        warehouse: warehouse.map(Path::to_path_buf),
        ..ShardOptions::default()
    };
    Study::try_run_sharded(&config.0, &options)
        .map(StudyOutput)
        .map_err(|e| e.to_string())
}

/// FNV-1a of a summary's `Debug` form with the two scheduling
/// watermarks zeroed: they record how far out of order delivery ran,
/// which thread timing decides.
fn summary_digest(mut summary: nt_analysis::stream::StudySummary) -> u64 {
    summary.peak_parked_records = 0;
    summary.peak_state_bytes = 0;
    let mut h = Fnv::default();
    h.write(format!("{summary:?}").as_bytes());
    h.finish()
}

impl StudyOutput {
    /// Reconciles every ledger, checks that no sink was poisoned, and
    /// digests the output.
    pub fn summarize(self) -> Result<StudyRun, String> {
        let sharded = self.0;
        let (machines, shards, fleet) = sharded_ledgers(&sharded);
        for ledger in machines.iter().chain(&shards).chain([&fleet]) {
            ledger
                .reconcile()
                .map_err(|imbalance| format!("ledger drift: {imbalance}"))?;
        }
        let mut data = sharded.data;
        if data.summary.poisoned_sinks != 0 {
            return Err(format!("{} poisoned sinks", data.summary.poisoned_sinks));
        }
        let ledgers: Vec<LossLedger> = data.machines.iter().map(|m| m.loss).collect();
        let facts = StudyFacts {
            observed: ledgers
                .iter()
                .map(|l| l.recorded + l.dropped_suspended)
                .sum(),
            batches_shipped: ledgers.iter().map(|l| l.batches_shipped).sum(),
            total_records: data.total_records as u64,
            stored_bytes: data.stored_bytes as u64,
            snapshots_held: data.machines.iter().map(|m| m.snapshots.len() as u64).sum(),
            peak_state_bytes: data.summary.peak_state_bytes as u64,
            peak_parked_records: data.summary.peak_parked_records as u64,
        };
        let trace_set = data.trace_set.take();
        let summary = std::mem::take(&mut data.summary);
        let summary_digest = summary_digest(summary);
        let mut h = Fnv::default();
        h.write(&summary_digest.to_le_bytes());
        for l in &ledgers {
            h.write(format!("{l:?}").as_bytes());
        }
        h.write(&facts.total_records.to_le_bytes());
        h.write(&facts.stored_bytes.to_le_bytes());
        Ok(StudyRun {
            records: facts.observed,
            digest: h.finish(),
            summary_digest,
            facts,
            profile: data.profile,
            trace_set,
        })
    }
}

/// The what-if policy matrix: the baseline plus four variants.
pub struct Matrix(WhatIfStudy);

impl Matrix {
    /// Baseline, no read-ahead, IRP-only dispatch, SSD-class disks, and
    /// a clean-cache budget a quarter of the 1 MiB default.
    pub fn standard() -> Matrix {
        Matrix(
            WhatIfStudy::new(ReplayConfig::default())
                .variant(
                    "no-read-ahead",
                    ReplayConfig {
                        cache: CacheConfig {
                            readahead_enabled: false,
                            ..CacheConfig::default()
                        },
                        ..ReplayConfig::default()
                    },
                )
                .variant(
                    "irp-only",
                    ReplayConfig {
                        disable_fastio: true,
                        ..ReplayConfig::default()
                    },
                )
                .variant(
                    "ssd-class-disk",
                    ReplayConfig {
                        disk: DiskParams::ssd_class(),
                        ..ReplayConfig::default()
                    },
                )
                .variant(
                    "small-cache",
                    ReplayConfig {
                        cache_budget_bytes: 256 << 10,
                        ..ReplayConfig::default()
                    },
                )
                .workers(WORKERS),
        )
    }

    /// Rows of the matrix, baseline first.
    pub fn rows(&self) -> usize {
        1 + self.0.variants.len()
    }

    /// The replay configuration of row `i` (0 is the baseline).
    pub fn row(&self, i: usize) -> Policy {
        Policy(match i {
            0 => self.0.baseline.clone(),
            _ => self.0.variants[i - 1].1.clone(),
        })
    }
}

/// One row's replay configuration.
pub struct Policy(ReplayConfig);

impl Policy {
    /// The default policy stack, the matrix's baseline row.
    pub fn baseline() -> Policy {
        Policy(ReplayConfig::default())
    }
}

/// A checked what-if run.
pub struct MatrixRun {
    /// FNV-1a over the `Debug` form of every differential table.
    pub digest: u64,
    pub profile: RuntimeProfile,
}

pub struct MatrixOutput(WhatIfReport);

/// Replays `trace` under every row of `matrix`. `Ok` means every
/// variant's ledgers reconciled.
pub fn run_matrix(matrix: &Matrix, trace: &TraceSet) -> Result<MatrixOutput, String> {
    matrix
        .0
        .run_trace_set(trace)
        .map(MatrixOutput)
        .map_err(|e| e.to_string())
}

impl MatrixOutput {
    pub fn summarize(self) -> MatrixRun {
        let mut h = Fnv::default();
        h.write(format!("{:?}", self.0.tables).as_bytes());
        MatrixRun {
            digest: h.finish(),
            profile: self.0.profile,
        }
    }
}

/// A checked warehouse re-ingest.
pub struct IngestRun {
    pub records: u64,
    pub summary_digest: u64,
    pub profile: RuntimeProfile,
}

pub struct IngestOutput(WarehouseIngest);

/// Re-runs the analysis over the warehouse in `dir`.
pub fn ingest(dir: &Path) -> Result<IngestOutput, String> {
    Study::ingest_warehouse(dir, &StreamOptions::default())
        .map(IngestOutput)
        .map_err(|e| e.to_string())
}

impl IngestOutput {
    pub fn summarize(self) -> IngestRun {
        let w = self.0;
        IngestRun {
            records: w.records,
            summary_digest: summary_digest(w.summary),
            profile: w.profile,
        }
    }
}

/// Trace records of a fact table, for the records/s denominator.
pub fn trace_records(trace: &TraceSet) -> u64 {
    trace.records.len() as u64
}

/// Per-machine replay streams of a fact table, ascending by machine.
pub fn replay_streams(trace: &TraceSet) -> Vec<Stream> {
    ReplayStream::from_trace_set(trace)
        .into_iter()
        .map(Stream)
        .collect()
}

/// One machine's records in canonical replay order.
pub struct Stream(ReplayStream);

impl Stream {
    pub fn new(machine: u32, records: Vec<TraceRecord>, names: &[NameRecord]) -> Stream {
        let mut s = ReplayStream {
            machine,
            records,
            names: names
                .iter()
                .map(|n| (n.file_object, n.path.clone()))
                .collect(),
        };
        s.normalize();
        Stream(s)
    }

    pub fn records(&self) -> u64 {
        self.0.records.len() as u64
    }
}

/// Replays one stream under one policy: a what-if cell.
pub fn replay_cell(stream: &Stream, policy: &Policy) {
    std::hint::black_box(nt_study::replay_stream(&stream.0, &policy.0));
}

/// Counters of one serially simulated machine.
#[derive(Clone, Copy, Debug, Default)]
pub struct MachineCounters {
    pub io_ops: u64,
    pub fastio_ops: u64,
    pub irp_ops: u64,
    pub read_hits: u64,
    pub read_misses: u64,
    pub hard_faults: u64,
    pub batches_shipped: u64,
    pub events: u64,
    pub initial_files: u64,
}

/// One machine of a study, driven step by step for the serial
/// decomposition.
pub struct SerialMachine {
    run: MachineRun,
    faults: MachineFaults,
}

/// The fault schedule of a study, materialized once for every machine.
pub struct Schedule(FaultSchedule);

pub fn schedule(config: &Config) -> Schedule {
    Schedule(FaultSchedule::materialize(&config.0, COLLECTORS))
}

impl SerialMachine {
    /// `MachineRun::build`: volumes, initial content, user model.
    pub fn build(config: &Config, schedule: &Schedule, index: usize) -> SerialMachine {
        let faults = schedule.0.for_machine(index);
        let spec = &config.0.machines[index];
        SerialMachine {
            run: MachineRun::build_with_faults(&config.0, index, spec, &faults),
            faults,
        }
    }

    pub fn id(&self) -> u32 {
        self.run.id.0
    }

    /// `MachineRun::simulate` for the configured period, shipping into
    /// `server`.
    pub fn simulate(&mut self, config: &Config, server: &mut CollectionServer) {
        self.run
            .simulate_with_faults(&config.0, &self.faults, server);
    }

    /// One §3.1 snapshot of every volume at the end of the period.
    pub fn extra_snapshot(&mut self, config: &Config) {
        self.run.take_snapshot(SimTime::ZERO + config.0.duration);
    }

    /// The machine's self-profile so far (empty with telemetry off).
    pub fn profile(&self) -> RuntimeProfile {
        self.run
            .telemetry_report()
            .map(|t| t.profile)
            .unwrap_or_default()
    }

    pub fn counters(&self) -> MachineCounters {
        let io = self.run.io_metrics();
        let cache = self.run.cache_metrics();
        let events = self
            .run
            .telemetry_report()
            .and_then(|t| t.series("engine.events_fired").and_then(|s| s.last()))
            .unwrap_or(0.0);
        MachineCounters {
            io_ops: io.opens
                + io.open_failures
                + io.read_dispatches
                + io.write_dispatches
                + io.control_ops
                + io.cleanups
                + io.closes,
            fastio_ops: io.fastio_reads + io.fastio_writes,
            irp_ops: io.irp_reads + io.irp_writes,
            read_hits: cache.read_hits,
            read_misses: cache.read_misses,
            hard_faults: self.run.vm_metrics().hard_faults,
            batches_shipped: self.run.loss_ledger().batches_shipped,
            events: events as u64,
            initial_files: self
                .run
                .snapshots
                .iter()
                .filter(|s| s.taken_at == SimTime::ZERO)
                .map(|s| s.file_count() as u64)
                .sum(),
        }
    }
}

/// The collected stream of one machine: its records in agent order and
/// its name records.
pub fn collected(server: &CollectionServer, machine: u32) -> (Vec<TraceRecord>, Vec<NameRecord>) {
    let id = MachineId(machine);
    (
        server.records_for(id),
        server.names_for(id).into_iter().cloned().collect(),
    )
}
