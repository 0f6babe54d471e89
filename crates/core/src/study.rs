//! What a study run produces, and its front door.
//!
//! The pipeline itself — agents, shard collectors, analysis sinks, the
//! fleet merge and the conservation audit — is the one driver in
//! [`crate::shard`]. [`Study::run`] is that driver at the paper's shape
//! (one shard of three collection servers) with the fact tables kept,
//! reshaped into the [`StudyData`] the report code reads.

use std::fmt;

use nt_analysis::stream::StudySummary;
use nt_analysis::TraceSet;
use nt_audit::Imbalance;
use nt_obs::{
    FlightRecorder, HealthFinding, HopSpan, MachineTelemetry, RuntimeProfile, ShipmentTracer,
    Telemetry,
};
use nt_sim::SimDuration;
use nt_trace::{LossLedger, MachineId, Snapshot};
use nt_workload::UsageCategory;

use crate::config::StudyConfig;
use crate::shard::ShardOptions;

/// End-of-run artefacts of one machine.
pub struct MachineOutput {
    /// Collection-server identity.
    pub id: MachineId,
    /// Usage category.
    pub category: UsageCategory,
    /// §3.1 snapshots, in time order (interleaved across volumes).
    pub snapshots: Vec<Snapshot>,
    /// I/O counters.
    pub io: nt_io::IoMetrics,
    /// Cache counters (§9).
    pub cache: nt_cache::CacheMetrics,
    /// VM counters (§3.3).
    pub vm: nt_vm::VmMetrics,
    /// The agent's loss accounting under the fault plan (all-zero on a
    /// clean run).
    pub loss: LossLedger,
    /// Dirty bytes still resident in the cache at end of run — the
    /// closing balance of the dirty-lifecycle conservation account.
    pub residual_dirty_bytes: u64,
    /// Telemetry snapshot (profile, ring series, span-log line count);
    /// `None` when the study runs with telemetry off.
    pub telemetry: Option<MachineTelemetry>,
    /// Health findings the machine's watchdog raised, in sample order;
    /// empty with diagnostics off.
    pub health: Vec<HealthFinding>,
    /// Latest simulated tick a shipment delivery succeeded at (0 when
    /// none did) — feeds the post-run shard-stall check.
    pub last_delivery_ticks: u64,
}

/// Why a study run could not complete cleanly. Faults come back to the
/// caller instead of aborting the process.
#[derive(Debug)]
pub enum StudyFault {
    /// A machine's task panicked — in its simulation or in the delivery
    /// of its buffers into the sinks, which runs on the same worker —
    /// with the machine index and payload message attached.
    Worker(String),
    /// The NTT warehouse export could not be created or written.
    Warehouse(nt_warehouse::NttError),
    /// The run completed but a conservation account did not balance.
    /// Counters that drift apart are a bug in the pipeline, not a
    /// property of the workload, so the data is withheld.
    Drift {
        /// The first unbalanced account, searched bottom-up: machines,
        /// then shard collectors, then the fleet root.
        imbalance: Imbalance,
        /// The full report of the ledger that failed, for diagnosis.
        report: String,
    },
}

impl fmt::Display for StudyFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StudyFault::Worker(msg) => write!(f, "machine worker panicked: {msg}"),
            StudyFault::Warehouse(e) => write!(f, "warehouse export failed: {e}"),
            StudyFault::Drift { imbalance, report } => write!(f, "{imbalance}\n{report}"),
        }
    }
}

impl std::error::Error for StudyFault {}

impl From<nt_warehouse::NttError> for StudyFault {
    fn from(e: nt_warehouse::NttError) -> Self {
        StudyFault::Warehouse(e)
    }
}

/// Events each flight-recorder scope holds; the oldest fall off and are
/// counted per scope.
const FLIGHT_RECORDER_CAPACITY: usize = 256;

/// The per-run diagnostics, built once from the study configuration and
/// shared (by cheap handle clones) across every tier: agents, collector
/// handles, analysis sinks, and the export tee. Both are off unless
/// [`nt_obs::TelemetryOptions::diagnostics`] is set. The watchdogs and
/// the dump on loss ride with the recorder: they run only when it is on.
pub(crate) struct Instruments {
    /// Causal shipment tracer.
    pub(crate) tracer: ShipmentTracer,
    /// Fleet flight recorder.
    pub(crate) recorder: FlightRecorder,
}

impl Instruments {
    /// Tick horizon the tracer clamps final-flush spans to: the study
    /// period plus a bound on the shutdown drain (up to 2,000 one-second
    /// lazy-writer catch-up scans plus the closing pump).
    fn horizon_ticks(config: &StudyConfig) -> u64 {
        (config.duration + SimDuration::from_secs(2_100)).ticks()
    }

    /// Instruments for a study configuration: live when the telemetry
    /// options set `diagnostics`, off handles otherwise.
    pub(crate) fn for_config(config: &StudyConfig) -> Self {
        match config.telemetry.options() {
            Some(opts) if opts.diagnostics => Instruments {
                tracer: ShipmentTracer::new(config.seed, Self::horizon_ticks(config)),
                recorder: FlightRecorder::new(FLIGHT_RECORDER_CAPACITY),
            },
            _ => Instruments {
                tracer: ShipmentTracer::off(),
                recorder: FlightRecorder::off(),
            },
        }
    }
}

/// Dumps `recorder` into the telemetry artefact directory (exactly once
/// per run — later triggers are no-ops). A dump must never fail the
/// study; write errors are reported and swallowed.
pub(crate) fn dump_flight_recorder(recorder: &FlightRecorder, config: &StudyConfig, reason: &str) {
    let Some(dir) = config.telemetry.options().and_then(|o| o.dir.clone()) else {
        return;
    };
    let path = dir.join("flight-recorder.jsonl");
    if let Err(e) = recorder.dump(&path, reason) {
        eprintln!(
            "nt-obs: cannot dump flight recorder to {}: {e}",
            path.display()
        );
    }
}

/// Writes the Chrome trace-event artefact (`trace.json`) when shipment
/// tracing is on and an artefact directory is configured. Like the
/// other telemetry exports, failure is reported, not fatal.
pub(crate) fn write_trace_artefact(
    config: &StudyConfig,
    tracer: &ShipmentTracer,
    spans: &[HopSpan],
) {
    if !tracer.is_enabled() {
        return;
    }
    let Some(dir) = config.telemetry.options().and_then(|o| o.dir.clone()) else {
        return;
    };
    let path = dir.join("trace.json");
    if let Err(e) = nt_obs::write_chrome_trace(&path, spans) {
        eprintln!("nt-obs: cannot write {}: {e}", path.display());
    }
}

/// One machine's loss accounting, as surfaced by [`StudyData`].
#[derive(Clone, Copy, Debug)]
pub struct LossReport {
    /// Collection-server identity.
    pub machine: MachineId,
    /// The agent's ledger.
    pub ledger: LossLedger,
}

/// Everything the analysis stage consumes.
pub struct StudyData {
    /// The configuration that produced the data.
    pub config: StudyConfig,
    /// The fact tables built from every machine's records.
    pub trace_set: TraceSet,
    /// Per-machine artefacts.
    pub machines: Vec<MachineOutput>,
    /// Total records collected (pre-analysis, §4's head-count).
    pub total_records: usize,
    /// Compressed footprint at the collection server, bytes.
    pub stored_bytes: usize,
    /// Wall-clock attribution across the fleet, each machine's analysis
    /// included, plus the warehouse export; all-zero with telemetry off.
    pub profile: RuntimeProfile,
}

impl StudyData {
    /// Per-machine loss accounting, in machine order.
    pub fn loss_reports(&self) -> Vec<LossReport> {
        self.machines
            .iter()
            .map(|m| LossReport {
                machine: m.id,
                ledger: m.loss,
            })
            .collect()
    }

    /// Records lost across the fleet (overflow + suspension), for quick
    /// degradation checks.
    pub fn total_lost(&self) -> u64 {
        self.machines.iter().map(|m| m.loss.lost()).sum()
    }

    /// The per-driver-layer ns/op budget from the self-profiler: one row
    /// per phase that ran, averaging exclusive host time per operation.
    /// Empty when the study ran with telemetry off.
    pub fn layer_budget(&self) -> Vec<nt_obs::PhaseBudget> {
        self.profile.layer_budget()
    }
}

/// The study driver.
pub struct Study;

impl Study {
    /// Runs every machine of the deployment and builds the fact tables.
    ///
    /// This is [`Study::try_run_sharded`] with one shard — the paper's
    /// three collection servers — auto-sized workers and the fact tables
    /// retained: machines run on worker threads, their agents stream
    /// trace buffers to the collection servers, and every conservation
    /// ledger is reconciled before the data comes back.
    pub fn run(config: &StudyConfig) -> Result<StudyData, StudyFault> {
        let options = ShardOptions {
            retain: true,
            ..ShardOptions::default()
        };
        let data = Self::try_run_sharded(config, &options)?.data;
        Ok(StudyData {
            trace_set: data.trace_set.expect("retain keeps the fact tables"),
            config: data.config,
            machines: data.machines,
            total_records: data.total_records,
            stored_bytes: data.stored_bytes,
            profile: data.profile,
        })
    }
}

/// Merges every machine's profile with the study-side export profiler.
pub(crate) fn fleet_profile(machines: &[MachineOutput], analysis: &Telemetry) -> RuntimeProfile {
    let mut profile = RuntimeProfile::default();
    for m in machines {
        if let Some(t) = &m.telemetry {
            profile.merge(&t.profile);
        }
    }
    if let Some(report) = analysis.report() {
        profile.merge(&report.profile);
    }
    profile
}

/// The fleet-level output of [`Study::try_run_sharded`]: the per-machine
/// artefacts and the merged online aggregates, with no materialized
/// record stream (unless retained).
pub struct StreamedStudyData {
    /// The configuration that produced the data.
    pub config: StudyConfig,
    /// The merged streaming aggregates.
    pub summary: StudySummary,
    /// The exact fact tables, only under [`ShardOptions::retain`].
    pub trace_set: Option<TraceSet>,
    /// Per-machine artefacts.
    pub machines: Vec<MachineOutput>,
    /// Total records shipped through the collection servers.
    pub total_records: usize,
    /// Compressed footprint the batches would occupy on a collection
    /// server.
    pub stored_bytes: usize,
    /// Wall-clock attribution across the fleet, each machine's analysis
    /// included, plus the warehouse export; all-zero with telemetry off.
    pub profile: RuntimeProfile,
    /// Per-segment export stats, when [`ShardOptions::warehouse`] was
    /// set; in machine order.
    pub warehouse: Option<Vec<nt_warehouse::SegmentStats>>,
    /// Every causal hop span the shipment tracer captured, sorted by
    /// (machine, batch, hop); empty with tracing off. The same spans are
    /// written to `trace.json` (Chrome trace-event format) when a
    /// telemetry artefact directory is configured.
    pub shipment_spans: Vec<HopSpan>,
    /// Fleet-wide health findings — every machine's watchdog findings in
    /// machine order, then the shard-level findings.
    pub health: Vec<HealthFinding>,
    /// The run's flight recorder handle, so post-run consumers (the
    /// conservation audit, diagnostics tooling) can inspect rings or
    /// trigger the exactly-once dump. Off-handle when disabled.
    pub flight_recorder: FlightRecorder,
}

impl StreamedStudyData {
    /// Records lost across the fleet (overflow + suspension).
    pub fn total_lost(&self) -> u64 {
        self.machines.iter().map(|m| m.loss.lost()).sum()
    }

    /// The per-driver-layer ns/op budget from the self-profiler (see
    /// [`StudyData::layer_budget`]).
    pub fn layer_budget(&self) -> Vec<nt_obs::PhaseBudget> {
        self.profile.layer_budget()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_study_produces_everything() {
        let config = StudyConfig::smoke_test(3);
        let data = Study::run(&config).expect("smoke study runs");
        assert_eq!(data.machines.len(), 5);
        assert!(data.total_records > 500, "got {}", data.total_records);
        assert!(data.stored_bytes > 0);
        assert!(!data.trace_set.instances.is_empty());
        // Every machine contributed.
        for m in &data.machines {
            assert!(m.io.opens > 0, "machine {:?} was idle", m.id);
            assert!(!m.snapshots.is_empty());
        }
        // Records span multiple machines.
        assert_eq!(data.trace_set.machines().len(), 5);
    }

    #[test]
    fn streaming_smoke_study_produces_summary() {
        let config = StudyConfig::smoke_test(3);
        let data = Study::try_run_sharded(&config, &ShardOptions::default())
            .expect("smoke study runs")
            .data;
        assert_eq!(data.machines.len(), 5);
        assert!(data.total_records > 500, "got {}", data.total_records);
        assert!(data.stored_bytes > 0);
        // Without retain, no fact tables are materialized …
        assert!(data.trace_set.is_none());
        // … yet the online aggregates saw the whole stream.
        assert_eq!(data.summary.machines, 5);
        assert!(data.summary.ops.opens_ok > 0);
        assert!(data.summary.peak_state_bytes > 0);
    }
}
