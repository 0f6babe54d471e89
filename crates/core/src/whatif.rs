//! What-if replay studies: one trace, many policies, answered as a
//! service.
//!
//! The paper collected its traces so that they "could be used as input
//! for file system simulation studies" (§1, §9). This module is that
//! study mode: [`crate::replay_stream`] replays one machine under one
//! policy, and this module makes that a subsystem that cuts through the
//! whole stack:
//!
//! * **Trace sources.** A study replays from wherever the trace lives:
//!   a live [`TraceSet`] a study just produced
//!   ([`WhatIfStudy::run_trace_set`], which partitions the fact table
//!   with [`ReplayStream::from_trace_set`]) or an NTT [`Warehouse`]
//!   ([`WhatIfStudy::run`], which scans each machine's segment zero-copy
//!   with the same visitors the analysis re-ingest uses). Either way each
//!   machine's stream is normalized to one canonical order, so both
//!   answer bit-identically.
//! * **Variant matrix.** A baseline [`ReplayConfig`] plus named policy
//!   variants: read-ahead depth, lazy-writer cadence, FastIO removal,
//!   cache budget, and the disk latency-model axis (1998 IDE vs
//!   SSD-class [`nt_io::DiskParams`]).
//! * **Scheduling.** Extraction runs first, one task per machine on the
//!   `nt-trace` work-stealing pool; then every (variant × machine) cell
//!   is one task on the same pool. Results land in index-ordered slots,
//!   so worker count never changes a single output bit.
//! * **Audit.** Each variant's machines are reconciled by the `nt-audit`
//!   conservation ledger; a drifting variant fails loudly, named by
//!   variant, before any table is built.
//! * **Attribution.** Replay work shows up in the runtime profile under
//!   [`Phase::Replay`].
//!
//! The determinism contract, pinned by `tests/whatif.rs`: same seed +
//! same segments → bit-identical differential fact tables, regardless
//! of worker count and regardless of which source held the trace.

use std::collections::BTreeMap;
use std::fmt;

use nt_analysis::whatif::{DeltaSummary, DifferentialTable, ReplayFacts};
use nt_analysis::TraceSet;
use nt_audit::{accounts, Imbalance, Ledger};
use nt_obs::{Phase, RuntimeProfile, Telemetry};
use nt_trace::steal::run_indexed;
use nt_warehouse::{NttError, Warehouse};

use crate::replay::{
    per_machine, replay_stream, MachineVariantOutcome, ReplayConfig, ReplayStream,
};
use crate::shard::host_workers;

/// Extracts per-machine replay streams from a warehouse, in ascending
/// machine order, each normalized to canonical replay order: one task
/// per machine's segment on `workers` threads. The first segment error
/// in machine order is returned, whichever worker hit it.
pub(crate) fn extract_streams(
    warehouse: &Warehouse,
    workers: usize,
) -> Result<Vec<ReplayStream>, NttError> {
    per_machine(&warehouse.machines(), workers, |machine| {
        let segment = warehouse
            .segment(machine)
            .expect("every listed machine has a segment");
        let mut records = Vec::new();
        segment.visit_batches(|_seq, mut batch| records.append(&mut batch))?;
        let mut names = BTreeMap::new();
        segment.visit_names(|_seq, n| {
            // Last recorded name wins — the fact-table rule.
            names.insert(n.file_object, n.path);
        })?;
        let mut stream = ReplayStream {
            machine,
            records,
            names,
        };
        stream.normalize();
        Ok(stream)
    })
    .into_iter()
    .collect()
}

/// Why a what-if study failed. Everything is loud and named: a study
/// that cannot answer honestly for one variant answers for none.
#[derive(Debug)]
pub enum WhatIfError {
    /// The trace source could not be read.
    Source(NttError),
    /// A replay task panicked on the pool.
    Task {
        /// The variant whose task died.
        variant: String,
        /// The machine it was replaying.
        machine: u32,
        /// The rendered panic payload.
        message: String,
    },
    /// A variant's replayed stack failed conservation reconciliation.
    Drift {
        /// The drifting variant — the name the matrix gave it.
        variant: String,
        /// The first unbalanced account.
        imbalance: Imbalance,
        /// Full ledger report of the unbalanced scope, for the log.
        report: String,
    },
}

impl fmt::Display for WhatIfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WhatIfError::Source(e) => write!(f, "what-if trace source failed: {e}"),
            WhatIfError::Task {
                variant,
                machine,
                message,
            } => write!(
                f,
                "what-if replay task died (variant '{variant}', machine {machine}): {message}"
            ),
            WhatIfError::Drift {
                variant,
                imbalance,
                report,
            } => write!(
                f,
                "what-if variant '{variant}' failed conservation: {imbalance}\n{report}"
            ),
        }
    }
}

impl std::error::Error for WhatIfError {}

/// One variant's complete result: per-machine fact rows, the fleet
/// total, and the raw outcomes the audit reconciled.
#[derive(Clone, Debug)]
pub struct VariantRun {
    /// The variant's name ("baseline" for the baseline).
    pub name: String,
    /// Per-machine fact rows, ascending by machine id.
    pub rows: Vec<ReplayFacts>,
    /// The fleet-total row (machine `u32::MAX`).
    pub total: ReplayFacts,
    /// Per-machine outcomes with full layer metrics.
    pub outcomes: Vec<MachineVariantOutcome>,
}

/// What a what-if study answers with.
#[derive(Clone, Debug)]
pub struct WhatIfReport {
    /// Machines replayed, ascending.
    pub machines: Vec<u32>,
    /// The baseline's run.
    pub baseline: VariantRun,
    /// Each variant's run, in matrix order.
    pub variants: Vec<VariantRun>,
    /// Per-variant differential fact tables (variant − baseline), in
    /// matrix order. Bit-identical for a given (trace, matrix) — the
    /// determinism contract.
    pub tables: Vec<DifferentialTable>,
    /// The §9-style delta summary: baseline first, then each variant.
    pub summaries: Vec<DeltaSummary>,
    /// Wall-clock attribution of the study ([`Phase::Replay`] for
    /// extraction and replay work). Not part of the determinism
    /// contract — wall-clock never is.
    pub profile: RuntimeProfile,
}

impl WhatIfReport {
    /// The delta summary rendered as a fixed-width table.
    pub fn render_summary(&self) -> String {
        nt_analysis::whatif::render_delta_table(&self.baseline.name, &self.summaries)
    }
}

/// A what-if study: a baseline policy plus a matrix of named variants,
/// replayed over every machine of a trace.
///
/// ```
/// use nt_study::{ReplayConfig, Study, StudyConfig, WhatIfStudy};
///
/// let data = Study::run(&StudyConfig::smoke_test(42)).expect("study runs");
/// let report = WhatIfStudy::new(ReplayConfig::default())
///     .variant("no-readahead", {
///         let mut c = ReplayConfig::default();
///         c.cache.readahead_enabled = false;
///         c
///     })
///     .run_trace_set(&data.trace_set)
///     .expect("variants reconcile");
/// assert_eq!(report.variants.len(), 1);
/// assert!(report.summaries[1].hit_rate_delta < 0.0);
/// ```
#[derive(Clone, Debug)]
pub struct WhatIfStudy {
    /// The baseline every variant is differenced against.
    pub baseline: ReplayConfig,
    /// The named variant matrix.
    pub variants: Vec<(String, ReplayConfig)>,
    /// Worker threads for the per-machine extraction and the
    /// (variant × machine) task grid; 0 means one per core the host
    /// offers, or 4 when it cannot say. Never changes a single output
    /// bit.
    pub workers: usize,
}

impl WhatIfStudy {
    /// A study with the given baseline and no variants yet.
    pub fn new(baseline: ReplayConfig) -> Self {
        WhatIfStudy {
            baseline,
            variants: Vec::new(),
            workers: 0,
        }
    }

    /// Adds a named policy variant to the matrix.
    pub fn variant(mut self, name: &str, config: ReplayConfig) -> Self {
        self.variants.push((name.to_string(), config));
        self
    }

    /// Sets the worker-thread count (0 = one per host core).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Runs the matrix over a stored trace and builds the report.
    /// Extraction visits one machine's segment per task; the first
    /// segment error in machine order is the study's error.
    pub fn run(&self, warehouse: &Warehouse) -> Result<WhatIfReport, WhatIfError> {
        self.run_with(|workers| extract_streams(warehouse, workers).map_err(WhatIfError::Source))
    }

    /// Runs the matrix over a live fact table, partitioned by
    /// [`ReplayStream::from_trace_set`] on the study's workers. Answers
    /// bit-identically to [`WhatIfStudy::run`] over the same trace
    /// stored in a warehouse.
    pub fn run_trace_set(&self, ts: &TraceSet) -> Result<WhatIfReport, WhatIfError> {
        self.run_with(|workers| Ok(ReplayStream::extract(ts, workers)))
    }

    /// The study behind both entry points: `extract` builds the streams
    /// on the given worker count under one `replay.extract` span, then
    /// the grid replays them.
    fn run_with(
        &self,
        extract: impl FnOnce(usize) -> Result<Vec<ReplayStream>, WhatIfError>,
    ) -> Result<WhatIfReport, WhatIfError> {
        let workers = match self.workers {
            0 => host_workers(),
            n => n,
        };
        let telemetry = Telemetry::profiler();
        let streams = {
            let _span = telemetry.span_child(Phase::Replay, "replay.extract");
            extract(workers)?
        };
        let machines: Vec<u32> = streams.iter().map(|s| s.machine).collect();

        // The task grid: variant-major, machine-minor; row 0 is the
        // baseline. Slot order is the result order, so scheduling can
        // never reorder anything.
        let mut names: Vec<&str> = vec!["baseline"];
        let mut configs: Vec<&ReplayConfig> = vec![&self.baseline];
        for (name, config) in &self.variants {
            names.push(name);
            configs.push(config);
        }
        let per_variant = streams.len();
        let tasks = configs.len() * per_variant;

        let (slots, panic) = run_indexed(tasks, workers, |i| {
            let task_telemetry = Telemetry::profiler();
            let outcome = {
                let _span = task_telemetry.span_child(Phase::Replay, "replay.machine");
                replay_stream(&streams[i % per_variant], configs[i / per_variant])
            };
            let profile = task_telemetry
                .report()
                .map(|r| r.profile)
                .unwrap_or_default();
            (outcome, profile)
        });
        if let Some(p) = panic {
            return Err(WhatIfError::Task {
                variant: names[p.index / per_variant].to_string(),
                machine: machines
                    .get(p.index % per_variant)
                    .copied()
                    .unwrap_or(u32::MAX),
                message: p.message,
            });
        }

        // Merge profiles in slot order and regroup outcomes by variant.
        let mut profile = RuntimeProfile::default();
        if let Some(report) = telemetry.report() {
            profile.merge(&report.profile);
        }
        let mut per_task: Vec<MachineVariantOutcome> = Vec::with_capacity(tasks);
        for slot in slots {
            let (outcome, task_profile) = slot.expect("pool fills every non-panicked slot");
            profile.merge(&task_profile);
            per_task.push(outcome);
        }

        let mut runs: Vec<VariantRun> = Vec::with_capacity(configs.len());
        for (v, chunk) in per_task.chunks(per_variant.max(1)).enumerate() {
            if chunk.len() < per_variant {
                break; // zero-machine source: no chunks at all
            }
            let outcomes = chunk.to_vec();
            audit_variant(names[v], &outcomes)?;
            let rows: Vec<ReplayFacts> = outcomes.iter().map(|o| o.facts).collect();
            let total = ReplayFacts::fleet_total(&rows);
            runs.push(VariantRun {
                name: names[v].to_string(),
                rows,
                total,
                outcomes,
            });
        }
        if runs.is_empty() {
            // A source with no machines still answers, with empty runs.
            runs = names
                .iter()
                .map(|n| VariantRun {
                    name: n.to_string(),
                    rows: Vec::new(),
                    total: ReplayFacts::fleet_total(&[]),
                    outcomes: Vec::new(),
                })
                .collect();
        }

        let baseline = runs.remove(0);
        let tables: Vec<DifferentialTable> = runs
            .iter()
            .map(|r| DifferentialTable::build(&r.name, &r.rows, &baseline.rows))
            .collect();
        let mut summaries = vec![DeltaSummary::compute(
            &baseline.name,
            &baseline.total,
            &baseline.total,
        )];
        summaries.extend(
            runs.iter()
                .map(|r| DeltaSummary::compute(&r.name, &r.total, &baseline.total)),
        );
        Ok(WhatIfReport {
            machines,
            baseline,
            variants: runs,
            tables,
            summaries,
            profile,
        })
    }
}

/// Builds one conservation ledger per replayed machine of a variant —
/// the same double-entry accounts a live study reconciles, plus the
/// replay's own record account: every source record fed to the machine
/// must come out as replayed, skipped, or control traffic.
///
/// Public so tests can perturb an outcome and prove the reconciliation
/// failure names the variant it came from.
pub fn variant_ledgers(variant: &str, outcomes: &[MachineVariantOutcome]) -> Vec<Ledger> {
    outcomes
        .iter()
        .map(|o| {
            let mut ledger = Ledger::new(format!("whatif:{variant}:machine:{}", o.machine));
            o.io.post_conservation(&mut ledger);
            o.cache
                .post_conservation(o.residual_dirty_bytes, &mut ledger);
            o.vm.post_conservation(&mut ledger);
            // The replay stack runs under a NullObserver: every emitted
            // trace event is consumed on the spot, so the null sink
            // credits the I/O layer's event debit in full.
            ledger.credit(accounts::TRACE_EVENTS, o.io.events_emitted);
            ledger.debit(accounts::REPLAY_RECORDS, o.facts.source_records);
            ledger.credit(
                accounts::REPLAY_RECORDS,
                o.facts.replayed_requests + o.facts.skipped_records + o.facts.control_records,
            );
            ledger
        })
        .collect()
}

/// Reconciles one variant's outcomes; the first drifting machine fails
/// the study, named by variant.
pub fn audit_variant(variant: &str, outcomes: &[MachineVariantOutcome]) -> Result<(), WhatIfError> {
    for ledger in variant_ledgers(variant, outcomes) {
        if let Err(imbalance) = ledger.reconcile() {
            return Err(WhatIfError::Drift {
                variant: variant.to_string(),
                imbalance,
                report: ledger.report(),
            });
        }
    }
    Ok(())
}
