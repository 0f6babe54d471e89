//! NTT warehouse integration: the live-export tee and the one reader of
//! a stored warehouse.
//!
//! Export happens *during* a study: under
//! [`crate::ShardOptions::warehouse`] each machine task tees its
//! shipments into its own [`SegmentWriter`] beside its one-machine
//! analysis set, and the driver writes the segment files in machine
//! order once every task has finished. A stored warehouse is read by
//! `visit_segments`: one task per segment file on the work-stealing
//! pool, so at most `workers` segments are resident at once, with one
//! set of rules for bad, truncated and duplicate members. Both of its
//! consumers go through it. Re-ingest, [`Study::ingest_warehouse`],
//! drives each segment's stored batches through a one-machine
//! [`AnalysisSet`] — in the segment's canonical stamp order, batch
//! boundaries intact — and the root merges the partials exactly, in
//! machine order. A live run closes and merges its machines' sets the
//! same way, so the resulting summary is bit-identical to the live run's
//! (`tests/determinism.rs` pins this at fleet scale, faults included).
//! What-if replay, [`crate::WhatIfStudy::run`], turns each segment into
//! a normalized replay stream.

use std::collections::BTreeSet;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use nt_analysis::stream::{AnalysisSet, ShardSummary, StreamConfig, StudySummary};
use nt_analysis::TraceSet;
use nt_obs::{Hop, Phase, RuntimeProfile, ShipmentTracer, Telemetry};
use nt_trace::{BatchMeta, MachineId, NameRecord, ShipmentConsumer, TraceRecord};
use nt_warehouse::format::decode_header;
use nt_warehouse::{segment_paths, NttError, Segment, SegmentWriter, HEADER_SIZE};

use crate::shard::host_workers;
use crate::study::Study;

/// Options for [`Study::ingest_warehouse`].
#[derive(Clone, Debug, Default)]
pub struct StreamOptions {
    /// Keep raw records and rebuild the exact fact tables (defeats the
    /// memory bound).
    pub retain: bool,
    /// Spill directory for the tail-analysis sample runs; `None` keeps
    /// them resident.
    pub spill_dir: Option<std::path::PathBuf>,
}

/// One machine's sinks under an export: forwards every shipment to the
/// machine's [`SegmentWriter`] by reference, then moves it into the
/// machine's analysis set. The collector handle delivers in stamp order,
/// so the segment holds the canonical stream as shipped.
pub(crate) struct Tee<'a> {
    analysis: &'a AnalysisSet,
    /// The machine's segment, or the writer's first refusal; a refused
    /// segment takes no more pushes.
    segment: Mutex<Result<SegmentWriter, NttError>>,
    /// Emits the `warehouse.export` hop for each teed batch; the writer
    /// itself stays tracer-free (nt-warehouse does not depend on
    /// nt-obs).
    tracer: ShipmentTracer,
}

/// Why a tee's lock cannot be poisoned: a push that panicked unwinds its
/// machine's task, and the tee with it.
const UNWOUND: &str = "a panicking push unwinds its machine's task";

impl<'a> Tee<'a> {
    /// A tee over `analysis` and a fresh segment for `machine`.
    pub(crate) fn new(analysis: &'a AnalysisSet, machine: u32, tracer: ShipmentTracer) -> Self {
        Tee {
            analysis,
            segment: Mutex::new(Ok(SegmentWriter::new(machine))),
            tracer,
        }
    }

    /// The machine's segment, or the writer's first refusal.
    pub(crate) fn into_segment(self) -> Result<SegmentWriter, NttError> {
        self.segment.into_inner().expect(UNWOUND)
    }

    /// Applies one push to the segment unless it already refused one.
    fn push(&self, push: impl FnOnce(&mut SegmentWriter) -> Result<(), NttError>) {
        let mut segment = self.segment.lock().expect(UNWOUND);
        if let Ok(writer) = &mut *segment {
            if let Err(e) = push(writer) {
                *segment = Err(e);
            }
        }
    }
}

impl ShipmentConsumer for Tee<'_> {
    fn batch(
        &self,
        machine: MachineId,
        seq: Option<u64>,
        records: Vec<TraceRecord>,
        meta: Option<BatchMeta>,
    ) {
        if let (Some(meta), Some(seq)) = (meta, seq) {
            self.tracer.downstream(
                Hop::Export,
                meta.ctx,
                machine.0,
                seq,
                meta.deliver_ticks,
                records.len() as u64,
            );
        }
        self.push(|writer| writer.push_batch(&records));
        self.analysis.batch(machine, seq, records, meta);
    }

    fn name(&self, machine: MachineId, seq: Option<u64>, name: NameRecord) {
        self.push(|writer| writer.push_name(&name));
        self.analysis.name(machine, seq, name);
    }
}

/// What re-ingesting a warehouse produces — the same analytical payload
/// as a live streaming run, minus the machine artefacts (counters,
/// snapshots, loss ledgers) that exist only while a fleet is simulated.
pub struct WarehouseIngest {
    /// The merged streaming aggregates.
    pub summary: StudySummary,
    /// The exact fact tables, only under [`StreamOptions::retain`].
    pub trace_set: Option<TraceSet>,
    /// Records ingested across all segments.
    pub records: u64,
    /// Machines the warehouse held, ascending.
    pub machines: Vec<u32>,
    /// Wall-clock attribution: segment validation and decode under
    /// [`Phase::Warehouse`], sink work under [`Phase::Analysis`], summed
    /// over the segment tasks (so it can exceed the ingest's wall time).
    pub profile: RuntimeProfile,
}

impl Study {
    /// Re-runs the analysis stage over a stored warehouse.
    ///
    /// The directory is read by `visit_segments`, one task per `*.ntt`
    /// segment file on the work-stealing pool, sized like a live run's
    /// with `workers: None` (one worker per core). Each task feeds its
    /// segment's batches and names in stored order — the canonical stamp
    /// order the live `MachineSink`s processed, batch boundaries intact —
    /// into a one-machine [`AnalysisSet`], drops the segment bytes and
    /// closes the set with [`AnalysisSet::finish_shard`], so at most
    /// `workers` segments are resident. The root merges the partials in
    /// ascending machine order with [`ShardSummary::merge`], the exact
    /// merge a live run's fleet root uses, so the result does not depend
    /// on which worker took which segment.
    ///
    /// Errors follow `visit_segments`: the first failing segment in
    /// file-name order, [`NttError::DuplicateMachine`] for a directory
    /// with two segments for one machine (refused before any record is
    /// analysed), and a panicking task re-raised as a panic that names
    /// its segment. `options` mean what the same-named
    /// [`crate::ShardOptions`] fields mean for a live run.
    pub fn ingest_warehouse(
        dir: &Path,
        options: &StreamOptions,
    ) -> Result<WarehouseIngest, NttError> {
        let config = StreamConfig {
            retain: options.retain,
            spill_dir: options.spill_dir.clone(),
            ..StreamConfig::default()
        };
        let parts = visit_segments(dir, host_workers(), |segment, telemetry| {
            ingest_segment(segment, &config, telemetry)
        })?;
        // Start from an empty set's partial rather than
        // `ShardSummary::default()`: under retain it carries an empty
        // stream list, so an empty warehouse still yields an empty
        // `TraceSet`, not none.
        let mut merged = AnalysisSet::new(&[], &config).finish_shard();
        let mut machines = Vec::with_capacity(parts.len());
        let mut profile = RuntimeProfile::default();
        for part in parts {
            machines.push(part.machine);
            profile.merge(&part.profile);
            merged.merge(part.value);
        }
        let analysis = merged.into_analysis();
        Ok(WarehouseIngest {
            // The sinks count every record they are handed.
            records: analysis.summary.records,
            summary: analysis.summary,
            trace_set: analysis.trace_set,
            machines,
            profile,
        })
    }
}

/// One segment's share of a warehouse read.
pub(crate) struct SegmentPart<T> {
    /// The machine the segment holds.
    pub(crate) machine: u32,
    /// What the caller's visit made of the segment.
    pub(crate) value: T,
    /// The segment task's wall-clock attribution: its `warehouse.open`
    /// span plus whatever the visit timed on the task's telemetry.
    pub(crate) profile: RuntimeProfile,
}

/// Reads every `*.ntt` segment in `dir` — the one directory walk both
/// readers of a stored trace use — and returns what `visit` made of
/// each, in ascending machine order.
///
/// One task per segment file runs on the work-stealing pool with
/// `workers` threads. A task opens and fully validates its segment
/// (header, footer, XXH64, batch table) under a `warehouse.open` span on
/// its own profiler, then hands the segment and that profiler to
/// `visit`, which owns the bytes and drops them when done, so at most
/// `workers` segments are resident. The rules:
///
/// * The first failing segment in file-name order is the error,
///   whichever worker hit it, and a visit's error counts as its
///   segment's.
/// * A second segment for one machine is [`NttError::DuplicateMachine`]
///   at its own place in that order. The headers are read before any
///   task starts; when two name one machine, the tasks only validate, so
///   such a directory is refused before `visit` sees a segment.
/// * A panicking task is re-raised as a panic that names its file.
pub(crate) fn visit_segments<T: Send>(
    dir: &Path,
    workers: usize,
    visit: impl Fn(Segment, &Telemetry) -> Result<T, NttError> + Sync,
) -> Result<Vec<SegmentPart<T>>, NttError> {
    let paths = segment_paths(dir)?;
    // Two headers naming one machine doom the directory (a duplicate,
    // or a corrupt member whose own error wins), so its tasks only
    // validate: nothing is visited, and no two tasks write one
    // machine's spill files.
    let refused = shared_header_machine(&paths);
    let (slots, panic) = nt_trace::steal::run_indexed(paths.len(), workers, |i| {
        let telemetry = Telemetry::profiler();
        let segment = {
            let _span = telemetry.span_child(Phase::Warehouse, "warehouse.open");
            Segment::open(&paths[i])?
        };
        let machine = segment.machine();
        let part = match refused {
            Some(_) => None,
            None => {
                let value = visit(segment, &telemetry)?;
                let profile = telemetry.report().map(|r| r.profile).unwrap_or_default();
                Some(SegmentPart {
                    machine,
                    value,
                    profile,
                })
            }
        };
        Ok::<_, NttError>((machine, part))
    });
    if let Some(p) = panic {
        panic!(
            "warehouse segment {}: {}",
            paths[p.index].display(),
            p.message
        );
    }
    // No task panicked, so every slot holds its result, in file-name
    // order.
    let mut parts = Vec::with_capacity(paths.len());
    let mut seen = BTreeSet::new();
    for slot in slots.into_iter().flatten() {
        let (machine, part) = slot?;
        if !seen.insert(machine) {
            return Err(NttError::DuplicateMachine(machine));
        }
        parts.extend(part);
    }
    if let Some(machine) = refused {
        // Two headers named this machine at listing time, yet every
        // member validated with a distinct one: the files changed
        // under the read. Nothing was visited.
        return Err(NttError::DuplicateMachine(machine));
    }
    parts.sort_by_key(|p| p.machine);
    Ok(parts)
}

/// Drives one validated segment's batches and names, in stored order,
/// through a one-machine [`AnalysisSet`] that times its work on the
/// segment task's `telemetry`. The segment's bytes are dropped before
/// its partial is closed.
fn ingest_segment(
    segment: Segment,
    config: &StreamConfig,
    telemetry: &Telemetry,
) -> Result<ShardSummary, NttError> {
    let id = MachineId(segment.machine());
    let set = AnalysisSet::new(
        &[id.0],
        &StreamConfig {
            telemetry: telemetry.clone(),
            ..config.clone()
        },
    );
    {
        let _span = telemetry.span_child(Phase::Warehouse, "warehouse.ingest_segment");
        segment.visit_batches(|seq, batch| {
            let _span = telemetry.span_child(Phase::Analysis, "analysis.batch");
            set.batch(id, Some(seq), batch, None);
        })?;
        segment.visit_names(|seq, name| set.name(id, Some(seq), name))?;
    }
    drop(segment);
    Ok(set.finish_shard())
}

/// A machine id that two segment headers name, read without validating
/// the segments. A directory with one is refused whatever its members
/// hold: both validate (a duplicate) or one fails (its own error).
fn shared_header_machine(paths: &[PathBuf]) -> Option<u32> {
    let mut named = BTreeSet::new();
    paths
        .iter()
        .filter_map(|path| header_machine(path))
        .find(|&machine| !named.insert(machine))
}

/// The machine id in a segment file's header; `None` when the header
/// cannot be read or is not an NTT header.
fn header_machine(path: &Path) -> Option<u32> {
    let mut header = [0u8; HEADER_SIZE];
    std::fs::File::open(path)
        .and_then(|mut file| file.read_exact(&mut header))
        .ok()?;
    decode_header(&header).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StudyConfig;
    use crate::shard::ShardOptions;

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("nt-warehouse-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn export_then_ingest_reproduces_the_live_summary() {
        let dir = temp_dir("smoke");
        let config = StudyConfig::smoke_test(7);
        let options = ShardOptions {
            retain: true,
            warehouse: Some(dir.clone()),
            ..ShardOptions::default()
        };
        let live = Study::try_run_sharded(&config, &options)
            .expect("smoke study runs")
            .data;
        let stats = live.warehouse.as_ref().expect("export stats present");
        assert_eq!(stats.len(), live.machines.len());
        assert_eq!(
            stats.iter().map(|s| s.records).sum::<u64>(),
            live.summary.records
        );

        let ingest = Study::ingest_warehouse(
            &dir,
            &StreamOptions {
                retain: true,
                ..StreamOptions::default()
            },
        )
        .expect("warehouse re-ingests");
        assert_eq!(ingest.records, live.summary.records);
        assert_eq!(ingest.machines.len(), live.machines.len());
        // Each segment task times its `warehouse.open` and
        // `warehouse.ingest_segment`, then one `analysis.batch` per stored
        // batch and the `analysis.finish` that closes its set.
        let segments = stats.len() as u64;
        let batches: u64 = stats.iter().map(|s| s.batches).sum();
        assert_eq!(ingest.profile.phase(Phase::Warehouse).spans, 2 * segments);
        assert_eq!(
            ingest.profile.phase(Phase::Analysis).spans,
            batches + segments
        );
        // The streaming aggregates match bit-for-bit, watermarks
        // included: the live run delivered in stamp order, the re-ingest
        // in stored order, and the two orders are one.
        assert_eq!(live.summary, ingest.summary);
        // Under retain, the exact fact tables match too.
        let live_set = live.trace_set.expect("retained");
        let ingest_set = ingest.trace_set.expect("retained");
        assert_eq!(live_set.records, ingest_set.records);
        assert_eq!(live_set.instances.len(), ingest_set.instances.len());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_panicking_segment_task_names_its_file() {
        let dir = temp_dir("panic");
        std::fs::create_dir_all(&dir).unwrap();
        for machine in 0..3 {
            let path = dir.join(nt_warehouse::writer::segment_file_name(machine));
            std::fs::write(path, SegmentWriter::new(machine).finish()).unwrap();
        }
        let caught = std::panic::catch_unwind(|| {
            visit_segments(&dir, 2, |segment, _| {
                assert!(segment.machine() != 1, "bad segment");
                Ok(())
            })
        });
        let _ = std::fs::remove_dir_all(&dir);
        let payload = caught.err().expect("the task's panic is re-raised");
        let message = payload.downcast_ref::<String>().expect("a formatted panic");
        assert!(
            message.contains("machine-00001.ntt") && message.contains("bad segment"),
            "{message}"
        );
    }

    #[test]
    fn ingest_of_a_missing_directory_is_a_typed_error() {
        let err = Study::ingest_warehouse(
            std::path::Path::new("/nonexistent/nt-warehouse"),
            &StreamOptions::default(),
        )
        .err()
        .expect("opening a missing warehouse must fail");
        assert!(matches!(err, NttError::Io(_)), "got {err}");
    }

    #[test]
    fn ingest_of_an_empty_directory_is_an_empty_study() {
        let dir = temp_dir("empty");
        std::fs::create_dir_all(&dir).unwrap();
        let plain = Study::ingest_warehouse(&dir, &StreamOptions::default())
            .expect("an empty warehouse ingests");
        assert!(plain.machines.is_empty());
        assert_eq!(plain.records, 0);
        assert_eq!(plain.summary.records, 0);
        assert!(plain.trace_set.is_none());
        // Under retain, an empty warehouse still yields fact tables —
        // empty ones — exactly as a set over no machines does.
        let retained = Study::ingest_warehouse(
            &dir,
            &StreamOptions {
                retain: true,
                ..StreamOptions::default()
            },
        )
        .expect("an empty warehouse ingests");
        let set = retained.trace_set.expect("retain yields fact tables");
        assert!(set.records.is_empty());
        assert!(set.instances.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
