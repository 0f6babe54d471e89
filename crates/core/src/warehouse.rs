//! NTT warehouse integration: the live-export tee and the re-ingest
//! driver.
//!
//! Export happens *during* a study: under
//! [`crate::ShardOptions::warehouse`] each machine task tees its
//! shipments into its own [`SegmentWriter`] beside its one-machine
//! analysis set, and the driver writes the segment files in machine
//! order once every task has finished. Re-ingest is
//! [`Study::ingest_warehouse`]: one task per segment file on the
//! work-stealing pool, so at most `workers` segments are resident at
//! once. Each task validates its segment and drives the stored batches
//! through a one-machine [`AnalysisSet`] — in the segment's canonical
//! stamp order, batch boundaries intact — and the root merges the
//! partials exactly, in machine order. A live run closes and merges its
//! machines' sets the same way, so the resulting summary is
//! bit-identical to the live run's (`tests/determinism.rs` pins this at
//! fleet scale, faults included).

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
    /// One task per `*.ntt` segment file runs on the work-stealing pool,
    /// sized like a live run's with `workers: None` (one worker per
    /// core). A task reads and fully validates its segment (header,
    /// footer, XXH64, batch table), feeds its batches and names in stored
    /// order — the canonical stamp order the live `MachineSink`s
    /// processed, batch boundaries intact — into a one-machine
    /// [`AnalysisSet`], closes it with [`AnalysisSet::finish_shard`] and
    /// drops the segment bytes, so at most `workers` segments are
    /// resident. The root merges the partials in ascending machine order
    /// with [`ShardSummary::merge`], the exact merge a live run's fleet
    /// root uses, so the result does not depend on which worker took
    /// which segment.
    ///
    /// The first failing segment in file-name order is the error,
    /// whichever worker hit it. A directory with two segments for one
    /// machine is [`NttError::DuplicateMachine`], refused before any
    /// record is analysed. A panicking task is re-raised as a panic that
    /// names its segment. `options` mean what the same-named
    /// [`crate::ShardOptions`] fields mean for a live run.
    pub fn ingest_warehouse(
        dir: &Path,
        options: &StreamOptions,
    ) -> Result<WarehouseIngest, NttError> {
        let paths = segment_paths(dir)?;
        let config = StreamConfig {
            retain: options.retain,
            spill_dir: options.spill_dir.clone(),
            ..StreamConfig::default()
        };
        // Two headers naming one machine doom the directory (a duplicate,
        // or a corrupt member whose own error wins), so its tasks only
        // validate: nothing is analysed, and no two tasks write one
        // machine's spill files.
        let refused = shared_header_machine(&paths);
        let (slots, panic) = nt_trace::steal::run_indexed(paths.len(), host_workers(), |i| {
            ingest_segment(&paths[i], &config, refused.is_none())
        });
        if let Some(p) = panic {
            panic!(
                "warehouse ingest of {}: {}",
                paths[p.index].display(),
                p.message
            );
        }
        // No task panicked, so every slot holds its result.
        let mut parts = Vec::with_capacity(paths.len());
        let mut seen = BTreeSet::new();
        let mut profile = RuntimeProfile::default();
        for part in slots.into_iter().flatten() {
            let part = part?;
            if !seen.insert(part.machine) {
                return Err(NttError::DuplicateMachine(part.machine));
            }
            profile.merge(&part.profile);
            parts.push(part);
        }
        if let Some(machine) = refused {
            // Two headers named this machine at listing time, yet every
            // member validated with a distinct one: the files changed
            // under the ingest. Nothing was analysed.
            return Err(NttError::DuplicateMachine(machine));
        }
        parts.sort_by_key(|p| p.machine);
        // Start from an empty set's partial rather than
        // `ShardSummary::default()`: under retain it carries an empty
        // stream list, so an empty warehouse still yields an empty
        // `TraceSet`, not none.
        let mut merged = AnalysisSet::new(&[], &config).finish_shard();
        let mut records = 0u64;
        let mut machines = Vec::with_capacity(parts.len());
        for part in parts {
            records += part.records;
            machines.push(part.machine);
            merged.merge(
                part.shard
                    .expect("every segment is analysed when none is refused"),
            );
        }
        let analysis = merged.into_analysis();
        Ok(WarehouseIngest {
            summary: analysis.summary,
            trace_set: analysis.trace_set,
            records,
            machines,
            profile,
        })
    }
}

/// One segment's share of a re-ingest.
struct SegmentPart {
    machine: u32,
    records: u64,
    /// The one-machine partial; `None` when the directory is refused.
    shard: Option<ShardSummary>,
    profile: RuntimeProfile,
}

/// Validates the segment at `path` in full, then, when `analyse`, drives
/// its batches and names in stored order through a one-machine
/// [`AnalysisSet`]. The segment's bytes are dropped before its partial
/// is closed.
fn ingest_segment(
    path: &Path,
    config: &StreamConfig,
    analyse: bool,
) -> Result<SegmentPart, NttError> {
    let telemetry = Telemetry::profiler();
    let segment = {
        let _span = telemetry.span_child(Phase::Warehouse, "warehouse.open");
        Segment::open(path)?
    };
    let machine = segment.machine();
    let mut records = 0u64;
    let shard = match analyse {
        true => {
            let id = MachineId(machine);
            let set = AnalysisSet::new(
                &[machine],
                &StreamConfig {
                    telemetry: telemetry.clone(),
                    ..config.clone()
                },
            );
            {
                let _span = telemetry.span_child(Phase::Warehouse, "warehouse.ingest_segment");
                segment.visit_batches(|seq, batch| {
                    records += batch.len() as u64;
                    let _span = telemetry.span_child(Phase::Analysis, "analysis.batch");
                    set.batch(id, Some(seq), batch, None);
                })?;
                segment.visit_names(|seq, name| set.name(id, Some(seq), name))?;
            }
            drop(segment);
            Some(set.finish_shard())
        }
        false => None,
    };
    let profile = telemetry.report().map(|r| r.profile).unwrap_or_default();
    Ok(SegmentPart {
        machine,
        records,
        shard,
        profile,
    })
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
