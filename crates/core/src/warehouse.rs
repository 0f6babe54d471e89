//! NTT warehouse integration: the live-export tee and the re-ingest
//! driver.
//!
//! Export happens *during* a study: [`crate::ShardOptions::warehouse`]
//! tees every shipment into a [`nt_warehouse::WarehouseSink`] beside the
//! live analysis sinks, and the segment files are serialized at study
//! finish. Re-ingest is [`Study::ingest_warehouse`]: it opens a
//! warehouse directory and drives the stored batches through a fresh
//! [`nt_analysis::stream::AnalysisSet`] — in the segments' canonical
//! stamp order, batch boundaries intact — so the resulting summary is
//! bit-identical to the live run's (`tests/determinism.rs` pins this at
//! fleet scale, faults included).

use std::path::Path;
use std::sync::Arc;

use nt_analysis::stream::{AnalysisSet, StreamConfig, StudySummary};
use nt_analysis::TraceSet;
use nt_obs::{Hop, Phase, RuntimeProfile, ShipmentTracer, Telemetry};
use nt_trace::{BatchMeta, MachineId, NameRecord, ShipmentConsumer, TraceRecord};
use nt_warehouse::{NttError, TraceSource, Warehouse, WarehouseSink};

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

/// Forwards every shipment to both the live analysis sinks and the
/// warehouse export. The warehouse copy goes first so the analysis side
/// can take ownership of the (unclonable) record vector.
pub(crate) struct Tee {
    pub(crate) analysis: Arc<AnalysisSet>,
    pub(crate) warehouse: Arc<WarehouseSink>,
    /// Emits the `warehouse.export` hop for each teed batch; the sink
    /// itself stays tracer-free (nt-warehouse does not depend on
    /// nt-obs).
    pub(crate) tracer: ShipmentTracer,
}

impl ShipmentConsumer for Tee {
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
        self.warehouse.batch(machine, seq, records.clone(), None);
        self.analysis.batch(machine, seq, records, meta);
    }

    fn name(&self, machine: MachineId, seq: Option<u64>, name: NameRecord) {
        self.warehouse.name(machine, seq, name.clone());
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
    /// [`Phase::Warehouse`], sink work under [`Phase::Analysis`].
    pub profile: RuntimeProfile,
}

impl Study {
    /// Re-runs the analysis stage over a stored warehouse.
    ///
    /// Ingest goes through the [`TraceSource`] abstraction — the same
    /// seam the what-if replay engine consumes traces through — so both
    /// subsystems see machines ascending and each machine's batches
    /// with ascending sequence stamps in stored order, which *is* the
    /// canonical stamp order the live `MachineSink`s processed (the
    /// export sink reassembles with the same discipline). Ingest is
    /// sequential; `options` mean what the same-named
    /// [`crate::ShardOptions`] fields mean for a live run.
    pub fn ingest_warehouse(
        dir: &Path,
        options: &StreamOptions,
    ) -> Result<WarehouseIngest, NttError> {
        let telemetry = Telemetry::profiler();
        let warehouse = {
            let _span = telemetry.span_child(Phase::Warehouse, "warehouse.open");
            Warehouse::open(dir)?
        };
        let machines = warehouse.machines();
        let set = AnalysisSet::new(
            &machines,
            &StreamConfig {
                retain: options.retain,
                spill_dir: options.spill_dir.clone(),
                telemetry: telemetry.clone(),
                ..StreamConfig::default()
            },
        );
        let mut records = 0u64;
        for &machine in &machines {
            let _span = telemetry.span_child(Phase::Warehouse, "warehouse.ingest_segment");
            let id = MachineId(machine);
            warehouse.visit_batches(machine, &mut |seq, decoded| {
                records += decoded.len() as u64;
                set.batch(id, Some(seq), decoded, None);
            })?;
            warehouse.visit_names(machine, &mut |seq, name| {
                set.name(id, Some(seq), name);
            })?;
        }
        let analysis = set.finish();
        let mut profile = RuntimeProfile::default();
        if let Some(report) = telemetry.report() {
            profile.merge(&report.profile);
        }
        Ok(WarehouseIngest {
            summary: analysis.summary,
            trace_set: analysis.trace_set,
            records,
            machines,
            profile,
        })
    }
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
        // The streaming aggregates must match bit-for-bit; only the
        // scheduling watermarks (parked records, live state bytes) are
        // allowed to differ between a threaded run and a sequential
        // re-ingest.
        let mut a = live.summary;
        let mut b = ingest.summary;
        a.peak_parked_records = 0;
        b.peak_parked_records = 0;
        a.peak_state_bytes = 0;
        b.peak_state_bytes = 0;
        assert_eq!(a, b);
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
}
