//! [`TraceSource`]: one visitor interface over a live or a stored trace.
//!
//! PR 7 gave the repository two ways to hold a trace — live in memory as
//! the shipment stream a study just produced, or at rest in an NTT
//! warehouse directory — and two consumers that each hard-coded one of
//! them (analysis re-ingest read segments, replay read `TraceSet`s).
//! `TraceSource` is the seam between them: a consumer asks for machines
//! in ascending order and visits each machine's record batches and name
//! records in their canonical stored order, without knowing whether the
//! bytes come from a zero-copy segment scan or a vector that never left
//! the process. The what-if replay engine in `nt-study` reads *stored*
//! traces through this trait, one machine per task; a live fact table
//! it partitions directly, and normalization makes the two answer
//! bit-identically. Analysis re-ingest reads segments
//! directly, one task per segment, through the same per-segment
//! visitors ([`crate::Segment::visit_batches`] and
//! [`crate::Segment::visit_names`]) the warehouse implementation below
//! calls, so both read a segment in one canonical order.

use crate::reader::Warehouse;
use crate::NttError;
use nt_trace::{NameRecord, TraceRecord};

/// A trace, wherever it lives: per-machine record batches plus the name
/// dimension, visited in canonical order.
///
/// The determinism contract every implementation must honour (and the
/// reason visitors, not iterators, are the interface — a segment reader
/// borrows from the mapped file and cannot escape the visit):
///
/// * [`machines`](TraceSource::machines) is ascending and duplicate-free.
/// * For one machine, batches arrive in the exact order the collection
///   tier delivered them (the `MachineSink` stamp order the warehouse
///   preserves), with batch boundaries intact.
/// * Name records arrive in a stable per-machine order.
///
/// Two sources describing the same trace therefore drive any consumer
/// through identical state transitions — the property
/// `tests/whatif.rs` pins by replaying live-vs-warehouse bit-identically.
pub trait TraceSource {
    /// Machines present in the trace, ascending.
    fn machines(&self) -> Vec<u32>;

    /// Visits every record batch of `machine` in stored order, calling
    /// `visit(batch_seq, records)` with consecutive sequence stamps
    /// starting at 0. A machine absent from the source is a no-op.
    fn visit_batches(
        &self,
        machine: u32,
        visit: &mut dyn FnMut(u64, Vec<TraceRecord>),
    ) -> Result<(), NttError>;

    /// Visits every name record of `machine` in stored order, calling
    /// `visit(name_seq, name)` with consecutive stamps starting at 0.
    fn visit_names(
        &self,
        machine: u32,
        visit: &mut dyn FnMut(u64, NameRecord),
    ) -> Result<(), NttError>;
}

/// A warehouse directory is a trace source: each machine's one segment
/// is scanned zero-copy, batches decoded at their stored boundaries.
impl TraceSource for Warehouse {
    fn machines(&self) -> Vec<u32> {
        Warehouse::machines(self)
    }

    fn visit_batches(
        &self,
        machine: u32,
        visit: &mut dyn FnMut(u64, Vec<TraceRecord>),
    ) -> Result<(), NttError> {
        self.segment(machine)
            .map_or(Ok(()), |segment| segment.visit_batches(visit))
    }

    fn visit_names(
        &self,
        machine: u32,
        visit: &mut dyn FnMut(u64, NameRecord),
    ) -> Result<(), NttError> {
        self.segment(machine)
            .map_or(Ok(()), |segment| segment.visit_names(visit))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::SegmentWriter;
    use nt_io::NtStatus;
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ntt-source-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn record(file_object: u64, start: u64) -> TraceRecord {
        TraceRecord {
            code: 0,
            flags: 0,
            status: NtStatus::Success,
            set_info: None,
            access: None,
            disposition: None,
            options: None,
            file_object,
            fcb: file_object,
            process: 7,
            volume: 0,
            offset: 0,
            length: 0,
            transferred: 0,
            file_size: 0,
            byte_offset: 0,
            start_ticks: start,
            end_ticks: start + 5,
        }
    }

    #[test]
    fn warehouse_source_preserves_batch_boundaries_and_order() {
        let dir = temp_dir("batches");
        let mut w = SegmentWriter::new(9);
        w.push_batch(&[record(1, 10), record(2, 20)]).unwrap();
        w.push_batch(&[record(3, 30)]).unwrap();
        w.push_name(&NameRecord {
            file_object: 1,
            volume: 0,
            process: 7,
            path: r"\a\b.txt".to_string(),
            at_ticks: 1,
        })
        .unwrap();
        std::fs::write(dir.join("m00009.ntt"), w.finish()).unwrap();

        let warehouse = Warehouse::open(&dir).unwrap();
        assert_eq!(TraceSource::machines(&warehouse), vec![9]);

        let mut batches = Vec::new();
        warehouse
            .visit_batches(9, &mut |seq, recs| {
                batches.push((seq, recs.iter().map(|r| r.file_object).collect::<Vec<_>>()));
            })
            .unwrap();
        assert_eq!(batches, vec![(0, vec![1, 2]), (1, vec![3])]);

        let mut names = Vec::new();
        warehouse
            .visit_names(9, &mut |seq, n| names.push((seq, n.path)))
            .unwrap();
        assert_eq!(names, vec![(0, r"\a\b.txt".to_string())]);

        // A machine the warehouse has never seen visits nothing.
        warehouse
            .visit_batches(10, &mut |_, _| panic!("machine 10 has no segment"))
            .unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
