//! The collection servers (§3).
//!
//! "The collection servers are three dedicated file servers that take the
//! incoming event streams and store them in compressed formats for later
//! retrieval." The model keeps each shipped buffer as a compressed batch —
//! a column-delta encoding that exploits the near-sorted timestamps — and
//! can reproduce the full record stream per machine for the analysis
//! stage.

use bytes::Buf;

use crate::record::{NameRecord, TraceRecord, RECORD_SIZE};

/// Identifies a traced machine at the collection server.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct MachineId(pub u32);

/// One shipped buffer, stored compressed.
#[derive(Clone, Debug)]
pub struct RecordBatch {
    count: usize,
    compressed: Vec<u8>,
}

impl RecordBatch {
    /// Compresses a batch of records.
    ///
    /// Encoding: the fixed 88-byte records are encoded, then the start
    /// timestamps are replaced with deltas from the previous record and
    /// varint-packed; end timestamps become varint deltas from their own
    /// start. Everything else stays fixed-width. On bursty traces this
    /// roughly halves the footprint, which is enough realism for a model
    /// whose point is the retrieval interface.
    pub fn compress(records: &[TraceRecord]) -> Self {
        // Room for every record at full width: each is encoded whole
        // before its timestamps are cut.
        let mut out = Vec::with_capacity(records.len() * RECORD_SIZE);
        let mut prev_start = 0u64;
        for rec in records {
            rec.encode(&mut out);
            // Cut the trailing two u64 timestamps; re-encode as varints.
            out.truncate(out.len() - 16);
            put_varint(&mut out, rec.start_ticks.wrapping_sub(prev_start));
            put_varint(&mut out, rec.end_ticks.saturating_sub(rec.start_ticks));
            prev_start = rec.start_ticks;
        }
        RecordBatch {
            count: records.len(),
            compressed: out,
        }
    }

    /// Number of records in the batch.
    pub fn len(&self) -> usize {
        self.count
    }

    /// True for an empty batch.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Compressed size in bytes.
    pub(crate) fn compressed_bytes(&self) -> usize {
        self.compressed.len()
    }

    /// Decompresses the batch back into records.
    pub fn decompress(&self) -> Vec<TraceRecord> {
        const BODY: usize = RECORD_SIZE - 16;
        let mut records = Vec::with_capacity(self.count);
        let mut buf = &self.compressed[..];
        let mut fixed = [0u8; RECORD_SIZE];
        let mut prev_start = 0u64;
        for _ in 0..self.count {
            // Reassemble a fixed-width record in the reused buffer: body +
            // two u64 slots.
            fixed[..BODY].copy_from_slice(&buf[..BODY]);
            buf.advance(BODY);
            let dstart = get_varint(&mut buf);
            let dend = get_varint(&mut buf);
            let start = prev_start.wrapping_add(dstart);
            prev_start = start;
            fixed[BODY..BODY + 8].copy_from_slice(&start.to_le_bytes());
            fixed[BODY + 8..].copy_from_slice(&(start + dend).to_le_bytes());
            let rec =
                TraceRecord::decode(&mut &fixed[..]).expect("batch body was produced by encode");
            records.push(rec);
        }
        records
    }
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn get_varint(buf: &mut &[u8]) -> u64 {
    let mut v = 0u64;
    let mut shift = 0;
    loop {
        let byte = buf[0];
        buf.advance(1);
        v |= ((byte & 0x7f) as u64) << shift;
        if byte & 0x80 == 0 {
            return v;
        }
        shift += 7;
    }
}

/// A collection server holding the batches of every traced machine.
///
/// Each batch carries the agent's per-machine sequence number, so one
/// machine's stream reassembles in agent order even when consecutive
/// batches landed on different servers (an agent fails over during a
/// collector outage).
#[derive(Default)]
pub struct CollectionServer {
    batches: Vec<(MachineId, u64, RecordBatch)>,
    names: Vec<(MachineId, u64, NameRecord)>,
}

impl CollectionServer {
    /// An empty server.
    pub fn new() -> Self {
        CollectionServer::default()
    }

    /// Stores one shipped buffer with the agent's own sequence number.
    pub(crate) fn ingest_seq(&mut self, machine: MachineId, seq: u64, records: &[TraceRecord]) {
        if !records.is_empty() {
            self.batches
                .push((machine, seq, RecordBatch::compress(records)));
        }
    }

    /// Stores a file-object name record with the agent's sequence number.
    pub(crate) fn ingest_name_seq(&mut self, machine: MachineId, seq: u64, name: NameRecord) {
        self.names.push((machine, seq, name));
    }

    /// Total records stored across machines.
    pub fn total_records(&self) -> usize {
        self.batches.iter().map(|(_, _, b)| b.len()).sum()
    }

    /// Total compressed footprint in bytes.
    pub fn stored_bytes(&self) -> usize {
        self.batches
            .iter()
            .map(|(_, _, b)| b.compressed_bytes())
            .sum()
    }

    /// Reconstructs one machine's full record stream, in agent order
    /// (sequence-number order).
    pub fn records_for(&self, machine: MachineId) -> Vec<TraceRecord> {
        let mut picked: Vec<(u64, &RecordBatch)> = self
            .batches
            .iter()
            .filter(|(m, _, _)| *m == machine)
            .map(|(_, seq, b)| (*seq, b))
            .collect();
        picked.sort_by_key(|(seq, _)| *seq);
        let mut out = Vec::new();
        for (_, batch) in picked {
            out.extend(batch.decompress());
        }
        out
    }

    /// Name records for one machine, in agent order.
    pub fn names_for(&self, machine: MachineId) -> Vec<&NameRecord> {
        let mut picked: Vec<(u64, &NameRecord)> = self
            .names
            .iter()
            .filter(|(m, _, _)| *m == machine)
            .map(|(_, seq, n)| (*seq, n))
            .collect();
        picked.sort_by_key(|(seq, _)| *seq);
        picked.into_iter().map(|(_, n)| n).collect()
    }

    /// Absorbs another server's batches and names, so one store can
    /// reassemble streams that were shipped to several.
    pub fn merge(&mut self, other: CollectionServer) {
        self.batches.extend(other.batches);
        self.names.extend(other.names);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nt_io::{EventKind, MajorFunction, NtStatus};

    fn rec(i: u64, start: u64) -> TraceRecord {
        TraceRecord {
            code: EventKind::Irp(MajorFunction::Read).code(),
            flags: 0,
            status: NtStatus::Success,
            set_info: None,
            access: None,
            disposition: None,
            options: None,
            file_object: i,
            fcb: i / 2,
            process: 4,
            volume: 0,
            offset: i * 512,
            length: 512,
            transferred: 512,
            file_size: 1 << 20,
            byte_offset: 0,
            start_ticks: start,
            end_ticks: start + 300 + i,
        }
    }

    #[test]
    fn batch_roundtrip() {
        let records: Vec<TraceRecord> = (0..500).map(|i| rec(i, 1_000 + i * 97)).collect();
        let batch = RecordBatch::compress(&records);
        assert_eq!(batch.len(), 500);
        assert_eq!(batch.decompress(), records);
    }

    #[test]
    fn compression_shrinks_bursty_traces() {
        let records: Vec<TraceRecord> = (0..1_000).map(|i| rec(i, 5_000_000 + i * 13)).collect();
        let batch = RecordBatch::compress(&records);
        assert!(
            batch.compressed_bytes() < records.len() * RECORD_SIZE,
            "compressed {} raw {}",
            batch.compressed_bytes(),
            records.len() * RECORD_SIZE
        );
    }

    #[test]
    fn non_monotonic_timestamps_survive() {
        // Shipping order is not strictly time order (overlapping IRPs).
        let records = vec![rec(0, 1_000), rec(1, 500), rec(2, 2_000)];
        let batch = RecordBatch::compress(&records);
        assert_eq!(batch.decompress(), records);
    }

    #[test]
    fn server_separates_machines() {
        let mut srv = CollectionServer::new();
        srv.ingest_seq(MachineId(1), 0, &[rec(1, 10), rec(2, 20)]);
        srv.ingest_seq(MachineId(2), 0, &[rec(3, 30)]);
        srv.ingest_seq(MachineId(1), 1, &[rec(4, 40)]);
        assert_eq!(srv.total_records(), 4);
        assert_eq!(srv.records_for(MachineId(1)).len(), 3);
        assert_eq!(srv.records_for(MachineId(2)).len(), 1);
    }

    #[test]
    fn name_records_stored_per_machine() {
        let mut srv = CollectionServer::new();
        srv.ingest_name_seq(
            MachineId(1),
            0,
            NameRecord {
                file_object: 9,
                volume: 0,
                process: 1,
                path: r"\x.txt".into(),
                at_ticks: 0,
            },
        );
        assert_eq!(srv.names_for(MachineId(1)).len(), 1);
        assert!(srv.names_for(MachineId(2)).is_empty());
    }
}
