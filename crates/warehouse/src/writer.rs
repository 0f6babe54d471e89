//! Building NTT segments, one machine at a time.

use std::collections::HashMap;
use std::path::Path;

use bytes::BytesMut;
use nt_trace::{NameRecord, TraceRecord, RECORD_SIZE};

use crate::format::{encode_header, xxh64, Footer, KIND_SLOTS};
use crate::NttError;

/// End-of-write accounting for one segment.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SegmentStats {
    /// Machine the segment belongs to.
    pub machine: u32,
    /// Records written.
    pub records: u64,
    /// Batches written.
    pub batches: u64,
    /// Name entries written.
    pub names: u64,
    /// Total encoded size, bytes.
    pub bytes: u64,
}

/// Serializes one machine's stream into an NTT segment.
///
/// Batches must be pushed in the agent's sequence order — the writer
/// records their boundaries verbatim so a re-ingest can replay the same
/// per-batch state transitions. Paths are interned: the first occurrence
/// lands in the string table, later names reference the same bytes.
pub struct SegmentWriter {
    machine: u32,
    records: Vec<u8>,
    record_count: u64,
    batch_lens: Vec<u32>,
    kind_counts: [u64; KIND_SLOTS],
    min_ticks: u64,
    max_ticks: u64,
    strings: Vec<u8>,
    interned: HashMap<String, (u32, u32)>,
    names: Vec<u8>,
    name_count: u64,
    scratch: BytesMut,
}

impl SegmentWriter {
    /// An empty segment for `machine`.
    pub fn new(machine: u32) -> Self {
        SegmentWriter {
            machine,
            records: Vec::new(),
            record_count: 0,
            batch_lens: Vec::new(),
            kind_counts: [0; KIND_SLOTS],
            min_ticks: u64::MAX,
            max_ticks: 0,
            strings: Vec::new(),
            interned: HashMap::new(),
            names: Vec::new(),
            name_count: 0,
            scratch: BytesMut::new(),
        }
    }

    /// Appends one shipped batch, preserving its boundary. Empty batches
    /// are preserved too — the live sinks see them as batches.
    ///
    /// Fails with [`NttError::TooLarge`] when the batch holds more
    /// records than the format's 4-byte batch-length entry can encode —
    /// refusing up front instead of truncating the length with an `as`
    /// cast and writing a segment whose batch table no longer sums to
    /// its record count.
    pub fn push_batch(&mut self, records: &[TraceRecord]) -> Result<(), NttError> {
        self.batch_lens
            .push(fits_u32("batch length", records.len())?);
        for rec in records {
            self.scratch.clear();
            rec.encode(&mut self.scratch);
            debug_assert_eq!(self.scratch.len(), RECORD_SIZE);
            self.records.extend_from_slice(&self.scratch);
            if let Some(slot) = self.kind_counts.get_mut(rec.code as usize) {
                *slot += 1;
            }
            self.min_ticks = self.min_ticks.min(rec.start_ticks);
            self.max_ticks = self.max_ticks.max(rec.end_ticks);
        }
        self.record_count += records.len() as u64;
        Ok(())
    }

    /// Appends one name record, interning its path.
    ///
    /// Fails with [`NttError::TooLarge`] when the path is longer than
    /// the 4-byte length field, or when interning it would push the
    /// string table past the 4-byte offset field (4 GiB) — either cast
    /// would alias the entry onto unrelated string bytes.
    pub fn push_name(&mut self, name: &NameRecord) -> Result<(), NttError> {
        let (off, len) = match self.interned.get(&name.path) {
            Some(&span) => span,
            None => {
                let off = fits_u32("string table offset", self.strings.len())?;
                let len = fits_u32("name path length", name.path.len())?;
                self.strings.extend_from_slice(name.path.as_bytes());
                self.interned.insert(name.path.clone(), (off, len));
                (off, len)
            }
        };
        self.names
            .extend_from_slice(&name.file_object.to_le_bytes());
        self.names.extend_from_slice(&name.at_ticks.to_le_bytes());
        self.names.extend_from_slice(&name.volume.to_le_bytes());
        self.names.extend_from_slice(&name.process.to_le_bytes());
        self.names.extend_from_slice(&off.to_le_bytes());
        self.names.extend_from_slice(&len.to_le_bytes());
        self.name_count += 1;
        Ok(())
    }

    /// Records written so far.
    pub fn records(&self) -> u64 {
        self.record_count
    }

    /// Serializes the segment: header, sections, checksummed footer.
    pub fn finish(self) -> Vec<u8> {
        let mut out = Vec::with_capacity(
            crate::HEADER_SIZE
                + self.records.len()
                + self.batch_lens.len() * 4
                + self.strings.len()
                + self.names.len()
                + crate::FOOTER_SIZE,
        );
        encode_header(&mut out, self.machine);
        let records_off = out.len() as u64;
        out.extend_from_slice(&self.records);
        let batches_off = out.len() as u64;
        for len in &self.batch_lens {
            out.extend_from_slice(&len.to_le_bytes());
        }
        let strings_off = out.len() as u64;
        out.extend_from_slice(&self.strings);
        let names_off = out.len() as u64;
        out.extend_from_slice(&self.names);
        let (min_ticks, max_ticks) = if self.record_count == 0 {
            (0, 0)
        } else {
            (self.min_ticks, self.max_ticks)
        };
        let mut footer = Footer {
            records_off,
            record_count: self.record_count,
            batches_off,
            batch_count: self.batch_lens.len() as u64,
            strings_off,
            strings_len: self.strings.len() as u64,
            names_off,
            name_count: self.name_count,
            min_ticks,
            max_ticks,
            kind_counts: self.kind_counts,
            checksum: 0,
        };
        // The checksum covers everything before its own field: body plus
        // the footer's section table.
        let mut tail = Vec::with_capacity(crate::FOOTER_SIZE);
        footer.encode(&mut tail);
        let checksummed_len = out.len() + crate::FOOTER_SIZE - 16;
        out.extend_from_slice(&tail[..crate::FOOTER_SIZE - 16]);
        debug_assert_eq!(out.len(), checksummed_len);
        footer.checksum = xxh64(&out);
        out.extend_from_slice(&footer.checksum.to_le_bytes());
        out.extend_from_slice(&crate::format::FOOTER_MAGIC);
        out
    }

    /// [`SegmentWriter::finish`], written to `path`.
    pub fn write_to(self, path: &Path) -> Result<SegmentStats, NttError> {
        let machine = self.machine;
        let records = self.record_count;
        let batches = self.batch_lens.len() as u64;
        let names = self.name_count;
        let bytes = self.finish();
        std::fs::write(path, &bytes)?;
        Ok(SegmentStats {
            machine,
            records,
            batches,
            names,
            bytes: bytes.len() as u64,
        })
    }
}

/// Checked narrowing into the format's 4-byte fields: the exact value
/// `u32::MAX` still encodes, one past it is a typed refusal.
fn fits_u32(what: &'static str, n: usize) -> Result<u32, NttError> {
    u32::try_from(n).map_err(|_| NttError::TooLarge {
        what,
        max: u64::from(u32::MAX),
        got: n as u64,
    })
}

/// Canonical segment file name for a machine.
pub fn segment_file_name(machine: u32) -> String {
    format!("machine-{machine:05}.ntt")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The exact boundary: `u32::MAX` encodes, `u32::MAX + 1` is a typed
    /// refusal carrying the limit and the offending value — never a
    /// silent wrap. (Exercised on the helper: materializing 2^32 records
    /// or a 4 GiB string table to hit it end-to-end is not a unit test.)
    #[test]
    fn narrowing_refuses_exactly_past_u32_max() {
        assert_eq!(fits_u32("x", 0).unwrap(), 0);
        assert_eq!(fits_u32("x", u32::MAX as usize).unwrap(), u32::MAX);
        match fits_u32("batch length", u32::MAX as usize + 1) {
            Err(NttError::TooLarge { what, max, got }) => {
                assert_eq!(what, "batch length");
                assert_eq!(max, u64::from(u32::MAX));
                assert_eq!(got, u64::from(u32::MAX) + 1);
            }
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }

    #[test]
    fn too_large_display_names_the_field() {
        let e = NttError::TooLarge {
            what: "name path length",
            max: u64::from(u32::MAX),
            got: 5_000_000_000,
        };
        let msg = e.to_string();
        assert!(msg.contains("name path length"), "{msg}");
        assert!(msg.contains("5000000000"), "{msg}");
    }

    /// In-bounds pushes keep succeeding after the API grew its error
    /// path — the common case is untouched.
    #[test]
    fn in_bounds_pushes_succeed() {
        let mut w = SegmentWriter::new(0);
        w.push_batch(&[]).expect("empty batch fits");
        w.push_name(&NameRecord {
            file_object: 1,
            volume: 0,
            process: 1,
            path: r"\a.dat".into(),
            at_ticks: 1,
        })
        .expect("short path fits");
        assert_eq!(w.records(), 0);
    }
}
