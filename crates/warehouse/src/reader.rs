//! Zero-copy segment reading and the warehouse directory listing.

use std::path::{Path, PathBuf};

use nt_io::EventKind;
use nt_trace::{NameRecord, TraceRecord, RECORD_SIZE};

use crate::format::{decode_header, xxh64, Footer, BATCH_ENTRY_SIZE, NAME_ENTRY_SIZE};
use crate::NttError;

/// A borrowed, validated view over one NTT segment.
///
/// Parsing validates the header, footer magic, checksum, section table
/// and batch-length sum once; after that every accessor is a bounds-safe
/// slice into the original buffer. Records are yielded as [`RecordView`]s
/// — borrowed 88-byte windows with field accessors — so a scan allocates
/// nothing per record. The only owned state is the decoded footer.
#[derive(Clone)]
pub struct SegmentReader<'a> {
    data: &'a [u8],
    machine: u32,
    footer: Footer,
}

/// Owns a segment's bytes plus its decoded footer, so readers can be
/// re-created cheaply without re-hashing the body.
pub struct Segment {
    machine: u32,
    bytes: Vec<u8>,
    footer: Footer,
}

impl Segment {
    /// Parses and fully validates `bytes` as an NTT segment.
    pub fn parse(bytes: Vec<u8>) -> Result<Segment, NttError> {
        let (machine, footer) = validate(&bytes)?;
        Ok(Segment {
            machine,
            bytes,
            footer,
        })
    }

    /// Reads and validates a segment file.
    pub fn open(path: &Path) -> Result<Segment, NttError> {
        Segment::parse(std::fs::read(path)?)
    }

    /// The machine this segment belongs to.
    pub fn machine(&self) -> u32 {
        self.machine
    }

    /// A zero-copy reader over the validated bytes.
    pub fn reader(&self) -> SegmentReader<'_> {
        SegmentReader {
            data: &self.bytes,
            machine: self.machine,
            footer: self.footer.clone(),
        }
    }

    /// Visits every record batch in stored order — the canonical stamp
    /// order the live sink processed — calling `visit(batch_seq,
    /// records)` with consecutive stamps from 0. Batches are decoded at
    /// their stored boundaries.
    ///
    /// This and [`Segment::visit_names`] are the determinism contract
    /// every reader of a stored trace relies on: one segment always
    /// visits the same batches, boundaries and names in the same order,
    /// so any two consumers walk a machine through identical state
    /// transitions. A visitor, not an iterator, because a decoded batch
    /// is owned while the segment bytes stay borrowed.
    pub fn visit_batches(
        &self,
        mut visit: impl FnMut(u64, Vec<TraceRecord>),
    ) -> Result<(), NttError> {
        let mut first = 0u64;
        for (seq, batch) in self.reader().batches().enumerate() {
            let decoded = SegmentReader::decode_batch(batch, first)?;
            first += decoded.len() as u64;
            visit(seq as u64, decoded);
        }
        Ok(())
    }

    /// Visits every name record in stored order, calling
    /// `visit(name_seq, name)` with consecutive stamps from 0.
    pub fn visit_names(&self, mut visit: impl FnMut(u64, NameRecord)) -> Result<(), NttError> {
        for (seq, name) in self.reader().names().enumerate() {
            visit(seq as u64, name.to_name()?);
        }
        Ok(())
    }
}

/// Full validation: header, footer (incl. section table), checksum, and
/// the batch table summing to the record count.
fn validate(data: &[u8]) -> Result<(u32, Footer), NttError> {
    let machine = decode_header(data)?;
    let footer = Footer::decode(data)?;
    let computed = xxh64(&data[..data.len() - 16]);
    if computed != footer.checksum {
        return Err(NttError::ChecksumMismatch {
            stored: footer.checksum,
            computed,
        });
    }
    // The batch table must partition the record section exactly.
    let mut covered = 0u64;
    let batches = &data[footer.batches_off as usize
        ..footer.batches_off as usize + footer.batch_count as usize * BATCH_ENTRY_SIZE];
    for entry in batches.chunks_exact(BATCH_ENTRY_SIZE) {
        covered = covered
            .checked_add(u64::from(u32::from_le_bytes(
                entry.try_into().expect("4 bytes"),
            )))
            .ok_or(NttError::BadLayout("batch lengths overflow"))?;
    }
    if covered != footer.record_count {
        return Err(NttError::BadLayout(
            "batch lengths must sum to the record count",
        ));
    }
    if footer.kind_counts.iter().sum::<u64>() != footer.record_count {
        return Err(NttError::BadLayout(
            "kind counts must sum to the record count",
        ));
    }
    Ok((machine, footer))
}

impl<'a> SegmentReader<'a> {
    /// Parses and fully validates a borrowed segment — the mmap-shaped
    /// entry point: any `&[u8]`, including a mapped file, works.
    pub fn parse(data: &'a [u8]) -> Result<Self, NttError> {
        let (machine, footer) = validate(data)?;
        Ok(SegmentReader {
            data,
            machine,
            footer,
        })
    }

    /// The machine this segment belongs to.
    pub fn machine(&self) -> u32 {
        self.machine
    }

    /// The validated footer: counts, time span, per-kind counts.
    pub fn footer(&self) -> &Footer {
        &self.footer
    }

    /// Number of records.
    pub fn record_count(&self) -> u64 {
        self.footer.record_count
    }

    /// Borrowed record windows, in stream order.
    pub fn records(&self) -> impl Iterator<Item = RecordView<'a>> + '_ {
        let base = self.footer.records_off as usize;
        let data = self.data;
        (0..self.footer.record_count as usize).map(move |i| {
            RecordView::new(&data[base + i * RECORD_SIZE..base + (i + 1) * RECORD_SIZE])
        })
    }

    /// Batch lengths, in shipment order.
    pub fn batch_lens(&self) -> impl Iterator<Item = u32> + 'a {
        let base = self.footer.batches_off as usize;
        self.data[base..base + self.footer.batch_count as usize * BATCH_ENTRY_SIZE]
            .chunks_exact(BATCH_ENTRY_SIZE)
            .map(|e| u32::from_le_bytes(e.try_into().expect("4 bytes")))
    }

    /// The record stream re-cut at the original batch boundaries: each
    /// item is the batch's records as borrowed views.
    pub fn batches(&self) -> impl Iterator<Item = &'a [u8]> + '_ {
        let base = self.footer.records_off as usize;
        let data = self.data;
        let mut at = 0usize;
        self.batch_lens().map(move |len| {
            let start = base + at * RECORD_SIZE;
            at += len as usize;
            &data[start..base + at * RECORD_SIZE]
        })
    }

    /// Decodes batch `bytes` (as yielded by [`SegmentReader::batches`])
    /// into owned records; `first_index` is the batch's starting record
    /// index, used for error attribution.
    pub fn decode_batch(batch: &[u8], first_index: u64) -> Result<Vec<TraceRecord>, NttError> {
        let mut out = Vec::with_capacity(batch.len() / RECORD_SIZE);
        for (i, window) in batch.chunks_exact(RECORD_SIZE).enumerate() {
            out.push(
                RecordView::new(window)
                    .to_record()
                    .map_err(|_| NttError::BadRecord {
                        index: first_index + i as u64,
                    })?,
            );
        }
        Ok(out)
    }

    /// Borrowed name entries, in write order.
    pub fn names(&self) -> impl Iterator<Item = NameView<'a>> + '_ {
        let base = self.footer.names_off as usize;
        let strings = &self.data[self.footer.strings_off as usize..self.footer.names_off as usize];
        let data = self.data;
        (0..self.footer.name_count as usize).map(move |i| NameView {
            bytes: &data[base + i * NAME_ENTRY_SIZE..base + (i + 1) * NAME_ENTRY_SIZE],
            strings,
            index: i as u64,
        })
    }
}

/// A borrowed 88-byte record window with field accessors. No allocation,
/// no validation until [`RecordView::to_record`] decodes the enums.
#[derive(Clone, Copy)]
pub struct RecordView<'a> {
    bytes: &'a [u8],
}

impl<'a> RecordView<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        debug_assert_eq!(bytes.len(), RECORD_SIZE);
        RecordView { bytes }
    }

    #[inline]
    fn u64_at(&self, off: usize) -> u64 {
        u64::from_le_bytes(self.bytes[off..off + 8].try_into().expect("8 bytes"))
    }

    /// Event-kind code (0–53).
    #[inline]
    pub fn code(&self) -> u8 {
        self.bytes[0]
    }

    /// The event kind, when the code is valid.
    pub fn kind(&self) -> Option<EventKind> {
        EventKind::from_code(self.code())
    }

    /// Header flags byte.
    #[inline]
    pub fn flags(&self) -> u8 {
        self.bytes[1]
    }

    /// File-object id.
    #[inline]
    pub fn file_object(&self) -> u64 {
        self.u64_at(8)
    }

    /// Requesting process.
    #[inline]
    pub fn process(&self) -> u32 {
        u32::from_le_bytes(self.bytes[24..28].try_into().expect("4 bytes"))
    }

    /// Request offset.
    #[inline]
    pub fn offset(&self) -> u64 {
        self.u64_at(32)
    }

    /// Requested length.
    #[inline]
    pub fn length(&self) -> u64 {
        self.u64_at(40)
    }

    /// Bytes transferred.
    #[inline]
    pub fn transferred(&self) -> u64 {
        self.u64_at(48)
    }

    /// Arrival timestamp, 100 ns ticks.
    #[inline]
    pub fn start_ticks(&self) -> u64 {
        self.u64_at(72)
    }

    /// Completion timestamp, 100 ns ticks.
    #[inline]
    pub fn end_ticks(&self) -> u64 {
        self.u64_at(80)
    }

    /// The raw 88 bytes.
    pub fn raw(&self) -> &'a [u8] {
        self.bytes
    }

    /// Decodes into an owned [`TraceRecord`], validating every enum
    /// field.
    pub fn to_record(&self) -> Result<TraceRecord, NttError> {
        TraceRecord::decode(&mut { self.bytes }).ok_or(NttError::BadRecord { index: 0 })
    }
}

/// A borrowed name-table entry; the path is a `&str` into the segment's
/// string table.
#[derive(Clone, Copy)]
pub struct NameView<'a> {
    bytes: &'a [u8],
    strings: &'a [u8],
    index: u64,
}

impl<'a> NameView<'a> {
    /// File-object id.
    pub fn file_object(&self) -> u64 {
        u64::from_le_bytes(self.bytes[0..8].try_into().expect("8 bytes"))
    }

    /// Creation tick.
    pub fn at_ticks(&self) -> u64 {
        u64::from_le_bytes(self.bytes[8..16].try_into().expect("8 bytes"))
    }

    /// Volume index.
    pub fn volume(&self) -> u32 {
        u32::from_le_bytes(self.bytes[16..20].try_into().expect("4 bytes"))
    }

    /// Opening process.
    pub fn process(&self) -> u32 {
        u32::from_le_bytes(self.bytes[20..24].try_into().expect("4 bytes"))
    }

    /// The interned path, borrowed from the string table.
    pub fn path(&self) -> Result<&'a str, NttError> {
        let off = u32::from_le_bytes(self.bytes[24..28].try_into().expect("4 bytes")) as usize;
        let len = u32::from_le_bytes(self.bytes[28..32].try_into().expect("4 bytes")) as usize;
        let end = off.checked_add(len).filter(|&e| e <= self.strings.len());
        let span = end.map(|e| &self.strings[off..e]);
        span.and_then(|s| std::str::from_utf8(s).ok())
            .ok_or(NttError::BadString { index: self.index })
    }

    /// Decodes into an owned [`NameRecord`].
    pub fn to_name(&self) -> Result<NameRecord, NttError> {
        Ok(NameRecord {
            file_object: self.file_object(),
            volume: self.volume(),
            process: self.process(),
            path: self.path()?.to_string(),
            at_ticks: self.at_ticks(),
        })
    }
}

/// The `*.ntt` segment files in `dir`, in file-name order — the order
/// in which the study's warehouse reader reports the first bad member.
pub fn segment_paths(dir: &Path) -> Result<Vec<PathBuf>, NttError> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "ntt"))
        .collect();
    paths.sort();
    Ok(paths)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::SegmentWriter;
    use nt_io::NtStatus;

    fn rec(code: u8, fo: u64, start: u64) -> TraceRecord {
        TraceRecord {
            code,
            flags: 0,
            status: NtStatus::Success,
            set_info: None,
            access: None,
            disposition: None,
            options: None,
            file_object: fo,
            fcb: u64::MAX,
            process: 7,
            volume: 0,
            offset: 0,
            length: 4096,
            transferred: 4096,
            file_size: 1 << 16,
            byte_offset: 0,
            start_ticks: start,
            end_ticks: start + 250,
        }
    }

    #[test]
    fn write_read_roundtrip_preserves_everything() {
        let mut w = SegmentWriter::new(3);
        let batches = vec![
            vec![rec(0, 1, 100), rec(3, 1, 200)],
            vec![],
            vec![rec(18, 1, 300), rec(2, 1, 400), rec(31, 2, 500)],
        ];
        for b in &batches {
            w.push_batch(b).unwrap();
        }
        w.push_name(&NameRecord {
            file_object: 1,
            volume: 0,
            process: 7,
            path: r"\winnt\notepad.exe".into(),
            at_ticks: 100,
        })
        .unwrap();
        w.push_name(&NameRecord {
            file_object: 2,
            volume: 0,
            process: 7,
            path: r"\winnt\notepad.exe".into(),
            at_ticks: 500,
        })
        .unwrap();
        let seg = Segment::parse(w.finish()).expect("valid segment");
        assert_eq!(seg.machine(), 3);
        let r = seg.reader();
        assert_eq!(r.record_count(), 5);
        assert_eq!(r.footer().batch_count, 3);
        assert_eq!(r.footer().min_ticks, 100);
        assert_eq!(r.footer().max_ticks, 750);
        assert_eq!(r.footer().kind_counts[0], 1);
        assert_eq!(r.footer().kind_counts[31], 1);
        let flat: Vec<TraceRecord> = batches.iter().flatten().copied().collect();
        let back: Vec<TraceRecord> = r.records().map(|v| v.to_record().unwrap()).collect();
        assert_eq!(back, flat);
        assert_eq!(
            r.batch_lens().collect::<Vec<_>>(),
            vec![2, 0, 3],
            "batch boundaries survive"
        );
        // The two names share one interned path.
        let names: Vec<NameRecord> = r.names().map(|n| n.to_name().unwrap()).collect();
        assert_eq!(names.len(), 2);
        assert_eq!(names[0].path, names[1].path);
        assert_eq!(r.footer().strings_len, r"\winnt\notepad.exe".len() as u64);
    }

    #[test]
    fn visitors_preserve_batch_boundaries_and_order() {
        let dir = std::env::temp_dir().join(format!("ntt-visit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut w = SegmentWriter::new(9);
        w.push_batch(&[rec(0, 1, 10), rec(0, 2, 20)]).unwrap();
        w.push_batch(&[rec(0, 3, 30)]).unwrap();
        w.push_name(&NameRecord {
            file_object: 1,
            volume: 0,
            process: 7,
            path: r"\a\b.txt".to_string(),
            at_ticks: 1,
        })
        .unwrap();
        std::fs::write(dir.join("m00009.ntt"), w.finish()).unwrap();
        std::fs::write(dir.join("notes.txt"), b"not a segment").unwrap();

        let paths = segment_paths(&dir).unwrap();
        assert_eq!(
            paths,
            vec![dir.join("m00009.ntt")],
            "only `*.ntt` is listed"
        );
        let segment = Segment::open(&paths[0]).unwrap();
        assert_eq!(segment.machine(), 9);

        let mut batches = Vec::new();
        segment
            .visit_batches(|seq, recs| {
                batches.push((seq, recs.iter().map(|r| r.file_object).collect::<Vec<_>>()));
            })
            .unwrap();
        assert_eq!(batches, vec![(0, vec![1, 2]), (1, vec![3])]);

        let mut names = Vec::new();
        segment
            .visit_names(|seq, n| names.push((seq, n.path)))
            .unwrap();
        assert_eq!(names, vec![(0, r"\a\b.txt".to_string())]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_segment_is_valid() {
        let seg = Segment::parse(SegmentWriter::new(9).finish()).expect("empty is fine");
        let r = seg.reader();
        assert_eq!(r.record_count(), 0);
        assert_eq!(r.footer().min_ticks, 0);
        assert_eq!(r.names().count(), 0);
    }

    #[test]
    fn any_single_byte_corruption_is_rejected() {
        let mut w = SegmentWriter::new(1);
        w.push_batch(&[rec(0, 1, 10), rec(3, 1, 20)]).unwrap();
        w.push_name(&NameRecord {
            file_object: 1,
            volume: 0,
            process: 1,
            path: r"\x.dat".into(),
            at_ticks: 10,
        })
        .unwrap();
        let good = w.finish();
        assert!(Segment::parse(good.clone()).is_ok());
        for at in 0..good.len() {
            let mut bad = good.clone();
            bad[at] ^= 0x40;
            assert!(
                Segment::parse(bad).is_err(),
                "corruption at byte {at} went undetected"
            );
        }
        // Truncation at every length is an error, never a panic.
        for len in 0..good.len() {
            assert!(Segment::parse(good[..len].to_vec()).is_err());
        }
    }
}
