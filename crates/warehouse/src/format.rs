//! The NTT v1 byte-level layout.
//!
//! One segment holds one machine's stream. Every integer is
//! little-endian and the sections are contiguous, in a fixed order, so
//! the whole file can be validated from the fixed-size footer alone and
//! then read zero-copy (the normative layout diagram is in `DESIGN.md`
//! §10):
//!
//! ```text
//! ┌──────────┬───────────────┬─────────────┬──────────┬────────────┬────────┐
//! │ header   │ records       │ batches     │ strings  │ names      │ footer │
//! │ 16 B     │ n × 88 B      │ b × 4 B     │ s B      │ m × 32 B   │ 528 B  │
//! └──────────┴───────────────┴─────────────┴──────────┴────────────┴────────┘
//! ```
//!
//! The checksum in the footer is XXH64 (seed 0) over every byte that
//! precedes the checksum field — header, all four sections, and the
//! footer's own section table — so any single corrupted byte in the
//! file is caught either by the checksum, by the leading magic, or by
//! the trailing footer magic.
//!
//! **Versioning rules.** `NTT_VERSION` only moves for layout changes a
//! v(n) reader cannot skip over. Additions that fit the reserved header
//! flags, new event kinds within the 54-slot count table, or new
//! trailing footer fields *before* the checksum all stay within the
//! version; readers must reject versions they do not know
//! ([`crate::NttError::UnsupportedVersion`]) rather than guess.

use crate::NttError;
use nt_trace::RECORD_SIZE;

/// Leading magic: `NTTW`.
pub(crate) const MAGIC: [u8; 4] = *b"NTTW";
/// Trailing footer magic: `NTTWEND1`.
pub(crate) const FOOTER_MAGIC: [u8; 8] = *b"NTTWEND1";
/// Current format version.
pub const NTT_VERSION: u16 = 1;
/// Size of the fixed header.
pub const HEADER_SIZE: usize = 16;
/// Size of the fixed footer.
pub(crate) const FOOTER_SIZE: usize = 8 * 10 + KIND_SLOTS * 8 + 8 + 8;
/// Size of one name-table entry.
pub(crate) const NAME_ENTRY_SIZE: usize = 32;
/// Size of one batch-table entry (a record count).
pub(crate) const BATCH_ENTRY_SIZE: usize = 4;
/// Per-kind count slots in the footer — the full 54-kind taxonomy.
pub(crate) const KIND_SLOTS: usize = 54;

/// The decoded footer: section table, time span, per-kind counts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Footer {
    /// Byte offset of the record section (always [`HEADER_SIZE`]).
    pub records_off: u64,
    /// Number of 88-byte records.
    pub record_count: u64,
    /// Byte offset of the batch-length table.
    pub batches_off: u64,
    /// Number of batch-table entries.
    pub batch_count: u64,
    /// Byte offset of the string table.
    pub strings_off: u64,
    /// Length of the string table in bytes.
    pub strings_len: u64,
    /// Byte offset of the name table.
    pub names_off: u64,
    /// Number of 32-byte name entries.
    pub name_count: u64,
    /// Smallest `start_ticks` across records (0 when empty).
    pub min_ticks: u64,
    /// Largest `end_ticks` across records (0 when empty).
    pub max_ticks: u64,
    /// Per-event-kind record counts, indexed by [`nt_io::EventKind::code`].
    pub kind_counts: [u64; KIND_SLOTS],
    /// XXH64 (seed 0) over every byte before the checksum field.
    pub checksum: u64,
}

impl Footer {
    /// Serializes the footer (including magic) into `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.records_off.to_le_bytes());
        out.extend_from_slice(&self.record_count.to_le_bytes());
        out.extend_from_slice(&self.batches_off.to_le_bytes());
        out.extend_from_slice(&self.batch_count.to_le_bytes());
        out.extend_from_slice(&self.strings_off.to_le_bytes());
        out.extend_from_slice(&self.strings_len.to_le_bytes());
        out.extend_from_slice(&self.names_off.to_le_bytes());
        out.extend_from_slice(&self.name_count.to_le_bytes());
        out.extend_from_slice(&self.min_ticks.to_le_bytes());
        out.extend_from_slice(&self.max_ticks.to_le_bytes());
        for c in &self.kind_counts {
            out.extend_from_slice(&c.to_le_bytes());
        }
        out.extend_from_slice(&self.checksum.to_le_bytes());
        out.extend_from_slice(&FOOTER_MAGIC);
    }

    /// Decodes a footer from the last `FOOTER_SIZE` bytes of `data`
    /// and cross-checks the section table against the file length.
    /// Does **not** verify the checksum — the caller does that once it
    /// knows how much body the footer claims.
    pub fn decode(data: &[u8]) -> Result<Footer, NttError> {
        if data.len() < HEADER_SIZE + FOOTER_SIZE {
            return Err(NttError::Truncated {
                need: HEADER_SIZE + FOOTER_SIZE,
                have: data.len(),
            });
        }
        let foot = &data[data.len() - FOOTER_SIZE..];
        if foot[FOOTER_SIZE - 8..] != FOOTER_MAGIC {
            return Err(NttError::BadFooterMagic);
        }
        let u64_at = |i: usize| -> u64 {
            u64::from_le_bytes(foot[i * 8..i * 8 + 8].try_into().expect("8 bytes"))
        };
        let mut kind_counts = [0u64; KIND_SLOTS];
        for (k, slot) in kind_counts.iter_mut().enumerate() {
            *slot = u64_at(10 + k);
        }
        let footer = Footer {
            records_off: u64_at(0),
            record_count: u64_at(1),
            batches_off: u64_at(2),
            batch_count: u64_at(3),
            strings_off: u64_at(4),
            strings_len: u64_at(5),
            names_off: u64_at(6),
            name_count: u64_at(7),
            min_ticks: u64_at(8),
            max_ticks: u64_at(9),
            kind_counts,
            checksum: u64_at(10 + KIND_SLOTS),
        };
        footer.check_layout(data.len() as u64)?;
        Ok(footer)
    }

    /// Validates that the section table describes exactly the bytes
    /// between header and footer, contiguously and in canonical order.
    fn check_layout(&self, file_len: u64) -> Result<(), NttError> {
        let sec = |count: u64, size: usize, rule: &'static str| -> Result<u64, NttError> {
            count
                .checked_mul(size as u64)
                .ok_or(NttError::BadLayout(rule))
        };
        let records_len = sec(self.record_count, RECORD_SIZE, "record section overflows")?;
        let batches_len = sec(self.batch_count, BATCH_ENTRY_SIZE, "batch table overflows")?;
        let names_len = sec(self.name_count, NAME_ENTRY_SIZE, "name table overflows")?;
        if self.records_off != HEADER_SIZE as u64 {
            return Err(NttError::BadLayout("records must follow the header"));
        }
        let after_records = self
            .records_off
            .checked_add(records_len)
            .ok_or(NttError::BadLayout("record section overflows"))?;
        if self.batches_off != after_records {
            return Err(NttError::BadLayout("batch table must follow the records"));
        }
        let after_batches = self
            .batches_off
            .checked_add(batches_len)
            .ok_or(NttError::BadLayout("batch table overflows"))?;
        if self.strings_off != after_batches {
            return Err(NttError::BadLayout(
                "string table must follow the batch table",
            ));
        }
        let after_strings = self
            .strings_off
            .checked_add(self.strings_len)
            .ok_or(NttError::BadLayout("string table overflows"))?;
        if self.names_off != after_strings {
            return Err(NttError::BadLayout(
                "name table must follow the string table",
            ));
        }
        let after_names = self
            .names_off
            .checked_add(names_len)
            .ok_or(NttError::BadLayout("name table overflows"))?;
        if after_names + FOOTER_SIZE as u64 != file_len {
            return Err(NttError::BadLayout(
                "sections must fill the file up to the footer",
            ));
        }
        if self.record_count > 0 && self.min_ticks > self.max_ticks {
            return Err(NttError::BadLayout("time span is inverted"));
        }
        Ok(())
    }
}

/// Encodes the 16-byte header for `machine`.
pub(crate) fn encode_header(out: &mut Vec<u8>, machine: u32) {
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&NTT_VERSION.to_le_bytes());
    out.extend_from_slice(&(HEADER_SIZE as u16).to_le_bytes());
    out.extend_from_slice(&machine.to_le_bytes());
    out.extend_from_slice(&0u32.to_le_bytes()); // reserved flags
}

/// Validates the header and returns the machine id.
pub fn decode_header(data: &[u8]) -> Result<u32, NttError> {
    if data.len() < HEADER_SIZE {
        return Err(NttError::Truncated {
            need: HEADER_SIZE,
            have: data.len(),
        });
    }
    if data[..4] != MAGIC {
        return Err(NttError::BadMagic);
    }
    let version = u16::from_le_bytes([data[4], data[5]]);
    if version != NTT_VERSION {
        return Err(NttError::UnsupportedVersion(version));
    }
    let header_len = u16::from_le_bytes([data[6], data[7]]);
    if header_len as usize != HEADER_SIZE {
        return Err(NttError::BadLayout("unexpected header length"));
    }
    Ok(u32::from_le_bytes([data[8], data[9], data[10], data[11]]))
}

// ---------------------------------------------------------------------
// XXH64 — the footer checksum. Implemented from the specification so
// the crate stays dependency-free; seed is fixed at 0.
// ---------------------------------------------------------------------

const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;
const P4: u64 = 0x85EB_CA77_C2B2_AE63;
const P5: u64 = 0x27D4_EB2F_1656_67C5;

#[inline]
fn round(acc: u64, input: u64) -> u64 {
    acc.wrapping_add(input.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

#[inline]
fn merge_round(acc: u64, val: u64) -> u64 {
    (acc ^ round(0, val)).wrapping_mul(P1).wrapping_add(P4)
}

#[inline]
fn read_u64(data: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(data[at..at + 8].try_into().expect("8 bytes"))
}

#[inline]
fn read_u32(data: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(data[at..at + 4].try_into().expect("4 bytes"))
}

/// XXH64 with seed 0 over `data`.
pub fn xxh64(data: &[u8]) -> u64 {
    let len = data.len();
    let mut at = 0;
    let mut h: u64;
    if len >= 32 {
        let mut v1 = P1.wrapping_add(P2);
        let mut v2 = P2;
        let mut v3 = 0u64;
        let mut v4 = 0u64.wrapping_sub(P1);
        while at + 32 <= len {
            v1 = round(v1, read_u64(data, at));
            v2 = round(v2, read_u64(data, at + 8));
            v3 = round(v3, read_u64(data, at + 16));
            v4 = round(v4, read_u64(data, at + 24));
            at += 32;
        }
        h = v1
            .rotate_left(1)
            .wrapping_add(v2.rotate_left(7))
            .wrapping_add(v3.rotate_left(12))
            .wrapping_add(v4.rotate_left(18));
        h = merge_round(h, v1);
        h = merge_round(h, v2);
        h = merge_round(h, v3);
        h = merge_round(h, v4);
    } else {
        h = P5;
    }
    h = h.wrapping_add(len as u64);
    while at + 8 <= len {
        h ^= round(0, read_u64(data, at));
        h = h.rotate_left(27).wrapping_mul(P1).wrapping_add(P4);
        at += 8;
    }
    if at + 4 <= len {
        h ^= u64::from(read_u32(data, at)).wrapping_mul(P1);
        h = h.rotate_left(23).wrapping_mul(P2).wrapping_add(P3);
        at += 4;
    }
    while at < len {
        h ^= u64::from(data[at]).wrapping_mul(P5);
        h = h.rotate_left(11).wrapping_mul(P1);
        at += 1;
    }
    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P3);
    h ^= h >> 32;
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xxh64_matches_reference_vectors() {
        // Published XXH64 seed-0 test vectors.
        assert_eq!(xxh64(b""), 0xef46_db37_51d8_e999);
        assert_eq!(xxh64(b"a"), 0xd24e_c4f1_a98c_6e5b);
        assert_eq!(xxh64(b"abc"), 0x44bc_2cf5_ad77_0999);
        assert_eq!(
            xxh64(b"Nobody inspects the spammish repetition"),
            0xfbce_a83c_8a37_8bf1
        );
    }

    #[test]
    fn xxh64_covers_every_tail_length() {
        // Exercise the 32-byte stripes plus all tail paths (8/4/1).
        let data: Vec<u8> = (0u16..200).map(|i| (i % 251) as u8).collect();
        let mut seen = std::collections::HashSet::new();
        for n in 0..data.len() {
            assert!(seen.insert(xxh64(&data[..n])), "collision at length {n}");
        }
    }

    #[test]
    fn header_roundtrip_and_rejection() {
        let mut buf = Vec::new();
        encode_header(&mut buf, 42);
        assert_eq!(buf.len(), HEADER_SIZE);
        assert_eq!(decode_header(&buf).unwrap(), 42);
        let mut bad = buf.clone();
        bad[0] = b'X';
        assert!(matches!(decode_header(&bad), Err(NttError::BadMagic)));
        let mut newer = buf.clone();
        newer[4] = 9;
        assert!(matches!(
            decode_header(&newer),
            Err(NttError::UnsupportedVersion(9))
        ));
        assert!(matches!(
            decode_header(&buf[..8]),
            Err(NttError::Truncated { .. })
        ));
    }
}
