//! The NTT binary trace warehouse.
//!
//! The study post-processed its traces into a 19 GB warehouse of roughly
//! 190 million records; everything this repository analyzed before this
//! crate existed was self-generated and lived only for the length of one
//! process. NTT (*NT Trace*) is the interchange layer: a versioned,
//! little-endian, mmap-friendly binary segment format that captures one
//! machine's full shipment stream — fixed-width trace records, the batch
//! boundaries the agent shipped them in, and the name dimension with its
//! paths interned into a string table — so a study can be exported while
//! it runs, re-ingested later through the exact same streaming
//! accumulators, or replaced wholesale by traces captured somewhere else.
//!
//! The design constraints, in order:
//!
//! 1. **Zero-copy reads.** A segment is parsed by validating a fixed-size
//!    footer; after that every record access is a borrowed 88-byte slice
//!    ([`RecordView`]) and every path a borrowed `&str` into the string
//!    table. Nothing is allocated per record, so a reader can scan a
//!    paper-scale warehouse at memory-bandwidth speed (and the layout
//!    works equally well over `mmap`, which is just another `&[u8]`).
//! 2. **Self-verifying.** The footer carries record/name counts, the
//!    sim-time span, per-kind counts for all 54 event kinds, and an
//!    XXH64 checksum over the entire body. Truncation, bit rot and
//!    version skew surface as typed [`NttError`]s, never panics.
//! 3. **Replay fidelity.** Batch boundaries are preserved (a section of
//!    batch lengths), so re-ingesting a segment drives the streaming
//!    sinks through the same per-batch state transitions as the live
//!    run — bit-identical fact tables *and* watermarks like
//!    `peak_open_sessions`.
//!
//! Modules:
//!
//! * [`mod@format`] — the byte-level layout: header, sections, footer,
//!   checksum. The normative spec lives in `DESIGN.md` §10.
//! * [`writer`] — [`SegmentWriter`]: one machine's stream → one
//!   segment. A live study gives each machine task its own writer,
//!   pushes every shipped batch into it beside the machine's analysis
//!   sinks, and writes the segments in machine order once every task has
//!   finished.
//! * [`reader`] — [`SegmentReader`], the [`Segment`] batch and name
//!   visitors, the `*.ntt` directory listing ([`segment_paths`]) and the
//!   [`Warehouse`] directory wrapper. The visitors are how both readers
//!   of a stored trace — analysis re-ingest and what-if replay — walk a
//!   segment, in one canonical order.
//! * [`import`] — foreign-format importers; today an strace-style text
//!   importer with a loss ledger for malformed input.

pub mod format;
pub mod import;
pub mod reader;
pub mod writer;

pub use format::{Footer, FOOTER_SIZE, HEADER_SIZE, NTT_VERSION};
pub use import::{import_strace, ImportLedger, StraceImport};
pub use reader::{segment_paths, NameView, RecordView, Segment, SegmentReader, Warehouse};
pub use writer::{SegmentStats, SegmentWriter};

use std::fmt;

/// Why a segment (or warehouse) could not be read or written. Malformed
/// input is a value, not a panic: every constructor in this crate
/// returns one of these instead of trusting its bytes.
#[derive(Debug)]
pub enum NttError {
    /// An underlying file operation failed.
    Io(std::io::Error),
    /// The buffer is too short to even hold a header and footer, or a
    /// section runs past the end of the file.
    Truncated {
        /// Bytes the structure needed.
        need: usize,
        /// Bytes actually present.
        have: usize,
    },
    /// The leading magic is not `NTTW`.
    BadMagic,
    /// The trailing footer magic is not `NTTWEND1`.
    BadFooterMagic,
    /// The segment was written by a format version this reader does not
    /// speak.
    UnsupportedVersion(u16),
    /// The stored XXH64 checksum does not match the body.
    ChecksumMismatch {
        /// Checksum recorded in the footer.
        stored: u64,
        /// Checksum recomputed over the body.
        computed: u64,
    },
    /// The footer's section table is internally inconsistent (overlap,
    /// bad ordering, count/size mismatch). The message names the rule.
    BadLayout(&'static str),
    /// A record slot failed field validation when decoded.
    BadRecord {
        /// Zero-based record index within the segment.
        index: u64,
    },
    /// A name entry pointed outside the string table or at non-UTF-8
    /// bytes.
    BadString {
        /// Zero-based name index within the segment.
        index: u64,
    },
    /// A value exceeds the format's fixed-width field for it — a batch
    /// of more than `u32::MAX` records, or a string table past 4 GiB.
    /// Writing it with a narrowing `as` cast would silently corrupt the
    /// segment; the writer refuses instead.
    TooLarge {
        /// The field that overflowed.
        what: &'static str,
        /// The field's maximum encodable value.
        max: u64,
        /// The value that did not fit.
        got: u64,
    },
    /// Two valid segments in one warehouse directory belong to the same
    /// machine. Reading both would count that machine twice, so the
    /// directory is refused.
    DuplicateMachine(u32),
}

impl fmt::Display for NttError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NttError::Io(e) => write!(f, "warehouse I/O error: {e}"),
            NttError::Truncated { need, have } => {
                write!(f, "truncated segment: need {need} bytes, have {have}")
            }
            NttError::BadMagic => write!(f, "not an NTT segment (bad magic)"),
            NttError::BadFooterMagic => write!(f, "corrupt NTT segment (bad footer magic)"),
            NttError::UnsupportedVersion(v) => write!(f, "unsupported NTT version {v}"),
            NttError::ChecksumMismatch { stored, computed } => write!(
                f,
                "NTT checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            NttError::BadLayout(rule) => write!(f, "inconsistent NTT section table: {rule}"),
            NttError::BadRecord { index } => write!(f, "malformed record at index {index}"),
            NttError::BadString { index } => write!(f, "malformed name string at index {index}"),
            NttError::TooLarge { what, max, got } => {
                write!(f, "{what} {got} exceeds the format limit of {max}")
            }
            NttError::DuplicateMachine(machine) => {
                write!(f, "two warehouse segments hold machine {machine}")
            }
        }
    }
}

impl std::error::Error for NttError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NttError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for NttError {
    fn from(e: std::io::Error) -> Self {
        NttError::Io(e)
    }
}
