//! The Windows NT cache manager model.
//!
//! §9 of the paper: the cache manager never directly asks a file system to
//! read or write; it maps files into virtual memory and lets page faults
//! pull data in, while read-ahead and lazy-write policies decide *when*.
//! This crate models those policies as a pure state machine: every entry
//! point returns the paging actions the real cache manager would have
//! triggered, and the caller (the driver stack in `nt-io`) turns them into
//! paging-I/O requests. Keeping the crate free of I/O-stack types makes the
//! policies independently testable — including the specific behaviours the
//! paper measures:
//!
//! * read-ahead granularity of 4096 bytes, boosted to 64 KB by FAT/NTFS;
//! * doubling of read-ahead when the file was opened sequential-only;
//! * prediction of sequential access on the 3rd sequential request, with a
//!   fuzzy comparison that masks the low 7 bits of offsets;
//! * lazy-writer scans once per second, writing an eighth of each file's
//!   dirty pages in bursts of up to eight requests of up to 64 KB;
//! * the temporary-file attribute keeping dirty pages off the disk queue;
//! * the SetEndOfFile issued before close of a written file (§8.3);
//! * the two-stage cleanup/close dance (§8.1): read-cached files close
//!   4–10 µs after cleanup, write-cached ones only after dirty data drains.
//!
//! [`CacheConfig`] holds what an ablation or a what-if variant varies; the
//! other figures are constants in [`manager`].

pub mod manager;
pub mod metrics;
pub mod range_set;
pub mod read_ahead;

pub use manager::{
    CacheConfig, CacheManager, CacheOpenHints, CleanupOutcome, PagingAction, PagingIo, ReadOutcome,
    WriteOutcome, CLEAN_CLOSE_DELAY, PAGE_SIZE,
};
pub use metrics::CacheMetrics;
pub use range_set::RangeSet;
pub use read_ahead::{ReadAheadDecision, ReadAheadState};
