//! The read-ahead policy (§9.1 of the paper).
//!
//! The cache manager predicts sequential access and loads data before the
//! application asks for it. The measured behaviours modelled here:
//!
//! * the standard granularity is 4096 bytes, and the file system may boost
//!   it per file (FAT and NTFS often boost to 64 KB);
//! * when the file was opened with the sequential-only hint the cache
//!   manager doubles the read-ahead size;
//! * without the hint, read-ahead triggers on the **3rd** of a run of
//!   sequential requests;
//! * sequentiality is *fuzzy*: offsets are compared with the low 7 bits
//!   masked, tolerating small gaps (§9.1 measured this widens the
//!   sequential classification by about 1.5 %).

/// Mask applied to offsets before comparing for sequentiality.
pub(crate) const FUZZY_MASK: u64 = !0x7F;

/// What the policy wants prefetched after a read.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum ReadAheadDecision {
    /// No prefetch.
    None,
    /// Prefetch `[start, start + len)`.
    Prefetch {
        /// Start offset (page aligned by the manager).
        start: u64,
        /// Prefetch length in bytes (already doubled for sequential-only).
        len: u64,
    },
}

/// Per-file read-ahead state.
#[derive(Clone, Debug)]
pub(crate) struct ReadAheadState {
    granularity: u64,
    sequential_only: bool,
    last_end: Option<u64>,
    run_length: u32,
    /// Highest offset the policy has decided to prefetch up to.
    prefetched_to: u64,
}

impl ReadAheadState {
    /// Creates the state for a newly cached file.
    pub fn new(granularity: u64, sequential_only: bool) -> Self {
        ReadAheadState {
            granularity: granularity.max(1),
            sequential_only,
            last_end: None,
            run_length: 0,
            prefetched_to: 0,
        }
    }

    /// Effective read-ahead unit: doubled under the sequential-only hint.
    pub fn unit(&self) -> u64 {
        if self.sequential_only {
            self.granularity * 2
        } else {
            self.granularity
        }
    }

    /// The per-file granularity (after any file-system boost).
    #[cfg(test)]
    pub(crate) fn granularity(&self) -> u64 {
        self.granularity
    }

    /// Length of the current sequential run, in requests.
    #[cfg(test)]
    fn run_length(&self) -> u32 {
        self.run_length
    }

    /// True when `offset` continues the previous request sequentially,
    /// under the fuzzy 7-bit mask.
    ///
    /// The fuzzy comparison tolerates only small *forward* gaps: a read
    /// must resume at or after the previous request's end, within the
    /// same 128-byte block. Re-reads and backwards seeks inside the block
    /// are not sequential — treating them as such inflates run lengths
    /// and over-triggers prefetch on looping readers.
    pub(crate) fn is_sequential_next(&self, offset: u64) -> bool {
        match self.last_end {
            Some(end) => {
                offset == end || (offset > end && (offset & FUZZY_MASK) == (end & FUZZY_MASK))
            }
            None => false,
        }
    }

    /// Feeds a read of `[offset, offset + len)` through the policy.
    ///
    /// `file_size` clamps prefetch decisions; a zero-length file never
    /// prefetches.
    pub(crate) fn on_read(&mut self, offset: u64, len: u64, file_size: u64) -> ReadAheadDecision {
        let first = self.last_end.is_none();
        if first {
            self.run_length = 1;
        } else if self.is_sequential_next(offset) {
            self.run_length += 1;
        } else {
            self.run_length = 1;
        }
        let end = offset + len;
        self.last_end = Some(end);

        if first {
            // Caching initiation: one prefetch of the read-ahead unit,
            // starting at the read offset. §9.1: 92 % of read sessions
            // never needed another.
            let want = end.max(offset + self.unit()).min(file_size);
            if want > self.prefetched_to.max(offset) {
                self.prefetched_to = want;
                return ReadAheadDecision::Prefetch {
                    start: offset,
                    len: want - offset,
                };
            }
            return ReadAheadDecision::None;
        }

        // Sequential-only files keep streaming ahead of the reader; others
        // wait for the 3rd sequential request.
        let trigger = if self.sequential_only {
            self.run_length >= 2
        } else {
            self.run_length >= 3
        };
        if !trigger {
            return ReadAheadDecision::None;
        }
        // Only fetch beyond what a previous decision already covers, and
        // only when the reader is getting close to the prefetch horizon.
        if end + self.unit() / 2 < self.prefetched_to {
            return ReadAheadDecision::None;
        }
        let start = self.prefetched_to.max(end);
        let want = (start + self.unit()).min(file_size);
        if want <= start {
            return ReadAheadDecision::None;
        }
        self.prefetched_to = want;
        ReadAheadDecision::Prefetch {
            start,
            len: want - start,
        }
    }

    /// Notes that the file grew (writes extend the prefetch clamp).
    pub(crate) fn note_size(&mut self, file_size: u64) {
        self.prefetched_to = self.prefetched_to.min(file_size);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const G: u64 = 4096;

    #[test]
    fn first_read_prefetches_one_unit() {
        let mut ra = ReadAheadState::new(G, false);
        let d = ra.on_read(0, 512, 1 << 20);
        assert_eq!(d, ReadAheadDecision::Prefetch { start: 0, len: G });
    }

    #[test]
    fn first_read_prefetch_clamped_to_file_size() {
        let mut ra = ReadAheadState::new(G, false);
        let d = ra.on_read(0, 100, 1000);
        assert_eq!(
            d,
            ReadAheadDecision::Prefetch {
                start: 0,
                len: 1000
            }
        );
    }

    #[test]
    fn third_sequential_read_triggers_more() {
        let mut ra = ReadAheadState::new(G, false);
        let big = 1 << 20;
        ra.on_read(0, 512, big);
        assert_eq!(ra.on_read(512, 512, big), ReadAheadDecision::None);
        // 3rd sequential request, reader approaching the 4K horizon.
        let d = ra.on_read(1024, 2560, big);
        assert_eq!(d, ReadAheadDecision::Prefetch { start: G, len: G });
        assert_eq!(ra.run_length(), 3);
    }

    #[test]
    fn random_reads_reset_the_run() {
        let mut ra = ReadAheadState::new(G, false);
        let big = 1 << 20;
        ra.on_read(0, 512, big);
        ra.on_read(512, 512, big);
        assert_eq!(ra.on_read(100_000, 512, big), ReadAheadDecision::None);
        assert_eq!(ra.run_length(), 1);
    }

    #[test]
    fn fuzzy_mask_tolerates_small_gaps() {
        let mut ra = ReadAheadState::new(G, false);
        let big = 1 << 20;
        ra.on_read(0, 500, big);
        // Next read at 510: gap of 10 bytes, same 128-byte block as 500.
        assert!(ra.is_sequential_next(510));
        ra.on_read(510, 500, big);
        assert_eq!(ra.run_length(), 2);
        // A gap that crosses into another 128-byte block is not sequential.
        assert!(!ra.is_sequential_next(2000));
    }

    #[test]
    fn fuzzy_mask_is_forward_only() {
        // Regression: the pre-fix comparison `(offset & MASK) == (end &
        // MASK)` classified *any* offset in the previous end's 128-byte
        // block as sequential, including duplicates and backwards seeks.
        let mut ra = ReadAheadState::new(G, false);
        ra.on_read(0, 100, 1 << 20); // last_end = 100, block 0
        assert!(!ra.is_sequential_next(0), "duplicate re-read from 0");
        assert!(!ra.is_sequential_next(50), "backwards seek in the block");
        assert!(!ra.is_sequential_next(99), "one byte short of the end");
        assert!(ra.is_sequential_next(100), "exact continuation");
        assert!(ra.is_sequential_next(110), "small forward gap, same block");
        assert!(!ra.is_sequential_next(200), "gap into the next block");
    }

    #[test]
    fn rereading_the_same_range_resets_the_run() {
        // Regression: a reader looping over the same bytes must never
        // build up a sequential run (pre-fix, run_length grew without
        // bound because every re-read shared the previous end's block).
        let mut ra = ReadAheadState::new(G, false);
        let big = 1 << 20;
        ra.on_read(0, 64, big);
        for _ in 0..5 {
            assert_eq!(ra.on_read(0, 64, big), ReadAheadDecision::None);
            assert_eq!(ra.run_length(), 1, "re-reads are not sequential");
        }
    }

    #[test]
    fn small_forward_gap_extends_the_run() {
        let mut ra = ReadAheadState::new(G, false);
        let big = 1 << 20;
        ra.on_read(0, 120, big);
        // Resumes at 125: 5-byte forward gap inside block 0.
        ra.on_read(125, 100, big);
        assert_eq!(ra.run_length(), 2);
    }

    #[test]
    fn sequential_only_doubles_the_unit() {
        let ra = ReadAheadState::new(G, true);
        assert_eq!(ra.unit(), 2 * G);
        let ra2 = ReadAheadState::new(G, false);
        assert_eq!(ra2.unit(), G);
    }

    #[test]
    fn sequential_only_streams_from_second_read() {
        let mut ra = ReadAheadState::new(G, true);
        let big = 1 << 20;
        ra.on_read(0, 4096, big);
        let d = ra.on_read(4096, 4096, big);
        assert!(
            matches!(d, ReadAheadDecision::Prefetch { start, len } if start >= 2 * G && len == 2 * G),
            "got {d:?}"
        );
    }

    #[test]
    fn no_prefetch_at_eof() {
        let mut ra = ReadAheadState::new(G, false);
        ra.on_read(0, 100, 100);
        for i in 1..5 {
            assert_eq!(
                ra.on_read(i * 100, 100, 100),
                ReadAheadDecision::None,
                "reads at/past EOF never prefetch"
            );
        }
    }

    #[test]
    fn small_file_single_prefetch_suffices() {
        // The §9.1 claim: for files under the granularity, one prefetch
        // loads everything and later sequential reads need nothing.
        let mut ra = ReadAheadState::new(65_536, false);
        let size = 20_000;
        let d = ra.on_read(0, 512, size);
        assert_eq!(
            d,
            ReadAheadDecision::Prefetch {
                start: 0,
                len: size
            }
        );
        let mut off = 512;
        while off < size {
            assert_eq!(ra.on_read(off, 512, size), ReadAheadDecision::None);
            off += 512;
        }
    }
}
