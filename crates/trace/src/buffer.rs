//! The trace driver's triple-buffered record store (§3.2).
//!
//! "The trace driver uses a triple-buffering scheme for the record
//! storage, with each storage buffer able to hold up to 3,000 records. An
//! idle system fills this size storage buffer in an hour; under heavy
//! load, buffers fill in as little as 3-5 seconds." A buffer that fills
//! while no free buffer is available is an overflow, which the agent must
//! detect (it never happened in the study's runs — the property tests
//! check the detector anyway).

use crate::record::TraceRecord;

/// Records per storage buffer (§3.2: 3,000).
pub const BUFFER_CAPACITY: usize = 3_000;

/// One storage buffer.
#[derive(Debug, Default)]
struct Storage {
    records: Vec<TraceRecord>,
}

/// The triple-buffering scheme: one buffer fills, one may be in flight to
/// the collection server, one stands by.
#[derive(Debug)]
pub struct TripleBuffer {
    buffers: [Storage; 3],
    /// Records each storage buffer holds (§3.2's 3,000 by default; fault
    /// plans squeeze it to model under-provisioned agents).
    capacity: usize,
    /// Index of the buffer currently being filled.
    filling: usize,
    /// Buffers queued for shipping (filled, awaiting flush).
    queued: Vec<usize>,
    /// Set when a record had to be dropped because every buffer was full.
    overflowed: bool,
    /// Total records accepted.
    recorded: u64,
    /// Total records dropped to overflow.
    dropped: u64,
    /// Recycled record storage: delivered batches come back here via
    /// [`TripleBuffer::recycle`], so steady-state shipping reuses the
    /// same three allocations instead of growing a fresh `Vec` per fill.
    spare: Vec<Vec<TraceRecord>>,
}

impl Default for TripleBuffer {
    fn default() -> Self {
        Self::new()
    }
}

impl TripleBuffer {
    /// An empty triple buffer at the paper's capacity.
    pub fn new() -> Self {
        Self::with_capacity(BUFFER_CAPACITY)
    }

    /// An empty triple buffer with a custom per-buffer capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        TripleBuffer {
            buffers: [Storage::default(), Storage::default(), Storage::default()],
            capacity: capacity.max(1),
            filling: 0,
            queued: Vec::new(),
            overflowed: false,
            recorded: 0,
            dropped: 0,
            spare: Vec::new(),
        }
    }

    /// Records each storage buffer can hold.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Appends a record. Returns `true` when the active buffer just filled
    /// (the caller should attempt a flush).
    pub fn push(&mut self, record: TraceRecord) -> bool {
        let buf = &mut self.buffers[self.filling];
        if buf.records.len() >= self.capacity {
            // The active buffer is full and could not rotate earlier:
            // overflow (§3.2's detected-error case).
            self.overflowed = true;
            self.dropped += 1;
            return true;
        }
        buf.records.push(record);
        self.recorded += 1;
        if self.buffers[self.filling].records.len() >= self.capacity {
            self.rotate();
            true
        } else {
            false
        }
    }

    fn rotate(&mut self) {
        self.queued.push(self.filling);
        // Find a free buffer to fill next.
        if let Some(free) = (0..3).find(|i| !self.queued.contains(i) && *i != self.filling) {
            self.filling = free;
        }
        // When no buffer is free, `filling` stays on the full one and the
        // next push overflows.
    }

    /// Takes every queued (full) buffer's records, oldest first. Each
    /// taken buffer is re-armed with recycled storage when any is
    /// available, so the fill path keeps its warmed-up capacity.
    pub fn take_queued(&mut self) -> Vec<Vec<TraceRecord>> {
        let mut out = Vec::new();
        for idx in std::mem::take(&mut self.queued) {
            let replacement = self.spare.pop().unwrap_or_default();
            out.push(std::mem::replace(
                &mut self.buffers[idx].records,
                replacement,
            ));
        }
        out
    }

    /// Returns a delivered batch's storage for reuse. The pool keeps at
    /// most three spares — one per storage buffer.
    pub fn recycle(&mut self, mut batch: Vec<TraceRecord>) {
        if self.spare.len() < 3 {
            batch.clear();
            self.spare.push(batch);
        }
    }

    /// Takes everything, including the partially-filled active buffer
    /// (used at period end / shutdown).
    pub fn drain_all(&mut self) -> Vec<TraceRecord> {
        let mut out: Vec<TraceRecord> = Vec::new();
        for batch in self.take_queued() {
            out.extend(batch);
        }
        out.append(&mut self.buffers[self.filling].records);
        out
    }

    /// True when a record has ever been dropped.
    pub fn overflowed(&self) -> bool {
        self.overflowed
    }

    /// Records accepted so far.
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Records dropped to overflow.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Records currently sitting in buffers.
    pub fn pending(&self) -> usize {
        self.buffers.iter().map(|b| b.records.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nt_io::{EventKind, MajorFunction, NtStatus};

    fn rec(i: u64) -> TraceRecord {
        TraceRecord {
            code: EventKind::Irp(MajorFunction::Read).code(),
            flags: 0,
            status: NtStatus::Success,
            set_info: None,
            access: None,
            disposition: None,
            options: None,
            file_object: i,
            fcb: 0,
            process: 0,
            volume: 0,
            offset: 0,
            length: 0,
            transferred: 0,
            file_size: 0,
            byte_offset: 0,
            start_ticks: i,
            end_ticks: i + 1,
        }
    }

    #[test]
    fn fills_and_rotates() {
        let mut tb = TripleBuffer::new();
        for i in 0..BUFFER_CAPACITY as u64 - 1 {
            assert!(!tb.push(rec(i)));
        }
        assert!(tb.push(rec(9_999)), "capacity reached signals flush");
        assert_eq!(tb.pending(), BUFFER_CAPACITY);
        let batches = tb.take_queued();
        assert_eq!(batches.len(), 1);
        assert_eq!(batches[0].len(), BUFFER_CAPACITY);
        assert_eq!(tb.pending(), 0);
        assert!(!tb.overflowed());
    }

    #[test]
    fn overflow_detected_when_all_buffers_full() {
        let mut tb = TripleBuffer::new();
        // Fill all three buffers without ever flushing.
        for i in 0..(3 * BUFFER_CAPACITY) as u64 {
            tb.push(rec(i));
        }
        assert!(!tb.overflowed(), "three buffers hold three loads");
        tb.push(rec(u64::MAX - 1));
        assert!(tb.overflowed(), "fourth load has nowhere to go");
        assert_eq!(tb.dropped(), 1);
        assert_eq!(tb.recorded(), 3 * BUFFER_CAPACITY as u64);
    }

    #[test]
    fn drain_all_returns_everything_in_order() {
        let mut tb = TripleBuffer::new();
        let n = BUFFER_CAPACITY as u64 + 100;
        for i in 0..n {
            tb.push(rec(i));
        }
        let all = tb.drain_all();
        assert_eq!(all.len(), n as usize);
        assert!(all.windows(2).all(|w| w[0].file_object < w[1].file_object));
        assert_eq!(tb.pending(), 0);
    }

    #[test]
    fn squeezed_capacity_fills_sooner() {
        let mut tb = TripleBuffer::with_capacity(10);
        assert_eq!(tb.capacity(), 10);
        for i in 0..9u64 {
            assert!(!tb.push(rec(i)));
        }
        assert!(tb.push(rec(9)), "tenth record fills the squeezed buffer");
        // Three squeezed buffers hold 30 records; the 31st overflows.
        for i in 10..30u64 {
            tb.push(rec(i));
        }
        assert!(!tb.overflowed());
        tb.push(rec(30));
        assert!(tb.overflowed());
        assert_eq!(tb.dropped(), 1);
        assert_eq!(tb.recorded(), 30);
    }

    #[test]
    fn recycled_storage_rearms_taken_buffers() {
        let mut tb = TripleBuffer::with_capacity(100);
        for i in 0..100u64 {
            tb.push(rec(i));
        }
        let mut batches = tb.take_queued();
        assert_eq!(batches.len(), 1);
        let cap = batches[0].capacity();
        tb.recycle(batches.pop().unwrap());
        for i in 0..100u64 {
            tb.push(rec(i));
        }
        let again = tb.take_queued();
        assert_eq!(again.len(), 1);
        assert_eq!(again[0].len(), 100);
        assert!(
            again[0].capacity() >= cap.min(100),
            "the refill reused warmed storage"
        );
    }

    #[test]
    fn flush_frees_buffers_for_reuse() {
        let mut tb = TripleBuffer::new();
        for round in 0..5u64 {
            for i in 0..BUFFER_CAPACITY as u64 {
                tb.push(rec(round * 10_000 + i));
            }
            let batches = tb.take_queued();
            assert_eq!(batches.len(), 1, "round {round}");
        }
        assert!(!tb.overflowed());
        assert_eq!(tb.recorded(), 5 * BUFFER_CAPACITY as u64);
    }
}
