//! Bounded-memory aggregation primitives for the streaming pipeline.
//!
//! The paper's own pipeline poured ~190 million records into a data
//! warehouse; reproducing that scale in-process means the per-machine
//! sinks cannot hold raw samples. Two primitives carry the load:
//!
//! * [`HistogramSketch`] — a deterministic log-bucketed histogram giving
//!   CDF quantiles with a fixed relative error (one bucket per 1/16th of
//!   an octave, ≈ 4.4 %), mergeable across machines in any order. Its
//!   buckets are one dense array over the span of non-empty buckets, so
//!   recording a sample is an index and an add; the clamp bounds the
//!   span at 4,097 slots (32 KiB).
//! * [`SpillRuns`] — a bounded sample buffer that spills sorted runs to a
//!   directory and streams them back in one k-way merged ascending pass,
//!   for the tail analyses (Hill/LLCD) that need order statistics.

use std::collections::VecDeque;
use std::fmt;
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::PathBuf;

/// Sub-buckets per octave: bucket width is `2^(1/16)`, so any reported
/// quantile is within ≈ 4.4 % of the exact sample value.
const SUB: f64 = 16.0;
/// Bucket indices are clamped to ±[`CLAMP`], covering 2^-128 .. 2^128.
const CLAMP: i32 = 128 * 16;

/// A deterministic log-bucketed histogram over non-negative `f64` values.
///
/// Values ≤ 0 (and non-finite values) land in a dedicated zero bucket.
/// Merging is element-wise addition, so any merge order produces the same
/// sketch. Weights are integer counts — figure-4-style byte-weighted
/// CDFs record each size with its transferred bytes as the weight.
///
/// Every piece of state is integer (the weighted sum is fixed-point, in
/// units of `1 / SUM_FP_SCALE`) except `min`/`max`, whose lattice is
/// exactly associative — so merging sketches is associative and
/// commutative bit for bit, not just up to floating-point reassociation.
/// The sharded fleet leans on this: any shard partition of the machine
/// set must reduce to the same fleet sketch.
///
/// Bucket weights live in one dense array whose span runs exactly from
/// the lowest non-empty bucket to the highest (empty while nothing is
/// bucketed). Weights only ever add, so the span is canonical and the
/// derived `==` is exact. Bucket indices are clamped to ±2,048, so the
/// span holds at most 4,097 slots.
#[derive(Clone, Default, PartialEq)]
pub struct HistogramSketch {
    /// Bucket index of `counts[0]`; 0 while `counts` is empty.
    lo: i32,
    /// Weight per bucket, `lo` upward; interior slots may be 0, the two
    /// ends never are.
    counts: Vec<u64>,
    zero_weight: u64,
    count: u64,
    total_weight: u64,
    /// Weighted sum in fixed point: units of 2^-16. An `i128` holds
    /// ~5e33 in value terms, far past any fleet-scale byte total, and
    /// integer addition keeps hierarchical merges exact.
    sum_fp: i128,
    min: f64,
    max: f64,
}

/// Fixed-point scale for [`HistogramSketch::sum`]: 2^16 sub-unit steps,
/// ≈ 1.5e-5 absolute resolution per recorded sample.
const SUM_FP_SCALE: f64 = 65536.0;

/// Log bucket for a positive finite value; `None` for anything without a
/// logarithm (NaN, infinities, zero, negatives).
///
/// Total over all of `f64` on purpose: the old `i32` version relied on
/// `NaN as i32 == 0`, silently filing NaN into bucket 0 — the bucket for
/// real values in `[1, 2^(1/16))` — whenever a caller forgot its own
/// finiteness guard. Callers must route `None` to the zero bucket (or
/// treat it as "past every bucket" for +∞ CDF cuts).
fn bucket_of(v: f64) -> Option<i32> {
    if !v.is_finite() || v <= 0.0 {
        return None;
    }
    Some(((v.log2() * SUB).floor() as i32).clamp(-CLAMP, CLAMP))
}

/// Representative value of a bucket: the geometric midpoint.
fn bucket_value(idx: i32) -> f64 {
    ((idx as f64 + 0.5) / SUB).exp2()
}

impl HistogramSketch {
    /// An empty sketch.
    pub fn new() -> Self {
        HistogramSketch {
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            ..HistogramSketch::default()
        }
    }

    /// Records one sample with weight 1.
    pub fn record(&mut self, v: f64) {
        self.record_weighted(v, 1);
    }

    /// Records one sample with an integer weight; zero weights are
    /// ignored, non-finite values fall into the zero bucket.
    pub fn record_weighted(&mut self, v: f64, weight: u64) {
        if weight == 0 {
            return;
        }
        self.count += 1;
        self.total_weight += weight;
        if v.is_finite() {
            let contribution = v * weight as f64 * SUM_FP_SCALE;
            // Saturate instead of wrapping on absurd inputs; `as i128`
            // already saturates for out-of-range floats.
            self.sum_fp = self.sum_fp.saturating_add(contribution.round() as i128);
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        match bucket_of(v) {
            Some(idx) => {
                // A negative offset casts past any length.
                if (idx - self.lo) as usize >= self.counts.len() {
                    self.widen(idx, idx);
                }
                self.counts[(idx - self.lo) as usize] += weight;
            }
            None => self.zero_weight += weight,
        }
    }

    /// Widens the span to take in buckets `lo..=hi`, zero-filling the new
    /// slots.
    #[cold]
    fn widen(&mut self, lo: i32, hi: i32) {
        if self.counts.is_empty() {
            self.lo = lo;
        }
        if lo < self.lo {
            let front = (self.lo - lo) as usize;
            self.counts.splice(0..0, std::iter::repeat_n(0, front));
            self.lo = lo;
        }
        let len = (hi - self.lo) as usize + 1;
        if len > self.counts.len() {
            self.counts.resize(len, 0);
        }
    }

    /// The non-empty buckets in ascending index order: what a map of
    /// bucket weights would hold.
    fn buckets(&self) -> impl Iterator<Item = (i32, u64)> + '_ {
        (self.lo..)
            .zip(self.counts.iter().copied())
            .filter(|&(_, w)| w > 0)
    }

    /// Number of recorded samples (unweighted).
    pub fn len(&self) -> u64 {
        self.count
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Smallest recorded value; `None` on an empty sketch.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0 && self.min.is_finite()).then_some(self.min)
    }

    /// Largest recorded value.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0 && self.max.is_finite()).then_some(self.max)
    }

    /// Weighted arithmetic mean.
    pub fn mean(&self) -> Option<f64> {
        (self.total_weight > 0).then(|| self.sum() / self.total_weight as f64)
    }

    /// Weighted sum of recorded values (fixed-point, 2^-16 resolution).
    pub fn sum(&self) -> f64 {
        self.sum_fp as f64 / SUM_FP_SCALE
    }

    /// The `q`-quantile (bucket representative, within the relative error
    /// bound); `None` on an empty sketch.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.total_weight == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let target = q * self.total_weight as f64;
        let mut acc = self.zero_weight as f64;
        if acc >= target && self.zero_weight > 0 {
            return Some(0.0);
        }
        let mut last = 0.0;
        for (idx, w) in self.buckets() {
            acc += w as f64;
            last = bucket_value(idx).clamp(self.min, self.max);
            if acc >= target {
                return Some(last);
            }
        }
        Some(last)
    }

    /// The median.
    pub fn median(&self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// Approximate `P[X <= x]`, in [0, 1].
    pub fn fraction_at_or_below(&self, x: f64) -> f64 {
        if self.total_weight == 0 {
            return 0.0;
        }
        if x.is_nan() {
            return 0.0;
        }
        let mut acc = if x >= 0.0 { self.zero_weight } else { 0 };
        let below = match bucket_of(x) {
            Some(cut) => (cut - self.lo + 1).clamp(0, self.counts.len() as i32) as usize,
            // `x` positive but unbucketable means +∞: everything is below.
            None if x > 0.0 => self.counts.len(),
            None => 0,
        };
        acc += self.counts[..below].iter().sum::<u64>();
        acc as f64 / self.total_weight as f64
    }

    /// Merges another sketch in; element-wise and order-independent.
    pub fn merge(&mut self, other: &HistogramSketch) {
        if !other.counts.is_empty() {
            self.widen(other.lo, other.lo + other.counts.len() as i32 - 1);
            let from = (other.lo - self.lo) as usize;
            for (mine, &theirs) in self.counts[from..].iter_mut().zip(&other.counts) {
                *mine += theirs;
            }
        }
        self.zero_weight += other.zero_weight;
        self.count += other.count;
        self.total_weight += other.total_weight;
        self.sum_fp = self.sum_fp.saturating_add(other.sum_fp);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Bytes of live state, for the memory accounting the streaming study
    /// reports: the struct plus 8 bytes per slot of the dense span, at
    /// most 4,097 slots.
    pub(crate) fn state_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.counts.len() * 8
    }
}

/// Prints `buckets` as a map of the non-empty buckets only, so neither
/// the span nor its empty interior slots reach the text: study digests
/// hash it, and the benchmark's expected digests were fixed on this form.
impl fmt::Debug for HistogramSketch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Buckets<'a>(&'a HistogramSketch);
        impl fmt::Debug for Buckets<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_map().entries(self.0.buckets()).finish()
            }
        }
        f.debug_struct("HistogramSketch")
            .field("buckets", &Buckets(self))
            .field("zero_weight", &self.zero_weight)
            .field("count", &self.count)
            .field("total_weight", &self.total_weight)
            .field("sum_fp", &self.sum_fp)
            .field("min", &self.min)
            .field("max", &self.max)
            .finish()
    }
}

/// A bounded sample buffer with spill-to-sorted-runs.
///
/// Samples accumulate in an in-memory buffer of `capacity` values; when a
/// spill directory is configured, full buffers are sorted and written as
/// binary little-endian `f64` run files, keeping resident memory at
/// `capacity × 8` bytes regardless of sample count. Without a spill
/// directory the buffer simply grows (the legacy in-memory behaviour).
/// `SpillRuns::top_k` streams a k-way merge of all runs to hand the tail
/// analyses their top order statistics in `O(k)` memory.
#[derive(Debug, Default)]
pub struct SpillRuns {
    capacity: usize,
    dir: Option<PathBuf>,
    tag: String,
    buffer: Vec<f64>,
    runs: Vec<PathBuf>,
    total: u64,
    next_run: u32,
    spill_failures: u64,
}

impl SpillRuns {
    /// A spill buffer holding at most `capacity` resident samples when
    /// `dir` is set; `tag` namespaces this buffer's run files within the
    /// directory (it must be unique per buffer).
    pub fn new(capacity: usize, dir: Option<PathBuf>, tag: impl Into<String>) -> Self {
        SpillRuns {
            capacity: capacity.max(16),
            dir,
            tag: tag.into(),
            buffer: Vec::new(),
            runs: Vec::new(),
            total: 0,
            next_run: 0,
            spill_failures: 0,
        }
    }

    /// Adds a sample; non-finite values are dropped.
    pub fn push(&mut self, v: f64) {
        if !v.is_finite() {
            return;
        }
        self.buffer.push(v);
        self.total += 1;
        if self.dir.is_some() && self.buffer.len() >= self.capacity {
            self.spill();
        }
    }

    /// Samples accepted so far.
    pub fn len(&self) -> u64 {
        self.total
    }

    /// True when no samples were accepted.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Sorted run files written so far.
    #[cfg(test)]
    fn spilled_runs(&self) -> usize {
        self.runs.len()
    }

    /// Spill attempts that failed and fell back to memory.
    pub fn spill_failures(&self) -> u64 {
        self.spill_failures
    }

    /// Samples currently resident in memory.
    pub fn resident(&self) -> usize {
        self.buffer.len()
    }

    /// Bytes of live state.
    pub(crate) fn state_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.buffer.capacity() * 8
    }

    fn spill(&mut self) {
        let Some(dir) = self.dir.clone() else {
            return;
        };
        self.buffer
            .sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
        let path = dir.join(format!("{}-run{:05}.f64", self.tag, self.next_run));
        match self.write_run(&path) {
            Ok(()) => {
                self.next_run += 1;
                self.runs.push(path);
                self.buffer.clear();
            }
            Err(_) => {
                // Best effort: keep the samples resident; the analysis
                // still works, only the memory bound degrades.
                self.spill_failures += 1;
            }
        }
    }

    fn write_run(&self, path: &PathBuf) -> std::io::Result<()> {
        let mut w = BufWriter::new(File::create(path)?);
        for v in &self.buffer {
            w.write_all(&v.to_le_bytes())?;
        }
        w.flush()
    }

    /// Absorbs another buffer's samples and run files (machine merge).
    pub fn absorb(&mut self, mut other: SpillRuns) {
        self.runs.append(&mut other.runs);
        self.total += other.total;
        self.spill_failures += other.spill_failures;
        self.buffer.append(&mut other.buffer);
        if self.dir.is_some() && self.buffer.len() >= self.capacity {
            self.spill();
        }
    }

    /// Streams every sample in ascending order through `f` (k-way merge
    /// of the sorted runs plus the resident buffer).
    pub fn for_each_sorted(&mut self, mut f: impl FnMut(f64)) {
        self.buffer
            .sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
        let mut readers: Vec<RunReader> = self.runs.iter().filter_map(RunReader::open).collect();
        let mut heads: Vec<Option<f64>> = readers.iter_mut().map(|r| r.next()).collect();
        let mut buf_pos = 0usize;
        loop {
            // Pick the smallest head among run readers and the buffer.
            let mut best: Option<(usize, f64)> = None;
            for (i, h) in heads.iter().enumerate() {
                if let Some(v) = h {
                    if best.is_none_or(|(_, bv)| *v < bv) {
                        best = Some((i, *v));
                    }
                }
            }
            let buf_head = self.buffer.get(buf_pos).copied();
            match (best, buf_head) {
                (Some((i, v)), Some(b)) if v <= b => {
                    f(v);
                    heads[i] = readers[i].next();
                }
                (_, Some(b)) => {
                    f(b);
                    buf_pos += 1;
                }
                (Some((i, v)), None) => {
                    f(v);
                    heads[i] = readers[i].next();
                }
                (None, None) => return,
            }
        }
    }

    /// The top `k` order statistics, ascending (`result[0]` is the
    /// `(n-k)`-th order statistic). Memory is `O(k)`.
    pub(crate) fn top_k(&mut self, k: usize) -> Vec<f64> {
        let mut ring: VecDeque<f64> = VecDeque::with_capacity(k + 1);
        self.for_each_sorted(|v| {
            ring.push_back(v);
            if ring.len() > k {
                ring.pop_front();
            }
        });
        ring.into_iter().collect()
    }
}

impl Drop for SpillRuns {
    fn drop(&mut self) {
        for p in &self.runs {
            let _ = std::fs::remove_file(p);
        }
    }
}

struct RunReader {
    reader: BufReader<File>,
}

impl RunReader {
    fn open(path: &PathBuf) -> Option<Self> {
        File::open(path).ok().map(|f| RunReader {
            reader: BufReader::new(f),
        })
    }

    fn next(&mut self) -> Option<f64> {
        let mut bytes = [0u8; 8];
        self.reader.read_exact(&mut bytes).ok()?;
        Some(f64::from_le_bytes(bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("nt-sketch-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir
    }

    #[test]
    fn sketch_quantiles_track_exact_values() {
        let mut s = HistogramSketch::new();
        for i in 1..=10_000u64 {
            s.record(i as f64);
        }
        assert_eq!(s.len(), 10_000);
        for q in [0.1, 0.5, 0.9, 0.99] {
            let exact = q * 10_000.0;
            let est = s.quantile(q).unwrap();
            assert!(
                (est - exact).abs() / exact < 0.05,
                "q={q}: est {est} vs exact {exact}"
            );
        }
        assert_eq!(s.min(), Some(1.0));
        assert_eq!(s.max(), Some(10_000.0));
        assert!((s.mean().unwrap() - 5_000.5).abs() < 1.0);
    }

    #[test]
    fn sketch_handles_zero_and_degenerate() {
        let mut s = HistogramSketch::new();
        assert!(s.is_empty());
        assert_eq!(s.quantile(0.5), None);
        s.record(0.0);
        s.record(-3.0);
        s.record(f64::NAN);
        assert_eq!(s.quantile(0.9), Some(0.0));
        s.record(8.0);
        assert!(s.fraction_at_or_below(0.0) > 0.7);
        assert_eq!(s.fraction_at_or_below(100.0), 1.0);
    }

    #[test]
    fn bucket_of_rejects_unbucketable_inputs() {
        // Regression: the old `bucket_of` returned a plain i32 and relied
        // on Rust's saturating float→int cast, so `bucket_of(f64::NAN)`
        // was 0 — indistinguishable from a genuine sample in [1, 2^1/16).
        assert_eq!(bucket_of(f64::NAN), None);
        assert_eq!(bucket_of(f64::INFINITY), None);
        assert_eq!(bucket_of(f64::NEG_INFINITY), None);
        assert_eq!(bucket_of(0.0), None);
        assert_eq!(bucket_of(-0.0), None);
        assert_eq!(bucket_of(-1.5), None);
        // Positive finite values still bucket, with the documented clamp.
        assert_eq!(bucket_of(1.0), Some(0));
        assert_eq!(bucket_of(2.0), Some(16));
        assert_eq!(bucket_of(f64::MIN_POSITIVE), Some(-CLAMP));
        assert_eq!(bucket_of(f64::MAX), Some(CLAMP));
    }

    #[test]
    fn non_finite_inputs_never_reach_a_log_bucket() {
        let mut s = HistogramSketch::new();
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -2.0, 0.0] {
            s.record(v);
        }
        s.record(1.5); // the only real sample, in bucket 0
                       // Pre-fix, a leaked NaN would inflate bucket 0 and shift every
                       // quantile; post-fix the five junk samples all sit in the zero
                       // bucket and the CDF stays exact.
        assert!((s.fraction_at_or_below(0.0) - 5.0 / 6.0).abs() < 1e-12);
        assert_eq!(s.fraction_at_or_below(1.5), 1.0);
        assert_eq!(s.fraction_at_or_below(f64::INFINITY), 1.0);
        assert_eq!(s.fraction_at_or_below(f64::NAN), 0.0);
        assert_eq!(s.fraction_at_or_below(f64::NEG_INFINITY), 0.0);
        assert_eq!(s.quantile(1.0), Some(1.5));
    }

    #[test]
    fn quantile_error_bound_holds_on_a_heavy_tail() {
        // Pins the documented worst case — one bucket per 1/16 octave, so
        // any reported quantile is within 2^(1/16) − 1 ≈ 4.4 % of the
        // exact sample quantile — against the exact CDF of a Pareto-like
        // sample spanning seven orders of magnitude.
        const BOUND: f64 = 0.0443; // 2^(1/16) − 1, the full bucket width
        let mut exact = Vec::new();
        let mut s = HistogramSketch::new();
        let mut u = 0x2545_f491_4f6c_dd1du64;
        for _ in 0..50_000 {
            // xorshift64* uniform in (0,1), inverted through a Pareto
            // CDF with tail index 1.2 (file sizes, §5 shape).
            u ^= u >> 12;
            u ^= u << 25;
            u ^= u >> 27;
            let unif =
                ((u.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 11) as f64 + 1.0) / (1u64 << 53) as f64;
            let v = unif.powf(-1.0 / 1.2);
            exact.push(v);
            s.record(v);
        }
        exact.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for q in [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999] {
            let rank = ((q * exact.len() as f64).ceil() as usize).clamp(1, exact.len()) - 1;
            let truth = exact[rank];
            let est = s.quantile(q).unwrap();
            let rel = (est - truth).abs() / truth;
            assert!(
                rel <= BOUND,
                "q={q}: sketch {est} vs exact {truth} (rel err {rel:.4} > {BOUND})"
            );
        }
    }

    #[test]
    fn sketch_merge_is_order_independent() {
        let mut a = HistogramSketch::new();
        let mut b = HistogramSketch::new();
        let mut whole = HistogramSketch::new();
        for i in 0..2_000u64 {
            let v = ((i * 2_654_435_761) % 100_000) as f64 + 1.0;
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            whole.record(v);
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        for q in [0.25, 0.5, 0.75, 0.95] {
            assert_eq!(ab.quantile(q), ba.quantile(q));
            assert_eq!(ab.quantile(q), whole.quantile(q));
        }
        assert_eq!(ab.len(), whole.len());
        // Since every sample rounds to fixed point independently, the
        // whole sketch state — sum included — is bit-identical no matter
        // how the samples were partitioned or merged.
        assert_eq!(ab, ba);
        assert_eq!(ab, whole);
    }

    #[test]
    fn weighted_sum_is_exact_under_reassociation() {
        // f64 accumulation would make (a+b)+c != a+(b+c) for these
        // deliberately awkward values; fixed point keeps them equal.
        let values = [0.1, 1e9 + 0.3, 7.0001, 3.25, 1e-4, 1234.5678];
        let mut parts: Vec<HistogramSketch> = Vec::new();
        for &v in &values {
            let mut s = HistogramSketch::new();
            s.record_weighted(v, 3);
            parts.push(s);
        }
        let mut left = HistogramSketch::new();
        for p in &parts {
            left.merge(p);
        }
        let mut right = HistogramSketch::new();
        for p in parts.iter().rev() {
            right.merge(p);
        }
        assert_eq!(left, right);
        assert_eq!(left.sum(), right.sum());
        let exact: f64 = values.iter().map(|v| v * 3.0).sum();
        assert!((left.sum() - exact).abs() < 1e-3, "sum {}", left.sum());
    }

    #[test]
    fn spill_runs_keep_residency_bounded_and_sort_globally() {
        let dir = temp_dir("runs");
        let mut s = SpillRuns::new(64, Some(dir.clone()), "bounded");
        // Deterministic shuffle of 1..=1000.
        for i in 0..1_000u64 {
            s.push(((i * 7919) % 1_000) as f64 + 1.0);
        }
        assert_eq!(s.len(), 1_000);
        assert!(s.resident() <= 64, "resident {}", s.resident());
        assert!(s.spilled_runs() >= 14);
        assert_eq!(s.spill_failures(), 0);
        let mut out = Vec::new();
        s.for_each_sorted(|v| out.push(v));
        assert_eq!(out.len(), 1_000);
        assert!(out.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(out[0], 1.0);
        assert_eq!(out[999], 1_000.0);
        let top = s.top_k(10);
        assert_eq!(top, (991..=1_000).map(|v| v as f64).collect::<Vec<_>>());
        drop(s);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn spill_runs_work_without_a_directory() {
        let mut s = SpillRuns::new(16, None, "mem");
        for i in (1..=100u64).rev() {
            s.push(i as f64);
        }
        assert_eq!(s.spilled_runs(), 0);
        assert_eq!(s.resident(), 100, "no dir: buffer grows");
        assert_eq!(s.top_k(3), vec![98.0, 99.0, 100.0]);
    }

    #[test]
    fn absorb_combines_buffers_and_runs() {
        let dir = temp_dir("absorb");
        let mut a = SpillRuns::new(32, Some(dir.clone()), "a");
        let mut b = SpillRuns::new(32, Some(dir.clone()), "b");
        for i in 0..100u64 {
            a.push(i as f64);
            b.push((i + 100) as f64);
        }
        a.absorb(b);
        assert_eq!(a.len(), 200);
        let mut n = 0u64;
        let mut last = f64::NEG_INFINITY;
        a.for_each_sorted(|v| {
            assert!(v >= last);
            last = v;
            n += 1;
        });
        assert_eq!(n, 200);
        drop(a);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The sketch as it was while its buckets were a `BTreeMap`: the
    /// reference the dense span must print and answer exactly as. The
    /// module lets it keep the type name, so its derived `Debug` is the
    /// text the study digests were fixed on.
    mod map_model {
        use crate::sketch::{bucket_of, bucket_value, SUM_FP_SCALE};
        use std::collections::BTreeMap;

        #[derive(Clone, Debug, Default, PartialEq)]
        pub(super) struct HistogramSketch {
            buckets: BTreeMap<i32, u64>,
            zero_weight: u64,
            count: u64,
            total_weight: u64,
            sum_fp: i128,
            min: f64,
            max: f64,
        }

        impl HistogramSketch {
            pub(super) fn new() -> Self {
                HistogramSketch {
                    min: f64::INFINITY,
                    max: f64::NEG_INFINITY,
                    ..HistogramSketch::default()
                }
            }

            pub(super) fn record_weighted(&mut self, v: f64, weight: u64) {
                if weight == 0 {
                    return;
                }
                self.count += 1;
                self.total_weight += weight;
                if v.is_finite() {
                    let contribution = v * weight as f64 * SUM_FP_SCALE;
                    self.sum_fp = self.sum_fp.saturating_add(contribution.round() as i128);
                    self.min = self.min.min(v);
                    self.max = self.max.max(v);
                }
                match bucket_of(v) {
                    Some(idx) => *self.buckets.entry(idx).or_default() += weight,
                    None => self.zero_weight += weight,
                }
            }

            pub(super) fn len(&self) -> u64 {
                self.count
            }

            pub(super) fn min(&self) -> Option<f64> {
                (self.count > 0 && self.min.is_finite()).then_some(self.min)
            }

            pub(super) fn max(&self) -> Option<f64> {
                (self.count > 0 && self.max.is_finite()).then_some(self.max)
            }

            pub(super) fn mean(&self) -> Option<f64> {
                (self.total_weight > 0).then(|| self.sum() / self.total_weight as f64)
            }

            pub(super) fn sum(&self) -> f64 {
                self.sum_fp as f64 / SUM_FP_SCALE
            }

            pub(super) fn quantile(&self, q: f64) -> Option<f64> {
                if self.total_weight == 0 {
                    return None;
                }
                let q = q.clamp(0.0, 1.0);
                let target = q * self.total_weight as f64;
                let mut acc = self.zero_weight as f64;
                if acc >= target && self.zero_weight > 0 {
                    return Some(0.0);
                }
                let mut last = 0.0;
                for (&idx, &w) in &self.buckets {
                    acc += w as f64;
                    last = bucket_value(idx).clamp(self.min, self.max);
                    if acc >= target {
                        return Some(last);
                    }
                }
                Some(if self.buckets.is_empty() { 0.0 } else { last })
            }

            pub(super) fn fraction_at_or_below(&self, x: f64) -> f64 {
                if self.total_weight == 0 || x.is_nan() {
                    return 0.0;
                }
                let mut acc = if x >= 0.0 { self.zero_weight } else { 0 };
                match bucket_of(x) {
                    Some(cut) => acc += self.buckets.range(..=cut).map(|(_, &w)| w).sum::<u64>(),
                    None if x > 0.0 => acc += self.buckets.values().sum::<u64>(),
                    None => {}
                }
                acc as f64 / self.total_weight as f64
            }

            pub(super) fn merge(&mut self, other: &HistogramSketch) {
                for (&idx, &w) in &other.buckets {
                    *self.buckets.entry(idx).or_default() += w;
                }
                self.zero_weight += other.zero_weight;
                self.count += other.count;
                self.total_weight += other.total_weight;
                self.sum_fp = self.sum_fp.saturating_add(other.sum_fp);
                self.min = self.min.min(other.min);
                self.max = self.max.max(other.max);
            }
        }
    }

    /// Samples over the whole of `f64` that the sketch treats apart: the
    /// zero bucket's inputs (0, negatives, NaN, ±∞), both clamp ends, and
    /// positive values spread over 80 octaves.
    fn any_sample() -> impl Strategy<Value = f64> {
        prop_oneof![
            Just(0.0),
            Just(-0.0),
            Just(f64::NAN),
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY),
            Just(f64::MIN_POSITIVE),
            Just(f64::MAX),
            -1e6f64..0.0,
            (-40.0f64..40.0).prop_map(f64::exp2),
            1.0f64..1e6,
        ]
    }

    /// Weights, 0 (ignored) included.
    fn any_weight() -> impl Strategy<Value = u64> {
        prop_oneof![0u64..3, 1u64..1_000_000]
    }

    /// Checks that a dense sketch prints and answers exactly as the map
    /// model fed the same samples; `cuts` are extra CDF cut points.
    fn same_as_model(
        dense: &HistogramSketch,
        model: &map_model::HistogramSketch,
        cuts: &[f64],
    ) -> Result<(), TestCaseError> {
        prop_assert_eq!(format!("{dense:?}"), format!("{model:?}"));
        prop_assert_eq!(format!("{dense:#?}"), format!("{model:#?}"));
        let bits = |v: Option<f64>| v.map(f64::to_bits);
        let qs = (0..=20).map(|i| f64::from(i) / 20.0);
        for q in qs.chain([1e-3, 0.999, -0.5, 1.5, f64::NAN]) {
            prop_assert_eq!(bits(dense.quantile(q)), bits(model.quantile(q)), "q={}", q);
        }
        let grid = [
            f64::NEG_INFINITY,
            -1.0,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            1e-300,
            0.5,
            1.0,
            1.5,
            1e3,
            1e300,
            f64::MAX,
            f64::INFINITY,
            f64::NAN,
        ];
        for &x in grid.iter().chain(cuts) {
            prop_assert_eq!(
                dense.fraction_at_or_below(x).to_bits(),
                model.fraction_at_or_below(x).to_bits(),
                "x={}",
                x
            );
        }
        prop_assert_eq!(dense.len(), model.len());
        prop_assert_eq!(dense.sum().to_bits(), model.sum().to_bits());
        prop_assert_eq!(bits(dense.min()), bits(model.min()));
        prop_assert_eq!(bits(dense.max()), bits(model.max()));
        prop_assert_eq!(bits(dense.mean()), bits(model.mean()));
        Ok(())
    }

    proptest! {
        #[test]
        fn sketch_quantile_error_is_bounded(xs in prop::collection::vec(1.0f64..1e9, 20..400)) {
            let mut xs = xs;
            let mut s = HistogramSketch::new();
            for &x in &xs {
                s.record(x);
            }
            xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
            for q in [0.1, 0.5, 0.9] {
                // The sample the sketch's crossing rule (`acc >= q*total`)
                // lands on.
                let target = q * xs.len() as f64;
                let idx = (0..xs.len())
                    .find(|i| (i + 1) as f64 >= target)
                    .unwrap_or(xs.len() - 1);
                let exact = xs[idx];
                let est = s.quantile(q).unwrap();
                // One bucket of slack either side of the exact sample.
                prop_assert!(est <= exact * 1.1 && est >= exact / 1.1,
                    "q={} est={} exact={}", q, est, exact);
            }
        }

        #[test]
        fn dense_buckets_print_and_answer_as_the_map_model(
            parts in prop::collection::vec(
                prop::collection::vec((any_sample(), any_weight()), 0..40),
                1..5,
            ),
            from_default in any::<bool>(),
        ) {
            // Accumulators build their sketches through `Default`, which
            // leaves min and max at 0.0 where `new` starts them at ±∞.
            let fresh = || if from_default {
                (HistogramSketch::default(), map_model::HistogramSketch::default())
            } else {
                (HistogramSketch::new(), map_model::HistogramSketch::new())
            };
            let cuts: Vec<f64> = parts.iter().flatten().map(|&(v, _)| v).collect();
            let mut sketches = Vec::new();
            for part in &parts {
                let (mut dense, mut model) = fresh();
                for &(v, w) in part {
                    dense.record_weighted(v, w);
                    model.record_weighted(v, w);
                }
                same_as_model(&dense, &model, &cuts)?;
                // Descending order makes every new bucket the lowest yet.
                let (mut down, mut down_model) = fresh();
                let mut sorted = part.clone();
                sorted.sort_by(|a, b| b.0.total_cmp(&a.0));
                for &(v, w) in &sorted {
                    down.record_weighted(v, w);
                    down_model.record_weighted(v, w);
                }
                same_as_model(&down, &down_model, &cuts)?;
                prop_assert_eq!(down == dense, down_model == model);
                sketches.push((dense, model));
            }
            for (i, (a, a_model)) in sketches.iter().enumerate() {
                for (b, b_model) in &sketches[i..] {
                    prop_assert_eq!(a == b, a_model == b_model);
                }
            }
            // Into an empty sketch, in both orders, and from an empty one.
            let (mut forward, mut forward_model) = fresh();
            for (dense, model) in &sketches {
                forward.merge(dense);
                forward_model.merge(model);
            }
            same_as_model(&forward, &forward_model, &cuts)?;
            let (mut backward, mut backward_model) = fresh();
            for (dense, model) in sketches.iter().rev() {
                backward.merge(dense);
                backward_model.merge(model);
            }
            same_as_model(&backward, &backward_model, &cuts)?;
            prop_assert_eq!(forward == backward, forward_model == backward_model);
            let (empty, empty_model) = fresh();
            forward.merge(&empty);
            forward_model.merge(&empty_model);
            same_as_model(&forward, &forward_model, &cuts)?;
            // Into a non-empty sketch: the last part takes in the rest.
            let (mut last, mut last_model) = sketches.last().cloned().expect("one part at least");
            for (dense, model) in &sketches[..sketches.len() - 1] {
                last.merge(dense);
                last_model.merge(model);
            }
            same_as_model(&last, &last_model, &cuts)?;
        }

        #[test]
        fn spill_preserves_every_sample(xs in prop::collection::vec(0.0f64..1e6, 0..300)) {
            let mut s = SpillRuns::new(16, None, "prop");
            for &x in &xs {
                s.push(x);
            }
            let mut out = Vec::new();
            s.for_each_sorted(|v| out.push(v));
            let mut expect = xs.clone();
            expect.sort_by(|a, b| a.partial_cmp(b).unwrap());
            prop_assert_eq!(out, expect);
        }
    }
}
