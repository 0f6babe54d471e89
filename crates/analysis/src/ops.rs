//! Operational characteristics — §8 of the paper.
//!
//! Open/close behaviour, control-operation dominance, error rates and
//! read/write inter-arrival spacing.

use std::collections::HashMap;

use nt_io::{EventKind, MajorFunction, NtStatus};
use nt_trace::TraceRecord;

use crate::cdf::Cdf;
use crate::schema::{Instance, TraceSet, UsageClass};
use crate::sketch::{ExactSamples, HistogramSketch, Samples};

/// The §8 summary numbers.
#[derive(Clone, Debug)]
pub struct OperationalStats {
    /// Successful opens.
    pub opens_ok: u64,
    /// Failed opens (§8.4: 12 %).
    pub opens_failed: u64,
    /// Of the failed opens: not-found share (52 % in the study).
    pub open_fail_not_found: f64,
    /// Of the failed opens: name-collision share (31 %).
    pub open_fail_collision: f64,
    /// Fraction of successful opens used for control/directory work only
    /// (§8.3: 74 %).
    pub control_only_fraction: f64,
    /// Control-operation failure rate (§8.4: 8 %).
    pub control_failure_rate: f64,
    /// Read failure rate (§8.4: 0.2 %).
    pub read_failure_rate: f64,
    /// Write failure rate (the study found none).
    pub write_failure_rate: f64,
    /// Gap between consecutive reads within a session, µs (§8.2: 80 %
    /// within 90 µs).
    pub read_gaps_us: Cdf,
    /// Gap between consecutive writes within a session, µs (80 % within
    /// 30 µs).
    pub write_gaps_us: Cdf,
    /// Gap between cleanup and close for read-only sessions, µs (§8.1:
    /// the close arrives within microseconds for read caching).
    pub cleanup_to_close_read_us: Cdf,
    /// Gap between cleanup and close for written files, ms (§8.1: 1–4 s,
    /// the lazy-writer drain).
    pub cleanup_to_close_write_ms: Cdf,
    /// Read-size CDF (bytes), §8.2.
    pub read_sizes: Cdf,
    /// Write-size CDF (bytes).
    pub write_sizes: Cdf,
    /// Fraction of read requests that are exactly 512 or 4096 bytes
    /// (§8.2: 59 %).
    pub read_512_4096_fraction: f64,
    /// File-reuse: fraction of read-only-opened files opened more than
    /// once in the trace (§8.1: 24–40 %).
    pub read_reopen_fraction: f64,
}

/// Computes the §8 statistics: [`OpsAccumulator`] folded over every
/// record and instance with exact samples, plus the batch-only
/// [`OperationalStats::read_reopen_fraction`].
pub fn operational_stats(ts: &TraceSet) -> OperationalStats {
    let mut acc = OpsAccumulator::<ExactSamples>::default();
    let t = &ts.records;
    let (statuses, lengths) = (t.statuses(), t.lengths());
    for i in 0..t.len() {
        acc.push_request(t.kind_at(i), t.is_paging(i), statuses[i], lengths[i]);
    }
    for inst in &ts.instances {
        acc.push_instance(inst);
    }
    OperationalStats {
        opens_ok: acc.opens_ok,
        opens_failed: acc.opens_failed,
        open_fail_not_found: acc.open_fail_not_found(),
        open_fail_collision: acc.open_fail_collision(),
        control_only_fraction: acc.control_only_fraction(),
        control_failure_rate: acc.control_failure_rate(),
        read_failure_rate: acc.read_failure_rate(),
        write_failure_rate: acc.write_failure_rate(),
        read_512_4096_fraction: acc.read_512_4096_fraction(),
        read_gaps_us: Cdf::from_weighted(acc.read_gaps_us),
        write_gaps_us: Cdf::from_weighted(acc.write_gaps_us),
        cleanup_to_close_read_us: Cdf::from_weighted(acc.cleanup_to_close_read_us),
        cleanup_to_close_write_ms: Cdf::from_weighted(acc.cleanup_to_close_write_ms),
        read_sizes: Cdf::from_weighted(acc.read_sizes),
        write_sizes: Cdf::from_weighted(acc.write_sizes),
        read_reopen_fraction: read_reopen_fraction(ts),
    }
}

/// File reuse: the fraction of read-only-opened paths opened more than
/// once. Batch-only (see [`OpsAccumulator`]).
fn read_reopen_fraction(ts: &TraceSet) -> f64 {
    let mut per_path: HashMap<(u32, &str), u32> = HashMap::new();
    for inst in &ts.instances {
        if inst.usage_class() == Some(UsageClass::ReadOnly) {
            if let Some(p) = inst.path.as_deref() {
                *per_path.entry((inst.machine, p)).or_default() += 1;
            }
        }
    }
    let reopened = per_path.values().filter(|&&c| c > 1).count();
    if per_path.is_empty() {
        0.0
    } else {
        reopened as f64 / per_path.len() as f64
    }
}

/// The one classifier of the §8 counters and distributions, fed record
/// by record and finished instance by instance. The streaming sinks keep
/// its distributions in sketches; [`operational_stats`] folds it over the
/// fact tables with exact samples.
///
/// `read_reopen_fraction` is the one §8 number this accumulator does not
/// reproduce — it needs the full per-path open multiset, which is exactly
/// the unbounded state the streaming path exists to avoid. Paper-scale
/// reuse analysis belongs to a dedicated pass over the spilled name
/// dimension.
#[derive(Debug, Default, PartialEq)]
pub struct OpsAccumulator<S = HistogramSketch> {
    /// Successful opens.
    pub opens_ok: u64,
    /// Failed opens.
    pub opens_failed: u64,
    /// Failed opens that were not-found.
    pub fail_not_found: u64,
    /// Failed opens that were name collisions.
    pub fail_collision: u64,
    /// Successful opens with no data transfer.
    pub control_only: u64,
    /// (ok, failed) non-paging reads.
    pub reads: (u64, u64),
    /// (ok, failed) non-paging writes.
    pub writes: (u64, u64),
    /// (ok, failed) control operations.
    pub controls: (u64, u64),
    /// Reads of exactly 512 or 4096 bytes.
    pub common_read_sizes: u64,
    /// Read sizes (bytes).
    pub read_sizes: S,
    /// Write sizes (bytes).
    pub write_sizes: S,
    /// Intra-session read gaps (µs).
    pub read_gaps_us: S,
    /// Intra-session write gaps (µs).
    pub write_gaps_us: S,
    /// Cleanup-to-close gap for read sessions (µs).
    pub cleanup_to_close_read_us: S,
    /// Cleanup-to-close gap for written files (ms).
    pub cleanup_to_close_write_ms: S,
}

impl OpsAccumulator {
    /// An empty accumulator.
    pub fn new() -> Self {
        OpsAccumulator::default()
    }

    /// Bytes of live sketch state.
    pub(crate) fn state_bytes(&self) -> usize {
        self.read_sizes.state_bytes()
            + self.write_sizes.state_bytes()
            + self.read_gaps_us.state_bytes()
            + self.write_gaps_us.state_bytes()
            + self.cleanup_to_close_read_us.state_bytes()
            + self.cleanup_to_close_write_ms.state_bytes()
    }
}

impl<S: Samples> OpsAccumulator<S> {
    /// Feeds one raw record (the per-record half of §8).
    pub(crate) fn push_record(&mut self, rec: &TraceRecord) {
        self.push_request(rec.kind(), rec.is_paging(), rec.status, rec.length);
    }

    /// The per-record half of §8 over the four fields it reads, so that
    /// [`operational_stats`] feeds the fact table's columns without
    /// rebuilding each row.
    fn push_request(&mut self, kind: EventKind, paging: bool, status: NtStatus, length: u64) {
        if paging {
            return;
        }
        if kind.is_read() {
            if status.is_error() {
                self.reads.1 += 1;
            } else {
                self.reads.0 += 1;
                self.read_sizes.record(length as f64);
                if length == 512 || length == 4_096 {
                    self.common_read_sizes += 1;
                }
            }
        } else if kind.is_write() {
            if status.is_error() {
                self.writes.1 += 1;
            } else {
                self.writes.0 += 1;
                self.write_sizes.record(length as f64);
            }
        } else if !matches!(
            kind,
            EventKind::Irp(MajorFunction::Create)
                | EventKind::Irp(MajorFunction::Cleanup)
                | EventKind::Irp(MajorFunction::Close)
        ) {
            if status.is_error() {
                self.controls.1 += 1;
            } else {
                self.controls.0 += 1;
            }
        }
    }

    /// Feeds one finished instance (the per-session half of §8).
    pub fn push_instance(&mut self, inst: &Instance) {
        if inst.opened() {
            self.opens_ok += 1;
            if !inst.is_data() {
                self.control_only += 1;
            }
        } else {
            self.opens_failed += 1;
            match inst.open_status {
                NtStatus::ObjectNameNotFound | NtStatus::ObjectPathNotFound => {
                    self.fail_not_found += 1
                }
                NtStatus::ObjectNameCollision => self.fail_collision += 1,
                _ => {}
            }
        }
        for &g in &inst.read_gaps {
            self.read_gaps_us.record(g as f64 / 10.0);
        }
        for &g in &inst.write_gaps {
            self.write_gaps_us.record(g as f64 / 10.0);
        }
        if let (Some(cu), Some(cl)) = (inst.cleanup_ticks, inst.close_ticks) {
            let gap = cl.saturating_sub(cu);
            if inst.writes > 0 {
                self.cleanup_to_close_write_ms.record(gap as f64 / 10_000.0);
            } else {
                self.cleanup_to_close_read_us.record(gap as f64 / 10.0);
            }
        }
    }

    /// Merges another machine's accumulator in.
    pub fn merge(&mut self, other: &Self) {
        self.opens_ok += other.opens_ok;
        self.opens_failed += other.opens_failed;
        self.fail_not_found += other.fail_not_found;
        self.fail_collision += other.fail_collision;
        self.control_only += other.control_only;
        self.reads.0 += other.reads.0;
        self.reads.1 += other.reads.1;
        self.writes.0 += other.writes.0;
        self.writes.1 += other.writes.1;
        self.controls.0 += other.controls.0;
        self.controls.1 += other.controls.1;
        self.common_read_sizes += other.common_read_sizes;
        self.read_sizes.merge(&other.read_sizes);
        self.write_sizes.merge(&other.write_sizes);
        self.read_gaps_us.merge(&other.read_gaps_us);
        self.write_gaps_us.merge(&other.write_gaps_us);
        self.cleanup_to_close_read_us
            .merge(&other.cleanup_to_close_read_us);
        self.cleanup_to_close_write_ms
            .merge(&other.cleanup_to_close_write_ms);
    }

    /// Fraction of successful opens that moved no data.
    pub fn control_only_fraction(&self) -> f64 {
        if self.opens_ok == 0 {
            0.0
        } else {
            self.control_only as f64 / self.opens_ok as f64
        }
    }

    /// Not-found share of failed opens.
    pub fn open_fail_not_found(&self) -> f64 {
        if self.opens_failed == 0 {
            0.0
        } else {
            self.fail_not_found as f64 / self.opens_failed as f64
        }
    }

    /// Collision share of failed opens.
    pub fn open_fail_collision(&self) -> f64 {
        if self.opens_failed == 0 {
            0.0
        } else {
            self.fail_collision as f64 / self.opens_failed as f64
        }
    }

    fn rate((ok, fail): (u64, u64)) -> f64 {
        if ok + fail == 0 {
            0.0
        } else {
            fail as f64 / (ok + fail) as f64
        }
    }

    /// Read failure rate.
    pub fn read_failure_rate(&self) -> f64 {
        Self::rate(self.reads)
    }

    /// Write failure rate.
    pub fn write_failure_rate(&self) -> f64 {
        Self::rate(self.writes)
    }

    /// Control failure rate.
    pub fn control_failure_rate(&self) -> f64 {
        Self::rate(self.controls)
    }

    /// Fraction of successful reads sized exactly 512 or 4096 bytes.
    pub fn read_512_4096_fraction(&self) -> f64 {
        if self.reads.0 == 0 {
            0.0
        } else {
            self.common_read_sizes as f64 / self.reads.0 as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::test_support::synthetic_trace_set;

    #[test]
    fn streaming_counters_match_batch() {
        let ts = synthetic_trace_set(600, 85);
        let batch = operational_stats(&ts);
        let mut acc = OpsAccumulator::new();
        for (_, rec) in ts.records.iter() {
            acc.push_record(&rec);
        }
        for inst in &ts.instances {
            acc.push_instance(inst);
        }
        assert_eq!(acc.opens_ok, batch.opens_ok);
        assert_eq!(acc.opens_failed, batch.opens_failed);
        assert_eq!(acc.control_only_fraction(), batch.control_only_fraction);
        assert_eq!(acc.open_fail_not_found(), batch.open_fail_not_found);
        assert_eq!(acc.read_failure_rate(), batch.read_failure_rate);
        assert_eq!(acc.write_failure_rate(), batch.write_failure_rate);
        assert_eq!(acc.control_failure_rate(), batch.control_failure_rate);
        assert_eq!(acc.read_512_4096_fraction(), batch.read_512_4096_fraction);
        assert_eq!(acc.read_gaps_us.len(), batch.read_gaps_us.len() as u64);
        assert_eq!(acc.read_sizes.len(), batch.read_sizes.len() as u64);
        // Sketch medians track the exact CDF medians within bucket error.
        if let (Some(exact), Some(est)) = (batch.read_sizes.median(), acc.read_sizes.median()) {
            assert!((est - exact).abs() / exact < 0.05, "{est} vs {exact}");
        }
    }

    #[test]
    fn accumulator_merge_is_sum() {
        let ts = synthetic_trace_set(400, 86);
        let mut whole = OpsAccumulator::new();
        let mut left = OpsAccumulator::new();
        let mut right = OpsAccumulator::new();
        for (i, (_, rec)) in ts.records.iter().enumerate() {
            whole.push_record(&rec);
            if i % 2 == 0 {
                left.push_record(&rec);
            } else {
                right.push_record(&rec);
            }
        }
        left.merge(&right);
        assert_eq!(left.reads, whole.reads);
        assert_eq!(left.writes, whole.writes);
        assert_eq!(left.read_sizes.median(), whole.read_sizes.median());
    }

    #[test]
    fn failure_taxonomy() {
        let ts = synthetic_trace_set(800, 81);
        let s = operational_stats(&ts);
        assert!(s.opens_failed > 0);
        assert!(
            s.open_fail_not_found > 0.8,
            "the synthetic probes all fail not-found: {}",
            s.open_fail_not_found
        );
        assert_eq!(s.write_failure_rate, 0.0, "§8.4: no write errors");
        assert!(s.read_failure_rate < 0.2);
    }

    #[test]
    fn control_only_sessions_present() {
        let ts = synthetic_trace_set(800, 82);
        let s = operational_stats(&ts);
        assert!(s.control_only_fraction > 0.15);
        assert!(s.control_only_fraction < 0.9);
    }

    #[test]
    fn request_gaps_are_microsecond_scale() {
        let ts = synthetic_trace_set(600, 83);
        let s = operational_stats(&ts);
        if let Some(m) = s.read_gaps_us.median() {
            assert!(m < 10_000.0, "reads cluster in µs–ms range, got {m}");
        }
    }

    #[test]
    fn two_stage_close_gap_larger_for_writers() {
        let ts = synthetic_trace_set(700, 84);
        let s = operational_stats(&ts);
        let r = s.cleanup_to_close_read_us.median().unwrap_or(0.0);
        let w = s.cleanup_to_close_write_ms.median().unwrap_or(0.0);
        // Reads close in microseconds; writers wait for the lazy writer
        // (hundreds of ms and up).
        assert!(r < 1_000.0, "read close gap {r}us");
        assert!(w > 1.0, "write close gap {w}ms");
    }
}
