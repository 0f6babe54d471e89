//! Request latency and size by access path — figures 13 and 14, §10.
//!
//! The four major request classes: FastIO read, FastIO write, IRP read,
//! IRP write (non-paging application requests). Figure 13 plots their
//! completion-latency CDFs — FastIO resolves in the cache in microseconds
//! while IRPs pay packet overhead and possibly a disk access. Figure 14
//! plots the request-size CDFs — FastIO requests skew smaller, because
//! multi-operation readers use targeted buffers (§10).

use nt_io::{EventKind, NtStatus};
use nt_trace::TraceRecord;

use crate::cdf::Cdf;
use crate::schema::TraceSet;
use crate::sketch::{ExactSamples, HistogramSketch, Samples};

/// The per-class latency and size CDFs.
pub struct PathLatencies {
    /// FastIO read latency (microseconds).
    pub fastio_read_latency: Cdf,
    /// FastIO write latency.
    pub fastio_write_latency: Cdf,
    /// IRP read latency (non-paging).
    pub irp_read_latency: Cdf,
    /// IRP write latency (non-paging).
    pub irp_write_latency: Cdf,
    /// FastIO read request sizes (bytes).
    pub fastio_read_size: Cdf,
    /// FastIO write sizes.
    pub fastio_write_size: Cdf,
    /// IRP read sizes.
    pub irp_read_size: Cdf,
    /// IRP write sizes.
    pub irp_write_size: Cdf,
    /// Fraction of reads on the FastIO path (§10: 59 %).
    pub fastio_read_fraction: f64,
    /// Fraction of writes on the FastIO path (§10: 96 %).
    pub fastio_write_fraction: f64,
}

/// Computes the figure-13/14 CDFs from non-paging data records:
/// [`LatencyAccumulator`] folded over every record with exact samples.
pub fn path_latencies(ts: &TraceSet) -> PathLatencies {
    let mut acc = LatencyAccumulator::<ExactSamples>::default();
    let t = &ts.records;
    let (statuses, starts, ends, lengths) =
        (t.statuses(), t.start_ticks(), t.end_ticks(), t.lengths());
    for i in 0..t.len() {
        let latency_ticks = ends[i].saturating_sub(starts[i]);
        acc.push_request(
            t.kind_at(i),
            t.is_paging(i),
            statuses[i],
            latency_ticks,
            lengths[i],
        );
    }
    PathLatencies {
        fastio_read_fraction: acc.fastio_read_fraction(),
        fastio_write_fraction: acc.fastio_write_fraction(),
        fastio_read_latency: Cdf::from_weighted(acc.fastio_read_latency),
        fastio_write_latency: Cdf::from_weighted(acc.fastio_write_latency),
        irp_read_latency: Cdf::from_weighted(acc.irp_read_latency),
        irp_write_latency: Cdf::from_weighted(acc.irp_write_latency),
        fastio_read_size: Cdf::from_weighted(acc.fastio_read_size),
        fastio_write_size: Cdf::from_weighted(acc.fastio_write_size),
        irp_read_size: Cdf::from_weighted(acc.irp_read_size),
        irp_write_size: Cdf::from_weighted(acc.irp_write_size),
    }
}

/// The one classifier of the figure-13/14 request classes: per-class
/// latency and size samples, fed record by record. The streaming sinks
/// keep them in sketches; [`path_latencies`] folds it over the fact
/// tables with exact samples.
#[derive(Debug, Default, PartialEq)]
pub struct LatencyAccumulator<S = HistogramSketch> {
    /// FastIO read latency (µs).
    pub fastio_read_latency: S,
    /// FastIO write latency (µs).
    pub fastio_write_latency: S,
    /// IRP read latency (µs).
    pub irp_read_latency: S,
    /// IRP write latency (µs).
    pub irp_write_latency: S,
    /// FastIO read size (bytes).
    pub fastio_read_size: S,
    /// FastIO write size (bytes).
    pub fastio_write_size: S,
    /// IRP read size (bytes).
    pub irp_read_size: S,
    /// IRP write size (bytes).
    pub irp_write_size: S,
}

impl LatencyAccumulator {
    /// An empty accumulator.
    pub fn new() -> Self {
        LatencyAccumulator::default()
    }

    /// Bytes of live sketch state.
    pub(crate) fn state_bytes(&self) -> usize {
        self.fastio_read_latency.state_bytes()
            + self.fastio_write_latency.state_bytes()
            + self.irp_read_latency.state_bytes()
            + self.irp_write_latency.state_bytes()
            + self.fastio_read_size.state_bytes()
            + self.fastio_write_size.state_bytes()
            + self.irp_read_size.state_bytes()
            + self.irp_write_size.state_bytes()
    }
}

impl<S: Samples> LatencyAccumulator<S> {
    /// Feeds one record; paging, error and non-data records are ignored.
    pub(crate) fn push_record(&mut self, rec: &TraceRecord) {
        self.push_request(
            rec.kind(),
            rec.is_paging(),
            rec.status,
            rec.latency_ticks(),
            rec.length,
        );
    }

    /// [`LatencyAccumulator::push_record`] over the five fields it reads,
    /// so that [`path_latencies`] feeds the fact table's columns without
    /// rebuilding each row.
    fn push_request(
        &mut self,
        kind: EventKind,
        paging: bool,
        status: NtStatus,
        latency_ticks: u64,
        length: u64,
    ) {
        if !(kind.is_read() || kind.is_write()) || paging || status.is_error() {
            return;
        }
        let lat_us = latency_ticks as f64 / 10.0;
        let size = length as f64;
        let (lat, sz) = match (kind.is_fastio(), kind.is_read()) {
            (true, true) => (&mut self.fastio_read_latency, &mut self.fastio_read_size),
            (true, false) => (&mut self.fastio_write_latency, &mut self.fastio_write_size),
            (false, true) => (&mut self.irp_read_latency, &mut self.irp_read_size),
            (false, false) => (&mut self.irp_write_latency, &mut self.irp_write_size),
        };
        lat.record(lat_us);
        sz.record(size);
    }

    /// Merges another machine's accumulator in.
    pub fn merge(&mut self, other: &Self) {
        self.fastio_read_latency.merge(&other.fastio_read_latency);
        self.fastio_write_latency.merge(&other.fastio_write_latency);
        self.irp_read_latency.merge(&other.irp_read_latency);
        self.irp_write_latency.merge(&other.irp_write_latency);
        self.fastio_read_size.merge(&other.fastio_read_size);
        self.fastio_write_size.merge(&other.fastio_write_size);
        self.irp_read_size.merge(&other.irp_read_size);
        self.irp_write_size.merge(&other.irp_write_size);
    }

    /// Fraction of reads on the FastIO path.
    pub fn fastio_read_fraction(&self) -> f64 {
        let total = self.fastio_read_latency.len() + self.irp_read_latency.len();
        if total == 0 {
            0.0
        } else {
            self.fastio_read_latency.len() as f64 / total as f64
        }
    }

    /// Fraction of writes on the FastIO path.
    pub fn fastio_write_fraction(&self) -> f64 {
        let total = self.fastio_write_latency.len() + self.irp_write_latency.len();
        if total == 0 {
            0.0
        } else {
            self.fastio_write_latency.len() as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::test_support::synthetic_trace_set;

    #[test]
    fn streaming_fractions_match_batch() {
        let ts = synthetic_trace_set(500, 33);
        let batch = path_latencies(&ts);
        let mut acc = LatencyAccumulator::new();
        for (_, rec) in ts.records.iter() {
            acc.push_record(&rec);
        }
        assert_eq!(acc.fastio_read_fraction(), batch.fastio_read_fraction);
        assert_eq!(acc.fastio_write_fraction(), batch.fastio_write_fraction);
        assert_eq!(
            acc.fastio_read_latency.len(),
            batch.fastio_read_latency.len() as u64
        );
        let exact = batch.irp_read_latency.median().unwrap();
        let est = acc.irp_read_latency.median().unwrap();
        assert!((est - exact).abs() / exact < 0.05, "{est} vs {exact}");
    }

    #[test]
    fn fastio_is_faster_than_irp() {
        let ts = synthetic_trace_set(500, 31);
        let p = path_latencies(&ts);
        let f = p.fastio_read_latency.median().unwrap();
        let i = p.irp_read_latency.median().unwrap();
        assert!(f < i, "FastIO median {f}us vs IRP {i}us");
    }

    #[test]
    fn write_path_is_mostly_fastio() {
        let ts = synthetic_trace_set(500, 32);
        let p = path_latencies(&ts);
        assert!(
            p.fastio_write_fraction > 0.7,
            "§10: ≈96 % of writes ride FastIO, got {}",
            p.fastio_write_fraction
        );
        assert!(p.fastio_read_fraction > 0.3);
        assert!(p.fastio_read_fraction < 1.0);
    }
}
