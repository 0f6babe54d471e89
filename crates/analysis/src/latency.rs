//! Request latency and size by access path — figures 13 and 14, §10.
//!
//! The four major request classes: FastIO read, FastIO write, IRP read,
//! IRP write (non-paging application requests). Figure 13 plots their
//! completion-latency CDFs — FastIO resolves in the cache in microseconds
//! while IRPs pay packet overhead and possibly a disk access. Figure 14
//! plots the request-size CDFs — FastIO requests skew smaller, because
//! multi-operation readers use targeted buffers (§10).

use nt_trace::TraceRecord;

use crate::cdf::Cdf;
use crate::schema::TraceSet;
use crate::sketch::HistogramSketch;

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

/// Computes the figure-13/14 CDFs from non-paging data records.
pub fn path_latencies(ts: &TraceSet) -> PathLatencies {
    let mut frl = Vec::new();
    let mut fwl = Vec::new();
    let mut irl = Vec::new();
    let mut iwl = Vec::new();
    let mut frs = Vec::new();
    let mut fws = Vec::new();
    let mut irs = Vec::new();
    let mut iws = Vec::new();
    // Columnar scan: codes + flags select data records, then only the
    // status, timestamp and length columns are touched.
    let t = &ts.records;
    let (statuses, starts, ends, lengths) =
        (t.statuses(), t.start_ticks(), t.end_ticks(), t.lengths());
    for i in 0..t.len() {
        let kind = t.kind_at(i);
        if !(kind.is_read() || kind.is_write()) || t.is_paging(i) {
            continue;
        }
        if statuses[i].is_error() {
            continue;
        }
        let lat_us = ends[i].saturating_sub(starts[i]) as f64 / 10.0;
        let size = lengths[i] as f64;
        match (kind.is_fastio(), kind.is_read()) {
            (true, true) => {
                frl.push(lat_us);
                frs.push(size);
            }
            (true, false) => {
                fwl.push(lat_us);
                fws.push(size);
            }
            (false, true) => {
                irl.push(lat_us);
                irs.push(size);
            }
            (false, false) => {
                iwl.push(lat_us);
                iws.push(size);
            }
        }
    }
    let reads = frl.len() + irl.len();
    let writes = fwl.len() + iwl.len();
    PathLatencies {
        fastio_read_fraction: if reads == 0 {
            0.0
        } else {
            frl.len() as f64 / reads as f64
        },
        fastio_write_fraction: if writes == 0 {
            0.0
        } else {
            fwl.len() as f64 / writes as f64
        },
        fastio_read_latency: Cdf::from_samples(frl),
        fastio_write_latency: Cdf::from_samples(fwl),
        irp_read_latency: Cdf::from_samples(irl),
        irp_write_latency: Cdf::from_samples(iwl),
        fastio_read_size: Cdf::from_samples(frs),
        fastio_write_size: Cdf::from_samples(fws),
        irp_read_size: Cdf::from_samples(irs),
        irp_write_size: Cdf::from_samples(iws),
    }
}

/// Streaming counterpart of [`path_latencies`]: per-class latency and
/// size sketches plus the FastIO fractions, maintained record by record.
#[derive(Debug, Default, PartialEq)]
pub struct LatencyAccumulator {
    /// FastIO read latency sketch (µs).
    pub fastio_read_latency: HistogramSketch,
    /// FastIO write latency sketch (µs).
    pub fastio_write_latency: HistogramSketch,
    /// IRP read latency sketch (µs).
    pub irp_read_latency: HistogramSketch,
    /// IRP write latency sketch (µs).
    pub irp_write_latency: HistogramSketch,
    /// FastIO read size sketch (bytes).
    pub fastio_read_size: HistogramSketch,
    /// FastIO write size sketch (bytes).
    pub fastio_write_size: HistogramSketch,
    /// IRP read size sketch (bytes).
    pub irp_read_size: HistogramSketch,
    /// IRP write size sketch (bytes).
    pub irp_write_size: HistogramSketch,
}

impl LatencyAccumulator {
    /// An empty accumulator.
    pub fn new() -> Self {
        LatencyAccumulator::default()
    }

    /// Feeds one record; paging and error records are ignored, exactly
    /// like the batch path.
    pub(crate) fn push_record(&mut self, rec: &TraceRecord) {
        let kind = rec.kind();
        if !(kind.is_read() || kind.is_write()) || rec.is_paging() || rec.status.is_error() {
            return;
        }
        let lat_us = rec.latency_ticks() as f64 / 10.0;
        let size = rec.length as f64;
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
    pub fn merge(&mut self, other: &LatencyAccumulator) {
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
