//! File-size distributions of accessed files — figures 3 and 4.
//!
//! Figure 3 weighs each opened file's size by the number of opens
//! (finding: 80 % of accessed files under ≈ 26 KB); figure 4 weighs by
//! bytes transferred (finding: the large files carry the bytes — the top
//! 20 % are over 4 MB).

use crate::cdf::Cdf;
use crate::schema::{Instance, TraceSet, UsageClass};
use crate::sketch::HistogramSketch;

/// Size CDFs per usage class; sizes in bytes.
pub struct AccessedSizes {
    /// Read-only sessions, weighted per open (figure 3).
    pub read_only_by_opens: Cdf,
    /// Write-only sessions, per open.
    pub write_only_by_opens: Cdf,
    /// Read-write sessions, per open.
    pub read_write_by_opens: Cdf,
    /// All data sessions, per open.
    pub all_by_opens: Cdf,
    /// Read-only sessions, weighted by bytes transferred (figure 4).
    pub read_only_by_bytes: Cdf,
    /// Write-only sessions, by bytes.
    pub write_only_by_bytes: Cdf,
    /// Read-write sessions, by bytes.
    pub read_write_by_bytes: Cdf,
    /// All data sessions, by bytes.
    pub all_by_bytes: Cdf,
}

/// Builds the accessed-file-size CDFs from the instance table.
pub fn accessed_sizes(ts: &TraceSet) -> AccessedSizes {
    let data: Vec<(UsageClass, u64, u64)> = ts
        .instances
        .iter()
        .filter_map(|i| Some((i.usage_class()?, i.file_size.max(1), i.bytes())))
        .collect();
    let opens = |class: Option<UsageClass>| {
        Cdf::from_samples(
            data.iter()
                .filter(|(c, _, _)| class.is_none_or(|cl| *c == cl))
                .map(|(_, s, _)| *s as f64),
        )
    };
    let bytes = |class: Option<UsageClass>| {
        Cdf::from_weighted(
            data.iter()
                .filter(|(c, _, b)| class.is_none_or(|cl| *c == cl) && *b > 0)
                .map(|(_, s, b)| (*s as f64, *b as f64)),
        )
    };
    AccessedSizes {
        read_only_by_opens: opens(Some(UsageClass::ReadOnly)),
        write_only_by_opens: opens(Some(UsageClass::WriteOnly)),
        read_write_by_opens: opens(Some(UsageClass::ReadWrite)),
        all_by_opens: opens(None),
        read_only_by_bytes: bytes(Some(UsageClass::ReadOnly)),
        write_only_by_bytes: bytes(Some(UsageClass::WriteOnly)),
        read_write_by_bytes: bytes(Some(UsageClass::ReadWrite)),
        all_by_bytes: bytes(None),
    }
}

/// Streaming counterpart of [`accessed_sizes`]: per-class size sketches
/// (per-open and byte-weighted) maintained instance by instance.
#[derive(Debug, Default, PartialEq)]
pub struct SizeAccumulator {
    /// Per-open sketches indexed ReadOnly/WriteOnly/ReadWrite.
    pub by_opens: [HistogramSketch; 3],
    /// Byte-weighted sketches in the same order.
    pub by_bytes: [HistogramSketch; 3],
}

fn class_index(c: UsageClass) -> usize {
    match c {
        UsageClass::ReadOnly => 0,
        UsageClass::WriteOnly => 1,
        UsageClass::ReadWrite => 2,
    }
}

impl SizeAccumulator {
    /// An empty accumulator.
    pub fn new() -> Self {
        SizeAccumulator::default()
    }

    /// Feeds one finished instance (control-only sessions are skipped,
    /// exactly like the batch path).
    pub fn push_instance(&mut self, inst: &Instance) {
        let Some(class) = inst.usage_class() else {
            return;
        };
        let i = class_index(class);
        let size = inst.file_size.max(1) as f64;
        self.by_opens[i].record(size);
        let bytes = inst.bytes();
        if bytes > 0 {
            self.by_bytes[i].record_weighted(size, bytes);
        }
    }

    /// Merges another machine's accumulator in.
    pub fn merge(&mut self, other: &SizeAccumulator) {
        for i in 0..3 {
            self.by_opens[i].merge(&other.by_opens[i]);
            self.by_bytes[i].merge(&other.by_bytes[i]);
        }
    }

    /// Combined per-open sketch across all classes (figure 3).
    pub fn all_by_opens(&self) -> HistogramSketch {
        let mut all = self.by_opens[0].clone();
        all.merge(&self.by_opens[1]);
        all.merge(&self.by_opens[2]);
        all
    }

    /// Combined byte-weighted sketch across all classes (figure 4).
    pub fn all_by_bytes(&self) -> HistogramSketch {
        let mut all = self.by_bytes[0].clone();
        all.merge(&self.by_bytes[1]);
        all.merge(&self.by_bytes[2]);
        all
    }

    /// Bytes of live sketch state.
    pub(crate) fn state_bytes(&self) -> usize {
        self.by_opens
            .iter()
            .chain(self.by_bytes.iter())
            .map(|s| s.state_bytes())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::test_support::synthetic_trace_set;

    #[test]
    fn streaming_sketches_match_batch_counts() {
        let ts = synthetic_trace_set(400, 23);
        let batch = accessed_sizes(&ts);
        let mut acc = SizeAccumulator::new();
        for inst in &ts.instances {
            acc.push_instance(inst);
        }
        assert_eq!(acc.all_by_opens().len(), batch.all_by_opens.len() as u64);
        assert_eq!(acc.by_opens[0].len(), batch.read_only_by_opens.len() as u64);
        let exact = batch.all_by_opens.median().unwrap();
        let est = acc.all_by_opens().median().unwrap();
        assert!((est - exact).abs() / exact < 0.05, "{est} vs {exact}");
        // Byte weighting shifts the sketch right too.
        assert!(acc.all_by_bytes().median().unwrap() >= est / 1.1);
    }

    #[test]
    fn classes_cover_all_data_sessions() {
        let ts = synthetic_trace_set(400, 21);
        let s = accessed_sizes(&ts);
        assert_eq!(
            s.all_by_opens.len(),
            s.read_only_by_opens.len() + s.write_only_by_opens.len() + s.read_write_by_opens.len()
        );
        assert!(!s.all_by_bytes.is_empty());
    }

    #[test]
    fn byte_weighting_shifts_towards_large_files() {
        let ts = synthetic_trace_set(500, 22);
        let s = accessed_sizes(&ts);
        let by_opens = s.all_by_opens.median().unwrap();
        let by_bytes = s.all_by_bytes.median().unwrap();
        assert!(
            by_bytes >= by_opens,
            "figure 4 sits right of figure 3: {by_opens} vs {by_bytes}"
        );
    }
}
