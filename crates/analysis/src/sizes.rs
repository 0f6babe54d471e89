//! File-size distributions of accessed files — figures 3 and 4.
//!
//! Figure 3 weighs each opened file's size by the number of opens
//! (finding: 80 % of accessed files under ≈ 26 KB); figure 4 weighs by
//! bytes transferred (finding: the large files carry the bytes — the top
//! 20 % are over 4 MB).

use crate::cdf::Cdf;
use crate::schema::{Instance, TraceSet, UsageClass};
use crate::sketch::{ExactSamples, HistogramSketch, Samples};

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

/// Builds the accessed-file-size CDFs from the instance table:
/// [`SizeAccumulator`] folded over every instance with exact samples.
pub fn accessed_sizes(ts: &TraceSet) -> AccessedSizes {
    let mut acc = SizeAccumulator::<ExactSamples>::default();
    for inst in &ts.instances {
        acc.push_instance(inst);
    }
    let all_by_opens = Cdf::from_weighted(acc.all_by_opens());
    let all_by_bytes = Cdf::from_weighted(acc.all_by_bytes());
    let [read_only_by_opens, write_only_by_opens, read_write_by_opens] =
        acc.by_opens.map(Cdf::from_weighted);
    let [read_only_by_bytes, write_only_by_bytes, read_write_by_bytes] =
        acc.by_bytes.map(Cdf::from_weighted);
    AccessedSizes {
        read_only_by_opens,
        write_only_by_opens,
        read_write_by_opens,
        all_by_opens,
        read_only_by_bytes,
        write_only_by_bytes,
        read_write_by_bytes,
        all_by_bytes,
    }
}

/// The one classifier of the figure-3/4 size samples: per-class sizes,
/// per open and byte-weighted, fed instance by instance. The streaming
/// sinks keep them in sketches; [`accessed_sizes`] folds it over the
/// instance table with exact samples.
#[derive(Debug, Default, PartialEq)]
pub struct SizeAccumulator<S = HistogramSketch> {
    /// Per-open sizes indexed ReadOnly/WriteOnly/ReadWrite.
    pub by_opens: [S; 3],
    /// Byte-weighted sizes in the same order.
    pub by_bytes: [S; 3],
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

    /// Bytes of live sketch state.
    pub(crate) fn state_bytes(&self) -> usize {
        self.by_opens
            .iter()
            .chain(self.by_bytes.iter())
            .map(|s| s.state_bytes())
            .sum()
    }
}

impl<S: Samples> SizeAccumulator<S> {
    /// Feeds one finished instance (control-only sessions are skipped).
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
    pub fn merge(&mut self, other: &Self) {
        for i in 0..3 {
            self.by_opens[i].merge(&other.by_opens[i]);
            self.by_bytes[i].merge(&other.by_bytes[i]);
        }
    }

    /// Combined per-open samples across all classes (figure 3).
    pub fn all_by_opens(&self) -> S
    where
        S: Clone,
    {
        all_classes(&self.by_opens)
    }

    /// Combined byte-weighted samples across all classes (figure 4).
    pub fn all_by_bytes(&self) -> S
    where
        S: Clone,
    {
        all_classes(&self.by_bytes)
    }
}

/// The three classes' samples merged, in class order.
fn all_classes<S: Samples + Clone>([first, rest @ ..]: &[S; 3]) -> S {
    let mut all = first.clone();
    for class in rest {
        all.merge(class);
    }
    all
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
