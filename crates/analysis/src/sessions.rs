//! Open-duration analysis — figures 5 and 12.
//!
//! Figure 5: the CDF of file open times for data sessions, split all /
//! local / network (the study found ~75 % under 10 ms and no meaningful
//! local-vs-remote difference). Figure 12: session lifetimes split all /
//! control-only / data.

use crate::cdf::Cdf;
use crate::schema::{Instance, TraceSet, UsageClass};
use crate::sketch::HistogramSketch;

/// Duration CDFs in milliseconds.
pub struct SessionDurations {
    /// All successful sessions.
    pub all: Cdf,
    /// Sessions that transferred data.
    pub data: Cdf,
    /// Control/directory-only sessions.
    pub control: Cdf,
    /// Data sessions on local volumes.
    pub data_local: Cdf,
    /// Data sessions on redirector volumes.
    pub data_network: Cdf,
    /// Read-only data sessions.
    pub read_only: Cdf,
    /// Write-only data sessions.
    pub write_only: Cdf,
    /// Read-write data sessions.
    pub read_write: Cdf,
}

fn dur_ms(i: &Instance) -> Option<f64> {
    i.duration_ticks().map(|t| t as f64 / 10_000.0)
}

/// Computes the duration CDFs from the instance table.
pub fn session_durations(ts: &TraceSet) -> SessionDurations {
    let ok: Vec<&Instance> = ts
        .instances
        .iter()
        .filter(|i| i.opened() && i.duration_ticks().is_some())
        .collect();
    let collect = |pred: &dyn Fn(&Instance) -> bool| {
        Cdf::from_samples(ok.iter().filter(|i| pred(i)).filter_map(|i| dur_ms(i)))
    };
    SessionDurations {
        all: collect(&|_| true),
        data: collect(&|i| i.is_data()),
        control: collect(&|i| !i.is_data()),
        data_local: collect(&|i| i.is_data() && i.local),
        data_network: collect(&|i| i.is_data() && !i.local),
        read_only: collect(&|i| i.usage_class() == Some(crate::schema::UsageClass::ReadOnly)),
        write_only: collect(&|i| i.usage_class() == Some(crate::schema::UsageClass::WriteOnly)),
        read_write: collect(&|i| i.usage_class() == Some(crate::schema::UsageClass::ReadWrite)),
    }
}

/// Streaming counterpart of [`session_durations`]: the figure-5/12
/// duration splits as sketches, maintained instance by instance.
#[derive(Debug, Default, PartialEq)]
pub struct SessionAccumulator {
    /// All successful sessions (ms).
    pub all: HistogramSketch,
    /// Data sessions.
    pub data: HistogramSketch,
    /// Control-only sessions.
    pub control: HistogramSketch,
    /// Data sessions on local volumes.
    pub data_local: HistogramSketch,
    /// Data sessions on redirector volumes.
    pub data_network: HistogramSketch,
    /// Read-only data sessions.
    pub read_only: HistogramSketch,
    /// Write-only data sessions.
    pub write_only: HistogramSketch,
    /// Read-write data sessions.
    pub read_write: HistogramSketch,
}

impl SessionAccumulator {
    /// An empty accumulator.
    pub fn new() -> Self {
        SessionAccumulator::default()
    }

    /// Feeds one finished instance.
    pub fn push_instance(&mut self, inst: &Instance) {
        if !inst.opened() {
            return;
        }
        let Some(ms) = dur_ms(inst) else {
            return;
        };
        self.all.record(ms);
        if inst.is_data() {
            self.data.record(ms);
            if inst.local {
                self.data_local.record(ms);
            } else {
                self.data_network.record(ms);
            }
        } else {
            self.control.record(ms);
        }
        match inst.usage_class() {
            Some(UsageClass::ReadOnly) => self.read_only.record(ms),
            Some(UsageClass::WriteOnly) => self.write_only.record(ms),
            Some(UsageClass::ReadWrite) => self.read_write.record(ms),
            None => {}
        }
    }

    /// Merges another machine's accumulator in.
    pub fn merge(&mut self, other: &SessionAccumulator) {
        self.all.merge(&other.all);
        self.data.merge(&other.data);
        self.control.merge(&other.control);
        self.data_local.merge(&other.data_local);
        self.data_network.merge(&other.data_network);
        self.read_only.merge(&other.read_only);
        self.write_only.merge(&other.write_only);
        self.read_write.merge(&other.read_write);
    }

    /// Bytes of live sketch state.
    pub(crate) fn state_bytes(&self) -> usize {
        [
            &self.all,
            &self.data,
            &self.control,
            &self.data_local,
            &self.data_network,
            &self.read_only,
            &self.write_only,
            &self.read_write,
        ]
        .iter()
        .map(|s| s.state_bytes())
        .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::test_support::synthetic_trace_set;

    #[test]
    fn streaming_splits_match_batch_counts() {
        let ts = synthetic_trace_set(250, 9);
        let batch = session_durations(&ts);
        let mut acc = SessionAccumulator::new();
        for inst in &ts.instances {
            acc.push_instance(inst);
        }
        assert_eq!(acc.all.len(), batch.all.len() as u64);
        assert_eq!(acc.data.len(), batch.data.len() as u64);
        assert_eq!(acc.control.len(), batch.control.len() as u64);
        assert_eq!(acc.data_local.len(), batch.data_local.len() as u64);
        if let (Some(exact), Some(est)) = (batch.all.median(), acc.all.median()) {
            assert!(
                (est - exact).abs() <= exact.max(0.01) * 0.05,
                "{est} vs {exact}"
            );
        }
    }

    #[test]
    fn duration_splits_partition_the_sessions() {
        let ts = synthetic_trace_set(200, 7);
        let d = session_durations(&ts);
        assert!(!d.all.is_empty());
        assert_eq!(d.all.len(), d.data.len() + d.control.len());
        assert_eq!(d.data.len(), d.data_local.len() + d.data_network.len());
        // Durations are positive milliseconds.
        assert!(d.all.range().unwrap().0 >= 0.0);
    }

    #[test]
    fn control_sessions_are_short() {
        let ts = synthetic_trace_set(300, 8);
        let d = session_durations(&ts);
        if let (Some(c90), Some(a90)) = (d.control.quantile(0.9), d.data.quantile(0.9)) {
            assert!(
                c90 <= a90 * 10.0,
                "control sessions are not the long tail: c90={c90} a90={a90}"
            );
        }
    }
}
