//! Open-request inter-arrival analysis — figure 11 and §8.1.
//!
//! "Figure 11 displays inter-arrival times of open requests arriving at
//! the file system: 40 % of the requests arrive within 1 millisecond of a
//! previous request, while 90 % arrives within 30 milliseconds." The
//! figure splits opens that lead to I/O from opens for control, which the
//! instance table tells us after the fact.

use std::collections::HashMap;

use crate::cdf::Cdf;
use crate::gaps::LossWindows;
use crate::schema::{Instance, TraceSet};
use crate::sketch::HistogramSketch;

/// Inter-arrival CDFs (milliseconds).
pub struct OpenArrivals {
    /// All open requests.
    pub all: Cdf,
    /// Opens whose session transferred data.
    pub for_io: Cdf,
    /// Opens used for control/directory work only.
    pub for_control: Cdf,
    /// Fraction of 1-second intervals with at least one open (§8.1:
    /// "only up to 24 % of the 1-second intervals of a user's session
    /// have open requests recorded for them").
    pub active_second_fraction: f64,
}

/// Computes figure 11 from the instance table (per machine, then merged:
/// inter-arrivals only make sense within one machine's request stream).
pub fn open_arrivals(ts: &TraceSet) -> OpenArrivals {
    open_arrivals_excluding(ts, &LossWindows::new())
}

/// [`open_arrivals`] over a degraded trace: inter-arrival pairs whose
/// span crosses a lossy window of their machine are dropped (a
/// suspension would otherwise masquerade as one giant gap), and seconds
/// inside lossy windows leave the active-second denominator. With no
/// windows this is exactly [`open_arrivals`].
pub fn open_arrivals_excluding(ts: &TraceSet, lossy: &LossWindows) -> OpenArrivals {
    let mut all = Vec::new();
    let mut for_io = Vec::new();
    let mut for_control = Vec::new();
    let mut by_machine: HashMap<u32, Vec<(u64, bool)>> = HashMap::new();
    for inst in &ts.instances {
        by_machine
            .entry(inst.machine)
            .or_default()
            .push((inst.open_start_ticks, inst.is_data()));
    }
    let mut active_seconds: u64 = 0;
    let mut total_seconds: u64 = 0;
    for (machine, mut opens) in by_machine {
        opens.sort_unstable();
        // Overall gaps.
        for w in opens.windows(2) {
            if lossy.span_is_lossy(machine, w[0].0, w[1].0) {
                continue;
            }
            all.push((w[1].0 - w[0].0) as f64 / 10_000.0);
        }
        // Per-class gaps, measured within each class's own stream.
        for data in [true, false] {
            let stream: Vec<u64> = opens
                .iter()
                .filter(|(_, d)| *d == data)
                .map(|(t, _)| *t)
                .collect();
            let out = if data { &mut for_io } else { &mut for_control };
            for w in stream.windows(2) {
                if lossy.span_is_lossy(machine, w[0], w[1]) {
                    continue;
                }
                out.push((w[1] - w[0]) as f64 / 10_000.0);
            }
        }
        // Active-second accounting.
        if let (Some(first), Some(last)) = (opens.first(), opens.last()) {
            let lo = first.0 / 10_000_000;
            let hi = last.0 / 10_000_000;
            let lossy_seconds = (lo..=hi)
                .filter(|s| {
                    !lossy.for_machine(machine).is_empty()
                        && lossy.span_is_lossy(machine, s * 10_000_000, (s + 1) * 10_000_000 - 1)
                })
                .count() as u64;
            total_seconds += (hi - lo + 1).saturating_sub(lossy_seconds);
            let mut secs: Vec<u64> = opens.iter().map(|(t, _)| t / 10_000_000).collect();
            secs.dedup();
            let mut unique = secs;
            unique.sort_unstable();
            unique.dedup();
            unique.retain(|s| {
                !lossy.span_is_lossy(machine, s * 10_000_000, (s + 1) * 10_000_000 - 1)
            });
            active_seconds += unique.len() as u64;
        }
    }
    OpenArrivals {
        all: Cdf::from_samples(all),
        for_io: Cdf::from_samples(for_io),
        for_control: Cdf::from_samples(for_control),
        active_second_fraction: if total_seconds == 0 {
            0.0
        } else {
            active_seconds as f64 / total_seconds as f64
        },
    }
}

/// Streaming counterpart of [`open_arrivals`] for ONE machine's stream.
///
/// The batch analysis sorts every open tick before differencing; the
/// streaming path sees opens in session-completion order, which is only
/// *near*-sorted by open time, so gaps are taken against the largest tick
/// seen so far and out-of-order arrivals are counted but not differenced.
/// Figure-11 numbers from this accumulator are therefore approximate
/// (the fact tables themselves stay exact); `reordered` reports how many
/// arrivals the approximation skipped. That is why [`open_arrivals`] does
/// not fold this accumulator the way the §8–§10 batch functions fold
/// theirs: the sort and the high-water tick are two algorithms, not one
/// classifier written twice.
#[derive(Debug, Default, PartialEq)]
pub struct ArrivalAccumulator {
    /// Inter-open gaps, all opens (ms).
    pub all: HistogramSketch,
    /// Gaps within the data-session open stream (ms).
    pub for_io: HistogramSketch,
    /// Gaps within the control-session open stream (ms).
    pub for_control: HistogramSketch,
    /// Arrivals that came in below the stream's high-water tick.
    pub reordered: u64,
    last: [Option<u64>; 3],
    span: Option<(u64, u64)>,
    active_seconds: u64,
    last_second: Option<u64>,
    /// Seconds spanned by machines already merged in.
    merged_total_seconds: u64,
}

impl ArrivalAccumulator {
    /// An empty accumulator.
    pub fn new() -> Self {
        ArrivalAccumulator::default()
    }

    /// Feeds one finished instance's open arrival.
    pub fn push_instance(&mut self, inst: &Instance) {
        let tick = inst.open_start_ticks;
        let class_idx = if inst.is_data() { 1 } else { 2 };
        for idx in [0, class_idx] {
            match self.last[idx] {
                Some(prev) if tick < prev => {
                    if idx == 0 {
                        self.reordered += 1;
                    }
                }
                Some(prev) => {
                    let gap = (tick - prev) as f64 / 10_000.0;
                    match idx {
                        0 => self.all.record(gap),
                        1 => self.for_io.record(gap),
                        _ => self.for_control.record(gap),
                    }
                    self.last[idx] = Some(tick);
                }
                None => self.last[idx] = Some(tick),
            }
        }
        // Active-second accounting.
        let sec = tick / 10_000_000;
        self.span = Some(match self.span {
            None => (sec, sec),
            Some((lo, hi)) => (lo.min(sec), hi.max(sec)),
        });
        if self.last_second.is_none_or(|l| sec > l) {
            self.active_seconds += 1;
            self.last_second = Some(sec);
        }
    }

    fn span_seconds(&self) -> u64 {
        self.span.map_or(0, |(lo, hi)| hi - lo + 1)
    }

    /// Merges another machine's accumulator in. Inter-arrival streams are
    /// per-machine, so only the distributions and second counts combine;
    /// each machine's own trace span enters the denominator, mirroring
    /// the batch sum.
    pub fn merge(&mut self, other: &ArrivalAccumulator) {
        self.all.merge(&other.all);
        self.for_io.merge(&other.for_io);
        self.for_control.merge(&other.for_control);
        self.reordered += other.reordered;
        self.active_seconds += other.active_seconds;
        self.merged_total_seconds += other.merged_total_seconds + other.span_seconds();
    }

    /// Fraction of 1-second intervals with at least one open.
    pub fn active_second_fraction(&self) -> f64 {
        let total = self.merged_total_seconds + self.span_seconds();
        if total == 0 {
            0.0
        } else {
            self.active_seconds as f64 / total as f64
        }
    }

    /// Bytes of live sketch state.
    pub(crate) fn state_bytes(&self) -> usize {
        self.all.state_bytes() + self.for_io.state_bytes() + self.for_control.state_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::test_support::synthetic_trace_set;

    #[test]
    fn streaming_arrivals_track_batch() {
        let ts = synthetic_trace_set(400, 3);
        let batch = open_arrivals(&ts);
        let mut acc = ArrivalAccumulator::new();
        for inst in &ts.instances {
            acc.push_instance(inst);
        }
        // Every arrival beyond the first is either differenced or counted
        // as reordered; on one machine that sums to the batch gap count.
        assert_eq!(acc.all.len() + acc.reordered, batch.all.len() as u64);
        assert!(
            acc.reordered < batch.all.len() as u64 / 5,
            "completion order is near-sorted: {} reordered of {}",
            acc.reordered,
            batch.all.len()
        );
        let exact = batch.all.median().unwrap();
        let est = acc.all.median().unwrap();
        assert!(
            (est - exact).abs() <= exact * 0.25,
            "median {est} vs {exact}"
        );
        let f = acc.active_second_fraction();
        assert!((f - batch.active_second_fraction).abs() < 0.1);
    }

    #[test]
    fn arrivals_have_both_classes() {
        let ts = synthetic_trace_set(400, 3);
        let a = open_arrivals(&ts);
        assert!(a.all.len() > 100);
        assert!(!a.for_io.is_empty());
        assert!(!a.for_control.is_empty());
        assert!(a.all.len() >= a.for_io.len().max(a.for_control.len()));
    }

    #[test]
    fn burstiness_leaves_most_seconds_idle() {
        let ts = synthetic_trace_set(400, 4);
        let a = open_arrivals(&ts);
        assert!(
            a.active_second_fraction < 0.9,
            "got {}",
            a.active_second_fraction
        );
        assert!(a.active_second_fraction > 0.0);
    }

    #[test]
    fn excluding_nothing_changes_nothing() {
        let ts = synthetic_trace_set(400, 6);
        let clean = open_arrivals(&ts);
        let same = open_arrivals_excluding(&ts, &LossWindows::new());
        assert_eq!(clean.all.len(), same.all.len());
        assert_eq!(clean.active_second_fraction, same.active_second_fraction);
    }

    #[test]
    fn lossy_windows_remove_spanning_gaps() {
        let ts = synthetic_trace_set(400, 7);
        let clean = open_arrivals(&ts);
        // Declare the middle of every machine's stream lossy.
        let mut lossy = LossWindows::new();
        for &m in &ts.machines() {
            let ticks: Vec<u64> = ts
                .instances
                .iter()
                .filter(|i| i.machine == m)
                .map(|i| i.open_start_ticks)
                .collect();
            let (lo, hi) = (*ticks.iter().min().unwrap(), *ticks.iter().max().unwrap());
            let mid = lo + (hi - lo) / 2;
            lossy.add(m, nt_trace::TickWindow::new(mid, mid + (hi - lo) / 4));
        }
        let degraded = open_arrivals_excluding(&ts, &lossy);
        assert!(
            degraded.all.len() < clean.all.len(),
            "gaps spanning lossy windows are excluded: {} vs {}",
            degraded.all.len(),
            clean.all.len()
        );
        assert!(!degraded.all.is_empty(), "the rest of the trace survives");
    }

    #[test]
    fn gaps_are_heavy_tailed() {
        let ts = synthetic_trace_set(500, 5);
        let a = open_arrivals(&ts);
        let median = a.all.median().unwrap();
        let p99 = a.all.quantile(0.99).unwrap();
        assert!(p99 > median * 10.0, "median {median} p99 {p99}");
    }
}
