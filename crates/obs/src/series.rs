//! Ring-buffered time-series: gauges and counters sampled on the
//! simulated clock.
//!
//! The paper's collector turned the raw event stream into hourly
//! time-series plots (§5.2, fig. 4); this module is the reproduction's
//! equivalent. Capacity is bounded: each series keeps the newest
//! `capacity` points and counts what fell off, so a four-week
//! paper-scale run cannot grow telemetry without bound.

use std::collections::VecDeque;

/// How a series' samples combine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SeriesKind {
    /// A level read at sample time (bytes resident, queue depth).
    Gauge,
    /// A monotone cumulative count (events fired, bytes written); rates
    /// come from deltas between consecutive points.
    Counter,
}

impl SeriesKind {
    /// Stable lower-case name used in the JSONL export.
    pub const fn name(self) -> &'static str {
        match self {
            SeriesKind::Gauge => "gauge",
            SeriesKind::Counter => "counter",
        }
    }
}

/// One bounded series.
struct RingSeries {
    name: &'static str,
    kind: SeriesKind,
    points: VecDeque<(u64, f64)>,
    dropped: u64,
}

/// A machine's set of ring-buffered series, keyed by static name.
///
/// The registry is tiny (a handful of series per machine) so lookup is a
/// linear scan — no hashing, no allocation past the rings themselves.
pub struct SeriesRegistry {
    capacity: usize,
    series: Vec<RingSeries>,
}

impl SeriesRegistry {
    /// An empty registry whose rings hold `capacity` points each.
    pub fn new(capacity: usize) -> Self {
        SeriesRegistry {
            capacity,
            series: Vec::new(),
        }
    }

    /// Appends `(ticks, value)` to the named series, registering it on
    /// first use. The oldest point is dropped (and counted) once the
    /// ring is full.
    pub fn record(&mut self, name: &'static str, kind: SeriesKind, ticks: u64, value: f64) {
        if self.capacity == 0 {
            return;
        }
        let slot = match self.series.iter_mut().position(|s| s.name == name) {
            Some(i) => i,
            None => {
                self.series.push(RingSeries {
                    name,
                    kind,
                    points: VecDeque::with_capacity(self.capacity.min(1_024)),
                    dropped: 0,
                });
                self.series.len() - 1
            }
        };
        let s = &mut self.series[slot];
        if s.points.len() == self.capacity {
            s.points.pop_front();
            s.dropped += 1;
        }
        s.points.push_back((ticks, value));
    }

    /// Snapshots every series, in registration order.
    pub fn dump(&self) -> Vec<SeriesData> {
        self.series
            .iter()
            .map(|s| SeriesData {
                name: s.name.to_string(),
                kind: s.kind,
                points: s.points.iter().copied().collect(),
                dropped: s.dropped,
            })
            .collect()
    }
}

/// An owned snapshot of one series.
#[derive(Clone, Debug, PartialEq)]
pub struct SeriesData {
    /// Series name, e.g. `cache.resident_bytes`.
    pub name: String,
    /// Gauge or counter.
    pub kind: SeriesKind,
    /// `(sim ticks, value)`, oldest first.
    pub points: Vec<(u64, f64)>,
    /// Points that fell off the ring.
    pub dropped: u64,
}

impl SeriesData {
    /// The most recent value, if any point survives.
    pub fn last(&self) -> Option<f64> {
        self.points.last().map(|&(_, v)| v)
    }

    /// Raw values in time order.
    pub fn values(&self) -> Vec<f64> {
        self.points.iter().map(|&(_, v)| v).collect()
    }

    /// Per-interval deltas — the natural rendering of a counter. The
    /// first point yields its absolute value (delta from zero); gauges
    /// get their raw values back.
    pub fn rates(&self) -> Vec<f64> {
        match self.kind {
            SeriesKind::Gauge => self.values(),
            SeriesKind::Counter => {
                let mut prev = 0.0;
                self.points
                    .iter()
                    .map(|&(_, v)| {
                        let d = (v - prev).max(0.0);
                        prev = v;
                        d
                    })
                    .collect()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_drops_oldest_and_counts() {
        let mut r = SeriesRegistry::new(3);
        for i in 0..5u64 {
            r.record("x", SeriesKind::Gauge, i * 10, i as f64);
        }
        let d = r.dump();
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].points, vec![(20, 2.0), (30, 3.0), (40, 4.0)]);
        assert_eq!(d[0].dropped, 2);
        assert_eq!(d[0].last(), Some(4.0));
    }

    #[test]
    fn zero_capacity_registry_stays_empty() {
        let mut r = SeriesRegistry::new(0);
        r.record("x", SeriesKind::Gauge, 1, 1.0);
        assert!(r.dump().is_empty());
    }

    #[test]
    fn exactly_capacity_points_drop_nothing() {
        // The boundary itself: `capacity` inserts fill the ring
        // without evicting, and the dump reports a true zero drop count.
        let capacity = 4;
        let mut r = SeriesRegistry::new(capacity);
        for i in 0..capacity as u64 {
            r.record("x", SeriesKind::Counter, i * 10, i as f64);
        }
        let d = r.dump();
        assert_eq!(d[0].points.len(), capacity);
        assert_eq!(d[0].dropped, 0);
        assert_eq!(d[0].points[0], (0, 0.0), "oldest point intact");
    }

    #[test]
    fn capacity_plus_one_evicts_exactly_the_oldest() {
        let capacity = 4;
        let mut r = SeriesRegistry::new(capacity);
        for i in 0..=capacity as u64 {
            r.record("x", SeriesKind::Gauge, i * 10, i as f64);
        }
        let d = r.dump();
        assert_eq!(d[0].points.len(), capacity);
        assert_eq!(d[0].dropped, 1, "one insert past capacity, one drop");
        // Oldest-first drop order: point (0, 0.0) went, the rest slid.
        assert_eq!(
            d[0].points,
            vec![(10, 1.0), (20, 2.0), (30, 3.0), (40, 4.0)]
        );
    }

    #[test]
    fn dropped_count_tracks_every_eviction_across_series() {
        // Two series in one registry evict independently; each dump row
        // reports its own true count.
        let mut r = SeriesRegistry::new(2);
        for i in 0..7u64 {
            r.record("a", SeriesKind::Gauge, i, i as f64);
        }
        for i in 0..3u64 {
            r.record("b", SeriesKind::Gauge, i, i as f64);
        }
        let d = r.dump();
        assert_eq!(d[0].name, "a");
        assert_eq!(d[0].dropped, 5);
        assert_eq!(d[0].points, vec![(5, 5.0), (6, 6.0)]);
        assert_eq!(d[1].name, "b");
        assert_eq!(d[1].dropped, 1);
        assert_eq!(d[1].points, vec![(1, 1.0), (2, 2.0)]);
    }

    #[test]
    fn counter_rates_are_deltas() {
        let s = SeriesData {
            name: "ops".into(),
            kind: SeriesKind::Counter,
            points: vec![(0, 5.0), (10, 12.0), (20, 12.0), (30, 20.0)],
            dropped: 0,
        };
        assert_eq!(s.rates(), vec![5.0, 7.0, 0.0, 8.0]);
        let g = SeriesData {
            kind: SeriesKind::Gauge,
            ..s
        };
        assert_eq!(g.rates(), vec![5.0, 12.0, 12.0, 20.0]);
    }
}
