//! Directly-follows graphs over per-file event sequences.
//!
//! Process-mining treats a log as a set of cases, each a sequence of
//! activities, and summarizes it as a *directly-follows graph* (DFG):
//! nodes are activities, an edge `a → b` counts how often `b` directly
//! follows `a` within a case. Here a case is one file object's event
//! sequence on one machine and an activity is the event kind's wire code,
//! so the DFG captures the control-flow shape of file usage — how often
//! a create is followed by a read, a read by another read, a write by a
//! cleanup — independent of volumes, paths, sizes, and timestamps.
//!
//! That independence is what makes the DFG a good *structural
//! conformance* check for the NTT warehouse: exporting a study and
//! re-ingesting it must not change any file's event sequence, so the
//! live-run DFG and the reimported DFG must be identical — a
//! [`Dfg::similarity`] of exactly `1.0`. The similarity is a weighted
//! Jaccard over node, start, and edge frequencies, so any dropped,
//! duplicated, or reordered record moves it below one.

use std::collections::BTreeMap;

use crate::schema::TraceSet;

/// Accumulates event sequences into a [`Dfg`].
///
/// Events must be pushed in each file object's observed order; different
/// file objects (and machines) may interleave freely — the builder keeps
/// one predecessor slot per `(machine, file_object)` case.
#[derive(Default)]
pub(crate) struct DfgBuilder {
    nodes: BTreeMap<u8, u64>,
    starts: BTreeMap<u8, u64>,
    edges: BTreeMap<(u8, u8), u64>,
    last: BTreeMap<(u32, u64), u8>,
    events: u64,
}

impl DfgBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds one event of `file_object`'s sequence on `machine`.
    pub fn push(&mut self, machine: u32, file_object: u64, code: u8) {
        self.events += 1;
        *self.nodes.entry(code).or_insert(0) += 1;
        match self.last.insert((machine, file_object), code) {
            Some(prev) => *self.edges.entry((prev, code)).or_insert(0) += 1,
            None => *self.starts.entry(code).or_insert(0) += 1,
        }
    }

    /// The finished graph.
    pub fn finish(self) -> Dfg {
        Dfg {
            nodes: self.nodes,
            starts: self.starts,
            edges: self.edges,
            cases: self.last.len() as u64,
            events: self.events,
        }
    }
}

/// A frequency-annotated directly-follows graph.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Dfg {
    /// Event-kind code → occurrence count.
    pub nodes: BTreeMap<u8, u64>,
    /// Event-kind code → number of cases starting with it.
    pub starts: BTreeMap<u8, u64>,
    /// `(a, b)` → how often `b` directly followed `a` in a case.
    pub edges: BTreeMap<(u8, u8), u64>,
    /// Distinct `(machine, file_object)` cases.
    pub cases: u64,
    /// Total events.
    pub events: u64,
}

impl Dfg {
    /// The DFG of a materialized trace set, in collection order.
    pub fn of_trace_set(set: &TraceSet) -> Dfg {
        let mut b = DfgBuilder::new();
        // Columnar scan: only the three columns the DFG needs.
        let (machines, fos, codes) = (
            set.records.machines(),
            set.records.file_objects(),
            set.records.codes(),
        );
        for i in 0..set.records.len() {
            b.push(machines[i], fos[i], codes[i]);
        }
        b.finish()
    }

    /// Weighted Jaccard similarity with `other` in `[0, 1]`: the node,
    /// start, and edge frequency maps are compared as one multiset,
    /// `Σ min / Σ max` over the key union. Identical graphs score
    /// exactly `1.0` (including two empty graphs); any frequency drift
    /// scores strictly below it.
    pub fn similarity(&self, other: &Dfg) -> f64 {
        let mut min_sum: u64 = 0;
        let mut max_sum: u64 = 0;
        let mut fold = |a: &BTreeMap<u64, u64>, b: &BTreeMap<u64, u64>| {
            // Union of keys, each visited once.
            let union = a.keys().chain(b.keys().filter(|k| !a.contains_key(k)));
            for key in union {
                let x = a.get(key).copied().unwrap_or(0);
                let y = b.get(key).copied().unwrap_or(0);
                min_sum += x.min(y);
                max_sum += x.max(y);
            }
        };
        // Re-key each map into a common u64 space so one pass handles
        // nodes (tag 0), starts (tag 1) and edges (tag 2).
        let widen = |m: &BTreeMap<u8, u64>, tag: u64| -> BTreeMap<u64, u64> {
            m.iter()
                .map(|(&k, &v)| ((tag << 32) | u64::from(k), v))
                .collect()
        };
        let widen_edges = |m: &BTreeMap<(u8, u8), u64>| -> BTreeMap<u64, u64> {
            m.iter()
                .map(|(&(a, b), &v)| ((2u64 << 32) | (u64::from(a) << 8) | u64::from(b), v))
                .collect()
        };
        fold(&widen(&self.nodes, 0), &widen(&other.nodes, 0));
        fold(&widen(&self.starts, 1), &widen(&other.starts, 1));
        fold(&widen_edges(&self.edges), &widen_edges(&other.edges));
        if max_sum == 0 {
            return 1.0;
        }
        min_sum as f64 / max_sum as f64
    }

    /// The `n` most frequent edges, descending.
    pub fn top_edges(&self, n: usize) -> Vec<((u8, u8), u64)> {
        let mut edges: Vec<((u8, u8), u64)> = self.edges.iter().map(|(&k, &v)| (k, v)).collect();
        edges.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        edges.truncate(n);
        edges
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Dfg {
        let mut b = DfgBuilder::new();
        // Two cases on one machine: create-read-read-close and
        // create-write-close, interleaved.
        for (fo, code) in [(1, 0u8), (2, 0), (1, 3), (2, 4), (1, 3), (1, 18), (2, 18)] {
            b.push(0, fo, code);
        }
        b.finish()
    }

    #[test]
    fn frequencies_count_follows_relations() {
        let dfg = sample();
        assert_eq!(dfg.cases, 2);
        assert_eq!(dfg.events, 7);
        assert_eq!(dfg.starts.get(&0), Some(&2));
        assert_eq!(dfg.edges.get(&(0, 3)), Some(&1));
        assert_eq!(dfg.edges.get(&(3, 3)), Some(&1));
        assert_eq!(dfg.edges.get(&(3, 18)), Some(&1));
        assert_eq!(dfg.edges.get(&(0, 4)), Some(&1));
        assert_eq!(dfg.edges.get(&(4, 18)), Some(&1));
        assert_eq!(dfg.nodes.get(&0), Some(&2));
        assert_eq!(dfg.nodes.get(&3), Some(&2));
    }

    #[test]
    fn identical_graphs_score_exactly_one() {
        let a = sample();
        let b = sample();
        assert_eq!(a.similarity(&b), 1.0);
        assert_eq!(Dfg::default().similarity(&Dfg::default()), 1.0);
    }

    #[test]
    fn any_drift_scores_below_one() {
        let a = sample();
        let mut b = DfgBuilder::new();
        for (fo, code) in [(1, 0u8), (2, 0), (1, 3), (2, 4), (1, 3), (2, 18)] {
            // One close event missing from case 1.
            b.push(0, fo, code);
        }
        let b = b.finish();
        let sim = a.similarity(&b);
        assert!(sim < 1.0, "dropped event must lower similarity, got {sim}");
        assert!(sim > 0.0);
        // Symmetric.
        assert_eq!(a.similarity(&b), b.similarity(&a));
    }

    #[test]
    fn interleaving_cases_does_not_change_the_graph() {
        // Same per-case sequences pushed in a different global order.
        let mut b = DfgBuilder::new();
        for (fo, code) in [(1, 0u8), (1, 3), (1, 3), (1, 18), (2, 0), (2, 4), (2, 18)] {
            b.push(0, fo, code);
        }
        assert_eq!(sample().similarity(&b.finish()), 1.0);
    }

    #[test]
    fn top_edges_sorts_by_frequency() {
        let mut b = DfgBuilder::new();
        for _ in 0..3 {
            b.push(0, 1, 3);
        }
        b.push(0, 1, 18);
        let dfg = b.finish();
        let top = dfg.top_edges(1);
        assert_eq!(top, vec![((3, 3), 2)]);
    }
}
