//! A set of disjoint half-open byte ranges, used for cache residency and
//! dirty-page tracking.

use std::collections::BTreeMap;

/// A set of disjoint, coalesced half-open ranges `[start, end)` over `u64`.
///
/// Insertions merge with neighbours; removals split as needed. All
/// operations are `O(log n + k)` for `k` touched ranges.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RangeSet {
    // start -> end, non-overlapping, non-adjacent.
    ranges: BTreeMap<u64, u64>,
}

impl RangeSet {
    /// An empty set.
    pub fn new() -> Self {
        RangeSet::default()
    }

    /// Number of disjoint ranges.
    #[cfg(test)]
    fn range_count(&self) -> usize {
        self.ranges.len()
    }

    /// True when no bytes are present.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// Total number of bytes covered.
    pub fn covered_bytes(&self) -> u64 {
        self.ranges.iter().map(|(s, e)| e - s).sum()
    }

    /// Iterates the disjoint ranges in order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.ranges.iter().map(|(&s, &e)| (s, e))
    }

    /// Inserts `[start, end)`, merging with any overlapping or adjacent
    /// ranges. Empty input is a no-op.
    pub fn insert(&mut self, start: u64, end: u64) {
        if start >= end {
            return;
        }
        let mut new_start = start;
        let mut new_end = end;
        // Merge with a predecessor that overlaps or touches.
        if let Some((&s, &e)) = self.ranges.range(..=start).next_back() {
            if e >= start {
                new_start = s;
                new_end = new_end.max(e);
                self.ranges.remove(&s);
            }
        }
        // Merge with successors.
        let successors: Vec<u64> = self
            .ranges
            .range(new_start..=new_end)
            .map(|(&s, _)| s)
            .collect();
        for s in successors {
            let e = self.ranges.remove(&s).expect("key just observed");
            new_end = new_end.max(e);
        }
        self.ranges.insert(new_start, new_end);
    }

    /// Removes `[start, end)`, splitting ranges as needed.
    pub fn remove(&mut self, start: u64, end: u64) {
        if start >= end {
            return;
        }
        // A predecessor may straddle the removal start.
        if let Some((&s, &e)) = self.ranges.range(..start).next_back() {
            if e > start {
                self.ranges.insert(s, start);
                if e > end {
                    self.ranges.insert(end, e);
                    return;
                }
            }
        }
        let contained: Vec<u64> = self.ranges.range(start..end).map(|(&s, _)| s).collect();
        for s in contained {
            let e = self.ranges.remove(&s).expect("key just observed");
            if e > end {
                self.ranges.insert(end, e);
            }
        }
    }

    /// Clears the set.
    pub fn clear(&mut self) {
        self.ranges.clear();
    }

    /// True when every byte of `[start, end)` is present.
    pub fn covers(&self, start: u64, end: u64) -> bool {
        if start >= end {
            return true;
        }
        match self.ranges.range(..=start).next_back() {
            Some((_, &e)) => e >= end,
            None => false,
        }
    }

    /// True when any byte of `[start, end)` is present.
    pub fn intersects(&self, start: u64, end: u64) -> bool {
        if start >= end {
            return false;
        }
        if let Some((_, &e)) = self.ranges.range(..=start).next_back() {
            if e > start {
                return true;
            }
        }
        self.ranges.range(start..end).next().is_some()
    }

    /// The sub-ranges of `[start, end)` *not* present, in order.
    pub fn gaps(&self, start: u64, end: u64) -> Vec<(u64, u64)> {
        let mut gaps = Vec::new();
        if start >= end {
            return gaps;
        }
        let mut cursor = start;
        // A predecessor range may cover the beginning.
        if let Some((_, &e)) = self.ranges.range(..=start).next_back() {
            if e > cursor {
                cursor = e.min(end);
            }
        }
        for (&s, &e) in self.ranges.range(start..end) {
            if s > cursor {
                gaps.push((cursor, s.min(end)));
            }
            cursor = cursor.max(e.min(end));
            if cursor >= end {
                break;
            }
        }
        if cursor < end {
            gaps.push((cursor, end));
        }
        gaps
    }

    /// Removes and returns up to `max_bytes` from the front of the set,
    /// as whole or partial leading ranges. Used by the lazy writer to pick
    /// the next burst of dirty bytes.
    pub fn take_front(&mut self, max_bytes: u64) -> Vec<(u64, u64)> {
        let mut taken = Vec::new();
        let mut budget = max_bytes;
        while budget > 0 {
            let Some((&s, &e)) = self.ranges.iter().next() else {
                break;
            };
            let len = e - s;
            if len <= budget {
                self.ranges.remove(&s);
                taken.push((s, e));
                budget -= len;
            } else {
                self.ranges.remove(&s);
                self.ranges.insert(s + budget, e);
                taken.push((s, s + budget));
                budget = 0;
            }
        }
        taken
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(ranges: &[(u64, u64)]) -> RangeSet {
        let mut rs = RangeSet::new();
        for &(s, e) in ranges {
            rs.insert(s, e);
        }
        rs
    }

    #[test]
    fn insert_coalesces_adjacent_and_overlapping() {
        let mut rs = RangeSet::new();
        rs.insert(0, 10);
        rs.insert(10, 20);
        assert_eq!(rs.range_count(), 1);
        assert_eq!(rs.covered_bytes(), 20);
        rs.insert(30, 40);
        rs.insert(15, 35);
        assert_eq!(rs.range_count(), 1);
        assert_eq!(rs.iter().collect::<Vec<_>>(), vec![(0, 40)]);
    }

    #[test]
    fn insert_empty_is_noop() {
        let mut rs = RangeSet::new();
        rs.insert(5, 5);
        assert!(rs.is_empty());
    }

    #[test]
    fn remove_splits() {
        let mut rs = set(&[(0, 100)]);
        rs.remove(40, 60);
        assert_eq!(rs.iter().collect::<Vec<_>>(), vec![(0, 40), (60, 100)]);
        rs.remove(0, 40);
        assert_eq!(rs.iter().collect::<Vec<_>>(), vec![(60, 100)]);
        rs.remove(50, 200);
        assert!(rs.is_empty());
    }

    #[test]
    fn remove_across_multiple_ranges() {
        let mut rs = set(&[(0, 10), (20, 30), (40, 50)]);
        rs.remove(5, 45);
        assert_eq!(rs.iter().collect::<Vec<_>>(), vec![(0, 5), (45, 50)]);
    }

    #[test]
    fn covers_and_intersects() {
        let rs = set(&[(10, 20), (30, 40)]);
        assert!(rs.covers(10, 20));
        assert!(rs.covers(12, 18));
        assert!(!rs.covers(15, 25));
        assert!(!rs.covers(0, 5));
        assert!(rs.covers(7, 7), "empty range is trivially covered");
        assert!(rs.intersects(15, 35));
        assert!(rs.intersects(39, 100));
        assert!(!rs.intersects(20, 30), "half-open ends do not touch");
        assert!(!rs.intersects(0, 10));
    }

    #[test]
    fn gaps_enumerates_missing_pieces() {
        let rs = set(&[(10, 20), (30, 40)]);
        assert_eq!(rs.gaps(0, 50), vec![(0, 10), (20, 30), (40, 50)]);
        assert_eq!(rs.gaps(10, 40), vec![(20, 30)]);
        assert_eq!(rs.gaps(12, 18), vec![]);
        assert_eq!(rs.gaps(0, 5), vec![(0, 5)]);
        assert_eq!(rs.gaps(35, 45), vec![(40, 45)]);
    }

    #[test]
    fn take_front_respects_budget() {
        let mut rs = set(&[(0, 10), (20, 30)]);
        assert_eq!(rs.take_front(15), vec![(0, 10), (20, 25)]);
        assert_eq!(rs.iter().collect::<Vec<_>>(), vec![(25, 30)]);
        assert_eq!(rs.take_front(100), vec![(25, 30)]);
        assert!(rs.is_empty());
        assert_eq!(rs.take_front(10), vec![]);
    }

    #[test]
    fn covered_bytes_totals() {
        let rs = set(&[(0, 10), (20, 25)]);
        assert_eq!(rs.covered_bytes(), 15);
    }
}
