//! Sample statistics and the comparison verdict.
//!
//! Quartiles use the same method as Python's
//! `statistics.quantiles(values, n=4)` (the "exclusive" method), so the
//! spreads this tool prints are the spreads an outside checker computes
//! from the same values.

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn parse(s: &str) -> Option<Better> {
        match s {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }

    /// True when `a` reads strictly better than `b`.
    fn prefers(self, a: f64, b: f64) -> bool {
        match self {
            Better::Lower => a < b,
            Better::Higher => a > b,
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the middle pair for an even count). `NaN` when
/// there are no samples.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartiles by Python's exclusive method. With one
/// sample both quartiles are that sample.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => (f64::NAN, f64::NAN),
        1 => (v[0], v[0]),
        _ => {
            let m = n + 1;
            let cut = |i: usize| {
                let j = (i * m / 4).clamp(1, n - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            (cut(1), cut(3))
        }
    }
}

/// The highest percentile that still has at least ten samples beyond
/// it, as `(level, value)` with `level` in (0, 1). `None` when no
/// percentile above the median has ten samples beyond it (fewer than
/// 20 samples): report the median only.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 20 {
        return None;
    }
    let v = sorted(values);
    // Nearest-rank value with exactly ten samples above it.
    let level = 1.0 - 10.0 / n as f64;
    Some((level, v[n - 11]))
}

/// Median, quartiles and count of one metric's samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let (q1, q3) = quartiles(values);
        Summary {
            median: median(values),
            q1,
            q3,
            n: values.len(),
        }
    }

    /// Interquartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            if self.q3 == self.q1 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            ((self.q3 - self.q1) / self.median).abs()
        }
    }
}

/// The outcome of comparing a change against its parent on one metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The change won at least nine pairs in ten and the medians differ
    /// by more than the parent's interquartile range.
    Improved,
    /// Not worse than the bound allows.
    NoWorse,
    /// Worse than the bound allows, with a spread narrow enough to tell.
    Regressed,
    /// The parent's own spread exceeds the bound, so the runs cannot
    /// tell "unchanged" from "worse".
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::NoWorse => "no worse",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Fewest parent/change pairs a gain may rest on.
pub const MIN_PAIRS: usize = 10;

/// Judges `new` runs against `base` runs. Pairs are formed in order
/// (the i-th base run with the i-th new run); `bound` is the share of
/// the base median by which the metric may worsen.
pub fn verdict(base: &[f64], new: &[f64], bound: f64, better: Better) -> Verdict {
    let b = Summary::of(base);
    let nm = median(new);
    let pairs = base.len().min(new.len());
    let wins = base
        .iter()
        .zip(new)
        .filter(|(b, n)| better.prefers(**n, **b))
        .count();
    let gain = match better {
        Better::Lower => b.median - nm,
        Better::Higher => nm - b.median,
    };
    if pairs >= MIN_PAIRS && wins * 10 >= pairs * 9 && gain > (b.q3 - b.q1).abs() {
        return Verdict::Improved;
    }
    let worse_share = if b.median == 0.0 {
        if gain < 0.0 {
            f64::INFINITY
        } else {
            0.0
        }
    } else {
        -gain / b.median.abs()
    };
    let every =
        |pred: &dyn Fn(f64, f64) -> bool| new.iter().all(|&n| base.iter().all(|&bv| pred(n, bv)));
    let all_better = every(&|n, bv| better.prefers(n, bv));
    let all_worse = every(&|n, bv| better.prefers(bv, n));
    if worse_share > bound && (b.spread() <= bound || all_worse) {
        Verdict::Regressed
    } else if b.spread() > bound && !all_better {
        Verdict::Unresolved
    } else {
        Verdict::NoWorse
    }
}

/// FNV-1a over a byte stream: the output digest of every workload.
#[derive(Clone, Copy, Debug)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_ties() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[5.0, 5.0, 5.0, 1.0]), 5.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), (1.5, 4.5));
    }

    #[test]
    fn zero_iqr_has_zero_spread() {
        let s = Summary::of(&[2.0; 10]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.0, 2.0, 2.0, 10));
        assert_eq!(s.spread(), 0.0);
        assert_eq!(Summary::of(&[0.0; 4]).spread(), 0.0);
    }

    #[test]
    fn fewer_than_ten_samples_give_the_median_only() {
        assert_eq!(tail(&[1.0; 9]), None);
        assert_eq!(tail(&[1.0; 19]), None);
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        let (level, value) = tail(&v).expect("40 samples have a tail");
        assert_eq!(level, 0.75);
        assert_eq!(value, 30.0);
        assert_eq!(v.iter().filter(|&&x| x > value).count(), 10);
    }

    #[test]
    fn verdicts_cover_all_four_outcomes() {
        let base = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.02, 9.98, 10.0];
        let faster: Vec<f64> = base.iter().map(|x| x * 0.8).collect();
        let slower: Vec<f64> = base.iter().map(|x| x * 1.3).collect();
        let same: Vec<f64> = base.iter().map(|x| x * 1.01).collect();
        assert_eq!(
            verdict(&base, &faster, 0.1, Better::Lower),
            Verdict::Improved
        );
        assert_eq!(
            verdict(&base, &slower, 0.1, Better::Lower),
            Verdict::Regressed
        );
        assert_eq!(verdict(&base, &same, 0.1, Better::Lower), Verdict::NoWorse);
        // Higher-is-better flips the reading of the same numbers.
        assert_eq!(
            verdict(&base, &slower, 0.1, Better::Higher),
            Verdict::Improved
        );
        assert_eq!(
            verdict(&base, &faster, 0.1, Better::Higher),
            Verdict::Regressed
        );
        // A parent whose own spread exceeds the bound cannot judge.
        let noisy = [5.0, 15.0, 7.0, 13.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0];
        assert_eq!(
            verdict(&noisy, &same, 0.1, Better::Lower),
            Verdict::Unresolved
        );
    }

    #[test]
    fn ties_count_for_neither_side() {
        let base = [1.0; 10];
        assert_eq!(verdict(&base, &base, 0.1, Better::Lower), Verdict::NoWorse);
    }

    #[test]
    fn a_gain_needs_ten_pairs() {
        assert_eq!(
            verdict(&[1.0; 9], &[0.5; 9], 0.1, Better::Lower),
            Verdict::NoWorse
        );
        assert_eq!(
            verdict(&[1.0; 10], &[0.5; 10], 0.1, Better::Lower),
            Verdict::Improved
        );
    }

    #[test]
    fn fnv_matches_the_reference_vector() {
        let mut h = Fnv::default();
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }
}
