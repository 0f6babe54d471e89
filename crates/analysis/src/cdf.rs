//! Empirical (optionally weighted) cumulative distributions.
//!
//! Every figure in the paper is a cumulative distribution over a
//! log-scaled axis; [`Cdf`] is the common machinery: exact quantiles,
//! `P[X <= x]` lookups, and log-spaced rendering points for the text
//! plots the benchmark harness prints.

/// An empirical CDF over `f64` samples with per-sample weights.
#[derive(Clone, Debug)]
pub struct Cdf {
    // Sorted by value; weights normalised on demand.
    points: Vec<(f64, f64)>,
    total_weight: f64,
}

impl Cdf {
    /// Builds from unweighted samples.
    pub fn from_samples(samples: impl IntoIterator<Item = f64>) -> Self {
        Self::from_weighted(samples.into_iter().map(|x| (x, 1.0)))
    }

    /// Builds from `(value, weight)` pairs — e.g. figure 2 weights each
    /// run length by the bytes it transferred.
    pub(crate) fn from_weighted(samples: impl IntoIterator<Item = (f64, f64)>) -> Self {
        let mut points: Vec<(f64, f64)> = samples
            .into_iter()
            .filter(|(x, w)| x.is_finite() && *w > 0.0)
            .collect();
        points.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite values"));
        let total_weight = points.iter().map(|(_, w)| w).sum();
        Cdf {
            points,
            total_weight,
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when no samples were accepted.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// `P[X <= x]`, in [0, 1].
    pub fn fraction_at_or_below(&self, x: f64) -> f64 {
        if self.total_weight <= 0.0 {
            return 0.0;
        }
        let idx = self.points.partition_point(|(v, _)| *v <= x);
        let w: f64 = self.points[..idx].iter().map(|(_, w)| w).sum();
        w / self.total_weight
    }

    /// The `q`-quantile (q in [0, 1]); `None` on an empty CDF.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.points.is_empty() {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let target = q * self.total_weight;
        let mut acc = 0.0;
        for (v, w) in &self.points {
            acc += w;
            if acc >= target {
                return Some(*v);
            }
        }
        Some(self.points.last().expect("non-empty").0)
    }

    /// The median.
    pub fn median(&self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// Smallest and largest sample.
    pub fn range(&self) -> Option<(f64, f64)> {
        Some((self.points.first()?.0, self.points.last()?.0))
    }

    /// Renders `(x, percent_at_or_below)` pairs at `n` log-spaced x values
    /// across the sample range — the series the paper's figures plot.
    pub fn log_points(&self, n: usize) -> Vec<(f64, f64)> {
        let Some((lo, hi)) = self.range() else {
            return Vec::new();
        };
        let lo = lo.max(1e-9);
        let hi = hi.max(lo * (1.0 + 1e-9));
        let n = n.max(2);
        (0..n)
            .map(|i| {
                let t = i as f64 / (n - 1) as f64;
                let x = lo * (hi / lo).powf(t);
                (x, 100.0 * self.fraction_at_or_below(x))
            })
            .collect()
    }

    /// Raw sorted values (for QQ/LLCD computations).
    pub fn values(&self) -> impl Iterator<Item = f64> + '_ {
        self.points.iter().map(|(v, _)| *v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unweighted_quantiles() {
        let cdf = Cdf::from_samples((1..=100).map(|i| i as f64));
        assert_eq!(cdf.len(), 100);
        assert_eq!(cdf.quantile(0.5), Some(50.0));
        assert_eq!(cdf.quantile(0.9), Some(90.0));
        assert_eq!(cdf.quantile(0.0), Some(1.0));
        assert_eq!(cdf.quantile(1.0), Some(100.0));
        assert!((cdf.fraction_at_or_below(75.0) - 0.75).abs() < 1e-12);
        assert_eq!(cdf.fraction_at_or_below(0.5), 0.0);
        assert_eq!(cdf.fraction_at_or_below(1e9), 1.0);
    }

    #[test]
    fn weights_shift_the_distribution() {
        // One huge-weight large sample dominates (the §7 outlier effect).
        let cdf = Cdf::from_weighted(vec![(1.0, 1.0), (2.0, 1.0), (1_000.0, 98.0)]);
        assert_eq!(cdf.median(), Some(1_000.0));
        assert!(cdf.fraction_at_or_below(2.0) < 0.05);
    }

    #[test]
    fn empty_and_degenerate() {
        let empty = Cdf::from_samples(std::iter::empty());
        assert!(empty.is_empty());
        assert_eq!(empty.quantile(0.5), None);
        assert_eq!(empty.fraction_at_or_below(1.0), 0.0);
        assert!(empty.log_points(10).is_empty());
        let nan = Cdf::from_samples(vec![f64::NAN, 1.0]);
        assert_eq!(nan.len(), 1, "NaN filtered");
    }

    #[test]
    fn log_points_are_monotonic() {
        let cdf = Cdf::from_samples((1..2_000).map(|i| (i as f64).powf(1.7)));
        let pts = cdf.log_points(30);
        assert_eq!(pts.len(), 30);
        for w in pts.windows(2) {
            assert!(w[1].0 > w[0].0);
            assert!(w[1].1 >= w[0].1);
        }
        assert!((pts.last().unwrap().1 - 100.0).abs() < 1e-9);
    }
}
