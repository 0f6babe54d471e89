//! Descriptive statistics — with the §7 caveat attached.
//!
//! The paper warns that "access rates, bytes transferred and most of the
//! other properties investigated are not normally distributed and thus
//! cannot be accurately described by a simple average"; it reports
//! averages only for historical comparison and leans on ranges and
//! quantiles. [`Descriptives`] carries all of them.

/// Summary statistics of a sample.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Descriptives {
    /// Sample size.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Standard deviation (population).
    pub stdev: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
    /// Median.
    pub median: f64,
}

/// Computes descriptives of a sample; zeros for the empty sample.
pub(crate) fn describe(samples: &[f64]) -> Descriptives {
    if samples.is_empty() {
        return Descriptives::default();
    }
    let n = samples.len();
    let mean = samples.iter().sum::<f64>() / n as f64;
    let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in samples"));
    Descriptives {
        n,
        mean,
        stdev: var.sqrt(),
        min: sorted[0],
        max: sorted[n - 1],
        median: sorted[n / 2],
    }
}

/// Pearson correlation coefficient; `None` when either side is constant
/// or the samples are too short. Used for the §6.3 size-vs-lifetime
/// non-correlation claim.
pub fn correlation(xs: &[f64], ys: &[f64]) -> Option<f64> {
    if xs.len() != ys.len() || xs.len() < 3 {
        return None;
    }
    let n = xs.len() as f64;
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        sxy += (x - mx) * (y - my);
        sxx += (x - mx).powi(2);
        syy += (y - my).powi(2);
    }
    if sxx <= 0.0 || syy <= 0.0 {
        return None;
    }
    Some(sxy / (sxx * syy).sqrt())
}

/// Least-squares line fit `y = a + b x`; returns `(a, b)`, or `None` for
/// degenerate inputs. Used by the LLCD tail-slope estimate (figure 10).
pub(crate) fn least_squares(xs: &[f64], ys: &[f64]) -> Option<(f64, f64)> {
    if xs.len() != ys.len() || xs.len() < 2 {
        return None;
    }
    let n = xs.len() as f64;
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        sxy += (x - mx) * (y - my);
        sxx += (x - mx).powi(2);
    }
    if sxx <= 0.0 {
        return None;
    }
    let b = sxy / sxx;
    Some((my - b * mx, b))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn describe_basics() {
        let d = describe(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(d.n, 4);
        assert!((d.mean - 2.5).abs() < 1e-12);
        assert_eq!(d.min, 1.0);
        assert_eq!(d.max, 4.0);
        assert_eq!(d.median, 3.0);
        assert!((d.stdev - 1.118033988749895).abs() < 1e-9);
        assert_eq!(describe(&[]).n, 0);
    }

    #[test]
    fn correlation_signs() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        let up = [2.0, 4.0, 6.0, 8.0, 10.0];
        let down = [10.0, 8.0, 6.0, 4.0, 2.0];
        assert!((correlation(&xs, &up).unwrap() - 1.0).abs() < 1e-12);
        assert!((correlation(&xs, &down).unwrap() + 1.0).abs() < 1e-12);
        assert_eq!(correlation(&xs, &[1.0; 5]), None, "constant side");
        assert_eq!(correlation(&xs, &xs[..3]), None, "length mismatch");
    }

    #[test]
    fn least_squares_recovers_a_line() {
        let xs: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 - 1.4 * x).collect();
        let (a, b) = least_squares(&xs, &ys).unwrap();
        assert!((a - 3.0).abs() < 1e-9);
        assert!((b + 1.4).abs() < 1e-9);
        assert_eq!(least_squares(&[1.0], &[2.0]), None);
    }
}
