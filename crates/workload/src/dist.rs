//! Heavy-tailed sampling toolkit (§7 of the paper).
//!
//! The study found "strong evidence of extreme variance in all of the
//! traced usage characteristics", with Hill-estimator α between 1.2 and
//! 1.7 — infinite variance. The generators here produce exactly that
//! family: Pareto tails with configurable α, usually attached to a
//! log-normal body for realistic small values, plus the empirical
//! request-size mixtures §8.2 reports.

use rand::Rng;
use rand_distr::{Distribution, LogNormal};

use nt_sim::SimDuration;

/// A Pareto distribution `P[X > x] = (xm / x)^alpha` for `x >= xm`.
#[derive(Clone, Copy, Debug)]
pub struct Pareto {
    /// Scale (minimum value).
    pub xm: f64,
    /// Tail index; α < 2 gives infinite variance, α ≤ 1 infinite mean.
    pub alpha: f64,
}

impl Pareto {
    /// Creates a Pareto with the given scale and tail index.
    ///
    /// # Panics
    ///
    /// Panics when `xm` or `alpha` are not strictly positive.
    pub fn new(xm: f64, alpha: f64) -> Self {
        assert!(xm > 0.0 && alpha > 0.0, "Pareto parameters must be > 0");
        Pareto { xm, alpha }
    }

    /// Draws one sample by inversion.
    pub fn sample(&self, rng: &mut impl Rng) -> f64 {
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        self.xm / u.powf(1.0 / self.alpha)
    }
}

/// A Pareto truncated at `cap` (re-draw by inversion on the truncated
/// CDF, not rejection, so sampling cost is constant).
#[derive(Clone, Copy, Debug)]
pub(crate) struct BoundedPareto {
    /// Scale (minimum value).
    pub xm: f64,
    /// Tail index.
    pub alpha: f64,
    /// Upper bound.
    pub cap: f64,
}

impl BoundedPareto {
    /// Creates a bounded Pareto on `[xm, cap]`.
    ///
    /// # Panics
    ///
    /// Panics when the parameters do not satisfy `0 < xm < cap`,
    /// `alpha > 0`.
    pub fn new(xm: f64, alpha: f64, cap: f64) -> Self {
        assert!(xm > 0.0 && alpha > 0.0 && cap > xm);
        BoundedPareto { xm, alpha, cap }
    }

    /// Draws one sample.
    pub fn sample(&self, rng: &mut impl Rng) -> f64 {
        // Inverse CDF of the truncated Pareto.
        let u: f64 = rng.gen_range(0.0..1.0);
        let l = self.xm.powf(-self.alpha);
        let h = self.cap.powf(-self.alpha);
        (l - u * (l - h)).powf(-1.0 / self.alpha)
    }
}

/// A log-normal body with a Pareto tail: the workhorse for file sizes and
/// holding times. With probability `tail_prob` the sample comes from the
/// Pareto tail, otherwise from the log-normal body.
#[derive(Clone, Copy, Debug)]
pub(crate) struct BodyTail {
    body: LogNormal<f64>,
    tail: Pareto,
    /// Probability of drawing from the tail.
    pub tail_prob: f64,
}

impl BodyTail {
    /// Creates a body-tail mixture. `mu`/`sigma` parameterise the
    /// log-normal in log-space.
    pub fn new(mu: f64, sigma: f64, tail: Pareto, tail_prob: f64) -> Self {
        BodyTail {
            body: LogNormal::new(mu, sigma).expect("valid log-normal"),
            tail,
            tail_prob,
        }
    }

    /// Draws one sample.
    pub fn sample(&self, rng: &mut impl Rng) -> f64 {
        if rng.gen_bool(self.tail_prob.clamp(0.0, 1.0)) {
            self.tail.sample(rng)
        } else {
            self.body.sample(rng)
        }
    }
}

/// The empirical request-size mixture of §8.2: "in 59 % of the read cases
/// the request size is either 512 or 4096 bytes … of the remaining sizes,
/// there is a strong preference for very small (2–8 bytes) and very large
/// (48 Kbytes and higher) reads."
#[derive(Clone, Copy, Debug)]
pub(crate) struct SizeMixture {
    kind: SizeMixtureKind,
}

#[derive(Clone, Copy, Debug)]
enum SizeMixtureKind {
    Read,
    Write,
}

impl SizeMixture {
    /// The read-request mixture.
    pub fn reads() -> Self {
        SizeMixture {
            kind: SizeMixtureKind::Read,
        }
    }

    /// The write-request mixture — "more diverse, especially in the lower
    /// bytes range (less than 1024 bytes), probably reflecting the
    /// writing of single data-structures".
    pub fn writes() -> Self {
        SizeMixture {
            kind: SizeMixtureKind::Write,
        }
    }

    /// Draws one request size in bytes.
    pub fn sample(&self, rng: &mut impl Rng) -> u64 {
        match self.kind {
            SizeMixtureKind::Read => {
                let u: f64 = rng.gen();
                if u < 0.33 {
                    512
                } else if u < 0.59 {
                    4_096
                } else if u < 0.72 {
                    // Very small structure reads (2–8 bytes).
                    rng.gen_range(2..=8)
                } else if u < 0.90 {
                    // Stdio-ish intermediate sizes.
                    *[1_024u64, 2_048, 8_192, 16_384, 1_200, 100]
                        .get(rng.gen_range(0..6))
                        .expect("in range")
                } else {
                    // Large transfers, 48 KB and up, heavy tail.
                    BoundedPareto::new(49_152.0, 1.3, 4.0e6).sample(rng) as u64
                }
            }
            SizeMixtureKind::Write => {
                let u: f64 = rng.gen();
                if u < 0.58 {
                    // Diverse small writes under 1 KB: single data
                    // structures (these keep the §8.2 write spacing under
                    // 30 µs for most writes).
                    rng.gen_range(1..=1_024)
                } else if u < 0.70 {
                    512
                } else if u < 0.82 {
                    4_096
                } else if u < 0.95 {
                    *[2_048u64, 8_192, 16_384]
                        .get(rng.gen_range(0..3))
                        .expect("in range")
                } else {
                    BoundedPareto::new(49_152.0, 1.3, 4.0e6).sample(rng) as u64
                }
            }
        }
    }
}

/// Samples a heavy-tailed inter-arrival gap with median `median` and
/// Pareto tail index `alpha` — the §7 arrival process whose burstiness
/// survives aggregation.
pub fn heavy_gap(rng: &mut impl Rng, median: SimDuration, alpha: f64) -> SimDuration {
    // The Pareto median is xm * 2^(1/alpha); solve xm for the requested
    // median.
    let xm = median.as_secs_f64() / 2f64.powf(1.0 / alpha);
    let p = Pareto::new(xm.max(1e-7), alpha);
    SimDuration::from_secs_f64(p.sample(rng))
}

/// Weighted choice over a small static table.
pub(crate) fn weighted_choice<'a, T>(rng: &mut impl Rng, table: &'a [(T, f64)]) -> &'a T {
    let total: f64 = table.iter().map(|(_, w)| w).sum();
    let mut x = rng.gen_range(0.0..total.max(f64::MIN_POSITIVE));
    for (item, w) in table {
        if x < *w {
            return item;
        }
        x -= w;
    }
    &table.last().expect("non-empty table").0
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(42)
    }

    #[test]
    fn pareto_respects_scale() {
        let p = Pareto::new(10.0, 1.5);
        let mut r = rng();
        for _ in 0..1_000 {
            assert!(p.sample(&mut r) >= 10.0);
        }
    }

    #[test]
    fn pareto_tail_heavier_for_smaller_alpha() {
        let mut r = rng();
        let heavy = Pareto::new(1.0, 1.1);
        let light = Pareto::new(1.0, 3.0);
        let big = |p: &Pareto, r: &mut SmallRng| {
            (0..20_000).filter(|_| p.sample(r) > 100.0).count() as f64 / 20_000.0
        };
        assert!(big(&heavy, &mut r) > big(&light, &mut r) * 5.0);
    }

    #[test]
    fn bounded_pareto_stays_in_range() {
        let p = BoundedPareto::new(100.0, 1.2, 10_000.0);
        let mut r = rng();
        for _ in 0..5_000 {
            let x = p.sample(&mut r);
            assert!((100.0..=10_000.0).contains(&x), "got {x}");
        }
    }

    #[test]
    fn body_tail_mixes() {
        let bt = BodyTail::new(7.0, 1.0, Pareto::new(1.0e6, 1.3), 0.05);
        let mut r = rng();
        let samples: Vec<f64> = (0..10_000).map(|_| bt.sample(&mut r)).collect();
        let body_like = samples.iter().filter(|&&x| x < 100_000.0).count();
        let tail_like = samples.iter().filter(|&&x| x >= 1.0e6).count();
        assert!(body_like > 8_000, "body dominates: {body_like}");
        assert!(tail_like > 100, "tail present: {tail_like}");
    }

    #[test]
    fn read_sizes_match_the_paper_modes() {
        let mut r = rng();
        let m = SizeMixture::reads();
        let n = 50_000;
        let samples: Vec<u64> = (0..n).map(|_| m.sample(&mut r)).collect();
        let common = samples.iter().filter(|&&s| s == 512 || s == 4_096).count();
        let frac = common as f64 / n as f64;
        assert!(
            (0.50..0.68).contains(&frac),
            "512/4096 fraction {frac} should be ≈ 0.59"
        );
        assert!(samples.iter().any(|&s| (2..=8).contains(&s)));
        assert!(samples.iter().any(|&s| s >= 49_152));
    }

    #[test]
    fn write_sizes_are_diverse_below_1k() {
        let mut r = rng();
        let m = SizeMixture::writes();
        let small: std::collections::HashSet<u64> = (0..20_000)
            .map(|_| m.sample(&mut r))
            .filter(|&s| s < 1_024)
            .collect();
        assert!(small.len() > 200, "diverse small writes: {}", small.len());
    }

    #[test]
    fn heavy_gap_is_positive_and_spread() {
        let mut r = rng();
        let gaps: Vec<SimDuration> = (0..5_000)
            .map(|_| heavy_gap(&mut r, SimDuration::from_millis(10), 1.3))
            .collect();
        assert!(gaps.iter().all(|g| !g.is_zero()));
        let max = gaps.iter().max().unwrap();
        let median = {
            let mut v = gaps.clone();
            v.sort();
            v[v.len() / 2]
        };
        assert!(*max > median * 50, "heavy tail spreads far beyond median");
    }

    #[test]
    fn weighted_choice_respects_weights() {
        let mut r = rng();
        let table = [("a", 9.0), ("b", 1.0)];
        let a = (0..10_000)
            .filter(|_| *weighted_choice(&mut r, &table) == "a")
            .count();
        assert!((8_500..9_500).contains(&a), "got {a}");
    }
}
