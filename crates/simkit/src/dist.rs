//! Probability distributions, implemented from scratch.
//!
//! The workload generators (Zipf video popularity, power-law friend counts,
//! Poisson comment arrivals) and the latency models (log-normal hop latencies
//! calibrated to the paper's Table 3) are all driven by the samplers here.
//! Everything draws from [`DetRng`] so runs are reproducible.

use crate::rng::DetRng;

/// A sampleable distribution over `f64`.
pub trait Distribution {
    /// Draws one sample.
    fn sample(&self, rng: &mut DetRng) -> f64;
}

/// Exponential distribution with rate `lambda` (mean `1/lambda`).
///
/// Used for Poisson-process inter-arrival times.
#[derive(Clone, Copy, Debug)]
pub struct Exponential {
    lambda: f64,
}

impl Exponential {
    /// Creates an exponential distribution with the given rate.
    ///
    /// # Panics
    ///
    /// Panics if `lambda` is not finite and positive.
    pub fn new(lambda: f64) -> Self {
        assert!(
            lambda.is_finite() && lambda > 0.0,
            "lambda must be positive"
        );
        Exponential { lambda }
    }
}

impl Distribution for Exponential {
    fn sample(&self, rng: &mut DetRng) -> f64 {
        -rng.f64_open().ln() / self.lambda
    }
}

/// Poisson distribution with mean `lambda`; samples are returned as `f64`
/// holding non-negative integers.
#[derive(Clone, Copy, Debug)]
pub struct Poisson {
    lambda: f64,
}

impl Poisson {
    /// Creates a Poisson distribution with the given mean.
    ///
    /// # Panics
    ///
    /// Panics if `lambda` is not finite and positive.
    pub fn new(lambda: f64) -> Self {
        assert!(
            lambda.is_finite() && lambda > 0.0,
            "lambda must be positive"
        );
        Poisson { lambda }
    }

    /// Draws one sample as an integer count.
    pub fn sample_count(&self, rng: &mut DetRng) -> u64 {
        if self.lambda < 30.0 {
            // Knuth's product method for small means.
            let l = (-self.lambda).exp();
            let mut k = 0u64;
            let mut p = 1.0;
            loop {
                p *= rng.f64_open();
                if p <= l {
                    return k;
                }
                k += 1;
            }
        } else {
            // Gaussian approximation with continuity correction for large means.
            let n = normal(rng) * self.lambda.sqrt() + self.lambda;
            n.max(0.0).round() as u64
        }
    }
}

impl Distribution for Poisson {
    fn sample(&self, rng: &mut DetRng) -> f64 {
        self.sample_count(rng) as f64
    }
}

/// Standard normal sample via the Box–Muller transform.
fn normal(rng: &mut DetRng) -> f64 {
    let u1 = rng.f64_open();
    let u2 = rng.f64();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Log-normal distribution parameterised by the mean and standard deviation
/// of the underlying normal (`mu`, `sigma`).
///
/// This is the workhorse for hop latencies: heavy-ish right tail, strictly
/// positive, easy to calibrate to a median and a p90.
#[derive(Clone, Copy, Debug)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// Creates a log-normal with underlying normal parameters `mu`, `sigma`.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative or the parameters are not finite.
    pub fn new(mu: f64, sigma: f64) -> Self {
        assert!(mu.is_finite() && sigma.is_finite() && sigma >= 0.0);
        LogNormal { mu, sigma }
    }

    /// Calibrates a log-normal from its median and p90.
    ///
    /// This mirrors how the paper reports latencies (average plus P90/P99),
    /// letting us back latency models straight out of Table 3.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < median <= p90`.
    pub fn from_median_p90(median: f64, p90: f64) -> Self {
        assert!(median > 0.0 && p90 >= median, "need 0 < median <= p90");
        let mu = median.ln();
        // Phi^-1(0.9) ~= 1.2815515655446004.
        let sigma = (p90.ln() - mu) / 1.281_551_565_544_600_4;
        LogNormal::new(mu, sigma)
    }

    /// The distribution median, `exp(mu)`.
    pub fn median(&self) -> f64 {
        self.mu.exp()
    }
}

impl Distribution for LogNormal {
    fn sample(&self, rng: &mut DetRng) -> f64 {
        (self.mu + self.sigma * normal(rng)).exp()
    }
}

/// Pareto (power-law) distribution with scale `x_min` and shape `alpha`.
///
/// Used for friend-count and stream-lifetime tails.
#[derive(Clone, Copy, Debug)]
pub struct Pareto {
    x_min: f64,
    alpha: f64,
}

impl Pareto {
    /// Creates a Pareto distribution.
    ///
    /// # Panics
    ///
    /// Panics unless both parameters are finite and positive.
    pub fn new(x_min: f64, alpha: f64) -> Self {
        assert!(x_min > 0.0 && alpha > 0.0 && x_min.is_finite() && alpha.is_finite());
        Pareto { x_min, alpha }
    }
}

impl Distribution for Pareto {
    fn sample(&self, rng: &mut DetRng) -> f64 {
        self.x_min / rng.f64_open().powf(1.0 / self.alpha)
    }
}

/// Zipf distribution over ranks `1..=n` with exponent `s`.
///
/// Models the paper's Table 1 shape: a handful of social-graph areas receive
/// the overwhelming majority of updates. Sampling uses the rejection method
/// of Jason Crease / W. Hörmann, which is O(1) per draw and needs no O(n)
/// table, so `n` can be in the billions.
#[derive(Clone, Copy, Debug)]
pub struct Zipf {
    n: u64,
    s: f64,
    // Precomputed constants for the rejection sampler.
    t: f64,
}

impl Zipf {
    /// Creates a Zipf distribution over `1..=n` with exponent `s > 0`,
    /// `s != 1` handled via the generalized harmonic integral approximation.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `s <= 0`.
    pub fn new(n: u64, s: f64) -> Self {
        assert!(n > 0, "n must be positive");
        assert!(s > 0.0 && s.is_finite(), "s must be positive");
        let t = if (s - 1.0).abs() < 1e-9 {
            1.0 + (n as f64).ln()
        } else {
            ((n as f64).powf(1.0 - s) - s) / (1.0 - s)
        };
        Zipf { n, s, t }
    }

    /// Draws one rank in `1..=n`.
    pub fn sample_rank(&self, rng: &mut DetRng) -> u64 {
        // Inverse-CDF of the enveloping density, then rejection against the
        // true Zipf pmf.
        loop {
            let p = rng.f64_open() * self.t;
            let x = if p <= 1.0 {
                p
            } else if (self.s - 1.0).abs() < 1e-9 {
                (p - 1.0).exp()
            } else {
                (1.0 + p * (1.0 - self.s)).powf(1.0 / (1.0 - self.s))
            };
            let k = x.floor().max(1.0).min(self.n as f64) as u64;
            // Acceptance ratio: pmf(k) / envelope(x).
            let env = if k == 1 {
                1.0
            } else {
                (k as f64).powf(-self.s)
            };
            let ratio = (k as f64).powf(-self.s) / env.max(f64::MIN_POSITIVE);
            let accept = if k == 1 {
                true
            } else {
                // Envelope at x in [k, k+1) is (k)^-s via floor; exact for
                // integral envelope, accept proportionally.
                ratio >= rng.f64()
            };
            if accept {
                return k;
            }
        }
    }
}

impl Distribution for Zipf {
    fn sample(&self, rng: &mut DetRng) -> f64 {
        self.sample_rank(rng) as f64
    }
}

/// A discrete distribution over `0..weights.len()` with the given weights.
///
/// Used wherever the paper gives an explicit categorical breakdown (e.g.
/// Table 2's stream-lifetime buckets).
#[derive(Clone, Debug)]
pub struct Categorical {
    cumulative: Vec<f64>,
}

impl Categorical {
    /// Creates a categorical distribution from non-negative weights.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or sums to zero.
    pub fn new(weights: &[f64]) -> Self {
        assert!(!weights.is_empty(), "weights must be non-empty");
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "weights must sum to a positive value");
        let mut acc = 0.0;
        let cumulative = weights
            .iter()
            .map(|w| {
                assert!(*w >= 0.0, "weights must be non-negative");
                acc += w / total;
                acc
            })
            .collect();
        Categorical { cumulative }
    }

    /// Draws one category index.
    pub fn sample_index(&self, rng: &mut DetRng) -> usize {
        let u = rng.f64();
        match self
            .cumulative
            .binary_search_by(|c| c.partial_cmp(&u).expect("cumulative weights are finite"))
        {
            Ok(i) | Err(i) => i.min(self.cumulative.len() - 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> DetRng {
        DetRng::new(0xB1AD_E001)
    }

    fn samples(d: &impl Distribution, n: usize) -> Vec<f64> {
        let mut r = rng();
        (0..n).map(|_| d.sample(&mut r)).collect()
    }

    fn mean_of(d: &impl Distribution, n: usize) -> f64 {
        samples(d, n).iter().sum::<f64>() / n as f64
    }

    #[test]
    fn exponential_mean() {
        let d = Exponential::new(1.0 / 2.5);
        let m = mean_of(&d, 200_000);
        assert!((m - 2.5).abs() < 0.05, "mean {m}");
    }

    #[test]
    fn exponential_is_positive() {
        let d = Exponential::new(1.0);
        let mut r = rng();
        assert!((0..10_000).all(|_| d.sample(&mut r) > 0.0));
    }

    #[test]
    fn poisson_small_mean() {
        let d = Poisson::new(3.0);
        let m = mean_of(&d, 100_000);
        assert!((m - 3.0).abs() < 0.05, "mean {m}");
    }

    #[test]
    fn poisson_large_mean_uses_normal_approx() {
        let d = Poisson::new(400.0);
        let m = mean_of(&d, 50_000);
        assert!((m - 400.0).abs() < 1.0, "mean {m}");
    }

    #[test]
    fn lognormal_median_calibration() {
        let d = LogNormal::from_median_p90(100.0, 160.0);
        assert!((d.median() - 100.0).abs() < 1e-9);
        let mut xs = samples(&d, 100_000);
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let med = xs[xs.len() / 2];
        let p90 = xs[(xs.len() as f64 * 0.9) as usize];
        assert!((med - 100.0).abs() < 2.0, "median {med}");
        assert!((p90 - 160.0).abs() < 4.0, "p90 {p90}");
    }

    #[test]
    fn pareto_tail() {
        let d = Pareto::new(1.0, 2.0);
        let xs = samples(&d, 100_000);
        assert!(xs.iter().all(|&x| x >= 1.0));
        // P(X > 10) = 10^-2 = 1%.
        let tail = xs.iter().filter(|&&x| x > 10.0).count() as f64 / xs.len() as f64;
        assert!((tail - 0.01).abs() < 0.003, "tail {tail}");
    }

    #[test]
    fn zipf_rank_one_dominates() {
        let d = Zipf::new(1_000_000, 1.1);
        let mut r = rng();
        let n = 100_000;
        let ones = (0..n).filter(|_| d.sample_rank(&mut r) == 1).count();
        // Rank 1 should be by far the most common outcome.
        let twos = {
            let mut r = rng();
            (0..n).filter(|_| d.sample_rank(&mut r) == 2).count()
        };
        assert!(ones > twos, "ones={ones} twos={twos}");
        assert!(ones > n / 20, "rank 1 count {ones}");
    }

    #[test]
    fn zipf_in_bounds() {
        let d = Zipf::new(50, 1.0);
        let mut r = rng();
        for _ in 0..10_000 {
            let k = d.sample_rank(&mut r);
            assert!((1..=50).contains(&k));
        }
    }

    #[test]
    fn categorical_matches_weights() {
        let d = Categorical::new(&[0.45, 0.26, 0.25, 0.04]);
        let mut r = rng();
        let mut counts = [0u32; 4];
        let n = 200_000;
        for _ in 0..n {
            counts[d.sample_index(&mut r)] += 1;
        }
        let fracs: Vec<f64> = counts.iter().map(|&c| c as f64 / n as f64).collect();
        for (f, w) in fracs.iter().zip([0.45, 0.26, 0.25, 0.04]) {
            assert!((f - w).abs() < 0.01, "frac {f} vs weight {w}");
        }
    }

    #[test]
    #[should_panic(expected = "sum to a positive")]
    fn categorical_rejects_zero_weights() {
        Categorical::new(&[0.0, 0.0]);
    }
}
