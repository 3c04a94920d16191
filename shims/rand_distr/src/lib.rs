//! Offline shim for the subset of `rand_distr` 0.4 used by this
//! workspace: [`Distribution`], [`Uniform`], [`Exp`] / [`Exp1`], and
//! [`LogNormal`] / [`StandardNormal`].
//!
//! The samplers are mathematically faithful (inverse-CDF for the
//! exponential, Box–Muller for the normal underlying the log-normal), so
//! statistical cross-validation tests that compare empirical moments
//! against closed forms hold. Only the exact stream of values differs
//! from upstream `rand_distr`.

use rand::{Rng, RngCore};

/// Types that can produce samples of `T` from a generator.
pub trait Distribution<T> {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> T;
}

/// Error type returned by distribution constructors on invalid
/// parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DistrError(&'static str);

impl core::fmt::Display for DistrError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.0)
    }
}

impl std::error::Error for DistrError {}

/// Upstream-compatible alias: `rand_distr::ExpError` etc. all display a
/// message; workspace code only ever `.unwrap()`s or propagates them.
pub type Error = DistrError;

/// Draws uniform in the open interval `(0, 1)`, safe for `ln()`.
#[inline]
fn open01<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u: f64 = rand::StandardSample::sample_standard(rng);
        if u > 0.0 {
            return u;
        }
    }
}

/// Uniform distribution over `[low, high)`.
#[derive(Clone, Copy, Debug)]
pub struct Uniform {
    low: f64,
    high: f64,
}

impl Uniform {
    /// Uniform over the half-open interval `[low, high)`.
    pub fn new(low: f64, high: f64) -> Uniform {
        assert!(low < high, "Uniform::new called with low >= high");
        Uniform { low, high }
    }

    /// Uniform over the closed interval `[low, high]`.
    pub fn new_inclusive(low: f64, high: f64) -> Uniform {
        assert!(low <= high, "Uniform::new_inclusive called with low > high");
        Uniform { low, high }
    }
}

impl Distribution<f64> for Uniform {
    #[inline]
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let u: f64 = rand::StandardSample::sample_standard(rng);
        let v = self.low + (self.high - self.low) * u;
        if v >= self.high {
            self.low
        } else {
            v
        }
    }
}

/// Exponential distribution with rate `lambda` (mean `1 / lambda`).
#[derive(Clone, Copy, Debug)]
pub struct Exp {
    lambda: f64,
}

impl Exp {
    pub fn new(lambda: f64) -> Result<Exp, DistrError> {
        if lambda.is_finite() && lambda > 0.0 {
            Ok(Exp { lambda })
        } else {
            Err(DistrError("Exp::new: lambda must be positive and finite"))
        }
    }
}

impl Distribution<f64> for Exp {
    /// `Exp1 / lambda`.
    #[inline]
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        Exp1.sample(rng) / self.lambda
    }
}

/// The unit-rate exponential `Exp(1)`: nothing to validate, so callers
/// that scale it themselves need no fallible constructor.
#[derive(Clone, Copy, Debug)]
pub struct Exp1;

impl Distribution<f64> for Exp1 {
    /// Inverse-CDF sampling: `-ln(U)` with `U` in `(0, 1)`.
    #[inline]
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        -open01(rng).ln()
    }
}

/// The standard normal `N(0, 1)` via Box–Muller (one value per draw; the
/// sibling is discarded to keep the sampler stateless and `Copy`).
#[derive(Clone, Copy, Debug)]
pub struct StandardNormal;

impl Distribution<f64> for StandardNormal {
    #[inline]
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let u1 = open01(rng);
        let u2 = open01(rng);
        (-2.0 * u1.ln()).sqrt() * (core::f64::consts::TAU * u2).cos()
    }
}

/// Normal distribution with the given mean and standard deviation.
#[derive(Clone, Copy, Debug)]
pub struct Normal {
    mean: f64,
    std_dev: f64,
}

impl Normal {
    pub fn new(mean: f64, std_dev: f64) -> Result<Normal, DistrError> {
        if std_dev.is_finite() && std_dev >= 0.0 && mean.is_finite() {
            Ok(Normal { mean, std_dev })
        } else {
            Err(DistrError("Normal::new: invalid mean or std_dev"))
        }
    }
}

impl Distribution<f64> for Normal {
    #[inline]
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.mean + self.std_dev * StandardNormal.sample(rng)
    }
}

/// Log-normal distribution: `exp(N(mu, sigma))`.
///
/// Note that like upstream `rand_distr`, `mu` and `sigma` are the
/// parameters of the *underlying normal*, not the log-normal's own mean
/// and standard deviation.
#[derive(Clone, Copy, Debug)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    pub fn new(mu: f64, sigma: f64) -> Result<LogNormal, DistrError> {
        if sigma.is_finite() && sigma >= 0.0 && mu.is_finite() {
            Ok(LogNormal { mu, sigma })
        } else {
            Err(DistrError("LogNormal::new: invalid mu or sigma"))
        }
    }
}

impl Distribution<f64> for LogNormal {
    #[inline]
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        (self.mu + self.sigma * StandardNormal.sample(rng)).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// SplitMix64-based generator good enough for moment checks.
    struct Sm(u64);

    impl RngCore for Sm {
        fn next_u32(&mut self) -> u32 {
            (self.next_u64() >> 32) as u32
        }
        fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
        fn fill_bytes(&mut self, dest: &mut [u8]) {
            for chunk in dest.chunks_mut(8) {
                let word = self.next_u64().to_le_bytes();
                let n = chunk.len();
                chunk.copy_from_slice(&word[..n]);
            }
        }
    }

    impl SeedableRng for Sm {
        type Seed = [u8; 8];
        fn from_seed(seed: [u8; 8]) -> Self {
            Sm(u64::from_le_bytes(seed))
        }
    }

    fn mean_of(samples: impl Iterator<Item = f64>) -> (f64, usize) {
        let mut total = 0.0;
        let mut n = 0usize;
        for s in samples {
            total += s;
            n += 1;
        }
        (total / n as f64, n)
    }

    #[test]
    fn exponential_mean_matches() {
        let d = Exp::new(1.0 / 600.0).unwrap();
        let mut rng = Sm::seed_from_u64(11);
        let (mean, _) = mean_of((0..200_000).map(|_| d.sample(&mut rng)));
        assert!((mean - 600.0).abs() < 6.0, "mean {mean}");
    }

    #[test]
    fn log_normal_mean_matches() {
        // Mean of exp(N(mu, sigma)) is exp(mu + sigma^2 / 2).
        let (mu, sigma) = (3.0, 0.5);
        let d = LogNormal::new(mu, sigma).unwrap();
        let mut rng = Sm::seed_from_u64(23);
        let (mean, _) = mean_of((0..200_000).map(|_| d.sample(&mut rng)));
        let expect = (mu + sigma * sigma / 2.0f64).exp();
        assert!(
            (mean / expect - 1.0).abs() < 0.02,
            "mean {mean} vs {expect}"
        );
    }

    #[test]
    fn uniform_stays_in_bounds() {
        let d = Uniform::new(0.5, 2.0);
        let mut rng = Sm::seed_from_u64(3);
        for _ in 0..10_000 {
            let v = d.sample(&mut rng);
            assert!((0.5..2.0).contains(&v));
        }
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        assert!(Exp::new(0.0).is_err());
        assert!(Exp::new(-1.0).is_err());
        assert!(LogNormal::new(f64::NAN, 1.0).is_err());
        assert!(Normal::new(0.0, -1.0).is_err());
    }
}
