//! Parametric latency models.
//!
//! Every random delay in the simulator — PoW solve times, link latency,
//! transaction-verification cost — is described by a [`LatencyModel`] so
//! experiment configurations are plain data (printable, comparable) rather
//! than closures.

use rand::Rng;
use rand_distr::{Distribution, Exp1, StandardNormal};

use mvcom_types::{Error, Result, SimTime};

/// A probability distribution over non-negative delays (seconds).
///
/// # Example
///
/// ```
/// use mvcom_simnet::{LatencyModel, rng};
///
/// let model = LatencyModel::exponential(600.0).unwrap();
/// let mut rng = rng::master(1);
/// let sample = model.sample(&mut rng);
/// assert!(sample.as_secs() >= 0.0);
/// assert!((model.mean() - 600.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum LatencyModel {
    /// Always exactly `secs`.
    Constant {
        /// The fixed delay in seconds.
        secs: f64,
    },
    /// Exponential with the given mean (e.g. PoW solve time, mean 600 s in
    /// the paper's setup).
    Exponential {
        /// Mean in seconds (`1/λ`).
        mean_secs: f64,
    },
    /// Log-normal given the mean and standard deviation **of the resulting
    /// delay** (not of the underlying normal); heavy-tailed link delays.
    LogNormal {
        /// Mean of the delay in seconds.
        mean_secs: f64,
        /// Standard deviation of the delay in seconds.
        std_secs: f64,
    },
    /// A constant floor plus an exponential tail: `offset + Exp(mean)`.
    /// Models delays with a deterministic propagation floor (e.g. a network
    /// round trip) and a stochastic queueing tail.
    ShiftedExponential {
        /// The deterministic floor in seconds.
        offset_secs: f64,
        /// Mean of the exponential tail in seconds.
        mean_secs: f64,
    },
}

impl LatencyModel {
    /// A constant delay.
    pub fn constant(secs: f64) -> Result<LatencyModel> {
        if !secs.is_finite() || secs < 0.0 {
            return Err(Error::invalid_config(
                "constant.secs",
                format!("must be finite and non-negative, got {secs}"),
            ));
        }
        Ok(LatencyModel::Constant { secs })
    }

    /// An exponential delay with the given mean.
    pub fn exponential(mean_secs: f64) -> Result<LatencyModel> {
        if !mean_secs.is_finite() || mean_secs <= 0.0 {
            return Err(Error::invalid_config(
                "exponential.mean_secs",
                format!("must be positive, got {mean_secs}"),
            ));
        }
        Ok(LatencyModel::Exponential { mean_secs })
    }

    /// A log-normal delay with the given mean and standard deviation of the
    /// *delay itself*.
    pub fn log_normal(mean_secs: f64, std_secs: f64) -> Result<LatencyModel> {
        if !(mean_secs.is_finite() && std_secs.is_finite()) || mean_secs <= 0.0 || std_secs <= 0.0 {
            return Err(Error::invalid_config(
                "log_normal",
                format!("need positive mean and std, got mean={mean_secs}, std={std_secs}"),
            ));
        }
        Ok(LatencyModel::LogNormal {
            mean_secs,
            std_secs,
        })
    }

    /// A delay with a deterministic floor and an exponential tail.
    pub fn shifted_exponential(offset_secs: f64, mean_secs: f64) -> Result<LatencyModel> {
        if !offset_secs.is_finite() || offset_secs < 0.0 {
            return Err(Error::invalid_config(
                "shifted_exponential.offset_secs",
                format!("must be finite and non-negative, got {offset_secs}"),
            ));
        }
        if !mean_secs.is_finite() || mean_secs <= 0.0 {
            return Err(Error::invalid_config(
                "shifted_exponential.mean_secs",
                format!("must be positive, got {mean_secs}"),
            ));
        }
        Ok(LatencyModel::ShiftedExponential {
            offset_secs,
            mean_secs,
        })
    }

    /// Works the distribution's parameters out once, for a caller that
    /// draws many delays from one model.
    pub(crate) fn sampler(&self) -> Sampler {
        match *self {
            LatencyModel::Constant { secs } => Sampler::Constant { secs },
            LatencyModel::Exponential { mean_secs } => Sampler::Exponential {
                rate: 1.0 / mean_secs,
            },
            LatencyModel::LogNormal {
                mean_secs,
                std_secs,
            } => {
                // Convert the desired delay moments into the underlying
                // normal parameters: if X ~ LogNormal(mu, sigma) then
                // E[X] = exp(mu + sigma^2/2), Var[X] = (exp(sigma^2)-1)E[X]^2.
                let cv2 = (std_secs / mean_secs).powi(2);
                let sigma2 = (1.0 + cv2).ln();
                Sampler::LogNormal {
                    mu: mean_secs.ln() - sigma2 / 2.0,
                    sigma: sigma2.sqrt(),
                }
            }
            LatencyModel::ShiftedExponential {
                offset_secs,
                mean_secs,
            } => Sampler::ShiftedExponential {
                offset_secs,
                rate: 1.0 / mean_secs,
            },
        }
    }

    /// Draws one delay.
    ///
    /// # Panics
    ///
    /// Panics if the draw is negative or NaN, which only a model built
    /// around the checked constructors can produce.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> SimTime {
        self.sampler().sample(rng)
    }

    /// The analytic mean of the distribution, in seconds.
    pub fn mean(&self) -> f64 {
        match *self {
            LatencyModel::Constant { secs } => secs,
            LatencyModel::Exponential { mean_secs } => mean_secs,
            LatencyModel::LogNormal { mean_secs, .. } => mean_secs,
            LatencyModel::ShiftedExponential {
                offset_secs,
                mean_secs,
            } => offset_secs + mean_secs,
        }
    }
}

/// A [`LatencyModel`] with its distribution parameters already worked out:
/// plain numbers, so building one cannot fail and a draw is the unit
/// variate scaled — the same expressions [`LatencyModel::sample`] has
/// always evaluated, the per-model part of them once instead of per draw.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Sampler {
    Constant { secs: f64 },
    Exponential { rate: f64 },
    LogNormal { mu: f64, sigma: f64 },
    ShiftedExponential { offset_secs: f64, rate: f64 },
}

impl Sampler {
    /// Draws one delay.
    #[inline]
    pub(crate) fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> SimTime {
        SimTime::from_secs(match *self {
            Sampler::Constant { secs } => secs,
            Sampler::Exponential { rate } => Exp1.sample(rng) / rate,
            Sampler::LogNormal { mu, sigma } => (mu + sigma * StandardNormal.sample(rng)).exp(),
            Sampler::ShiftedExponential { offset_secs, rate } => {
                offset_secs + Exp1.sample(rng) / rate
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng;

    fn sample_mean(model: &LatencyModel, n: usize, seed: u64) -> f64 {
        let mut r = rng::master(seed);
        (0..n).map(|_| model.sample(&mut r).as_secs()).sum::<f64>() / n as f64
    }

    #[test]
    fn constant_always_equal() {
        let m = LatencyModel::constant(3.5).unwrap();
        let mut r = rng::master(0);
        for _ in 0..10 {
            assert_eq!(m.sample(&mut r).as_secs(), 3.5);
        }
        assert_eq!(m.mean(), 3.5);
    }

    #[test]
    fn exponential_mean_matches() {
        let m = LatencyModel::exponential(600.0).unwrap();
        let empirical = sample_mean(&m, 50_000, 3);
        assert!(
            (empirical - 600.0).abs() / 600.0 < 0.03,
            "empirical mean {empirical}"
        );
    }

    #[test]
    fn log_normal_moments_match() {
        let m = LatencyModel::log_normal(54.5, 10.0).unwrap();
        let empirical = sample_mean(&m, 50_000, 4);
        assert!(
            (empirical - 54.5).abs() / 54.5 < 0.03,
            "empirical mean {empirical}"
        );
        // All samples positive.
        let mut r = rng::master(5);
        for _ in 0..1000 {
            assert!(m.sample(&mut r).as_secs() > 0.0);
        }
    }

    #[test]
    fn shifted_exponential_floor_and_mean() {
        let m = LatencyModel::shifted_exponential(2.0, 3.0).unwrap();
        let mut r = rng::master(6);
        for _ in 0..1000 {
            assert!(m.sample(&mut r).as_secs() >= 2.0);
        }
        assert_eq!(m.mean(), 5.0);
        let empirical = sample_mean(&m, 50_000, 7);
        assert!((empirical - 5.0).abs() < 0.1, "empirical mean {empirical}");
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        assert!(LatencyModel::shifted_exponential(-1.0, 1.0).is_err());
        assert!(LatencyModel::shifted_exponential(1.0, 0.0).is_err());
        assert!(LatencyModel::constant(-1.0).is_err());
        assert!(LatencyModel::constant(f64::NAN).is_err());
        assert!(LatencyModel::exponential(0.0).is_err());
        assert!(LatencyModel::exponential(-5.0).is_err());
        assert!(LatencyModel::log_normal(0.0, 1.0).is_err());
        assert!(LatencyModel::log_normal(1.0, 0.0).is_err());
    }

    /// `LatencyModel::sample` as it was before the parameters were worked
    /// out ahead of the draw: the distribution rebuilt, and checked, per call.
    fn sample_rebuilding_the_distribution(model: &LatencyModel, rng: &mut rng::SimRng) -> f64 {
        use rand_distr::{Exp, LogNormal};
        match *model {
            LatencyModel::Constant { secs } => secs,
            LatencyModel::Exponential { mean_secs } => {
                Exp::new(1.0 / mean_secs).unwrap().sample(rng)
            }
            LatencyModel::LogNormal {
                mean_secs,
                std_secs,
            } => {
                let cv2 = (std_secs / mean_secs).powi(2);
                let sigma2 = (1.0 + cv2).ln();
                let mu = mean_secs.ln() - sigma2 / 2.0;
                LogNormal::new(mu, sigma2.sqrt()).unwrap().sample(rng)
            }
            LatencyModel::ShiftedExponential {
                offset_secs,
                mean_secs,
            } => offset_secs + Exp::new(1.0 / mean_secs).unwrap().sample(rng),
        }
    }

    #[test]
    fn prepared_sampler_draws_the_same_bits_as_the_per_call_distributions() {
        let models = [
            LatencyModel::constant(3.5).unwrap(),
            LatencyModel::exponential(70.0).unwrap(),
            LatencyModel::log_normal(54.5, 15.0).unwrap(),
            LatencyModel::shifted_exponential(0.030, 0.020).unwrap(),
        ];
        // One stream shared by all four arms, so a draw count that drifted
        // in one arm would shift every later one.
        let (mut old, mut per_call, mut prepared) =
            (rng::master(9), rng::master(9), rng::master(9));
        let samplers = models.map(|model| model.sampler());
        for round in 0..2_000 {
            for (model, sampler) in models.iter().zip(&samplers) {
                let want = sample_rebuilding_the_distribution(model, &mut old).to_bits();
                let got = model.sample(&mut per_call).as_secs().to_bits();
                assert_eq!(got, want, "{model:?} round {round}: sample");
                let got = sampler.sample(&mut prepared).as_secs().to_bits();
                assert_eq!(got, want, "{model:?} round {round}: prepared");
            }
        }
        use rand::Rng;
        let position = old.gen::<u64>();
        assert_eq!(per_call.gen::<u64>(), position);
        assert_eq!(prepared.gen::<u64>(), position);
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let m = LatencyModel::log_normal(10.0, 2.0).unwrap();
        let mut a = rng::master(7);
        let mut b = rng::master(7);
        for _ in 0..100 {
            assert_eq!(m.sample(&mut a), m.sample(&mut b));
        }
    }
}
