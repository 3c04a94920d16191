//! Configuration of the Stochastic-Exploration engine.

use mvcom_types::{Error, Result};

/// Tuning parameters of [`SeEngine`](crate::se::SeEngine).
///
/// The defaults are the paper's §VI-A settings: `β = 2`, `Γ = 10`. Eq. (7)'s
/// conditional constant τ is `0`, as in all of the paper's experiments, and
/// drops out of the transition rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeConfig {
    /// Γ — the number of independent parallel execution replicas of the
    /// solution family (paper §IV-D / Fig. 8). Each iteration advances every
    /// replica by one timer race.
    pub gamma: usize,
    /// β — the log-sum-exp approximation sharpness. Larger β concentrates
    /// the stationary distribution on better solutions (approximation loss
    /// `(1/β)·log|F|` shrinks) at the cost of slower mixing (Theorem 1).
    pub beta: f64,
    /// Hard iteration budget.
    pub max_iterations: u64,
    /// Stop early when the best-so-far utility has not improved (by more
    /// than `1e-9`) for this many iterations (`0` disables early stopping).
    pub convergence_window: u64,
    /// How many candidate pairs each chain's local timer race samples per
    /// round. The chain commits the pair whose exponential timer (rate
    /// `exp(½β·ΔU)`) expires first — a sampled jump of the designed
    /// CTMC. Larger values approximate the full transition-rate matrix
    /// more closely at linear cost.
    pub proposal_fanout: usize,
    /// Upper bound on the chains per replica. Algorithm 2 spawns one
    /// chain per feasible cardinality; at `|I| = 10⁴–10⁵` that range is
    /// `O(|I|)` wide and every chain carries a counted `O(|I|)` bitset
    /// (≈0.13 bytes per shard, and a 4-byte-per-shard rank tree under
    /// `DdlPolicy::MaxSelected`; the per-shard columns, ≈36–48 bytes per
    /// shard, are the instance's one
    /// [`ShardColumns`](crate::problem::ShardColumns), read by the whole
    /// family) and pays an `O(|I|)` shuffle per
    /// initialization attempt, so the scale regime strides the range down
    /// to at most this many evenly spaced cardinalities (endpoints always
    /// kept).
    /// `usize::MAX` — the default and the paper setting — keeps every
    /// cardinality.
    pub max_chains: usize,
    /// Record a trajectory point every this many iterations (≥ 1).
    pub record_every: u64,
    /// Master seed for all of the engine's randomness.
    pub seed: u64,
}

impl SeConfig {
    /// The paper's default parameterization (β=2, Γ=10).
    pub fn paper(seed: u64) -> SeConfig {
        SeConfig {
            gamma: 10,
            beta: 2.0,
            max_iterations: 3_000,
            convergence_window: 500,
            proposal_fanout: 16,
            max_chains: usize::MAX,
            record_every: 1,
            seed,
        }
    }

    /// A small-budget configuration for unit tests.
    pub fn fast_test(seed: u64) -> SeConfig {
        SeConfig {
            gamma: 2,
            max_iterations: 300,
            convergence_window: 100,
            ..SeConfig::paper(seed)
        }
    }

    /// Sets Γ, returning the modified configuration.
    #[must_use]
    pub fn with_gamma(mut self, gamma: usize) -> SeConfig {
        self.gamma = gamma;
        self
    }

    /// Sets the iteration budget, returning the modified configuration.
    #[must_use]
    pub fn with_max_iterations(mut self, max_iterations: u64) -> SeConfig {
        self.max_iterations = max_iterations;
        self
    }

    /// The configuration of epoch `epoch` of a run: the seed mixed with the
    /// epoch index times the 64-bit golden ratio.
    #[must_use]
    pub fn for_epoch(mut self, epoch: u64) -> SeConfig {
        self.seed ^= epoch.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self
    }

    /// Validates all parameter domains.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] naming the offending parameter.
    pub fn validate(&self) -> Result<()> {
        if self.gamma == 0 {
            return Err(Error::invalid_config("gamma", "need at least one replica"));
        }
        if !self.beta.is_finite() || self.beta <= 0.0 {
            return Err(Error::invalid_config(
                "beta",
                format!("must be positive and finite, got {}", self.beta),
            ));
        }
        if self.max_iterations == 0 {
            return Err(Error::invalid_config("max_iterations", "must be positive"));
        }
        if self.proposal_fanout == 0 {
            return Err(Error::invalid_config("proposal_fanout", "must be positive"));
        }
        if self.max_chains == 0 {
            return Err(Error::invalid_config(
                "max_chains",
                "need at least one chain per replica",
            ));
        }
        if self.record_every == 0 {
            return Err(Error::invalid_config("record_every", "must be positive"));
        }
        Ok(())
    }
}

impl Default for SeConfig {
    fn default() -> Self {
        SeConfig::paper(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let c = SeConfig::paper(7);
        assert_eq!(c.gamma, 10);
        assert_eq!(c.beta, 2.0);
        assert_eq!(c.seed, 7);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn builder_style_setters() {
        let c = SeConfig::paper(0).with_gamma(25).with_max_iterations(10);
        assert_eq!(c.gamma, 25);
        assert_eq!(c.max_iterations, 10);
    }

    #[test]
    fn validation_catches_each_parameter() {
        let base = SeConfig::paper(0);
        let cases: Vec<SeConfig> = vec![
            SeConfig { gamma: 0, ..base },
            SeConfig { beta: 0.0, ..base },
            SeConfig {
                beta: f64::NAN,
                ..base
            },
            SeConfig {
                max_iterations: 0,
                ..base
            },
            SeConfig {
                proposal_fanout: 0,
                ..base
            },
            SeConfig {
                max_chains: 0,
                ..base
            },
            SeConfig {
                record_every: 0,
                ..base
            },
        ];
        for (i, c) in cases.iter().enumerate() {
            assert!(c.validate().is_err(), "case {i} should be rejected");
        }
    }
}
