//! The PoW identity lottery (Elastico stage 1).
//!
//! Every node repeatedly hashes `(epoch randomness, node id, nonce)` until
//! the digest clears the difficulty. Solve times are exponential — the
//! memoryless property of hashing trials — with the mean set by
//! difficulty/hash-power; the paper's simulation uses a 600-second
//! expectation (§VI-A). The final `committee_bits` bits of the winning
//! digest assign the node to a committee, exactly as in Elastico.

use rand::Rng;

use mvcom_simnet::LatencyModel;
use mvcom_types::{CommitteeId, Error, Hash32, NodeId, Result, SimTime};

/// Mean puzzle-solving time in seconds of a node of unit hash power
/// (paper §VI-A: 600 s).
const MEAN_SOLVE_SECS: f64 = 600.0;
/// Relative hash-power spread across nodes: each node's mean solve time is
/// `MEAN_SOLVE_SECS / power`, with `power` drawn uniformly from
/// `[1 − POWER_SPREAD, 1 + POWER_SPREAD]` — moderate heterogeneity.
const POWER_SPREAD: f64 = 0.3;

/// PoW parameters. The solve-time model is fixed: a node of hash power
/// `P ~ U[0.7, 1.3]` solves in `Exp(600 s / P)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowConfig {
    /// Number of committee-assignment bits: `2^committee_bits` committees.
    pub committee_bits: u32,
}

impl PowConfig {
    /// The paper's §VI-A parameterization with `2^committee_bits`
    /// committees.
    pub fn paper(committee_bits: u32) -> PowConfig {
        PowConfig { committee_bits }
    }

    /// Number of committees this configuration produces.
    pub fn committee_count(&self) -> u32 {
        1 << self.committee_bits
    }

    /// Validates parameter domains.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] naming the offending parameter.
    pub fn validate(&self) -> Result<()> {
        if self.committee_bits == 0 || self.committee_bits > 16 {
            return Err(Error::invalid_config(
                "committee_bits",
                "must be in 1..=16 (2 to 65536 committees)",
            ));
        }
        Ok(())
    }
}

/// One node's solved PoW identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PowSolution {
    /// The solving node.
    pub node: NodeId,
    /// When the puzzle was solved (from epoch start).
    pub solved_at: SimTime,
    /// The winning digest (identity).
    pub identity: Hash32,
    /// The committee the digest's low bits assign the node to.
    pub committee: CommitteeId,
}

/// Runs the identity lottery for `n_nodes` nodes against the shared
/// `epoch_randomness`, returning solutions sorted by solve time.
///
/// # Errors
///
/// Propagates configuration validation.
pub fn run_lottery<R: Rng + ?Sized>(
    config: &PowConfig,
    n_nodes: u32,
    epoch_randomness: Hash32,
    rng: &mut R,
) -> Result<Vec<PowSolution>> {
    config.validate()?;
    if n_nodes == 0 {
        return Err(Error::invalid_config("n_nodes", "need at least one node"));
    }
    let mask = (1u64 << config.committee_bits) - 1;
    let mut solutions: Vec<PowSolution> = (0..n_nodes)
        .map(|i| {
            let power = 1.0 + POWER_SPREAD * (rng.gen::<f64>() * 2.0 - 1.0);
            let model = LatencyModel::Exponential {
                mean_secs: MEAN_SOLVE_SECS / power,
            };
            let solved_at = model.sample(rng);
            let nonce: u64 = rng.gen();
            let identity = Hash32::digest(
                &[
                    epoch_randomness.as_bytes().as_slice(),
                    &u64::from(i).to_le_bytes(),
                    &nonce.to_le_bytes(),
                ]
                .concat(),
            );
            let committee = CommitteeId((identity.prefix_u64() & mask) as u32);
            PowSolution {
                node: NodeId(i),
                solved_at,
                identity,
                committee,
            }
        })
        .collect();
    solutions.sort_by_key(|a| a.solved_at);
    Ok(solutions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvcom_simnet::rng;

    #[test]
    fn lottery_is_sorted_and_complete() {
        let mut r = rng::master(1);
        let sols = run_lottery(&PowConfig::paper(3), 100, Hash32::digest(b"seed"), &mut r).unwrap();
        assert_eq!(sols.len(), 100);
        for w in sols.windows(2) {
            assert!(w[0].solved_at <= w[1].solved_at);
        }
        let nodes: std::collections::HashSet<u32> = sols.iter().map(|s| s.node.0).collect();
        assert_eq!(nodes.len(), 100);
    }

    #[test]
    fn solve_times_have_the_configured_mean() {
        // A node of power P ~ U[1 − s, 1 + s] solves in Exp(600/P), so the
        // lottery's mean is 600·E[1/P] = 600·ln((1 + s)/(1 − s))/(2s).
        let expected = MEAN_SOLVE_SECS * ((1.0 + POWER_SPREAD) / (1.0 - POWER_SPREAD)).ln()
            / (2.0 * POWER_SPREAD);
        assert!((expected - 619.04).abs() < 0.01, "analytic mean {expected}");
        let mut r = rng::master(2);
        let sols = run_lottery(&PowConfig::paper(2), 20_000, Hash32::digest(b"s"), &mut r).unwrap();
        let mean: f64 = sols.iter().map(|s| s.solved_at.as_secs()).sum::<f64>() / sols.len() as f64;
        assert!(
            (mean - expected).abs() / expected < 0.05,
            "mean solve {mean}"
        );
    }

    #[test]
    fn committee_assignment_is_roughly_uniform() {
        let mut r = rng::master(3);
        let config = PowConfig::paper(3); // 8 committees
        let sols = run_lottery(&config, 8_000, Hash32::digest(b"u"), &mut r).unwrap();
        let mut counts = [0u32; 8];
        for s in &sols {
            assert!(s.committee.0 < 8);
            counts[s.committee.index()] += 1;
        }
        for (c, &count) in counts.iter().enumerate() {
            assert!(
                (800..1200).contains(&count),
                "committee {c} got {count} members"
            );
        }
    }

    #[test]
    fn epoch_randomness_changes_assignments() {
        let mut r1 = rng::master(4);
        let mut r2 = rng::master(4);
        let a = run_lottery(&PowConfig::paper(4), 50, Hash32::digest(b"epoch1"), &mut r1).unwrap();
        let b = run_lottery(&PowConfig::paper(4), 50, Hash32::digest(b"epoch2"), &mut r2).unwrap();
        // Same RNG stream, different randomness: identities must differ.
        assert!(a
            .iter()
            .zip(&b)
            .any(|(x, y)| x.identity != y.identity || x.committee != y.committee));
    }

    #[test]
    fn validation_rejects_bad_configs() {
        assert!(PowConfig::paper(0).validate().is_err());
        assert!(PowConfig::paper(20).validate().is_err());
        let mut r = rng::master(0);
        assert!(run_lottery(&PowConfig::paper(2), 0, Hash32::ZERO, &mut r).is_err());
    }
}
