//! Committee formation and overlay configuration (Elastico stages 1–2).
//!
//! A committee is *formed* once all of its PoW-elected members have solved
//! their puzzles and the overlay (mutual discovery through directory
//! nodes) is configured. Elastico's directory mechanism makes every node
//! process `O(n)` identity announcements, which is why the measured
//! formation latency in paper Fig. 2(a) grows linearly with the network
//! size while the consensus latency stays flat.

use rand::Rng;
use serde::Serialize;

use mvcom_types::{CommitteeId, NodeId, Result, SimTime};

use crate::pow::{PowConfig, PowSolution};

/// Overlay-configuration cost model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverlayConfig {
    /// Fixed setup cost per committee (directory round-trips), seconds.
    pub base_secs: f64,
    /// Per-network-node identity-processing cost, seconds — the term that
    /// makes formation latency linear in the network size (Fig. 2(a)).
    pub secs_per_node: f64,
    /// Multiplicative jitter: the realized overlay cost is scaled by a
    /// uniform factor in `[1 − jitter, 1 + jitter]`.
    pub jitter: f64,
}

impl OverlayConfig {
    /// Calibrated so the linear identity-processing term dominates the
    /// PoW max-order-statistic at paper scales (Fig. 2(a) shows formation
    /// latency growing linearly from hundreds to thousands of seconds as
    /// the network scales to 1000 nodes).
    pub fn paper() -> OverlayConfig {
        OverlayConfig {
            base_secs: 30.0,
            secs_per_node: 3.0,
            jitter: 0.25,
        }
    }

    /// Samples the overlay cost for a network of `n_nodes`.
    pub fn sample<R: Rng + ?Sized>(&self, n_nodes: u32, rng: &mut R) -> SimTime {
        let nominal = self.base_secs + self.secs_per_node * f64::from(n_nodes);
        let factor = 1.0 + self.jitter * (rng.gen::<f64>() * 2.0 - 1.0);
        SimTime::from_secs((nominal * factor).max(0.0))
    }
}

impl Default for OverlayConfig {
    fn default() -> Self {
        OverlayConfig::paper()
    }
}

/// One formed committee: its members and the latency of stages 1–2.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FormedCommittee {
    /// The committee id (from the PoW digest bits).
    pub id: CommitteeId,
    /// Member nodes, in solve order.
    pub members: Vec<NodeId>,
    /// When the last member's puzzle completed (stage 1 end).
    pub pow_completed_at: SimTime,
    /// The total formation latency: PoW completion plus overlay setup.
    pub formation_latency: SimTime,
}

/// Groups PoW solutions into committees and times their formation.
#[derive(Debug, Clone)]
pub struct CommitteeFormation {
    overlay: OverlayConfig,
    /// Committees smaller than this are discarded (cannot run PBFT).
    min_committee_size: u32,
}

impl CommitteeFormation {
    /// Creates the formation stage; `min_committee_size` must be ≥ 4 so
    /// every surviving committee can tolerate at least one fault.
    pub fn new(overlay: OverlayConfig, min_committee_size: u32) -> CommitteeFormation {
        CommitteeFormation {
            overlay,
            min_committee_size: min_committee_size.max(4),
        }
    }

    /// Consumes the lottery output and returns the formed committees,
    /// sorted by id. Committees that attracted fewer than the minimum
    /// membership are dropped (their members idle this epoch, as in
    /// Elastico when a bucket under-fills).
    ///
    /// # Errors
    ///
    /// Propagates PoW configuration validation.
    pub fn form<R: Rng + ?Sized>(
        &self,
        pow: &PowConfig,
        solutions: &[PowSolution],
        n_nodes: u32,
        rng: &mut R,
    ) -> Result<Vec<FormedCommittee>> {
        pow.validate()?;
        let count = pow.committee_count() as usize;
        let mut buckets: Vec<Vec<&PowSolution>> = vec![Vec::new(); count];
        for sol in solutions {
            buckets[sol.committee.index()].push(sol);
        }
        let mut formed = Vec::new();
        for (idx, bucket) in buckets.into_iter().enumerate() {
            if (bucket.len() as u32) < self.min_committee_size {
                continue;
            }
            let Some(pow_completed_at) = bucket.iter().map(|s| s.solved_at).max() else {
                continue; // unreachable while min_committee_size >= 1, but cheap to guard
            };
            let overlay_cost = self.overlay.sample(n_nodes, rng);
            formed.push(FormedCommittee {
                id: CommitteeId(idx as u32),
                members: bucket.iter().map(|s| s.node).collect(),
                pow_completed_at,
                formation_latency: pow_completed_at + overlay_cost,
            });
        }
        Ok(formed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pow::run_lottery;
    use mvcom_simnet::rng;
    use mvcom_types::Hash32;

    fn setup(n_nodes: u32, bits: u32, seed: u64) -> (PowConfig, Vec<PowSolution>) {
        let config = PowConfig::paper(bits);
        let mut r = rng::master(seed);
        let sols = run_lottery(&config, n_nodes, Hash32::digest(b"epoch"), &mut r).unwrap();
        (config, sols)
    }

    #[test]
    fn forms_committees_with_all_assigned_members() {
        let (config, sols) = setup(400, 3, 1);
        let formation = CommitteeFormation::new(OverlayConfig::paper(), 4);
        let mut r = rng::master(2);
        let formed = formation.form(&config, &sols, 400, &mut r).unwrap();
        assert!(!formed.is_empty());
        let total_members: usize = formed.iter().map(|c| c.members.len()).sum();
        assert!(total_members <= 400);
        // ~50 members per committee with 8 committees: all should survive.
        assert_eq!(formed.len(), 8);
        for c in &formed {
            assert!(c.members.len() >= 4);
            assert!(c.formation_latency > c.pow_completed_at);
        }
    }

    #[test]
    fn formation_latency_grows_with_network_size() {
        // The Fig. 2(a) shape: the per-node overlay term dominates.
        let formation = CommitteeFormation::new(OverlayConfig::paper(), 4);
        let mean_latency = |n: u32, seed: u64| {
            let (config, sols) = setup(n, 3, seed);
            let mut r = rng::master(seed + 100);
            let formed = formation.form(&config, &sols, n, &mut r).unwrap();
            formed
                .iter()
                .map(|c| c.formation_latency.as_secs())
                .sum::<f64>()
                / formed.len() as f64
        };
        let small = mean_latency(200, 1);
        let large = mean_latency(1_000, 2);
        // Slope 3.0 s/node over 800 extra nodes ⇒ ≈ +2400 s expected.
        assert!(
            large > small + 1_200.0,
            "formation latency should grow ~linearly: {small} → {large}"
        );
    }

    #[test]
    fn undersized_committees_are_dropped() {
        // 40 nodes into 16 committees → expected 2.5 members each; with a
        // minimum of 4 most buckets must be dropped.
        let (config, sols) = setup(40, 4, 3);
        let formation = CommitteeFormation::new(OverlayConfig::paper(), 4);
        let mut r = rng::master(4);
        let formed = formation.form(&config, &sols, 40, &mut r).unwrap();
        assert!(formed.len() < 16);
        for c in &formed {
            assert!(c.members.len() >= 4);
        }
    }

    #[test]
    fn overlay_sample_is_positive_and_scales() {
        let overlay = OverlayConfig::paper();
        let mut r = rng::master(5);
        let mut mean = |n: u32| -> f64 {
            (0..500)
                .map(|_| overlay.sample(n, &mut r).as_secs())
                .sum::<f64>()
                / 500.0
        };
        let at_100 = mean(100);
        let at_1000 = mean(1_000);
        assert!(at_100 > 0.0);
        assert!(
            (at_1000 - at_100 - 3.0 * 900.0).abs() < 150.0,
            "per-node slope mismatch: {at_100} → {at_1000}"
        );
    }
}
