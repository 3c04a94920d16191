//! Committee join/leave mid-run (Alg. 1 lines 9–12, paper §V): the epoch
//! changes shape and the family is rebuilt over it — from scratch, or
//! warm-started from the solutions `Trim` projects out of the old chains.

use mvcom_obs::Value;
use mvcom_types::{CommitteeId, Result, ShardInfo};

use super::build::{build_replicas, warm_pool, Origin, WarmPool};
use super::SeEngine;
use crate::dynamics::DynamicsPolicy;
use crate::problem::Instance;
use crate::solution::Solution;

impl SeEngine {
    /// Handles a committee *join* (Alg. 1 lines 9–12): the epoch gains one
    /// shard, the deadline and every age term are re-derived, and chains
    /// are re-initialized or warm-started per `policy`.
    ///
    /// # Errors
    ///
    /// Propagates [`Instance::with_joined`] errors (duplicate committee).
    pub fn handle_join(&mut self, shard: ShardInfo, policy: DynamicsPolicy) -> Result<()> {
        let grown = self.instance.with_joined(shard)?;
        // Same indices survive; one more unselected slot.
        self.change_instance("join", shard.committee(), policy, grown, |old, grown| {
            Solution::from_indices(grown.len(), old.iter_selected(), grown)
        })
    }

    /// Handles a committee *leave/failure* (paper §V): the shard is removed
    /// from the epoch, the solution space is trimmed (`F → G`), and chains
    /// continue over the trimmed space (`Trim`) or restart (`Reinitialize`).
    ///
    /// # Errors
    ///
    /// [`Error::UnknownCommittee`](mvcom_types::Error::UnknownCommittee) if
    /// the committee has no shard here, or
    /// [`Error::Infeasible`](mvcom_types::Error::Infeasible) if the
    /// survivors cannot satisfy the constraints.
    pub fn handle_leave(&mut self, committee: CommitteeId, policy: DynamicsPolicy) -> Result<()> {
        let (trimmed, removed_idx) = self.instance.without_committee(committee)?;
        self.change_instance("leave", committee, policy, trimmed, |old, trimmed| {
            old.project_out(removed_idx, trimmed)
        })
    }

    /// Swaps in the changed epoch and rebuilds the family over it: fresh
    /// columns, every chain constructed against them. Under `Trim` every
    /// current chain's solution, carried onto `new_instance` by `carry`,
    /// is offered to the builder as a warm start, in (replica, chain)
    /// order; under `Reinitialize` the pool is empty.
    fn change_instance(
        &mut self,
        event: &'static str,
        committee: CommitteeId,
        policy: DynamicsPolicy,
        new_instance: Instance,
        carry: impl Fn(&Solution, &Instance) -> Solution,
    ) -> Result<()> {
        let utility_before = self.current_best_utility();
        let warm = match policy {
            DynamicsPolicy::Reinitialize => WarmPool::new(),
            DynamicsPolicy::Trim => warm_pool(
                &new_instance,
                self.chains().map(|c| carry(c.solution(), &new_instance)),
            ),
        };
        self.instance = new_instance;
        // The recorded best belongs to the previous epoch shape (different
        // shard indices and deadline); restart the tracker.
        self.best_utility = f64::NEG_INFINITY;
        self.best_solution = Solution::empty(self.instance.len());
        let origin = Origin::Initialized {
            iteration: self.iteration,
            warm: &warm,
        };
        self.replicas = build_replicas(&self.instance, &self.config, origin)?;
        self.reseed();
        self.obs.emit(
            "se_dynamic",
            self.vtime,
            &[
                ("iter", Value::U64(self.iteration)),
                ("event", Value::from(event)),
                ("committee", Value::from(committee.0)),
                ("utility_before", Value::F64(utility_before)),
                ("utility_after", Value::F64(self.current_best_utility())),
            ],
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::InstanceBuilder;
    use crate::se::config::SeConfig;
    use crate::se::engine::tests::{instance, shard};
    use mvcom_types::CommitteeId;

    #[test]
    fn join_extends_instance_and_keeps_feasibility() {
        let inst = instance(20);
        let mut engine = SeEngine::new(&inst, SeConfig::fast_test(7)).unwrap();
        for _ in 0..50 {
            engine.step();
        }
        engine
            .handle_join(shard(100, 90, 950.0), DynamicsPolicy::Trim)
            .unwrap();
        assert_eq!(engine.instance().len(), 21);
        for _ in 0..50 {
            engine.step();
        }
        let outcome = engine.finish();
        assert_eq!(outcome.best_solution.len(), 21);
    }

    #[test]
    fn leave_trims_instance_and_recovers() {
        let inst = instance(20);
        for policy in [DynamicsPolicy::Trim, DynamicsPolicy::Reinitialize] {
            let mut engine = SeEngine::new(&inst, SeConfig::fast_test(8)).unwrap();
            for _ in 0..50 {
                engine.step();
            }
            engine.handle_leave(CommitteeId(3), policy).unwrap();
            assert_eq!(engine.instance().len(), 19);
            assert!(engine.instance().index_of(CommitteeId(3)).is_none());
            for _ in 0..50 {
                engine.step();
            }
            let outcome = engine.finish();
            let final_inst = InstanceBuilder::new()
                .alpha(1.5)
                .capacity(inst.capacity())
                .n_min(inst.n_min())
                .shards(
                    inst.shards()
                        .iter()
                        .filter(|s| s.committee() != CommitteeId(3))
                        .copied()
                        .collect(),
                )
                .build()
                .unwrap();
            assert!(final_inst.is_feasible(&outcome.best_solution), "{policy:?}");
        }
    }

    #[test]
    fn leave_of_unknown_committee_errors() {
        let inst = instance(10);
        let mut engine = SeEngine::new(&inst, SeConfig::fast_test(12)).unwrap();
        assert!(engine
            .handle_leave(CommitteeId(999), DynamicsPolicy::Trim)
            .is_err());
    }

    #[test]
    fn duplicate_join_errors() {
        let inst = instance(10);
        let mut engine = SeEngine::new(&inst, SeConfig::fast_test(13)).unwrap();
        assert!(engine
            .handle_join(shard(0, 50, 100.0), DynamicsPolicy::Trim)
            .is_err());
    }

    #[test]
    fn trim_warm_starts_every_replica_from_the_first_pool_entry() {
        let inst = instance(20);
        let mut engine = SeEngine::new(&inst, SeConfig::fast_test(21).with_gamma(3)).unwrap();
        for _ in 0..50 {
            engine.step();
        }
        // The pool exactly as the leave will project it: (replica, chain)
        // order, chains that held committee 3 one cardinality lower.
        let (trimmed, removed) = inst.without_committee(CommitteeId(3)).unwrap();
        let pool: Vec<Solution> = engine
            .chains()
            .map(|c| c.solution().project_out(removed, &trimmed))
            .collect();
        engine
            .handle_leave(CommitteeId(3), DynamicsPolicy::Trim)
            .unwrap();

        let mut contested = 0;
        for replica in &engine.replicas {
            for chain in &replica.chains {
                let mut candidates = pool.iter().filter(|s| {
                    s.selected_count() == chain.cardinality() && trimmed.within_capacity(s)
                });
                let Some(first) = candidates.next() else {
                    continue; // no warm start at this cardinality: Algorithm 2
                };
                assert_eq!(chain.solution(), first, "n = {}", chain.cardinality());
                assert!(
                    (chain.utility() - trimmed.utility(first)).abs() < 1e-9,
                    "warm chains are re-priced against the trimmed epoch"
                );
                contested += usize::from(candidates.any(|s| s != first));
            }
        }
        // Otherwise "first" could not be told from "last" or "best".
        assert!(contested >= 3, "only {contested} contested cardinalities");

        // The capacity rule, which no join/leave can trip (the capacity is
        // fixed and projections only shrink): an entry that does not fit
        // is passed over even when it comes first.
        let tight = InstanceBuilder::new()
            .capacity(20)
            .shards(vec![
                shard(0, 10, 1.0),
                shard(1, 10, 2.0),
                shard(2, 10, 3.0),
                shard(3, 500, 4.0),
            ])
            .build()
            .unwrap();
        let pick = |indices: [usize; 2]| Solution::from_indices(4, indices, &tight);
        let (heavy, fits, later) = (pick([0, 3]), pick([0, 1]), pick([1, 2]));
        let indexed = warm_pool(&tight, [heavy, fits.clone(), later].into_iter());
        assert_eq!(indexed.len(), 1);
        assert_eq!(indexed[&2], fits);
    }
}
