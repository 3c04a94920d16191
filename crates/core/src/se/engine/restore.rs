//! Checkpoint and restore (paper §IV-D: a killed solver resumes). The
//! [`SeCheckpoint`] data types live in [`crate::se::checkpoint`].

use mvcom_obs::Value;
use mvcom_types::{Error, Result};

use super::build::{build_replicas, Origin};
use super::SeEngine;
use crate::problem::Instance;
use crate::se::checkpoint::{selected_indices, ChainSnapshot, SeCheckpoint};
use crate::se::config::SeConfig;
use crate::solution::Solution;

impl SeEngine {
    /// Takes a version-stamped, serializable snapshot of the full solver
    /// state: every chain's current solution per replica, the best
    /// solution so far, and both clocks. See [`crate::se::checkpoint`].
    pub fn checkpoint(&self) -> SeCheckpoint {
        let ckpt = SeCheckpoint {
            version: self.iteration,
            seed: self.config.seed,
            iteration: self.iteration,
            vtime: self.vtime,
            best_words: self.best_solution.words().to_vec(),
            best_utility: self.best_utility,
            replicas: self
                .replicas
                .iter()
                .map(|r| {
                    r.chains
                        .iter()
                        .map(|c| ChainSnapshot {
                            cardinality: c.cardinality(),
                            words: c.solution().words().to_vec(),
                        })
                        .collect()
                })
                .collect(),
        };
        self.obs.emit(
            "se_checkpoint_save",
            self.vtime,
            &[
                ("version", Value::U64(ckpt.version)),
                ("iter", Value::U64(ckpt.iteration)),
                ("chains", Value::from(ckpt.chain_count())),
            ],
        );
        ckpt
    }

    /// Rebuilds an engine from a checkpoint taken against the *same*
    /// instance shape: chains resume from their recorded solutions, clocks
    /// resume from the recorded values, and fresh deterministic RNG
    /// streams are derived from `seed ^ version` (so a restored run is
    /// reproducible without serializing RNG internals). Derived state —
    /// the instance's [`ShardColumns`](crate::eval::ShardColumns), each
    /// chain's utility and its incremental [`crate::eval::EvalCache`] — is
    /// recomputed from the instance (once) and `(columns, solution)` (per
    /// chain, in [`Chain::attach`](crate::se::chain::Chain::attach)) by
    /// the same builder a fresh engine uses, rather than serialized, so
    /// checkpoints stay small and restored chains never inherit
    /// incremental drift.
    ///
    /// # Errors
    ///
    /// Configuration errors; [`Error::InvalidConfig`] when the checkpoint
    /// is internally corrupt ([`SeCheckpoint::validate`]), does not match
    /// `config.seed`, or indexes shards the instance does not have.
    pub fn from_checkpoint(
        instance: &Instance,
        config: SeConfig,
        ckpt: &SeCheckpoint,
    ) -> Result<SeEngine> {
        config.validate()?;
        ckpt.validate(instance.len())?;
        if ckpt.seed != config.seed {
            return Err(Error::invalid_config(
                "seed",
                format!(
                    "checkpoint was taken under seed {} but the config says {}",
                    ckpt.seed, config.seed
                ),
            ));
        }
        let replicas = build_replicas(instance, &config, Origin::Restored(ckpt))?;
        let mut engine = SeEngine::assemble(instance, config, replicas);
        engine.iteration = ckpt.iteration;
        engine.vtime = ckpt.vtime;
        engine.best_utility = ckpt.best_utility;
        engine.best_solution = restore_solution(instance, &ckpt.best_words);
        engine.restored_chains = ckpt.chain_count();
        engine.reseed();
        Ok(engine)
    }
}

/// The solution a checkpoint's (validated) `words` record, inserted in
/// increasing index order — the order the aggregates `tx_total` and
/// `lat_total` were always summed in, so they come back bit for bit.
pub(super) fn restore_solution(instance: &Instance, words: &[u64]) -> Solution {
    Solution::from_indices(instance.len(), selected_indices(words), instance)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamics::DynamicsPolicy;
    use crate::problem::InstanceBuilder;
    use crate::se::engine::tests::instance;
    use mvcom_types::CommitteeId;

    #[test]
    fn checkpoint_round_trips_and_resumes_the_run() {
        let inst = instance(25);
        let mut engine = SeEngine::new(&inst, SeConfig::fast_test(31)).unwrap();
        for _ in 0..80 {
            engine.step();
        }
        let before = engine.current_best_utility();
        let ckpt = engine.checkpoint();
        assert_eq!(ckpt.version, 80);
        assert!(ckpt.validate(inst.len()).is_ok());

        // The snapshot survives a process boundary as JSON.
        let json = serde_json::to_string(&ckpt).unwrap();
        let ckpt: crate::se::SeCheckpoint = serde_json::from_str(&json).unwrap();

        // The killed solver's replacement resumes from the snapshot.
        let mut restored =
            SeEngine::from_checkpoint(&inst, SeConfig::fast_test(31), &ckpt).unwrap();
        assert_eq!(restored.iteration(), 80);
        assert_eq!(restored.restored_chains(), ckpt.chain_count());
        assert!(restored.restored_chains() > 0);
        assert!(
            restored.current_best_utility() >= before - 1e-9,
            "restored chains must stand where the originals stood"
        );
        for _ in 0..200 {
            restored.step();
        }
        let outcome = restored.finish();
        assert!(inst.is_feasible(&outcome.best_solution));
        assert!(outcome.best_utility >= before - 1e-9);
    }

    #[test]
    fn from_checkpoint_rejects_mismatch_and_corruption() {
        let inst = instance(12);
        let mut engine = SeEngine::new(&inst, SeConfig::fast_test(32)).unwrap();
        for _ in 0..20 {
            engine.step();
        }
        let ckpt = engine.checkpoint();
        // Wrong seed.
        assert!(SeEngine::from_checkpoint(&inst, SeConfig::fast_test(33), &ckpt).is_err());
        // Whatever `validate` refuses, the restore refuses with it: a
        // shard past the instance, a word too many, a cardinality the
        // bits do not have.
        let corruptions: [fn(&mut SeCheckpoint); 4] = [
            |c| c.best_words[0] |= 1 << 17,
            |c| c.replicas[0][0].words[0] |= 1 << 40,
            |c| c.replicas[1][0].words.push(0),
            |c| c.replicas[0][1].cardinality += 1,
        ];
        for corrupt in corruptions {
            let mut bad = ckpt.clone();
            corrupt(&mut bad);
            let refused = bad.validate(inst.len()).unwrap_err();
            let restored = SeEngine::from_checkpoint(&inst, SeConfig::fast_test(32), &bad);
            assert_eq!(restored.err(), Some(refused));
        }
        // A smaller instance cannot host the snapshot.
        let small = instance(6);
        assert!(SeEngine::from_checkpoint(&small, SeConfig::fast_test(32), &ckpt).is_err());
    }

    #[test]
    fn post_failure_restore_reconverges_within_the_theorem_2_bound() {
        // Kill the solver mid-run, restore from its checkpoint, then lose
        // a committee (Trim): Theorem 2 bounds the post-perturbation
        // utility by the best utility of the trimmed space, and the
        // restored engine must re-converge to a utility within that bound.
        let inst = instance(20);
        let mut engine = SeEngine::new(&inst, SeConfig::fast_test(34)).unwrap();
        for _ in 0..150 {
            engine.step();
        }
        let ckpt = engine.checkpoint();
        drop(engine); // the solver process dies here

        let mut restored =
            SeEngine::from_checkpoint(&inst, SeConfig::fast_test(34), &ckpt).unwrap();
        restored
            .handle_leave(CommitteeId(4), DynamicsPolicy::Trim)
            .unwrap();
        for _ in 0..400 {
            restored.step();
        }
        let outcome = restored.finish();

        // The best utility over the trimmed space G, computed by an
        // independent fresh solve of the survivor instance.
        let trimmed = InstanceBuilder::new()
            .alpha(1.5)
            .capacity(inst.capacity())
            .n_min(inst.n_min())
            .shards(
                inst.shards()
                    .iter()
                    .filter(|s| s.committee() != CommitteeId(4))
                    .copied()
                    .collect(),
            )
            .build()
            .unwrap();
        let best_trimmed = SeEngine::new(&trimmed, SeConfig::paper(35).with_max_iterations(3_000))
            .unwrap()
            .run()
            .best_utility;
        let bound = crate::theory::perturbation_bound(best_trimmed);
        assert!(trimmed.is_feasible(&outcome.best_solution));
        assert!(
            outcome.best_utility <= bound + 1e-9,
            "post-failure utility {} exceeds the Theorem 2 bound {bound}",
            outcome.best_utility
        );
        assert!(
            outcome.best_utility >= 0.9 * bound,
            "restored engine failed to re-converge: {} vs bound {bound}",
            outcome.best_utility
        );
    }
}
