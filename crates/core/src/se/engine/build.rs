//! Construction of the solution family: the feasible cardinality range and
//! its stride, and the one function that turns chain seeds into replicas.

use std::collections::BTreeMap;
use std::ops::RangeInclusive;
use std::sync::Arc;

use mvcom_obs::Obs;
use mvcom_simnet::rng;
use mvcom_types::{Error, Result};

use super::restore::restore_solution;
use super::{Replica, SeEngine, Trajectory};
use crate::eval::ShardColumns;
use crate::problem::Instance;
use crate::se::chain::Chain;
use crate::se::checkpoint::SeCheckpoint;
use crate::se::config::SeConfig;
use crate::solution::Solution;

/// `Trim`'s warm starts, by cardinality. Empty for a fresh engine and
/// under `Reinitialize`.
pub(super) type WarmPool = BTreeMap<usize, Solution>;

/// Where a family of replicas comes from: decides the master-RNG stamp,
/// the fork labels and every chain's [`ChainSeed`].
pub(super) enum Origin<'a> {
    /// Γ replicas of Algorithm 2 over the strided feasible cardinalities,
    /// built at `iteration`; a cardinality in `warm` resumes from it.
    Initialized { iteration: u64, warm: &'a WarmPool },
    /// The replicas and chains a checkpoint recorded (paper §IV-D).
    Restored(&'a SeCheckpoint),
}

/// How one chain gets its starting solution.
#[derive(Clone, Copy)]
enum ChainSeed<'a> {
    /// Algorithm 2 at this cardinality, drawing from the replica's RNG.
    Fresh(usize),
    /// A solution carried across a join/leave.
    Warm(&'a Solution),
    /// The selection a checkpoint recorded, as its bitset words.
    Restored(&'a [u64]),
}

/// The feasible cardinality range for chains,
/// `[max(1, N_min), min(|I|−1, n_cap)]`.
pub(super) fn cardinality_range(instance: &Instance) -> RangeInclusive<usize> {
    let lo = instance.n_min().max(1);
    let hi = instance
        .max_feasible_cardinality()
        .min(instance.len().saturating_sub(1));
    lo..=hi
}

/// The chain cardinalities for one replica: the whole feasible range when
/// it fits within `max_chains`, otherwise at most `max_chains` evenly
/// spaced cardinalities with both endpoints kept (the `N_min` floor and
/// the capacity ceiling anchor the solution family — see
/// [`SeConfig::max_chains`]). At the `usize::MAX` default this is exactly
/// the full range, so pre-scale behavior is unchanged.
fn stride_cardinalities(range: RangeInclusive<usize>, max_chains: usize) -> Vec<usize> {
    let (lo, hi) = (*range.start(), *range.end());
    if lo > hi {
        return Vec::new();
    }
    let width = hi - lo + 1;
    if width <= max_chains {
        return range.collect();
    }
    if max_chains == 1 {
        return vec![lo];
    }
    let mut cards: Vec<usize> = (0..max_chains)
        .map(|i| lo + i * (width - 1) / (max_chains - 1))
        .collect();
    // width > max_chains makes the index map strictly increasing, but
    // dedup is cheap insurance against rounding collisions.
    cards.dedup();
    cards
}

/// Indexes the solutions a `Trim` event carried over from the old chains,
/// handed over in (replica, chain) order: per cardinality, the *first* one
/// that fits the capacity. Every replica therefore warm-starts a
/// cardinality from the same solution (replica 0's whenever it has one),
/// not from its own old chain — a quirk `results/fig9*`, `fig14` and
/// `ablation_dynamics` pin byte for byte, so it stays.
pub(super) fn warm_pool(
    instance: &Instance,
    projected: impl Iterator<Item = Solution>,
) -> WarmPool {
    let mut pool = WarmPool::new();
    for solution in projected.filter(|s| instance.within_capacity(s)) {
        pool.entry(solution.selected_count()).or_insert(solution);
    }
    pool
}

/// Builds every chain of every replica — the only place a [`Replica`] is
/// constructed. Every chain attaches to one set of [`ShardColumns`]
/// derived here, and each replica's RNG is forked off a master keyed by
/// `seed ^ stamp`, so any family is reproducible from its origin alone.
///
/// # Errors
///
/// [`Error::Infeasible`] when no chain could be built and the full
/// selection violates a constraint; any other [`Chain::init_on`] error.
pub(super) fn build_replicas(
    instance: &Instance,
    config: &SeConfig,
    origin: Origin<'_>,
) -> Result<Vec<Replica>> {
    let (stamp, label, families): (u64, &str, Vec<Vec<ChainSeed<'_>>>) = match origin {
        Origin::Initialized { iteration, warm } => {
            let family: Vec<ChainSeed<'_>> =
                stride_cardinalities(cardinality_range(instance), config.max_chains)
                    .into_iter()
                    .map(|n| warm.get(&n).map_or(ChainSeed::Fresh(n), ChainSeed::Warm))
                    .collect();
            (iteration, "", vec![family; config.gamma])
        }
        Origin::Restored(ckpt) => {
            let recorded = ckpt.replicas.iter().map(|chains| {
                chains
                    .iter()
                    .map(|snap| ChainSeed::Restored(&snap.words))
                    .collect()
            });
            (ckpt.version, "-restored", recorded.collect())
        }
    };
    let mut master = rng::master(config.seed ^ stamp);
    let columns = Arc::new(ShardColumns::new(instance));
    let mut replicas = Vec::with_capacity(families.len());
    for (g, family) in families.into_iter().enumerate() {
        let mut rng = rng::fork(&mut master, &format!("replica-{g}{label}"));
        let mut chains = Vec::with_capacity(family.len());
        for seed in family {
            chains.push(match seed {
                ChainSeed::Fresh(n) => match Chain::init_on(&columns, instance, n, &mut rng) {
                    Ok(chain) => chain,
                    // No n-subset fits the capacity: skip this cardinality.
                    Err(Error::Infeasible { .. }) => continue,
                    Err(e) => return Err(e),
                },
                ChainSeed::Warm(solution) => Chain::attach(&columns, instance, solution.clone()),
                ChainSeed::Restored(words) => {
                    Chain::attach(&columns, instance, restore_solution(instance, words))
                }
            });
        }
        replicas.push(Replica { chains, rng });
    }
    let any_chain = replicas.iter().any(|r| !r.chains.is_empty());
    if !any_chain && !instance.is_feasible(&Solution::full(instance)) {
        return Err(Error::infeasible(
            "no feasible cardinality admits a chain and the full selection violates a constraint",
        ));
    }
    Ok(replicas)
}

impl SeEngine {
    /// Builds the engine: validates the configuration, derives the feasible
    /// cardinality range `[max(1, N_min), min(|I|−1, n_cap)]`, and runs
    /// Algorithm 2 to initialize every chain of every replica.
    ///
    /// # Errors
    ///
    /// Propagates configuration errors, and [`Error::Infeasible`] when not
    /// a single feasible solution exists (also checked by the instance
    /// builder, so this is defensive).
    pub fn new(instance: &Instance, config: SeConfig) -> Result<SeEngine> {
        config.validate()?;
        let origin = Origin::Initialized {
            iteration: 0,
            warm: &WarmPool::new(),
        };
        let replicas = build_replicas(instance, &config, origin)?;
        let mut engine = SeEngine::assemble(instance, config, replicas);
        engine.reseed();
        Ok(engine)
    }

    /// Wraps built replicas into an engine at iteration 0 with nothing
    /// recorded — the only place the struct literal is written.
    pub(super) fn assemble(instance: &Instance, config: SeConfig, replicas: Vec<Replica>) -> Self {
        SeEngine {
            instance: instance.clone(),
            config,
            replicas,
            iteration: 0,
            vtime: 0.0,
            best_solution: Solution::empty(instance.len()),
            best_utility: f64::NEG_INFINITY,
            last_improvement: 0,
            trajectory: Trajectory::default(),
            restored_chains: 0,
            obs: Obs::off(),
            threads: 1,
        }
    }

    /// After any build: raises the best-so-far tracker to the best of the
    /// new chains (to the full selection when there are none), restarts
    /// the convergence window and records a trajectory point.
    pub(super) fn reseed(&mut self) {
        for chain in self.replicas.iter().flat_map(|r| &r.chains) {
            if chain.utility() > self.best_utility {
                self.best_utility = chain.utility();
                self.best_solution = chain.solution().clone();
            }
        }
        if self.best_utility == f64::NEG_INFINITY {
            self.consider_full();
        }
        self.last_improvement = self.iteration;
        self.record_point();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamics::DynamicsPolicy;
    use crate::se::engine::tests::{instance, shard};
    use mvcom_types::CommitteeId;

    #[test]
    fn stride_keeps_full_range_within_budget() {
        assert_eq!(stride_cardinalities(3..=7, usize::MAX), vec![3, 4, 5, 6, 7]);
        assert_eq!(stride_cardinalities(3..=7, 5), vec![3, 4, 5, 6, 7]);
        assert_eq!(stride_cardinalities(4..=4, 1), vec![4]);
        let empty = std::ops::RangeInclusive::new(5, 4);
        assert!(stride_cardinalities(empty, 8).is_empty());
    }

    #[test]
    fn stride_bounds_and_keeps_endpoints() {
        for (lo, hi, k) in [(1usize, 100usize, 4usize), (10, 9_999, 7), (2, 11, 3)] {
            let cards = stride_cardinalities(lo..=hi, k);
            assert!(cards.len() <= k, "{lo}..={hi} @ {k}: {cards:?}");
            assert_eq!(cards.first(), Some(&lo));
            assert_eq!(cards.last(), Some(&hi));
            assert!(cards.windows(2).all(|w| w[0] < w[1]), "{cards:?}");
        }
        assert_eq!(stride_cardinalities(5..=50, 1), vec![5]);
    }

    #[test]
    fn max_chains_bounds_chains_per_replica() {
        let inst = instance(40);
        let budget = 3;
        let engine = SeEngine::new(
            &inst,
            SeConfig {
                max_chains: budget,
                ..SeConfig::fast_test(12)
            },
        )
        .unwrap();
        for replica in &engine.replicas {
            assert!(replica.chains.len() <= budget);
        }
        let outcome = engine.run();
        assert!(inst.is_feasible(&outcome.best_solution));
        assert!(outcome.best_utility > 0.0);
    }

    #[test]
    fn generous_max_chains_matches_default_behavior() {
        let inst = instance(25);
        let a = SeEngine::new(&inst, SeConfig::fast_test(9)).unwrap().run();
        let b = SeEngine::new(
            &inst,
            SeConfig {
                max_chains: 1_000,
                ..SeConfig::fast_test(9)
            },
        )
        .unwrap()
        .run();
        assert_eq!(a.best_solution, b.best_solution);
        assert_eq!(a.trajectory, b.trajectory);
    }

    #[test]
    fn chain_utilities_cover_cardinality_range() {
        let inst = instance(30);
        let engine = SeEngine::new(&inst, SeConfig::fast_test(14)).unwrap();
        let cards: std::collections::BTreeSet<usize> =
            engine.chain_utilities().iter().map(|&(n, _)| n).collect();
        let lo = inst.n_min().max(1);
        assert!(cards.contains(&lo));
        assert!(cards.len() > 1);
        for &n in &cards {
            assert!(n >= lo);
            assert!(n <= inst.max_feasible_cardinality());
        }
    }

    #[test]
    fn every_chain_of_an_engine_build_shares_one_set_of_columns() {
        /// The one allocation every chain of `engine` reads.
        fn shared(engine: &SeEngine) -> Arc<ShardColumns> {
            let mut chains = engine.chains();
            let first = Arc::clone(chains.next().unwrap().columns());
            assert!(chains.all(|c| Arc::ptr_eq(c.columns(), &first)));
            assert_eq!(first.len(), engine.instance().len());
            first
        }
        let inst = instance(20);
        let mut engine = SeEngine::new(&inst, SeConfig::fast_test(36)).unwrap();
        let fresh = shared(&engine);
        for _ in 0..30 {
            engine.step();
        }
        let restored =
            SeEngine::from_checkpoint(&inst, SeConfig::fast_test(36), &engine.checkpoint())
                .unwrap();
        assert!(!Arc::ptr_eq(&shared(&restored), &fresh));

        // A join, then a leave: each rebuild derives columns from the new
        // epoch shape and drops the old ones — only this test still holds
        // them.
        engine
            .handle_join(shard(100, 90, 950.0), DynamicsPolicy::Trim)
            .unwrap();
        let joined = shared(&engine);
        assert_eq!(Arc::strong_count(&fresh), 1);
        engine
            .handle_leave(CommitteeId(3), DynamicsPolicy::Reinitialize)
            .unwrap();
        let left = shared(&engine);
        assert_eq!(Arc::strong_count(&joined), 1);

        // Stale columns refuse the changed epoch, in release builds too:
        // `joined` by its length, `fresh` — 20 shards again — by the
        // deadline the joined straggler moved.
        let now = engine.instance();
        assert_eq!(fresh.len(), now.len());
        for stale in [&fresh, &joined] {
            let attach = || {
                crate::eval::EvalCache::attach(Arc::clone(stale), now, &Solution::empty(now.len()))
            };
            assert!(
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(attach)).is_err(),
                "stale columns attached to a changed instance"
            );
        }
        let _ = crate::eval::EvalCache::attach(left, now, &Solution::empty(now.len()));
    }
}
