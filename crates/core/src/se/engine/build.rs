//! Construction of the solution family: the feasible cardinality range and
//! its stride, and the one function that turns chain seeds into replicas.

use std::collections::BTreeMap;
use std::num::NonZeroUsize;
use std::ops::RangeInclusive;

use mvcom_obs::Obs;
use mvcom_simnet::{ordered_map, rng, SimRng};
use mvcom_types::{Error, Result};

use super::restore::restore_solution;
use super::{Replica, SeEngine, Trajectory};
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
#[derive(Clone, Copy)]
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

/// The fewest Algorithm 2 draws — fresh chains × |I|, each chain's first
/// shuffle — at which a build runs its replicas on the host's cores. Below
/// it a helper's spawn costs more than the build saves: at the
/// `daemon-steady` shape (≈180 chains × 48 shards) a prototype fan-out read
/// up to 5.5 % slower end to end, 2 vCPU.
const FANOUT_MIN_DRAWS: usize = 1 << 16;

/// What a worker does at one chain slot of a [`Draft`].
#[derive(Clone, Copy, PartialEq)]
enum Slot {
    /// The chain is built (a warm start or a restore).
    Built,
    /// The chain is a placeholder for Algorithm 2 at this cardinality.
    Draw(usize),
    /// No subset of that cardinality fits: the chain is dropped.
    Infeasible,
}

/// One replica as the calling thread hands it to a worker: its forked RNG
/// and every chain, already allocated.
struct Draft {
    slots: Vec<Slot>,
    chains: Vec<Chain>,
    rng: SimRng,
}

impl Draft {
    /// Runs Algorithm 2 at every [`Slot::Draw`], in chain order on the
    /// replica's stream, into the placeholder chain in place.
    fn draw(mut self, instance: &Instance) -> Result<Draft> {
        // Algorithm 2's shuffle buffer, reset by every fresh chain: one per
        // replica, so one per worker at a time.
        let mut indices: Vec<u32> = Vec::new();
        for (slot, chain) in self.slots.iter_mut().zip(&mut self.chains) {
            let Slot::Draw(n) = *slot else { continue };
            match chain.draw(instance, n, &mut indices, &mut self.rng) {
                Ok(()) => {}
                Err(Error::Infeasible { .. }) => *slot = Slot::Infeasible,
                Err(e) => return Err(e),
            }
        }
        Ok(self)
    }
}

/// The worker count for a build of `draws` minimum Algorithm 2 draws: one
/// below [`FANOUT_MIN_DRAWS`], otherwise the host's available parallelism,
/// which honours affinity masks and cgroup quotas. It is read only past the
/// threshold, because it reads cgroup files.
fn host_workers(draws: usize) -> usize {
    if draws < FANOUT_MIN_DRAWS {
        return 1;
    }
    std::thread::available_parallelism().map_or(1, NonZeroUsize::get)
}

/// Builds every chain of every replica — the only place a [`Replica`] is
/// constructed — on [`host_workers`]. Every chain reads the instance's one
/// [`ShardColumns`](crate::problem::ShardColumns), and each replica's RNG
/// is forked off a master keyed by `seed ^ stamp`, so any family is
/// reproducible from its origin alone, at any worker count.
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
    build_replicas_on(instance, config, origin, host_workers)
}

/// [`build_replicas`] on `workers(draws)` workers, `draws` being the
/// build's minimum Algorithm 2 draw count. The calling thread forks every
/// replica's RNG in replica order and allocates every chain: chains a
/// helper thread allocated would sit in its own malloc arena and raise
/// the peak RSS. Each replica's draws are one [`ordered_map`] item; the
/// results merge in replica order, and the first error in that order is
/// returned.
///
/// # Errors
///
/// As [`build_replicas`].
pub(super) fn build_replicas_on(
    instance: &Instance,
    config: &SeConfig,
    origin: Origin<'_>,
    workers: impl FnOnce(usize) -> usize,
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
    let drafts: Vec<Draft> = families
        .into_iter()
        .enumerate()
        .map(|(g, family)| {
            let rng = rng::fork(&mut master, &format!("replica-{g}{label}"));
            let (slots, chains) = family
                .into_iter()
                .map(|seed| match seed {
                    ChainSeed::Fresh(n) => (
                        Slot::Draw(n),
                        Chain::attach(instance, Solution::empty(instance.len())),
                    ),
                    ChainSeed::Warm(solution) => {
                        (Slot::Built, Chain::attach(instance, solution.clone()))
                    }
                    ChainSeed::Restored(words) => (
                        Slot::Built,
                        Chain::attach(instance, restore_solution(instance, words)),
                    ),
                })
                .unzip();
            Draft { slots, chains, rng }
        })
        .collect();
    let fresh = drafts
        .iter()
        .flat_map(|draft| &draft.slots)
        .filter(|slot| matches!(slot, Slot::Draw(_)))
        .count();
    let drawn = ordered_map(workers(fresh * instance.len()), drafts, |draft| {
        draft.draw(instance)
    });
    let mut replicas = Vec::with_capacity(drawn.len());
    for draft in drawn {
        let Draft {
            slots,
            mut chains,
            rng,
        } = draft?;
        let mut slots = slots.into_iter();
        chains.retain(|_| slots.next() != Some(Slot::Infeasible));
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
        }
    }

    /// After a fresh or join/leave build (a restore keeps its recorded
    /// best): raises the best-so-far tracker to the best of the new chains
    /// (to the full selection when there are none), restarts the
    /// convergence window and records a trajectory point.
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

    /// A replica's chains as (bitset words, utility bits), and the next
    /// `u64` of its stream.
    type Fingerprint = (Vec<(Vec<u64>, u64)>, u64);

    /// Every replica's [`Fingerprint`], its stream drawn from a clone.
    fn fingerprint(replicas: &[Replica]) -> Vec<Fingerprint> {
        use rand::RngCore;
        replicas
            .iter()
            .map(|r| {
                let chains = r.chains.iter();
                let chains = chains.map(|c| (c.solution().words().to_vec(), c.utility().to_bits()));
                (chains.collect(), r.rng.clone().next_u64())
            })
            .collect()
    }

    /// `expected`, the public entry's family for `origin`, rebuilt at every
    /// forced worker count: the same replicas, and — swapped into an
    /// engine that `make` builds afresh holding `expected` — the same run.
    fn same_at_any_worker_count(
        inst: &Instance,
        config: &SeConfig,
        origin: Origin<'_>,
        make: impl Fn() -> SeEngine,
    ) {
        let expected = fingerprint(&make().replicas);
        let outcome = make().run();
        for workers in [1, 2, 3, 16] {
            let built = build_replicas_on(inst, config, origin, |_| workers).unwrap();
            assert_eq!(fingerprint(&built), expected, "{workers} workers");
            let mut engine = make();
            engine.replicas = built;
            assert_eq!(engine.run(), outcome, "{workers} workers");
        }
    }

    #[test]
    fn the_build_is_identical_at_any_worker_count() {
        let small = SeConfig::fast_test(5);
        let large = SeConfig {
            gamma: 4,
            max_chains: 55,
            max_iterations: 40,
            ..SeConfig::fast_test(6)
        };
        let cold = WarmPool::new();
        for (inst, config, past_threshold) in
            [(instance(30), small, false), (instance(300), large, true)]
        {
            // A fresh build, on the public entry's side of the threshold.
            let origin = Origin::Initialized {
                iteration: 0,
                warm: &cold,
            };
            let mut draws = 0;
            build_replicas_on(&inst, &config, origin, |d| {
                draws = d;
                host_workers(d)
            })
            .unwrap();
            assert_eq!(draws >= FANOUT_MIN_DRAWS, past_threshold, "{draws} draws");
            let fresh = || SeEngine::new(&inst, config).unwrap();
            same_at_any_worker_count(&inst, &config, origin, fresh);

            // A join's Trim rebuild, warm-starting from the stepped chains.
            let stepped = || {
                let mut engine = fresh();
                for _ in 0..20 {
                    engine.step();
                }
                engine
            };
            let joiner = shard(10_000, 90, 950.0);
            let before = stepped();
            let grown = inst.with_joined(joiner).unwrap();
            let carried = before
                .chains()
                .map(|c| Solution::from_indices(grown.len(), c.solution().iter_selected(), &grown));
            let warm = warm_pool(&grown, carried);
            let joined = || {
                let mut engine = stepped();
                engine.handle_join(joiner, DynamicsPolicy::Trim).unwrap();
                engine
            };
            let origin = Origin::Initialized {
                iteration: 20,
                warm: &warm,
            };
            same_at_any_worker_count(&grown, &config, origin, joined);

            // A restore.
            let ckpt = before.checkpoint();
            let restored = || SeEngine::from_checkpoint(&inst, config, &ckpt).unwrap();
            same_at_any_worker_count(&inst, &config, Origin::Restored(&ckpt), restored);
        }
    }

    #[test]
    fn every_chain_cache_shares_the_instance_store() {
        use crate::eval::EvalCache;
        use std::sync::Arc;
        /// Every chain cache of `engine`, and a fresh cache over its
        /// instance, read the instance's one store.
        fn shares(engine: &SeEngine) {
            let store = engine.instance().columns();
            assert!(engine.chains().all(|c| Arc::ptr_eq(c.columns(), store)));
            let cache = EvalCache::new(engine.instance(), &Solution::full(engine.instance()));
            assert!(Arc::ptr_eq(cache.columns(), store));
        }
        let inst = instance(20);
        let mut engine = SeEngine::new(&inst, SeConfig::fast_test(36)).unwrap();
        shares(&engine);
        // The engine's copy of the instance is a clone: the same store.
        assert!(Arc::ptr_eq(engine.instance().columns(), inst.columns()));
        for _ in 0..30 {
            engine.step();
        }
        let restored =
            SeEngine::from_checkpoint(&inst, SeConfig::fast_test(36), &engine.checkpoint())
                .unwrap();
        shares(&restored);
        assert!(Arc::ptr_eq(restored.instance().columns(), inst.columns()));

        // A join, then a leave: each changed epoch is a new instance with
        // its own store, and the rebuilt family reads that one.
        engine
            .handle_join(shard(100, 90, 950.0), DynamicsPolicy::Trim)
            .unwrap();
        shares(&engine);
        let joined = Arc::clone(engine.instance().columns());
        assert!(!Arc::ptr_eq(&joined, inst.columns()));
        engine
            .handle_leave(CommitteeId(3), DynamicsPolicy::Reinitialize)
            .unwrap();
        shares(&engine);
        // The joined epoch's store is dropped with it: only this test
        // still holds it.
        assert_eq!(Arc::strong_count(&joined), 1);
    }
}
