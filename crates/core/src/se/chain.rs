//! One candidate solution `f_n` and its timer mechanics (Algorithms 2 & 3).

use rand::seq::SliceRandom;
use rand::Rng;

use mvcom_types::{Error, Result};

use crate::eval::EvalCache;
use crate::problem::{Instance, ShardPos};
use crate::se::config::SeConfig;
use crate::solution::Solution;

/// How many uniformly random `n`-subsets Algorithm 2 draws before falling
/// back to the deterministic smallest-`n`-shards initialization.
const INIT_ATTEMPTS: usize = 64;

/// How many random `(ĩ, ï)` pairs Algorithm 3 may reject while looking for
/// a capacity-feasible swap before the chain sits out one race.
const SWAP_ATTEMPTS: usize = 16;

/// The Algorithm 3 output: the chosen swap pair, its utility change, and
/// the armed timer in log-space.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Proposal {
    /// `ĩ` — the admitted shard to drop (`x_ĩ: 1 → 0`).
    pub out: usize,
    /// `ï` — the excluded shard to admit (`x_ï: 0 → 1`).
    pub inc: usize,
    /// `U_f' − U_f` for this swap.
    pub delta: f64,
    /// `ln T_n` of the sampled exponential timer. Compared across chains in
    /// log-space so that `exp(±½β·ΔU)` cannot overflow for large utilities.
    pub ln_timer: f64,
}

/// One Markov chain: a candidate solution with fixed cardinality `n`.
///
/// The solution is the chain's one membership store: [`Chain::propose`]
/// samples its swap pair from it. Beside it the chain owns an
/// [`EvalCache`] that prices the swap without cloning the solution —
/// `O(1)` under `MaxArrival`, `O(log n)` under `MaxSelected` — the hot
/// path of Algorithm 1. The cache is rebuilt (never serialized) whenever
/// the chain is constructed from scratch, restored from a checkpoint, or
/// the instance itself changes — only its chain half, though (the
/// `MaxSelected` rank tree; under `MaxArrival` it has none): every chain
/// reads the instance's one
/// [`ShardColumns`](crate::problem::ShardColumns).
#[derive(Debug, Clone)]
pub struct Chain {
    solution: Solution,
    utility: f64,
    cache: EvalCache,
    /// `ln(|I| − n)` — the proposal-pool term of the Algorithm 3 timer, a
    /// per-chain constant because the cardinality `n` is fixed (`0` when
    /// the pool is empty; [`Chain::propose`] bails out before using it).
    ln_pool: f64,
}

impl Chain {
    /// Algorithm 2: builds the initial solution `f_n` with exactly
    /// `cardinality` admitted shards satisfying the capacity constraint.
    ///
    /// Tries 64 uniformly random `n`-subsets; if none fits in `Ĉ`, falls
    /// back to the `n` smallest shards (which fit whenever any `n`-subset
    /// does).
    ///
    /// Allocates an index buffer for this one chain; [`Chain::init_on`]
    /// takes one to reuse. An engine build allocates its chains up front
    /// and draws into them in place, on `u32` positions. Nothing here reads
    /// `_config` any more (the attempt budget is a constant); the parameter
    /// stays because `benchmark/` calls this signature.
    ///
    /// # Errors
    ///
    /// [`Error::Infeasible`] when no `n`-subset can satisfy the capacity —
    /// callers should skip this cardinality.
    pub fn init<R: Rng + ?Sized>(
        instance: &Instance,
        cardinality: usize,
        _config: &SeConfig,
        rng: &mut R,
    ) -> Result<Chain> {
        Chain::init_on(instance, cardinality, &mut Vec::new(), rng)
    }

    /// [`Chain::init`], shuffling in `indices`, which is reset to `0..|I|`
    /// first (its contents on entry do not matter, so one buffer serves a
    /// run of chains).
    ///
    /// Every shuffle runs and consumes its draws, so the RNG stream — and
    /// with it every downstream output — does not depend on how an attempt
    /// is tested. Each shuffled candidate is tested against `Ĉ` by an exact
    /// integer sum over the smaller side of the split
    /// (`Instance::head_total`), and only the candidate that fits is
    /// built, in shuffled order.
    ///
    /// # Errors
    ///
    /// As [`Chain::init`].
    pub fn init_on<R: Rng + ?Sized>(
        instance: &Instance,
        cardinality: usize,
        indices: &mut Vec<usize>,
        rng: &mut R,
    ) -> Result<Chain> {
        let mut chain = Chain::attach(instance, Solution::empty(instance.len()));
        chain.draw(instance, cardinality, indices, rng)?;
        Ok(chain)
    }

    /// Algorithm 2 in place: the body of [`Chain::init_on`], drawing into
    /// this chain's own allocations — the engine build's placeholders,
    /// which the calling thread allocated — with positions of either width
    /// in `indices`. The draws and the permutation do not depend on the
    /// width. On an error the chain holds no meaningful selection.
    ///
    /// # Errors
    ///
    /// As [`Chain::init`].
    pub(crate) fn draw<P: ShardPos, R: Rng + ?Sized>(
        &mut self,
        instance: &Instance,
        cardinality: usize,
        indices: &mut Vec<P>,
        rng: &mut R,
    ) -> Result<()> {
        let len = instance.len();
        if cardinality == 0 || cardinality > len {
            return Err(Error::infeasible(format!(
                "cardinality {cardinality} out of range for {len} shards"
            )));
        }
        indices.clear();
        indices.extend((0..len).map(P::from_index));
        for _ in 0..INIT_ATTEMPTS {
            indices.shuffle(rng);
            if instance.head_total(indices, cardinality) <= instance.capacity() {
                let picked = indices[..cardinality].iter().map(|&i| i.index());
                self.refill(instance, picked);
                return Ok(());
            }
        }
        // Deterministic fallback: the n smallest shards.
        self.refill(instance, instance.smallest(cardinality));
        if instance.within_capacity(&self.solution) {
            Ok(())
        } else {
            Err(Error::infeasible(format!(
                "no {cardinality}-subset fits within capacity {}",
                instance.capacity()
            )))
        }
    }

    /// Rewrites the chain to the selection `picked`, inserted in this
    /// order (which fixes the `lat_total` running sum), in its own
    /// allocations: what [`Chain::attach`] of
    /// `Solution::from_indices(|I|, picked)` builds.
    fn refill(&mut self, instance: &Instance, picked: impl Iterator<Item = usize>) {
        debug_assert!(std::sync::Arc::ptr_eq(
            self.cache.columns(),
            instance.columns()
        ));
        self.solution.clear();
        for i in picked {
            self.solution.insert(i, instance);
        }
        self.cache.reset(&self.solution);
        self.utility = instance.utility(&self.solution);
        self.ln_pool = Self::ln_pool(instance.len(), self.solution.selected_count());
    }

    /// Wraps an existing solution as a chain over `instance` (used by warm
    /// starts after dynamic events and by checkpoint restores). The utility
    /// is recomputed from scratch and the eval cache rebuilt, so restored
    /// chains never inherit incremental drift.
    pub fn attach(instance: &Instance, solution: Solution) -> Chain {
        Chain {
            ln_pool: Self::ln_pool(instance.len(), solution.selected_count()),
            cache: EvalCache::new(instance, &solution),
            utility: instance.utility(&solution),
            solution,
        }
    }

    /// The instance columns this chain's cache reads.
    #[cfg(test)]
    pub(crate) fn columns(&self) -> &std::sync::Arc<crate::problem::ShardColumns> {
        self.cache.columns()
    }

    /// The hoisted `ln(|I| − n)` timer constant (`0` for an empty pool —
    /// never read, because `propose` returns `None` when `n ≥ |I|`).
    fn ln_pool(len: usize, n: usize) -> f64 {
        if n < len {
            ((len - n) as f64).ln()
        } else {
            0.0
        }
    }

    /// The chain's current solution.
    pub fn solution(&self) -> &Solution {
        &self.solution
    }

    /// The fixed admitted-shard count `n` of this chain.
    pub fn cardinality(&self) -> usize {
        self.solution.selected_count()
    }

    /// The cached utility `U_{f_n}` of the current solution.
    pub fn utility(&self) -> f64 {
        self.utility
    }

    /// Algorithm 3 (`Set-timer`): draws a random capacity-feasible swap
    /// pair and arms an exponential timer with mean
    /// `exp(−½β(U_f' − U_f)) / (|I_j| − n)`.
    ///
    /// Returns `None` when the chain cannot act this race: the solution is
    /// full/empty, or 16 random pairs in a row violated the capacity
    /// constraint.
    pub fn propose<R: Rng + ?Sized>(
        &self,
        instance: &Instance,
        config: &SeConfig,
        rng: &mut R,
    ) -> Option<Proposal> {
        let len = instance.len();
        let n = self.solution.selected_count();
        if n == 0 || n >= len {
            return None;
        }
        for _ in 0..SWAP_ATTEMPTS {
            let out = self.solution.random_selected(rng)?;
            let inc = self.solution.random_unselected(rng)?;
            let new_total = self.solution.tx_total() - instance.size(out) + instance.size(inc);
            if new_total > instance.capacity() {
                continue;
            }
            // O(log n), allocation-free — replaces the naive
            // clone-and-recompute `Instance::swap_delta` on the hot path.
            let delta = self.cache.swap_delta(instance, &self.solution, out, inc);
            // ln T = ln Exp(1) − ½β·Δ − ln(|I| − n): log-space keeps
            // |βΔ| in the thousands finite. `ln(|I| − n)` is the hoisted
            // per-chain constant `self.ln_pool`.
            let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            let exp1 = -u.ln();
            let ln_timer = exp1.ln() - 0.5 * config.beta * delta - self.ln_pool;
            return Some(Proposal {
                out,
                inc,
                delta,
                ln_timer,
            });
        }
        None
    }

    /// One round of the chain's *local* timer race: samples
    /// `config.proposal_fanout` candidate pairs via [`Chain::propose`] and
    /// returns the one whose exponential timer expires first.
    ///
    /// Racing `k` sampled neighbors, each with timer rate
    /// `exp(½β·ΔU)`, is a sampled jump of the designed CTMC: the
    /// winning neighbor is distributed ∝ its transition rate among the
    /// sample. Returns `None` when no feasible pair could be sampled.
    pub fn race<R: Rng + ?Sized>(
        &self,
        instance: &Instance,
        config: &SeConfig,
        rng: &mut R,
    ) -> Option<Proposal> {
        let mut winner: Option<Proposal> = None;
        for _ in 0..config.proposal_fanout {
            if let Some(p) = self.propose(instance, config, rng) {
                if winner.as_ref().is_none_or(|w| p.ln_timer < w.ln_timer) {
                    winner = Some(p);
                }
            }
        }
        winner
    }

    /// Commits a fired proposal: performs the swap and updates the cached
    /// utility by `Δ` (State Transit, Alg. 1 lines 14–16).
    pub fn apply(&mut self, proposal: &Proposal, instance: &Instance) {
        self.solution.swap(proposal.out, proposal.inc, instance);
        self.cache.swap(proposal.out, proposal.inc);
        self.utility += proposal.delta;
        debug_assert!(
            (self.utility - instance.utility(&self.solution)).abs()
                < 1e-6 * (1.0 + self.utility.abs()),
            "incremental utility drifted from recomputation"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::InstanceBuilder;
    use mvcom_types::{CommitteeId, ShardInfo, SimTime, TwoPhaseLatency};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn instance(n: usize, capacity: u64) -> Instance {
        InstanceBuilder::new()
            .alpha(1.5)
            .capacity(capacity)
            .n_min(1)
            .shards(
                (0..n)
                    .map(|i| {
                        ShardInfo::new(
                            CommitteeId(i as u32),
                            100 + (i as u64 % 7) * 10,
                            TwoPhaseLatency::from_total(SimTime::from_secs(
                                500.0 + (i as f64 * 37.0) % 400.0,
                            )),
                        )
                    })
                    .collect(),
            )
            .build()
            .unwrap()
    }

    #[test]
    fn init_produces_requested_cardinality_within_capacity() {
        let inst = instance(20, 1_500);
        let cfg = SeConfig::fast_test(0);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for n in 1..=inst.max_feasible_cardinality() {
            let chain = Chain::init(&inst, n, &cfg, &mut rng).unwrap();
            assert_eq!(chain.solution().selected_count(), n);
            assert!(inst.within_capacity(chain.solution()));
            assert!((chain.utility() - inst.utility(chain.solution())).abs() < 1e-9);
        }
    }

    #[test]
    fn init_rejects_impossible_cardinality() {
        let inst = instance(10, 250); // max feasible = 2 shards of ~100
        let cfg = SeConfig::fast_test(0);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        assert!(Chain::init(&inst, 0, &cfg, &mut rng).is_err());
        assert!(Chain::init(&inst, 11, &cfg, &mut rng).is_err());
        let too_many = inst.max_feasible_cardinality() + 1;
        assert!(Chain::init(&inst, too_many, &cfg, &mut rng).is_err());
    }

    #[test]
    fn init_fallback_finds_tight_fits() {
        // The capacity admits exactly the 20 small shards, which sit at
        // the even indices. A uniformly random 20-subset of 40 is that
        // one with probability 1/C(40,20) ≈ 7e-12, so all 64 shuffles
        // miss and the deterministic fallback must find it.
        let shards = (0..40)
            .map(|i| {
                ShardInfo::new(
                    CommitteeId(i),
                    if i % 2 == 0 { 10 } else { 500 },
                    TwoPhaseLatency::from_total(SimTime::from_secs(1.0 + f64::from(i))),
                )
            })
            .collect();
        let inst = InstanceBuilder::new()
            .capacity(200)
            .shards(shards)
            .build()
            .unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let chain = Chain::init(&inst, 20, &SeConfig::fast_test(0), &mut rng).unwrap();
        let picked: Vec<usize> = chain.solution().iter_selected().collect();
        assert_eq!(picked, (0..40).step_by(2).collect::<Vec<_>>());
    }

    #[test]
    fn propose_respects_capacity() {
        let inst = instance(20, 1_200);
        let cfg = SeConfig::fast_test(0);
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let chain = Chain::init(&inst, 5, &cfg, &mut rng).unwrap();
        for _ in 0..100 {
            if let Some(p) = chain.propose(&inst, &cfg, &mut rng) {
                assert!(chain.solution().contains(p.out));
                assert!(!chain.solution().contains(p.inc));
                let new_total = chain.solution().tx_total() - inst.shards()[p.out].tx_count()
                    + inst.shards()[p.inc].tx_count();
                assert!(new_total <= inst.capacity());
                assert!(p.ln_timer.is_finite());
            }
        }
    }

    #[test]
    fn proposal_delta_matches_instance() {
        let inst = instance(15, 10_000);
        let cfg = SeConfig::fast_test(0);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let chain = Chain::init(&inst, 6, &cfg, &mut rng).unwrap();
        let p = chain.propose(&inst, &cfg, &mut rng).unwrap();
        assert!((p.delta - inst.swap_delta(chain.solution(), p.out, p.inc)).abs() < 1e-9);
    }

    #[test]
    fn apply_updates_state_and_utility() {
        let inst = instance(15, 10_000);
        let cfg = SeConfig::fast_test(0);
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let mut chain = Chain::init(&inst, 6, &cfg, &mut rng).unwrap();
        let before = chain.utility();
        let p = chain.propose(&inst, &cfg, &mut rng).unwrap();
        chain.apply(&p, &inst);
        assert_eq!(chain.solution().selected_count(), 6);
        assert!((chain.utility() - (before + p.delta)).abs() < 1e-9);
        assert!((chain.utility() - inst.utility(chain.solution())).abs() < 1e-6);
    }

    #[test]
    fn better_swaps_get_stochastically_smaller_timers() {
        // Sample many proposals; among them, correlate delta with timer:
        // the mean ln-timer of improving proposals must be far below that of
        // worsening ones (exp(−½βΔ) scaling).
        let inst = instance(30, 100_000);
        let cfg = SeConfig::fast_test(0);
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let chain = Chain::init(&inst, 10, &cfg, &mut rng).unwrap();
        let mut improving = Vec::new();
        let mut worsening = Vec::new();
        for _ in 0..500 {
            if let Some(p) = chain.propose(&inst, &cfg, &mut rng) {
                if p.delta > 10.0 {
                    improving.push(p.ln_timer);
                } else if p.delta < -10.0 {
                    worsening.push(p.ln_timer);
                }
            }
        }
        assert!(!improving.is_empty() && !worsening.is_empty());
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(
            mean(&improving) < mean(&worsening) - 5.0,
            "improving {} vs worsening {}",
            mean(&improving),
            mean(&worsening)
        );
    }

    #[test]
    fn propose_returns_none_when_no_feasible_swap() {
        // Solution holds the only small shard; every swap would blow the
        // capacity.
        let shards = vec![
            ShardInfo::new(
                CommitteeId(0),
                10,
                TwoPhaseLatency::from_total(SimTime::from_secs(1.0)),
            ),
            ShardInfo::new(
                CommitteeId(1),
                900,
                TwoPhaseLatency::from_total(SimTime::from_secs(2.0)),
            ),
            ShardInfo::new(
                CommitteeId(2),
                900,
                TwoPhaseLatency::from_total(SimTime::from_secs(3.0)),
            ),
        ];
        let inst = InstanceBuilder::new()
            .capacity(100)
            .shards(shards)
            .build()
            .unwrap();
        let solution = Solution::from_indices(3, [0], &inst);
        let chain = Chain::attach(&inst, solution);
        let cfg = SeConfig::fast_test(0);
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        assert_eq!(chain.propose(&inst, &cfg, &mut rng), None);
    }

    #[test]
    fn attach_tracks_instance_changes() {
        let inst = instance(10, 10_000);
        let chain = Chain::attach(&inst, Solution::from_indices(10, [0, 1, 2], &inst));
        let grown = inst
            .with_joined(ShardInfo::new(
                CommitteeId(99),
                100,
                TwoPhaseLatency::from_total(SimTime::from_secs(5_000.0)),
            ))
            .unwrap();
        // The new straggler pushes the DDL out; ages of selected shards grow
        // and the same selection, wrapped over the grown instance (what a
        // join's warm start does), must come out with a lower utility.
        let moved = Chain::attach(&grown, Solution::from_indices(11, [0, 1, 2], &grown));
        assert!(moved.utility() < chain.utility());
    }
}
