//! Incremental utility evaluation for the SE sampler's hot loop.
//!
//! Algorithm 1 proposes one swap per timer expiry, so the per-move utility
//! delta is the hot path of the whole scheduler. Under
//! [`DdlPolicy::MaxArrival`] the objective is separable and deltas are
//! `O(1)` from [`Instance::marginal_utility`]; under
//! [`DdlPolicy::MaxSelected`] the induced deadline `t = max_{x_i=1} l_i`
//! couples every age term, and the naive delta clones the whole solution
//! and recomputes `U(f)` from scratch — `O(n)` allocation-heavy work per
//! *proposed* (not just committed) move.
//!
//! [`EvalCache`] removes that cost. Under MaxSelected the epoch's shards
//! are keyed by their latency rank once per instance (in its
//! [`ShardColumns`], `O(n log n)`), and each cache maintains a Fenwick
//! tree of selected-shard counts over those ranks. Order statistics of the
//! selected latencies — the induced deadline, and the deadline *excluding
//! one shard* (what a remove/swap needs) — are then `O(log n)` queries,
//! and combined with the running aggregates cached inside [`Solution`]
//! (`selected_count`, `tx_total`, `lat_total`) every delta closes to:
//!
//! ```text
//! U(f)        = α·Σ s_i − (k·t − Σ l_i)        (all ages t − l_i ≥ 0
//!                                               because t is the max)
//! Δ_swap(o,i) = α(s_i − s_o) + (l_i − l_o) − k·(t' − t)
//!               where t' = max(l_i, max_{sel∖o} l)
//! ```
//!
//! with no allocation and no pass over the selection. MaxArrival deltas
//! read no order statistic, so a MaxArrival cache holds no per-chain state
//! at all. The per-shard inputs (`l_i`, `s_i`, and the MaxArrival
//! marginals) are the instance's dense columns, so at 10⁴–10⁵ committees
//! the delta loop walks 8-byte strides instead of cache-missing across
//! interleaved `ShardInfo` records.
//!
//! Membership lives in the [`Solution`] alone — its counted bitset and its
//! sampler; every query here takes the solution it prices.
//!
//! # Instance half, chain half
//!
//! Algorithm 2 spawns one chain per feasible cardinality × Γ replicas over
//! *one* epoch's shards, so everything that depends only on the epoch —
//! the `lat`/`tx`/`marginal`/`size` columns, the by-size order and, under
//! MaxSelected, the latency ranks and `lat_by_rank` — is the instance's
//! [`ShardColumns`], derived once by
//! [`InstanceBuilder::build`](crate::problem::InstanceBuilder::build). A
//! cache holds them behind an [`Arc`]: [`EvalCache::new`] costs one
//! reference-count bump under MaxArrival and the `O(|I|)` rank tree under
//! MaxSelected, the only per-chain state.
//!
//! Per-op complexity, over `N = |I|` shards with `n` selected:
//!
//! | operation                       | naive            | MaxArrival | MaxSelected |
//! |---------------------------------|------------------|------------|-------------|
//! | `utility`                       | `O(n)`           | `O(1)`     | `O(1)`      |
//! | `selected_ddl`                  | `O(n)`           | —          | `O(1)`      |
//! | `swap/insert/remove_delta`      | `O(n)` + 2 allocs| `O(1)`     | `O(log N)`  |
//! | commit (`insert`/`remove`/`swap`)| `O(1)`          | nothing    | `O(log N)`  |
//! | columns, once per `Instance`    | —                | `O(N log N)`, 36 B/shard | `O(N log N)`, 48 B/shard |
//! | cache, per chain                | —                | none       | `O(N)`, 4 B/shard |
//!
//! The cache is *not* serialized: a checkpointed solver records only the
//! selection's bitset words ([`crate::se::SeCheckpoint`]) and every
//! restore path rebuilds each cache from `(instance, solution)`, so
//! snapshots stay small, version-stable, and immune to drift in the cached
//! statistics.
//!
//! # Consistency contract
//!
//! An `EvalCache` indexes exactly one [`Solution`] against one
//! [`Instance`]. The owner must apply every mutation to both (see
//! [`crate::se::chain::Chain::apply`]); the delta queries `assert!` their
//! membership preconditions on the solution — in release builds too — and,
//! under MaxSelected, that the rank tree counts as many shards as the
//! solution holds, while the tree's own `insert`/`remove` refuse a shard
//! whose rank is already (or not) counted. So a desynchronized cache
//! panics instead of silently returning garbage.

use std::sync::Arc;

use rand::Rng;

use crate::problem::{DdlPolicy, Instance, ShardColumns};
use crate::solution::Solution;

/// Incremental evaluator over the instance's [`ShardColumns`], plus — under
/// [`DdlPolicy::MaxSelected`] — latency order statistics of the selected
/// shards, maintained as a Fenwick tree over latency ranks.
///
/// # Example
///
/// ```
/// use mvcom_core::eval::EvalCache;
/// use mvcom_core::problem::{DdlPolicy, InstanceBuilder};
/// use mvcom_core::solution::Solution;
/// use mvcom_types::{CommitteeId, ShardInfo, SimTime, TwoPhaseLatency};
///
/// let instance = InstanceBuilder::new()
///     .alpha(1.5)
///     .capacity(10_000)
///     .ddl_policy(DdlPolicy::MaxSelected)
///     .shards((0..4).map(|i| ShardInfo::new(
///         CommitteeId(i),
///         500,
///         TwoPhaseLatency::from_total(SimTime::from_secs(100.0 * (1.0 + f64::from(i)))),
///     )).collect())
///     .build()
///     .unwrap();
/// let mut solution = Solution::from_indices(4, [0, 3], &instance);
/// let mut cache = EvalCache::new(&instance, &solution);
/// assert_eq!(cache.selected_ddl(), 400.0);
/// // O(log n), allocation-free — and it agrees with the naive recompute.
/// let delta = cache.swap_delta(&instance, &solution, 3, 1);
/// assert!((delta - instance.swap_delta(&solution, 3, 1)).abs() < 1e-9);
/// solution.swap(3, 1, &instance);
/// cache.swap(3, 1);
/// assert_eq!(cache.selected_ddl(), 200.0);
/// ```
#[derive(Debug, Clone)]
pub struct EvalCache {
    /// The instance half: the instance's own columns.
    columns: Arc<ShardColumns>,
    /// The latency-rank tree: present iff the instance is
    /// [`DdlPolicy::MaxSelected`], the one policy whose deltas read it.
    ranked: Option<RankTree>,
}

/// The MaxSelected half of a cache: what the induced-deadline deltas
/// query.
#[derive(Debug, Clone)]
struct RankTree {
    /// Fenwick tree (1-based) over latency ranks; counts selected shards.
    tree: Vec<u32>,
    /// Shards the tree counts, for the `O(1)` sync check against the
    /// solution.
    selected: usize,
    /// Memoized max selected latency (`0` when empty): `O(1)` reads of the
    /// induced deadline; refreshed in `O(log n)` when a removal evicts it.
    ddl: f64,
}

impl RankTree {
    /// The tree of `solution`'s latency ranks — `O(n)`.
    fn new(columns: &ShardColumns, solution: &Solution) -> RankTree {
        let mut ranked = RankTree {
            tree: vec![0; columns.rank.len() + 1],
            selected: 0,
            ddl: 0.0,
        };
        ranked.refill(columns, solution);
        ranked
    }

    /// Re-derives the tree for `solution` in place — `O(n)`: leaf counts,
    /// then one propagation pass.
    fn refill(&mut self, columns: &ShardColumns, solution: &Solution) {
        let tree = &mut self.tree;
        let n = tree.len() - 1;
        tree.fill(0);
        for i in solution.iter_selected() {
            tree[columns.rank[i] as usize + 1] = 1;
        }
        for pos in 1..=n {
            let parent = pos + (pos & pos.wrapping_neg());
            if parent <= n {
                tree[parent] += tree[pos];
            }
        }
        self.selected = solution.selected_count();
        self.ddl = if self.selected > 0 {
            columns.lat_by_rank[self.kth(self.selected as u32)]
        } else {
            0.0
        };
    }

    fn bump(&mut self, mut pos: usize, delta: i32) {
        let n = self.tree.len() - 1;
        while pos <= n {
            self.tree[pos] = (self.tree[pos] as i64 + delta as i64) as u32;
            pos += pos & pos.wrapping_neg();
        }
    }

    /// Whether the 1-based position `pos` is counted: its node's total
    /// minus the subtrees it covers below it. `O(log n)`.
    fn counted(&self, pos: usize) -> bool {
        let mut count = self.tree[pos];
        let stop = pos - (pos & pos.wrapping_neg());
        let mut below = pos - 1;
        while below != stop {
            count -= self.tree[below];
            below -= below & below.wrapping_neg();
        }
        count == 1
    }

    /// The 0-based rank of the `k`-th smallest selected latency
    /// (1-indexed `k`): the Fenwick binary-lifting descent. `O(log n)`.
    fn kth(&self, k: u32) -> usize {
        let n = self.tree.len() - 1;
        debug_assert!(k >= 1 && k as usize <= n);
        let mut pos = 0usize;
        let mut rem = k;
        let mut step = n.next_power_of_two();
        while step > 0 {
            let next = pos + step;
            // `pos`'s set bits all exceed `step`, so lowbit(next) is
            // exactly `step` and the node covers `step` positions.
            if next <= n && self.tree[next] < rem {
                pos = next;
                rem -= self.tree[next];
            }
            step >>= 1;
        }
        // `pos` positions hold fewer than `k` selected ⇒ the k-th sits at
        // 1-based position pos+1, i.e. 0-based `pos`.
        pos
    }
}

impl EvalCache {
    /// Builds the cache for `solution` over `instance`: it shares the
    /// instance's [`ShardColumns`] (one reference-count bump) and, under
    /// MaxSelected only, builds the `O(|I|)` rank tree.
    ///
    /// # Panics
    ///
    /// Panics if the solution's length does not match the instance.
    pub fn new(instance: &Instance, solution: &Solution) -> EvalCache {
        assert_eq!(
            solution.len(),
            instance.len(),
            "solution is over a different shard set than the instance"
        );
        let columns = Arc::clone(instance.columns());
        let ranked = match instance.ddl_policy() {
            DdlPolicy::MaxArrival => None,
            DdlPolicy::MaxSelected => Some(RankTree::new(&columns, solution)),
        };
        EvalCache { columns, ranked }
    }

    /// Re-derives the cache for `solution` over the same instance in
    /// place: under MaxSelected the rank tree is refilled in its own
    /// allocation; under MaxArrival there is nothing to derive.
    ///
    /// # Panics
    ///
    /// Panics if the solution's length does not match the cache's instance.
    pub(crate) fn reset(&mut self, solution: &Solution) {
        assert_eq!(
            solution.len(),
            self.columns.lat.len(),
            "solution is over a different shard set than the cache"
        );
        if let Some(ranked) = &mut self.ranked {
            ranked.refill(&self.columns, solution);
        }
    }

    /// The instance columns this cache reads — the instance's own
    /// allocation, the same for every cache over it.
    pub fn columns(&self) -> &Arc<ShardColumns> {
        &self.columns
    }

    /// The maximum selected latency, `0` for the empty selection: the
    /// deadline the indexed selection induces under
    /// [`DdlPolicy::MaxSelected`], memoized across mutations and `O(1)`.
    /// ([`Instance::selected_ddl`] computes it for any selection.)
    ///
    /// # Panics
    ///
    /// Panics if the cache was built under MaxArrival, whose utility is
    /// priced with the instance deadline and which keeps no rank tree.
    pub fn selected_ddl(&self) -> f64 {
        self.ranked().ddl
    }

    /// The rank tree a MaxSelected delta reads.
    ///
    /// # Panics
    ///
    /// Panics if the cache was built under MaxArrival.
    fn ranked(&self) -> &RankTree {
        match &self.ranked {
            Some(ranked) => ranked,
            None => panic!("a MaxArrival eval cache holds no rank tree to price MaxSelected"),
        }
    }

    /// The maximum selected latency with the selected shard `i` excluded
    /// (`0` when `i` is the only selected shard). `O(log n)`, MaxSelected
    /// only; the callers have checked that `i` is selected.
    ///
    /// # Panics
    ///
    /// Panics if the cache has no rank tree.
    fn max_excluding(&self, i: usize) -> f64 {
        let ranked = self.ranked();
        let top = ranked.kth(ranked.selected as u32);
        if top != self.columns.rank[i] as usize {
            return self.columns.lat_by_rank[top];
        }
        if ranked.selected == 1 {
            return 0.0;
        }
        self.columns.lat_by_rank[ranked.kth(ranked.selected as u32 - 1)]
    }

    /// The objective value `U(f)` of `solution` — `O(1)` under either
    /// deadline policy, using the closed form `α·Σs − (k·t − Σl)` (valid
    /// because `t ≥ l_i` for every term in the sum, so no age clamps at
    /// zero).
    pub fn utility(&self, instance: &Instance, solution: &Solution) -> f64 {
        self.assert_sync(solution);
        if solution.is_empty() {
            return 0.0;
        }
        let t = match instance.ddl_policy() {
            DdlPolicy::MaxArrival => instance.ddl().as_secs(),
            DdlPolicy::MaxSelected => self.ranked().ddl,
        };
        let k = solution.selected_count() as f64;
        instance.alpha() * solution.tx_total() as f64 - (k * t - solution.lat_total())
    }

    /// The exact utility change from swapping selected shard `out` for
    /// unselected shard `inc`. `O(1)` under MaxArrival, `O(log n)` under
    /// MaxSelected; never allocates.
    ///
    /// # Panics
    ///
    /// Panics — in release builds too — when `out` is not selected, `inc`
    /// is selected, or the cache is out of sync with `solution`.
    pub fn swap_delta(
        &self,
        instance: &Instance,
        solution: &Solution,
        out: usize,
        inc: usize,
    ) -> f64 {
        self.assert_sync(solution);
        assert!(
            solution.contains(out) && !solution.contains(inc),
            "swap_delta precondition: out={out} must be selected, inc={inc} unselected"
        );
        match instance.ddl_policy() {
            DdlPolicy::MaxArrival => self.columns.marginal[inc] - self.columns.marginal[out],
            DdlPolicy::MaxSelected => {
                let (l_out, l_inc) = (self.columns.lat[out], self.columns.lat[inc]);
                let t = self.ranked().ddl;
                let t_new = self.max_excluding(out).max(l_inc);
                let k = solution.selected_count() as f64;
                instance.alpha() * (self.columns.tx[inc] - self.columns.tx[out]) + (l_inc - l_out)
                    - k * (t_new - t)
            }
        }
    }

    /// The exact utility change from selecting the unselected shard `i`.
    /// `O(1)` under either policy.
    ///
    /// # Panics
    ///
    /// Panics — in release builds too — when `i` is already selected or the
    /// cache is out of sync with `solution`.
    pub fn insert_delta(&self, instance: &Instance, solution: &Solution, i: usize) -> f64 {
        self.assert_sync(solution);
        assert!(
            !solution.contains(i),
            "insert_delta precondition: shard {i} is already selected"
        );
        match instance.ddl_policy() {
            DdlPolicy::MaxArrival => self.columns.marginal[i],
            DdlPolicy::MaxSelected => {
                let l_i = self.columns.lat[i];
                let t = self.ranked().ddl;
                let t_new = t.max(l_i);
                let k = solution.selected_count() as f64;
                // U' − U = α·s_i + l_i − (k+1)·t' + k·t.
                instance.alpha() * self.columns.tx[i] + l_i - (k + 1.0) * t_new + k * t
            }
        }
    }

    /// The exact utility change from deselecting the selected shard `i`.
    /// `O(1)` under MaxArrival, `O(log n)` under MaxSelected.
    ///
    /// # Panics
    ///
    /// Panics — in release builds too — when `i` is not selected or the
    /// cache is out of sync with `solution`.
    pub fn remove_delta(&self, instance: &Instance, solution: &Solution, i: usize) -> f64 {
        self.assert_sync(solution);
        assert!(
            solution.contains(i),
            "remove_delta precondition: shard {i} is not selected"
        );
        match instance.ddl_policy() {
            DdlPolicy::MaxArrival => -self.columns.marginal[i],
            DdlPolicy::MaxSelected => {
                let l_i = self.columns.lat[i];
                let t = self.ranked().ddl;
                let t_new = self.max_excluding(i);
                let k = solution.selected_count() as f64;
                // U' − U = −α·s_i − l_i − (k−1)·t' + k·t.
                -instance.alpha() * self.columns.tx[i] - l_i - (k - 1.0) * t_new + k * t
            }
        }
    }

    /// Counts shard `i` selected — the cache-side half of
    /// [`Solution::insert`]. Nothing under MaxArrival, `O(log n)` under
    /// MaxSelected.
    ///
    /// # Panics
    ///
    /// Panics — in release builds too — under MaxSelected if `i` is out of
    /// range or its rank is already counted.
    pub fn insert(&mut self, i: usize) {
        if let Some(ranked) = &mut self.ranked {
            let pos = self.columns.rank[i] as usize + 1;
            assert!(
                !ranked.counted(pos),
                "shard {i} already selected in the eval cache"
            );
            ranked.bump(pos, 1);
            ranked.selected += 1;
            ranked.ddl = ranked.ddl.max(self.columns.lat[i]);
        }
    }

    /// Counts shard `i` unselected — the cache-side half of
    /// [`Solution::remove`]. Nothing under MaxArrival, `O(log n)` under
    /// MaxSelected.
    ///
    /// # Panics
    ///
    /// Panics — in release builds too — under MaxSelected if `i` is out of
    /// range or its rank is not counted.
    pub fn remove(&mut self, i: usize) {
        if let Some(ranked) = &mut self.ranked {
            let pos = self.columns.rank[i] as usize + 1;
            assert!(
                ranked.counted(pos),
                "shard {i} not selected in the eval cache"
            );
            ranked.bump(pos, -1);
            ranked.selected -= 1;
            if ranked.selected == 0 {
                ranked.ddl = 0.0;
            } else if self.columns.lat[i] >= ranked.ddl {
                // The evicted shard may have pinned the deadline; re-query
                // the max selected rank (O(log n)).
                ranked.ddl = self.columns.lat_by_rank[ranked.kth(ranked.selected as u32)];
            }
        }
    }

    /// Applies the Markov-chain swap transition to the cache.
    pub fn swap(&mut self, out: usize, inc: usize) {
        self.remove(out);
        self.insert(inc);
    }

    /// O(1) desync tripwire: under MaxSelected the tree must count as many
    /// shards as the solution holds. (Membership itself is checked
    /// per-index, on the solution, by the delta preconditions.)
    fn assert_sync(&self, solution: &Solution) {
        if let Some(ranked) = &self.ranked {
            assert_eq!(
                ranked.selected,
                solution.selected_count(),
                "eval cache out of sync with its solution (was a mutation applied to only one?)"
            );
        }
    }

    /// [`Solution::random_selected`], kept as a method of the cache only
    /// because the `benchmark/` probe calls this signature; the cache
    /// holds no membership to sample.
    pub fn random_selected<R: Rng + ?Sized>(
        &self,
        solution: &Solution,
        rng: &mut R,
    ) -> Option<usize> {
        solution.random_selected(rng)
    }

    /// [`Solution::random_unselected`], kept for the same caller as
    /// [`EvalCache::random_selected`].
    pub fn random_unselected<R: Rng + ?Sized>(
        &self,
        solution: &Solution,
        rng: &mut R,
    ) -> Option<usize> {
        solution.random_unselected(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::InstanceBuilder;
    use mvcom_types::{CommitteeId, ShardInfo, SimTime, TwoPhaseLatency};
    use rand::Rng;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn shard(id: u32, txs: u64, latency: f64) -> ShardInfo {
        ShardInfo::new(
            CommitteeId(id),
            txs,
            TwoPhaseLatency::from_total(SimTime::from_secs(latency)),
        )
    }

    fn instance(n: usize, policy: DdlPolicy) -> Instance {
        InstanceBuilder::new()
            .alpha(2.5)
            .capacity(u64::MAX / 2)
            .ddl_policy(policy)
            .shards(
                (0..n)
                    .map(|i| {
                        shard(
                            i as u32,
                            50 + (i as u64 * 37) % 500,
                            10.0 + ((i as f64 * 131.7) % 900.0),
                        )
                    })
                    .collect(),
            )
            .build()
            .unwrap()
    }

    #[test]
    fn selected_ddl_tracks_max_latency() {
        let inst = instance(40, DdlPolicy::MaxSelected);
        let mut sol = Solution::empty(40);
        let mut cache = EvalCache::new(&inst, &sol);
        assert_eq!(cache.selected_ddl(), 0.0);
        for i in [5usize, 17, 3, 30] {
            sol.insert(i, &inst);
            cache.insert(i);
            assert_eq!(cache.selected_ddl(), inst.selected_ddl(&sol));
        }
        for i in [17usize, 5, 30, 3] {
            sol.remove(i, &inst);
            cache.remove(i);
            assert_eq!(cache.selected_ddl(), inst.selected_ddl(&sol));
        }
    }

    #[test]
    fn utility_matches_naive_under_both_policies() {
        for policy in [DdlPolicy::MaxArrival, DdlPolicy::MaxSelected] {
            let inst = instance(60, policy);
            let sol = Solution::from_indices(60, (0..60).step_by(3), &inst);
            let cache = EvalCache::new(&inst, &sol);
            let naive = inst.utility(&sol);
            let fast = cache.utility(&inst, &sol);
            assert!(
                (naive - fast).abs() < 1e-9 * (1.0 + naive.abs()),
                "{policy:?}: naive {naive} vs cached {fast}"
            );
        }
    }

    #[test]
    fn deltas_match_naive_over_random_walks() {
        for policy in [DdlPolicy::MaxArrival, DdlPolicy::MaxSelected] {
            let inst = instance(50, policy);
            let mut rng = ChaCha8Rng::seed_from_u64(7);
            let mut sol = Solution::from_indices(50, 0..20, &inst);
            let mut cache = EvalCache::new(&inst, &sol);
            for step in 0..600 {
                let tol = |x: f64| 1e-9 * (1.0 + x.abs());
                match rng.gen_range(0..3) {
                    0 => {
                        let (Some(out), Some(inc)) = (
                            sol.random_selected(&mut rng),
                            sol.random_unselected(&mut rng),
                        ) else {
                            continue;
                        };
                        let naive = inst.swap_delta(&sol, out, inc);
                        let fast = cache.swap_delta(&inst, &sol, out, inc);
                        assert!(
                            (naive - fast).abs() < tol(naive),
                            "{policy:?} step {step}: swap naive {naive} vs cached {fast}"
                        );
                        sol.swap(out, inc, &inst);
                        cache.swap(out, inc);
                    }
                    1 => {
                        let Some(inc) = sol.random_unselected(&mut rng) else {
                            continue;
                        };
                        let naive = inst.insert_delta(&sol, inc);
                        let fast = cache.insert_delta(&inst, &sol, inc);
                        assert!(
                            (naive - fast).abs() < tol(naive),
                            "{policy:?} step {step}: insert naive {naive} vs cached {fast}"
                        );
                        sol.insert(inc, &inst);
                        cache.insert(inc);
                    }
                    _ => {
                        if sol.selected_count() <= 1 {
                            continue;
                        }
                        let Some(out) = sol.random_selected(&mut rng) else {
                            continue;
                        };
                        let naive = inst.remove_delta(&sol, out);
                        let fast = cache.remove_delta(&inst, &sol, out);
                        assert!(
                            (naive - fast).abs() < tol(naive),
                            "{policy:?} step {step}: remove naive {naive} vs cached {fast}"
                        );
                        sol.remove(out, &inst);
                        cache.remove(out);
                    }
                }
                // The cached utility never drifts from the ground truth.
                let naive_u = inst.utility(&sol);
                assert!(
                    (cache.utility(&inst, &sol) - naive_u).abs() < 1e-9 * (1.0 + naive_u.abs())
                );
            }
        }
    }

    #[test]
    fn handles_duplicate_latencies() {
        // Several shards share the maximum latency: removing one of them
        // must keep the deadline pinned by the survivors.
        let inst = InstanceBuilder::new()
            .alpha(1.0)
            .capacity(10_000)
            .ddl_policy(DdlPolicy::MaxSelected)
            .shards(vec![
                shard(0, 100, 500.0),
                shard(1, 200, 900.0),
                shard(2, 300, 900.0),
                shard(3, 400, 900.0),
                shard(4, 500, 100.0),
            ])
            .build()
            .unwrap();
        let mut sol = Solution::from_indices(5, [1, 2, 3], &inst);
        let mut cache = EvalCache::new(&inst, &sol);
        assert_eq!(cache.selected_ddl(), 900.0);
        let naive = inst.remove_delta(&sol, 2);
        let fast = cache.remove_delta(&inst, &sol, 2);
        assert!((naive - fast).abs() < 1e-9);
        sol.remove(2, &inst);
        cache.remove(2);
        assert_eq!(cache.selected_ddl(), 900.0);
        // Dropping to a single straggler then swapping it out moves the
        // deadline to the incoming shard's latency.
        sol.remove(1, &inst);
        cache.remove(1);
        let naive = inst.swap_delta(&sol, 3, 4);
        let fast = cache.swap_delta(&inst, &sol, 3, 4);
        assert!((naive - fast).abs() < 1e-9);
        sol.swap(3, 4, &inst);
        cache.swap(3, 4);
        assert_eq!(cache.selected_ddl(), 100.0);
    }

    #[test]
    fn delta_preconditions_panic_in_all_profiles() {
        // `assert!` (not `debug_assert!`): a release build must panic on a
        // violated precondition rather than return a garbage delta.
        let inst = instance(10, DdlPolicy::MaxSelected);
        let sol = Solution::from_indices(10, [0, 1], &inst);
        let cache = EvalCache::new(&inst, &sol);
        for violation in [
            Box::new(|| {
                EvalCache::new(&instance(10, DdlPolicy::MaxSelected), &Solution::empty(10))
                    .remove(3)
            }) as Box<dyn Fn()>,
            Box::new(|| {
                let _ = cache.swap_delta(&inst, &sol, 5, 7); // out not selected
            }),
            Box::new(|| {
                let _ = cache.swap_delta(&inst, &sol, 0, 1); // inc selected
            }),
            Box::new(|| {
                let _ = cache.insert_delta(&inst, &sol, 0); // already selected
            }),
            Box::new(|| {
                let _ = cache.remove_delta(&inst, &sol, 9); // not selected
            }),
            Box::new(|| {
                // Desynchronized cache: count mismatch trips the wire.
                let fewer = Solution::from_indices(10, [0], &inst);
                let _ = cache.remove_delta(&inst, &fewer, 0);
            }),
        ] {
            assert!(
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(violation)).is_err(),
                "precondition violation did not panic"
            );
        }
    }

    #[test]
    fn soa_columns_are_bitwise_copies_of_the_instance() {
        // The struct-of-arrays projection must not change a single bit of
        // any delta: the scale sweep's small-|I| outputs are pinned
        // byte-identical to the AoS implementation. MaxArrival deltas are
        // exactly the memoized marginals; for MaxSelected we check the
        // full expression recomputed straight off the shard records.
        let inst = instance(64, DdlPolicy::MaxArrival);
        let sol = Solution::from_indices(64, (0..64).step_by(2), &inst);
        let cache = EvalCache::new(&inst, &sol);
        for i in (1..64).step_by(2) {
            assert_eq!(cache.insert_delta(&inst, &sol, i), inst.marginal_utility(i));
        }
        assert_eq!(
            cache.swap_delta(&inst, &sol, 4, 9),
            inst.marginal_utility(9) - inst.marginal_utility(4)
        );

        let inst = instance(64, DdlPolicy::MaxSelected);
        let sol = Solution::from_indices(64, (0..64).step_by(2), &inst);
        let cache = EvalCache::new(&inst, &sol);
        let lat = |i: usize| inst.shards()[i].two_phase_latency().as_secs();
        let tx = |i: usize| inst.shards()[i].tx_count() as f64;
        let (out, inc) = (6, 11);
        let t = cache.selected_ddl();
        let t_new = cache.max_excluding(out).max(lat(inc));
        let k = sol.selected_count() as f64;
        let aos = inst.alpha() * (tx(inc) - tx(out)) + (lat(inc) - lat(out)) - k * (t_new - t);
        assert_eq!(cache.swap_delta(&inst, &sol, out, inc), aos);
    }

    #[test]
    fn only_a_max_selected_cache_holds_a_rank_tree() {
        let inst = instance(600, DdlPolicy::MaxArrival);
        let sol = Solution::from_indices(600, (0..600).step_by(7), &inst);
        let cache = EvalCache::new(&inst, &sol);
        assert!(cache.ranked.is_none());
        assert!(cache.columns().rank.is_empty() && cache.columns().lat_by_rank.is_empty());
        // No rank tree, no induced deadline to read.
        assert!(std::panic::catch_unwind(|| cache.selected_ddl()).is_err());

        let inst = instance(600, DdlPolicy::MaxSelected);
        let sol = Solution::from_indices(600, (0..600).step_by(7), &inst);
        let cache = EvalCache::new(&inst, &sol);
        let ranked = cache.ranked.as_ref().unwrap();
        assert_eq!(ranked.tree.len(), 601);
        assert_eq!(cache.columns().rank.len(), 600);
        assert_eq!(ranked.ddl, inst.selected_ddl(&sol));
        assert_eq!(ranked.selected, sol.selected_count());
    }

    #[test]
    fn clone_is_independent() {
        let inst = instance(20, DdlPolicy::MaxSelected);
        let sol = Solution::from_indices(20, [1, 4], &inst);
        let cache = EvalCache::new(&inst, &sol);
        let mut copy = cache.clone();
        // The clone shares the instance's columns and owns its walk state.
        assert!(Arc::ptr_eq(cache.columns(), inst.columns()));
        assert!(Arc::ptr_eq(copy.columns(), inst.columns()));
        copy.insert(9);
        assert_eq!(cache.ranked().selected, 2);
        assert_eq!(copy.ranked().selected, 3);
    }
}
