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
//! are keyed by their latency rank once per instance ([`ShardColumns`],
//! `O(n log n)`), and each cache maintains a Fenwick tree of
//! selected-shard counts over those ranks. Order statistics of the
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
//! read no order statistic, so a MaxArrival cache has no rank tree at all.
//! The per-shard inputs (`l_i`, `s_i`, and the MaxArrival marginals) are
//! held as dense struct-of-arrays columns copied bit-for-bit out of the
//! instance, so at 10⁴–10⁵ committees the delta loop walks 8-byte strides
//! instead of cache-missing across interleaved `ShardInfo` records.
//!
//! Membership is a bitset, one bit per shard, with one `u32` count of
//! selected shards per 512-shard block (eight words, one cache line). The
//! `k`-th selected (or unselected) shard *in index order* — what the SE
//! sampler's rejection-loop fallback resolves
//! ([`EvalCache::random_selected`]/[`EvalCache::random_unselected`]) —
//! is a walk over the block counts, then a select within at most eight
//! words.
//!
//! # Instance half, chain half
//!
//! Algorithm 2 spawns one chain per feasible cardinality × Γ replicas over
//! *one* epoch's shards, so everything that depends only on the instance —
//! the `lat`/`tx`/`marginal` columns, the exact `u64` sizes, the by-size
//! order of the initialization fallback and, under MaxSelected, the
//! latency-rank permutation and `lat_by_rank` — lives in one immutable
//! [`ShardColumns`], built once per engine build and held by every cache
//! behind an [`Arc`]. What a chain owns is what its walk mutates: the
//! counted bitset and the selected count, plus the rank tree and the
//! memoized deadline under MaxSelected. [`EvalCache::new`] is "build
//! columns, then [`EvalCache::attach`]"; there is no other construction
//! path.
//!
//! Per-op complexity, over `N = |I|` shards with `n` selected:
//!
//! | operation                       | naive            | MaxArrival | MaxSelected |
//! |---------------------------------|------------------|------------|-------------|
//! | `utility`                       | `O(n)`           | `O(1)`     | `O(1)`      |
//! | `selected_ddl`                  | `O(n)`           | `O(N)`, off the hot path | `O(1)` |
//! | `swap/insert/remove_delta`      | `O(n)` + 2 allocs| `O(1)`     | `O(log N)`  |
//! | commit (`insert`/`remove`/`swap`)| `O(1)`          | `O(1)`     | `O(log N)`  |
//! | `random_selected/unselected` fallback | `O(N)`     | `O(N/512)` | `O(N/512)`  |
//! | columns, once per instance      | —                | `O(N log N)`, 36 B/shard | `O(N log N)`, 48 B/shard |
//! | cache, per chain                | —                | `O(N/64 + n)`, ≈0.13 B/shard | `O(N)`, ≈4.13 B/shard |
//!
//! The cache is *not* serialized: a checkpointed solver records only the
//! selected indices ([`crate::se::SeCheckpoint`]) and every restore path
//! rebuilds the columns from the instance and each cache from
//! `(columns, solution)`, so snapshots stay small, version-stable, and
//! immune to drift in the cached statistics.
//!
//! # Consistency contract
//!
//! An `EvalCache` mirrors exactly one [`Solution`] against one
//! [`Instance`]. The owner must apply every mutation to both (see
//! [`crate::se::chain::Chain::apply`]); the delta queries `assert!` the
//! preconditions — in release builds too — and cheap sync invariants, so a
//! desynchronized cache panics instead of silently returning garbage.
//! Likewise [`EvalCache::attach`] `assert!`s that the columns were built
//! from the instance it is handed, deadline policy included, so columns
//! from before a committee join/leave can never price a chain of the
//! changed epoch.

use std::sync::Arc;

use mvcom_types::SimTime;
use rand::Rng;

use crate::problem::{DdlPolicy, Instance};
use crate::solution::Solution;

/// Words per counted block of an [`EvalCache`]'s bitset: 512 shards, one
/// 64-byte cache line.
const BLOCK_WORDS: usize = 8;
/// Shards per counted block.
const BLOCK: usize = 64 * BLOCK_WORDS;

/// The instance half of the evaluator: every per-shard quantity the SE
/// chains read but never write, derived from one [`Instance`] and shared —
/// immutable, behind an [`Arc`] — by every [`EvalCache`] of that epoch.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use mvcom_core::eval::{EvalCache, ShardColumns};
/// use mvcom_core::problem::InstanceBuilder;
/// use mvcom_core::solution::Solution;
/// use mvcom_types::{CommitteeId, ShardInfo, SimTime, TwoPhaseLatency};
///
/// let instance = InstanceBuilder::new()
///     .capacity(1_000)
///     .shards((0..4).map(|i| ShardInfo::new(
///         CommitteeId(i),
///         100 * (4 - u64::from(i)),
///         TwoPhaseLatency::from_total(SimTime::from_secs(10.0 + f64::from(i))),
///     )).collect())
///     .build()
///     .unwrap();
/// let columns = Arc::new(ShardColumns::new(&instance));
/// assert_eq!(columns.tx_total(&[0, 3]), 500);
/// assert_eq!(columns.size(1), 300);
/// assert_eq!(columns.smallest(2).collect::<Vec<_>>(), [3, 2]);
/// // Any number of caches attach to the one set of columns.
/// let a = EvalCache::attach(columns.clone(), &instance, &Solution::empty(4));
/// let b = EvalCache::attach(columns, &instance, &Solution::full(&instance));
/// assert_eq!((a.selected_count(), b.selected_count()), (0, 4));
/// ```
#[derive(Debug)]
pub struct ShardColumns {
    /// Shard index → rank in latency-sorted order (ties broken by index).
    /// Empty under [`DdlPolicy::MaxArrival`], whose deltas read no order
    /// statistic.
    rank: Vec<u32>,
    /// Rank → latency in seconds (ascending). Empty under MaxArrival.
    lat_by_rank: Vec<f64>,
    /// Struct-of-arrays projections of the instance's shard records, by
    /// shard index. The AoS `ShardInfo` layout interleaves the committee
    /// id and both latency phases with the two fields the delta loops
    /// touch, so at 10⁴–10⁵ committees every delta paid a cache miss per
    /// shard lookup; these dense columns keep the hot loop on 8-byte
    /// strides. Values are copied bit-for-bit from the instance (`lat` is
    /// `two_phase_latency().as_secs()`, `tx` is `tx_count() as f64`,
    /// `marginal` is `Instance::marginal_utility(i)`), so every delta
    /// computes the *same float expression* as over the records, bit for
    /// bit.
    lat: Vec<f64>,
    tx: Vec<f64>,
    marginal: Vec<f64>,
    /// Exact shard sizes `s_i`, by shard index: Algorithm 2 tests a
    /// candidate subset against `Ĉ` with an integer sum over this column,
    /// and Algorithm 3 a candidate swap.
    size: Vec<u64>,
    /// Shard indices under a *stable* sort by size (ties by index) — the
    /// order whose first `n` entries are Algorithm 2's fallback selection.
    by_size: Vec<u32>,
    /// The `α`, MaxArrival deadline and deadline policy the columns were
    /// derived under; with the length, what [`EvalCache::attach`] checks
    /// an instance by.
    alpha: f64,
    ddl: SimTime,
    policy: DdlPolicy,
}

impl ShardColumns {
    /// Derives the columns of `instance` — `O(n log n)`, once per instance.
    pub fn new(instance: &Instance) -> ShardColumns {
        let shards = instance.shards();
        let n = shards.len();
        let lat: Vec<f64> = shards
            .iter()
            .map(|s| s.two_phase_latency().as_secs())
            .collect();
        let (rank, lat_by_rank) = match instance.ddl_policy() {
            DdlPolicy::MaxArrival => (Vec::new(), Vec::new()),
            DdlPolicy::MaxSelected => {
                let mut order: Vec<u32> = (0..n as u32).collect();
                order.sort_by(|&a, &b| {
                    let la = shards[a as usize].two_phase_latency();
                    let lb = shards[b as usize].two_phase_latency();
                    la.cmp(&lb).then(a.cmp(&b))
                });
                let mut rank = vec![0u32; n];
                for (r, &i) in order.iter().enumerate() {
                    rank[i as usize] = r as u32;
                }
                (rank, order.iter().map(|&i| lat[i as usize]).collect())
            }
        };
        let size: Vec<u64> = shards.iter().map(|s| s.tx_count()).collect();
        let mut by_size: Vec<u32> = (0..n as u32).collect();
        by_size.sort_by_key(|&i| size[i as usize]);
        ShardColumns {
            lat_by_rank,
            rank,
            tx: size.iter().map(|&s| s as f64).collect(),
            marginal: (0..n).map(|i| instance.marginal_utility(i)).collect(),
            lat,
            size,
            by_size,
            alpha: instance.alpha(),
            ddl: instance.ddl(),
            policy: instance.ddl_policy(),
        }
    }

    /// Number of shard slots.
    pub fn len(&self) -> usize {
        self.size.len()
    }

    /// `true` iff the epoch has no shards.
    pub fn is_empty(&self) -> bool {
        self.size.is_empty()
    }

    /// The exact size `s_i` of shard `i` — `instance.shards()[i].tx_count()`
    /// read from the dense column.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn size(&self, i: usize) -> u64 {
        self.size[i]
    }

    /// `Σ s_i` over `indices`, accumulated in slice order — the value (and
    /// the overflow behaviour) of [`Solution::tx_total`] after inserting
    /// the same indices in the same order, without building the solution.
    pub fn tx_total(&self, indices: &[usize]) -> u64 {
        indices.iter().map(|&i| self.size[i]).sum()
    }

    /// The `n` smallest shards, ascending by size with ties by index —
    /// the subset that fits `Ĉ` whenever any `n`-subset does.
    ///
    /// # Panics
    ///
    /// Panics if `n > len()`.
    pub fn smallest(&self, n: usize) -> impl Iterator<Item = usize> + '_ {
        self.by_size[..n].iter().map(|&i| i as usize)
    }

    /// The attach-path tripwire, in release builds too: columns derived
    /// from another instance (a stale epoch shape after a join/leave, a
    /// different `α`, the other deadline policy — a MaxArrival cache has
    /// no rank tree to price a MaxSelected delta with) must never price
    /// this one.
    fn assert_built_from(&self, instance: &Instance) {
        assert!(
            self.len() == instance.len()
                && self.alpha.to_bits() == instance.alpha().to_bits()
                && self.ddl == instance.ddl()
                && self.policy == instance.ddl_policy(),
            "shard columns were built from a different instance \
             ({} shards, alpha {}, ddl {:?}, {:?}; the instance has {}, {}, {:?}, {:?})",
            self.len(),
            self.alpha,
            self.ddl,
            self.policy,
            instance.len(),
            instance.alpha(),
            instance.ddl(),
            instance.ddl_policy(),
        );
    }
}

/// Incremental evaluator: the selection as a counted bitset, plus — under
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
    /// The instance half, shared with every other cache of the epoch.
    columns: Arc<ShardColumns>,
    /// The selection, one bit per shard in [`Solution`]'s layout.
    words: Vec<u64>,
    /// Selected shards per [`BLOCK`]-shard block of `words`.
    counts: Vec<u32>,
    /// Mirror of the selected count, for O(1) sync checks.
    selected: usize,
    /// The latency-rank tree: present iff the columns were built under
    /// [`DdlPolicy::MaxSelected`], the one policy whose deltas read it.
    ranked: Option<RankTree>,
}

/// The MaxSelected half of a cache: what the induced-deadline deltas
/// query.
#[derive(Debug, Clone)]
struct RankTree {
    /// Fenwick tree (1-based) over latency ranks; counts selected shards.
    tree: Vec<u32>,
    /// Memoized max selected latency (`0` when empty): `O(1)` reads of the
    /// induced deadline; refreshed in `O(log n)` when a removal evicts it.
    ddl: f64,
}

impl RankTree {
    /// The tree of `solution`'s latency ranks — `O(n)`: leaf counts, then
    /// one propagation pass.
    fn new(columns: &ShardColumns, solution: &Solution) -> RankTree {
        let n = columns.len();
        let mut tree = vec![0u32; n + 1];
        for i in solution.iter_selected() {
            tree[columns.rank[i] as usize + 1] = 1;
        }
        for pos in 1..=n {
            let parent = pos + (pos & pos.wrapping_neg());
            if parent <= n {
                tree[parent] += tree[pos];
            }
        }
        let mut ranked = RankTree { tree, ddl: 0.0 };
        let selected = solution.selected_count() as u32;
        if selected > 0 {
            ranked.ddl = columns.lat_by_rank[ranked.kth(selected)];
        }
        ranked
    }

    fn bump(&mut self, mut pos: usize, delta: i32) {
        let n = self.tree.len() - 1;
        while pos <= n {
            self.tree[pos] = (self.tree[pos] as i64 + delta as i64) as u32;
            pos += pos & pos.wrapping_neg();
        }
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
    /// Builds the cache for `solution` over `instance` from nothing:
    /// derives the instance's [`ShardColumns`] (`O(n log n)`) and attaches
    /// to them. One cache per instance pays what it always did; a family
    /// of caches over one instance should build the columns once and
    /// [`EvalCache::attach`] each.
    ///
    /// # Panics
    ///
    /// Panics if the solution's length does not match the instance.
    pub fn new(instance: &Instance, solution: &Solution) -> EvalCache {
        EvalCache::attach(Arc::new(ShardColumns::new(instance)), instance, solution)
    }

    /// Builds the chain half of the cache for `solution` over columns
    /// already derived from `instance`: `O(|I|/64 + n)` for the bitset,
    /// plus `O(|I|)` for the rank tree under MaxSelected.
    ///
    /// # Panics
    ///
    /// Panics — in release builds too — if `columns` were not built from
    /// `instance` (length, `α`, deadline or deadline policy differ) or the
    /// solution's length does not match the instance.
    pub fn attach(
        columns: Arc<ShardColumns>,
        instance: &Instance,
        solution: &Solution,
    ) -> EvalCache {
        columns.assert_built_from(instance);
        assert_eq!(
            solution.len(),
            instance.len(),
            "solution is over a different shard set than the instance"
        );
        let n = instance.len();
        let mut words = vec![0u64; n.div_ceil(64)];
        let mut counts = vec![0u32; n.div_ceil(BLOCK)];
        let mut selected = 0;
        for i in solution.iter_selected() {
            words[i / 64] |= 1 << (i % 64);
            counts[i / BLOCK] += 1;
            selected += 1;
        }
        let ranked = match columns.policy {
            DdlPolicy::MaxArrival => None,
            DdlPolicy::MaxSelected => Some(RankTree::new(&columns, solution)),
        };
        EvalCache {
            columns,
            words,
            counts,
            selected,
            ranked,
        }
    }

    /// The instance half this cache reads — the same allocation for every
    /// cache attached to it.
    pub fn columns(&self) -> &Arc<ShardColumns> {
        &self.columns
    }

    /// Number of shard slots.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// `true` iff the epoch has no shards.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Number of selected shards mirrored by this cache.
    pub fn selected_count(&self) -> usize {
        self.selected
    }

    /// Whether the cache's bitset marks shard `i` selected.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn contains(&self, i: usize) -> bool {
        assert!(
            i < self.len(),
            "shard index {i} out of range {}",
            self.len()
        );
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// The maximum selected latency, `0` for the empty selection: the
    /// deadline the mirrored selection induces under
    /// [`DdlPolicy::MaxSelected`], where it is memoized across mutations
    /// and `O(1)`. Under [`DdlPolicy::MaxArrival`] it is computed on
    /// demand by a scan of the bitset, `O(|I|)`: nothing on the hot path
    /// reads it there, because [`EvalCache::utility`] prices that policy
    /// with the instance deadline.
    pub fn selected_ddl(&self) -> f64 {
        match &self.ranked {
            Some(ranked) => ranked.ddl,
            None => (0..self.len())
                .filter(|&i| self.contains(i))
                .map(|i| self.columns.lat[i])
                .fold(0.0, f64::max),
        }
    }

    /// The rank tree a MaxSelected delta reads.
    ///
    /// # Panics
    ///
    /// Panics if the cache was attached under MaxArrival.
    fn ranked(&self) -> &RankTree {
        match &self.ranked {
            Some(ranked) => ranked,
            None => panic!("a MaxArrival eval cache holds no rank tree to price MaxSelected"),
        }
    }

    /// The maximum selected latency with shard `i` excluded (`0` when `i`
    /// is the only selected shard). `O(log n)`, MaxSelected only.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not selected or the cache has no rank tree.
    fn max_excluding(&self, i: usize) -> f64 {
        assert!(self.contains(i), "shard {i} not selected in the eval cache");
        let ranked = self.ranked();
        let top = ranked.kth(self.selected as u32);
        if top != self.columns.rank[i] as usize {
            return self.columns.lat_by_rank[top];
        }
        if self.selected == 1 {
            return 0.0;
        }
        self.columns.lat_by_rank[ranked.kth(self.selected as u32 - 1)]
    }

    /// The objective value `U(f)` of the mirrored selection — `O(1)`
    /// under either deadline policy, using the closed form
    /// `α·Σs − (k·t − Σl)` (valid because `t ≥ l_i` for every term in the
    /// sum, so no age clamps at zero).
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
                let k = self.selected as f64;
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
                let k = self.selected as f64;
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
                let k = self.selected as f64;
                // U' − U = −α·s_i − l_i − (k−1)·t' + k·t.
                -instance.alpha() * self.columns.tx[i] - l_i - (k - 1.0) * t_new + k * t
            }
        }
    }

    /// Marks shard `i` selected — the cache-side half of
    /// [`Solution::insert`]. `O(1)` under MaxArrival, `O(log n)` under
    /// MaxSelected.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range or already marked selected.
    pub fn insert(&mut self, i: usize) {
        assert!(
            !self.contains(i),
            "shard {i} already selected in the eval cache"
        );
        self.words[i / 64] |= 1 << (i % 64);
        self.counts[i / BLOCK] += 1;
        self.selected += 1;
        if let Some(ranked) = &mut self.ranked {
            ranked.bump(self.columns.rank[i] as usize + 1, 1);
            ranked.ddl = ranked.ddl.max(self.columns.lat[i]);
        }
    }

    /// Marks shard `i` unselected — the cache-side half of
    /// [`Solution::remove`]. `O(1)` under MaxArrival, `O(log n)` under
    /// MaxSelected.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range or not marked selected.
    pub fn remove(&mut self, i: usize) {
        assert!(self.contains(i), "shard {i} not selected in the eval cache");
        self.words[i / 64] &= !(1 << (i % 64));
        self.counts[i / BLOCK] -= 1;
        self.selected -= 1;
        if let Some(ranked) = &mut self.ranked {
            ranked.bump(self.columns.rank[i] as usize + 1, -1);
            if self.selected == 0 {
                ranked.ddl = 0.0;
            } else if self.columns.lat[i] >= ranked.ddl {
                // The evicted shard may have pinned the deadline; re-query
                // the max selected rank (O(log n)).
                ranked.ddl = self.columns.lat_by_rank[ranked.kth(self.selected as u32)];
            }
        }
    }

    /// Applies the Markov-chain swap transition to the cache.
    pub fn swap(&mut self, out: usize, inc: usize) {
        self.remove(out);
        self.insert(inc);
    }

    /// O(1) desync tripwire: the mirrored count must match the solution's.
    /// (Full membership equality is checked per-index by the `assert!`
    /// preconditions of the delta functions.)
    fn assert_sync(&self, solution: &Solution) {
        assert_eq!(
            self.selected,
            solution.selected_count(),
            "eval cache out of sync with its solution (was a mutation applied to only one?)"
        );
    }

    /// The shard index of the `k`-th selected shard in increasing index
    /// order (0-indexed `k`) — `solution.iter_selected().nth(k)` in
    /// `O(|I|/512)`.
    ///
    /// # Panics
    ///
    /// Panics (debug) when `k >= selected_count()`.
    pub fn select_kth_selected(&self, k: usize) -> usize {
        debug_assert!(k < self.selected);
        self.select::<true>(k)
    }

    /// The shard index of the `k`-th *unselected* shard in increasing
    /// index order (0-indexed `k`) — `solution.iter_unselected().nth(k)`
    /// in `O(|I|/512)`.
    ///
    /// # Panics
    ///
    /// Panics (debug) when `k >= len() − selected_count()`.
    pub fn select_kth_unselected(&self, k: usize) -> usize {
        debug_assert!(k < self.len() - self.selected);
        self.select::<false>(k)
    }

    /// The one select: the index of the `k`-th (0-indexed) selected shard,
    /// or with `ONES` false the `k`-th unselected one. Walks the block
    /// counts to the block holding it, then that block's words; `ONES` is
    /// resolved at compile time.
    #[inline]
    fn select<const ONES: bool>(&self, mut k: usize) -> usize {
        let len = self.len();
        let mut block = 0;
        loop {
            let ones = self.counts[block] as usize;
            let hits = if ONES {
                ones
            } else {
                (len - block * BLOCK).min(BLOCK) - ones
            };
            if k < hits {
                break;
            }
            k -= hits;
            block += 1;
        }
        let mut w = block * BLOCK_WORDS;
        loop {
            let word = if ONES {
                self.words[w]
            } else {
                // Bits past `len` are never set: mask them out of the
                // complement of the last word.
                let tail = len - w * 64;
                !self.words[w] & if tail < 64 { (1 << tail) - 1 } else { u64::MAX }
            };
            let hits = word.count_ones() as usize;
            if k < hits {
                return w * 64 + select_in_word(word, k as u32) as usize;
            }
            k -= hits;
            w += 1;
        }
    }

    /// A uniformly random selected index, or `None` if empty — a drop-in
    /// fast path for [`Solution::random_selected`]. The RNG draw sequence
    /// is *identical* (64 rejection draws over `0..len`, then one
    /// fallback draw over `0..selected`) and the fallback resolves the
    /// same order statistic, so for any RNG state this returns the same
    /// index as the `Solution` method bit for bit — only the fallback's
    /// `O(|I|)` bit-by-bit scan becomes a walk over the block counts. At
    /// the sparse densities of a 10⁴–10⁵-committee sweep (n ≪ |I|) the
    /// rejection loop fails ≈`(1−n/|I|)⁶⁴` of the time, so this fallback
    /// *is* the hot path.
    pub fn random_selected<R: Rng + ?Sized>(
        &self,
        solution: &Solution,
        rng: &mut R,
    ) -> Option<usize> {
        self.sample::<true, R>(solution, rng)
    }

    /// A uniformly random unselected index, or `None` if full — the fast
    /// path for [`Solution::random_unselected`], with the same bit-exact
    /// RNG-sequence contract as [`EvalCache::random_selected`].
    pub fn random_unselected<R: Rng + ?Sized>(
        &self,
        solution: &Solution,
        rng: &mut R,
    ) -> Option<usize> {
        self.sample::<false, R>(solution, rng)
    }

    /// The one sampler body: 64 rejection draws against the solution's
    /// bitset (`O(1)` membership), then one draw resolved by
    /// [`EvalCache::select`]. `SELECTED` picks the side at compile time.
    #[inline]
    fn sample<const SELECTED: bool, R: Rng + ?Sized>(
        &self,
        solution: &Solution,
        rng: &mut R,
    ) -> Option<usize> {
        self.assert_sync(solution);
        let len = self.len();
        let pool = if SELECTED {
            self.selected
        } else {
            len - self.selected
        };
        if pool == 0 {
            return None;
        }
        for _ in 0..64 {
            let i = rng.gen_range(0..len);
            if solution.contains(i) == SELECTED {
                return Some(i);
            }
        }
        let target = rng.gen_range(0..pool);
        Some(self.select::<SELECTED>(target))
    }
}

/// The bit position of the `k`-th (0-indexed) one of `word`, which must
/// hold more than `k` ones. The fallback fires only when its side of the
/// selection is sparse, so `k` is small there.
#[inline]
fn select_in_word(mut word: u64, k: u32) -> u32 {
    for _ in 0..k {
        word &= word - 1;
    }
    word.trailing_zeros()
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
        // 600 shards: two counted blocks, the second one partial.
        let inst = instance(600, DdlPolicy::MaxArrival);
        let sol = Solution::from_indices(600, (0..600).step_by(7), &inst);
        let cache = EvalCache::new(&inst, &sol);
        assert!(cache.ranked.is_none());
        assert!(cache.columns().rank.is_empty() && cache.columns().lat_by_rank.is_empty());
        assert_eq!((cache.words.len(), cache.counts.len()), (10, 2));
        assert_eq!(cache.counts, [74, 12]);
        // The on-demand deadline is the naive one, bit for bit.
        assert_eq!(cache.selected_ddl(), inst.selected_ddl(&sol));

        let inst = instance(600, DdlPolicy::MaxSelected);
        let sol = Solution::from_indices(600, (0..600).step_by(7), &inst);
        let cache = EvalCache::new(&inst, &sol);
        let ranked = cache.ranked.as_ref().unwrap();
        assert_eq!(ranked.tree.len(), 601);
        assert_eq!(cache.columns().rank.len(), 600);
        assert_eq!(ranked.ddl, inst.selected_ddl(&sol));
    }

    #[test]
    fn attach_panics_on_columns_built_under_the_other_ddl_policy() {
        // Same shards, α and deadline: only the policy tells the two
        // instances apart, and a MaxArrival cache has no rank tree for a
        // MaxSelected delta to read.
        let arrival = instance(40, DdlPolicy::MaxArrival);
        let selected = instance(40, DdlPolicy::MaxSelected);
        assert_eq!(arrival.shards(), selected.shards());
        assert_eq!(arrival.alpha().to_bits(), selected.alpha().to_bits());
        assert_eq!(arrival.ddl(), selected.ddl());
        for (built_from, attached_to) in [(&arrival, &selected), (&selected, &arrival)] {
            let columns = Arc::new(ShardColumns::new(built_from));
            let attach =
                || EvalCache::attach(Arc::clone(&columns), attached_to, &Solution::empty(40));
            assert!(
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(attach)).is_err(),
                "{:?} columns attached to a {:?} instance",
                built_from.ddl_policy(),
                attached_to.ddl_policy()
            );
        }
    }

    #[test]
    fn clone_is_independent() {
        let inst = instance(20, DdlPolicy::MaxSelected);
        let sol = Solution::from_indices(20, [1, 4], &inst);
        let cache = EvalCache::new(&inst, &sol);
        let mut copy = cache.clone();
        // The clone shares the immutable columns and owns its walk state.
        assert!(Arc::ptr_eq(cache.columns(), copy.columns()));
        copy.insert(9);
        assert_eq!(cache.selected_count(), 2);
        assert_eq!(copy.selected_count(), 3);
    }
}
