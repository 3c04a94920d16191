//! The MVCom utility-maximization problem (paper §III).
//!
//! An [`Instance`] fixes one epoch: the arrived shards with their features
//! `(s_i, l_i)`, the throughput weight `α`, the final-block capacity `Ĉ`,
//! the minimum committee count `N_min`, and the deadline semantics
//! ([`DdlPolicy`]). All solvers — the SE engine and every baseline — consume
//! this type, so their utilities are comparable by construction. The
//! builder derives the epoch's [`ShardColumns`] once, and every reader of
//! a per-shard number reads them.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use mvcom_types::{CommitteeId, Error, Result, ShardInfo, SimTime};

use crate::solution::Solution;

/// How the epoch deadline `t_j` entering the age term `Π_i = t_j − l_i` is
/// determined.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum DdlPolicy {
    /// `t_j = max_{k ∈ I_j} l_k` over **all arrived** shards — the paper's
    /// eq. (1). The deadline is a constant of the instance, so per-shard
    /// marginal utilities are independent and the objective is separable.
    #[default]
    MaxArrival,
    /// `t_j = max_{k: x_k = 1} l_k` over the **selected** shards — the
    /// motivating dilemma of paper §I taken literally: admitting a straggler
    /// raises everyone's age. The objective becomes non-separable; provided
    /// as a documented extension and exercised by an ablation benchmark.
    MaxSelected,
}

/// One epoch of the MVCom problem.
///
/// Create instances through [`InstanceBuilder`]; the builder validates that
/// the constraint set is non-empty (there exists a selection with at least
/// `N_min` shards within capacity `Ĉ`) and derives the [`ShardColumns`].
/// A clone shares the columns: it copies the shard records and bumps one
/// reference count.
#[derive(Debug, Clone)]
pub struct Instance {
    shards: Vec<ShardInfo>,
    alpha: f64,
    capacity: u64,
    n_min: usize,
    ddl_policy: DdlPolicy,
    /// Cached `max_i l_i` (the MaxArrival deadline).
    ddl: SimTime,
    columns: Arc<ShardColumns>,
}

/// The epoch's per-shard numbers as dense columns, derived once by
/// [`InstanceBuilder::build`] and shared, immutable, by every clone of the
/// [`Instance`] and every [`EvalCache`](crate::eval::EvalCache) over it.
///
/// The `ShardInfo` records interleave the committee id and both latency
/// phases with the numbers the solvers read, so at 10⁴–10⁵ committees a
/// pass over the records misses the cache once per shard; the columns keep
/// utility, marginal, feasibility and delta loops on 8-byte strides. Each
/// value is the record's, bit for bit: `lat` is
/// `two_phase_latency().as_secs()`, `size` is `tx_count()` and `tx` is
/// `size as f64`. 36 bytes per shard; 48 under [`DdlPolicy::MaxSelected`],
/// which adds the latency ranks.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use mvcom_core::eval::EvalCache;
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
/// assert_eq!(instance.size(1), 300);
/// assert_eq!(instance.total_txs(), 1_000);
/// assert_eq!(instance.smallest(2).collect::<Vec<_>>(), [3, 2]);
/// // A clone of the instance, and every cache over either, read one store.
/// let copy = instance.clone();
/// let a = EvalCache::new(&instance, &Solution::empty(4));
/// let b = EvalCache::new(&copy, &Solution::full(&copy));
/// assert!(Arc::ptr_eq(a.columns(), instance.columns()));
/// assert!(Arc::ptr_eq(b.columns(), instance.columns()));
/// ```
#[derive(Debug)]
pub struct ShardColumns {
    /// Latency `l_i` in seconds, by shard index.
    pub(crate) lat: Vec<f64>,
    /// Size `s_i` as a float, by shard index.
    pub(crate) tx: Vec<f64>,
    /// The MaxArrival marginal utility `α·s_i − Π_i`, by shard index.
    pub(crate) marginal: Vec<f64>,
    /// Exact size `s_i`, by shard index.
    pub(crate) size: Vec<u64>,
    /// `Σ s_i` over every shard — exact, because the builder refuses sizes
    /// that sum past `u64::MAX`.
    pub(crate) size_total: u64,
    /// Shard indices under a stable sort by size (ties by index): the first
    /// `n` are the `n` smallest shards.
    pub(crate) by_size: Vec<u32>,
    /// Shard index → rank in latency order (ties by index). Empty under
    /// [`DdlPolicy::MaxArrival`], whose deltas read no order statistic.
    pub(crate) rank: Vec<u32>,
    /// Rank → latency in seconds (ascending). Empty under MaxArrival.
    pub(crate) lat_by_rank: Vec<f64>,
}

impl ShardColumns {
    /// Derives the columns of an epoch whose deadline is `ddl` —
    /// `O(n log n)`, once per [`Instance`].
    fn new(shards: &[ShardInfo], alpha: f64, ddl: SimTime, policy: DdlPolicy) -> ShardColumns {
        let n = shards.len();
        let lat: Vec<f64> = shards
            .iter()
            .map(|s| s.two_phase_latency().as_secs())
            .collect();
        let size: Vec<u64> = shards.iter().map(ShardInfo::tx_count).collect();
        let tx: Vec<f64> = size.iter().map(|&s| s as f64).collect();
        // α·s_i − Π_i with Π_i = max(t − l_i, 0): `Instance::age`'s
        // expression, evaluated once per shard.
        let marginal = tx
            .iter()
            .zip(&lat)
            .map(|(&t, &l)| alpha * t - (ddl.as_secs() - l).max(0.0))
            .collect();
        let mut by_size: Vec<u32> = (0..n as u32).collect();
        by_size.sort_by_key(|&i| size[i as usize]);
        let (rank, lat_by_rank) = match policy {
            DdlPolicy::MaxArrival => (Vec::new(), Vec::new()),
            DdlPolicy::MaxSelected => {
                // `SimTime`'s order is `total_cmp` on these same seconds.
                let mut order: Vec<u32> = (0..n as u32).collect();
                order.sort_by(|&a, &b| lat[a as usize].total_cmp(&lat[b as usize]).then(a.cmp(&b)));
                let mut rank = vec![0u32; n];
                for (r, &i) in order.iter().enumerate() {
                    rank[i as usize] = r as u32;
                }
                (rank, order.iter().map(|&i| lat[i as usize]).collect())
            }
        };
        ShardColumns {
            size_total: size.iter().sum(),
            lat,
            tx,
            marginal,
            size,
            by_size,
            rank,
            lat_by_rank,
        }
    }
}

/// A shard index as Algorithm 2's shuffle buffer holds it: `u32` in an
/// engine build, which [`InstanceBuilder::build`]'s shard-count limit
/// makes lossless, and `usize` through
/// [`Chain::init_on`](crate::se::chain::Chain::init_on).
pub(crate) trait ShardPos: Copy {
    /// The position of shard `i < |I|`.
    fn from_index(i: usize) -> Self;
    /// The shard index this position holds.
    fn index(self) -> usize;
}

impl ShardPos for u32 {
    fn from_index(i: usize) -> u32 {
        i as u32
    }
    fn index(self) -> usize {
        self as usize
    }
}

impl ShardPos for usize {
    fn from_index(i: usize) -> usize {
        i
    }
    fn index(self) -> usize {
        self
    }
}

impl Instance {
    /// The shards of this epoch, indexed `0..len()`.
    pub fn shards(&self) -> &[ShardInfo] {
        &self.shards
    }

    /// Number of arrived shards, `|I_j|`.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// `true` iff the epoch has no shards (never true for built instances).
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// The throughput weight `α`.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The final-block transaction capacity `Ĉ`.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// The minimum number of committees that must be admitted, `N_min`.
    pub fn n_min(&self) -> usize {
        self.n_min
    }

    /// The deadline semantics in force.
    pub fn ddl_policy(&self) -> DdlPolicy {
        self.ddl_policy
    }

    /// The epoch deadline under [`DdlPolicy::MaxArrival`]:
    /// `t_j = max_i l_i`.
    pub fn ddl(&self) -> SimTime {
        self.ddl
    }

    /// The epoch's per-shard columns: one allocation, shared by every clone
    /// of this instance and every cache over it.
    pub fn columns(&self) -> &Arc<ShardColumns> {
        &self.columns
    }

    /// The exact size `s_i` of shard `i`, read from the size column.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn size(&self, i: usize) -> u64 {
        self.columns.size[i]
    }

    /// The `n` smallest shards, ascending by size with ties by index —
    /// the subset that fits `Ĉ` whenever any `n`-subset does.
    ///
    /// # Panics
    ///
    /// Panics if `n > len()`.
    pub fn smallest(&self, n: usize) -> impl Iterator<Item = usize> + '_ {
        self.columns.by_size[..n].iter().map(|&i| i as usize)
    }

    /// `Σ s_i` over the first `n` entries of `shuffled`, a permutation of
    /// every shard index, summing the smaller side of the split: when
    /// `2n > |I|` it is `Σ_all − Σ_tail`, the same exact integer.
    /// Algorithm 2's failing attempts sit at the top cardinalities, where
    /// the tail is a few percent of the epoch.
    ///
    /// # Panics
    ///
    /// Panics if `n > shuffled.len()`.
    pub(crate) fn head_total<P: ShardPos>(&self, shuffled: &[P], n: usize) -> u64 {
        debug_assert_eq!(shuffled.len(), self.len());
        let (head, tail) = shuffled.split_at(n);
        let size = &self.columns.size;
        let sum = |side: &[P]| side.iter().map(|&i| size[i.index()]).sum::<u64>();
        if 2 * n > shuffled.len() {
            self.columns.size_total - sum(tail)
        } else {
            sum(head)
        }
    }

    /// The committees whose shards `solution` admits, in shard order.
    pub fn committees<'a>(
        &'a self,
        solution: &'a Solution,
    ) -> impl Iterator<Item = CommitteeId> + 'a {
        solution.iter_selected().map(|i| self.shards[i].committee())
    }

    /// The index of `committee`'s shard, if it arrived this epoch.
    pub fn index_of(&self, committee: CommitteeId) -> Option<usize> {
        self.shards.iter().position(|s| s.committee() == committee)
    }

    /// The cumulative age `Π_i = t_j − l_i` a selected shard `i` would
    /// incur under the MaxArrival deadline. Always non-negative.
    pub fn age(&self, i: usize) -> f64 {
        (self.ddl.as_secs() - self.columns.lat[i]).max(0.0)
    }

    /// The marginal utility `α·s_i − Π_i` of selecting shard `i` under
    /// [`DdlPolicy::MaxArrival`]. May be negative: a small shard that
    /// arrived very early costs more age than it contributes throughput.
    pub fn marginal_utility(&self, i: usize) -> f64 {
        self.columns.marginal[i]
    }

    /// The objective value `U(f)` of a solution under this instance's
    /// [`DdlPolicy`]. Does **not** check feasibility; see
    /// [`Instance::is_feasible`].
    pub fn utility(&self, solution: &Solution) -> f64 {
        let c = &*self.columns;
        match self.ddl_policy {
            DdlPolicy::MaxArrival => solution.iter_selected().map(|i| c.marginal[i]).sum(),
            DdlPolicy::MaxSelected => {
                let t = self.selected_ddl(solution);
                // No clamp on the age term: `t` is a pure `f64::max` fold
                // over the very same latency values (no arithmetic), so
                // `t >= l_i` holds *exactly* for every selected shard —
                // `t - l_i` cannot be negative, not even by float noise.
                // `eval::tests` pins this with utility == Σ marginal
                // identities.
                solution
                    .iter_selected()
                    .map(|i| self.alpha * c.tx[i] - (t - c.lat[i]))
                    .sum()
            }
        }
    }

    /// The deadline induced by a solution under [`DdlPolicy::MaxSelected`]:
    /// the maximum latency among selected shards (`0` for the empty set).
    pub fn selected_ddl(&self, solution: &Solution) -> f64 {
        solution
            .iter_selected()
            .map(|i| self.columns.lat[i])
            .fold(0.0, f64::max)
    }

    /// The exact utility change from swapping selected shard `out` for
    /// unselected shard `inc`. `O(1)` under MaxArrival; `O(n)` under
    /// MaxSelected (the induced deadline may move). Hot loops should prefer
    /// the allocation-free `O(log n)` [`crate::eval::EvalCache::swap_delta`];
    /// this naive clone-and-recompute form is kept as the differential-test
    /// reference.
    ///
    /// # Panics
    ///
    /// Panics — in release builds too — when `solution` was built for a
    /// different shard count, when `out` or `inc` is out of range for
    /// this instance, when `out` is not selected, or when `inc` is
    /// selected: a silent garbage delta would corrupt every downstream
    /// solver state.
    pub fn swap_delta(&self, solution: &Solution, out: usize, inc: usize) -> f64 {
        assert!(
            solution.len() == self.len(),
            "swap_delta precondition: solution over {} shards does not belong to this \
             {}-shard instance",
            solution.len(),
            self.len()
        );
        assert!(
            out < self.len() && inc < self.len(),
            "swap_delta precondition: committee ids out={out}, inc={inc} must be < {}",
            self.len()
        );
        assert!(
            solution.contains(out) && !solution.contains(inc),
            "swap_delta precondition: out={out} must be selected, inc={inc} unselected"
        );
        match self.ddl_policy {
            DdlPolicy::MaxArrival => self.marginal_utility(inc) - self.marginal_utility(out),
            DdlPolicy::MaxSelected => {
                let mut next = solution.clone();
                next.remove(out, self);
                next.insert(inc, self);
                self.utility(&next) - self.utility(solution)
            }
        }
    }

    /// The exact utility change from selecting the unselected shard `i`.
    /// `O(1)` under MaxArrival; `O(n)` under MaxSelected (prefer
    /// [`crate::eval::EvalCache::insert_delta`] in hot loops).
    ///
    /// # Panics
    ///
    /// Panics — in release builds too — when `solution` was built for a
    /// different shard count, when `i` is out of range for this
    /// instance, or when `i` is already selected.
    pub fn insert_delta(&self, solution: &Solution, i: usize) -> f64 {
        assert!(
            solution.len() == self.len(),
            "insert_delta precondition: solution over {} shards does not belong to this \
             {}-shard instance",
            solution.len(),
            self.len()
        );
        assert!(
            i < self.len(),
            "insert_delta precondition: committee id {i} must be < {}",
            self.len()
        );
        assert!(
            !solution.contains(i),
            "insert_delta precondition: shard {i} is already selected"
        );
        match self.ddl_policy {
            DdlPolicy::MaxArrival => self.marginal_utility(i),
            DdlPolicy::MaxSelected => {
                let mut next = solution.clone();
                next.insert(i, self);
                self.utility(&next) - self.utility(solution)
            }
        }
    }

    /// The exact utility change from deselecting the selected shard `i`.
    /// `O(1)` under MaxArrival; `O(n)` under MaxSelected (prefer
    /// [`crate::eval::EvalCache::remove_delta`] in hot loops).
    ///
    /// # Panics
    ///
    /// Panics — in release builds too — when `solution` was built for a
    /// different shard count, when `i` is out of range for this
    /// instance, or when `i` is not selected.
    pub fn remove_delta(&self, solution: &Solution, i: usize) -> f64 {
        assert!(
            solution.len() == self.len(),
            "remove_delta precondition: solution over {} shards does not belong to this \
             {}-shard instance",
            solution.len(),
            self.len()
        );
        assert!(
            i < self.len(),
            "remove_delta precondition: committee id {i} must be < {}",
            self.len()
        );
        assert!(
            solution.contains(i),
            "remove_delta precondition: shard {i} is not selected"
        );
        match self.ddl_policy {
            DdlPolicy::MaxArrival => -self.marginal_utility(i),
            DdlPolicy::MaxSelected => {
                let mut next = solution.clone();
                next.remove(i, self);
                self.utility(&next) - self.utility(solution)
            }
        }
    }

    /// The total cumulative age `Σ_i x_i·Π_i` of a solution (paper eq. (1)
    /// summed), under the instance's deadline policy.
    pub fn cumulative_age(&self, solution: &Solution) -> f64 {
        let t = match self.ddl_policy {
            DdlPolicy::MaxArrival => self.ddl.as_secs(),
            DdlPolicy::MaxSelected => self.selected_ddl(solution),
        };
        solution
            .iter_selected()
            .map(|i| (t - self.columns.lat[i]).max(0.0))
            .sum()
    }

    /// The *Valuable Degree* of a solution (paper §VI-E):
    /// `Σ_i x_i · s_i / Π_i`.
    ///
    /// The shard that defines the deadline has `Π_i = 0`; its ratio is
    /// computed with the age clamped to 1 second so the metric stays finite
    /// (the paper does not specify its handling of this singularity).
    pub fn valuable_degree(&self, solution: &Solution) -> f64 {
        let t = match self.ddl_policy {
            DdlPolicy::MaxArrival => self.ddl.as_secs(),
            DdlPolicy::MaxSelected => self.selected_ddl(solution),
        };
        solution
            .iter_selected()
            .map(|i| self.columns.tx[i] / (t - self.columns.lat[i]).max(1.0))
            .sum()
    }

    /// Checks both constraints: `Σ x_i ≥ N_min` (paper (3)) and
    /// `Σ x_i·s_i ≤ Ĉ` (paper (4)).
    pub fn is_feasible(&self, solution: &Solution) -> bool {
        solution.selected_count() >= self.n_min && self.within_capacity(solution)
    }

    /// Checks the capacity constraint alone — the initialization routine
    /// (Alg. 2) enforces capacity before cardinality.
    pub fn within_capacity(&self, solution: &Solution) -> bool {
        solution.tx_total() <= self.capacity
    }

    /// The largest cardinality `n` for which a capacity-feasible selection
    /// of `n` shards exists: the longest prefix of the stored by-size order
    /// within `Ĉ` (exact — no prefix sums past `u64::MAX`).
    pub fn max_feasible_cardinality(&self) -> usize {
        let mut total = 0u64;
        self.smallest(self.len())
            .take_while(|&i| {
                total += self.size(i);
                total <= self.capacity
            })
            .count()
    }

    /// Sum of all shard sizes, `Σ_i s_i` — exact: the builder refuses an
    /// epoch whose sizes sum past `u64::MAX`, so no sum of a subset of
    /// them (a [`Solution`]'s `tx_total`, the SE init's capacity test)
    /// can wrap either.
    pub fn total_txs(&self) -> u64 {
        self.columns.size_total
    }

    /// Builds a trimmed copy of the instance with `committee`'s shard
    /// removed — the solution-space surgery of paper §V (Fig. 7) applied to
    /// the problem data. Returns the trimmed instance and the removed index.
    ///
    /// # Errors
    ///
    /// [`Error::UnknownCommittee`] if the committee has no shard here;
    /// [`Error::Infeasible`] if the survivors cannot satisfy the
    /// constraints.
    pub fn without_committee(&self, committee: CommitteeId) -> Result<(Instance, usize)> {
        let idx = self
            .index_of(committee)
            .ok_or(Error::UnknownCommittee(committee))?;
        let mut shards = self.shards.clone();
        shards.remove(idx);
        let trimmed = InstanceBuilder::new()
            .alpha(self.alpha)
            .capacity(self.capacity)
            .n_min(self.n_min)
            .ddl_policy(self.ddl_policy)
            .shards(shards)
            .build()?;
        Ok((trimmed, idx))
    }

    /// Builds an extended copy with one additional shard appended — a
    /// committee *join* event. The deadline is re-derived, so ages of
    /// existing shards may change.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidEvent`] if a shard from the same committee is
    /// already present.
    pub fn with_joined(&self, shard: ShardInfo) -> Result<Instance> {
        if self.index_of(shard.committee()).is_some() {
            return Err(Error::InvalidEvent {
                committee: shard.committee(),
                reason: "committee already has a shard in this epoch".into(),
            });
        }
        let mut shards = self.shards.clone();
        shards.push(shard);
        InstanceBuilder::new()
            .alpha(self.alpha)
            .capacity(self.capacity)
            .n_min(self.n_min)
            .ddl_policy(self.ddl_policy)
            .shards(shards)
            .build()
    }
}

/// Builder for [`Instance`] (C-BUILDER).
///
/// # Example
///
/// ```
/// use mvcom_core::problem::InstanceBuilder;
/// use mvcom_types::{CommitteeId, ShardInfo, SimTime, TwoPhaseLatency};
///
/// let shards = vec![
///     ShardInfo::new(CommitteeId(0), 800, TwoPhaseLatency::from_total(SimTime::from_secs(700.0))),
///     ShardInfo::new(CommitteeId(1), 900, TwoPhaseLatency::from_total(SimTime::from_secs(900.0))),
/// ];
/// let instance = InstanceBuilder::new()
///     .alpha(1.5)
///     .capacity(2_000)
///     .n_min(1)
///     .shards(shards)
///     .build()
///     .unwrap();
/// assert_eq!(instance.ddl().as_secs(), 900.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct InstanceBuilder {
    shards: Vec<ShardInfo>,
    alpha: f64,
    capacity: u64,
    n_min: usize,
    ddl_policy: DdlPolicy,
}

impl InstanceBuilder {
    /// Starts a builder with `α = 1.0`, zero capacity, `N_min = 0`, and the
    /// paper's MaxArrival deadline policy.
    pub fn new() -> InstanceBuilder {
        InstanceBuilder {
            shards: Vec::new(),
            alpha: 1.0,
            capacity: 0,
            n_min: 0,
            ddl_policy: DdlPolicy::MaxArrival,
        }
    }

    /// Sets the throughput weight `α` (paper sweeps 1.5–10).
    pub fn alpha(mut self, alpha: f64) -> InstanceBuilder {
        self.alpha = alpha;
        self
    }

    /// Sets the final-block capacity `Ĉ` in transactions.
    pub fn capacity(mut self, capacity: u64) -> InstanceBuilder {
        self.capacity = capacity;
        self
    }

    /// Sets the minimum number of admitted committees `N_min`.
    pub fn n_min(mut self, n_min: usize) -> InstanceBuilder {
        self.n_min = n_min;
        self
    }

    /// Sets the deadline semantics (default [`DdlPolicy::MaxArrival`]).
    pub fn ddl_policy(mut self, policy: DdlPolicy) -> InstanceBuilder {
        self.ddl_policy = policy;
        self
    }

    /// Replaces the shard set.
    pub fn shards(mut self, shards: Vec<ShardInfo>) -> InstanceBuilder {
        self.shards = shards;
        self
    }

    /// Appends one shard.
    pub fn shard(mut self, shard: ShardInfo) -> InstanceBuilder {
        self.shards.push(shard);
        self
    }

    /// Validates and builds the instance.
    ///
    /// # Errors
    ///
    /// * [`Error::InvalidInstance`] — no shards, non-positive/non-finite
    ///   `α`, zero capacity, duplicate committee ids, a shard with an
    ///   infinite latency, shard sizes that sum past `u64::MAX` (the
    ///   error names the shard that crosses it), or more than `u32::MAX`
    ///   shards (the error names the count).
    /// * [`Error::Infeasible`] — no selection can satisfy both constraints:
    ///   `N_min > |I|`, or the `N_min` smallest shards already exceed `Ĉ`.
    pub fn build(self) -> Result<Instance> {
        let Some(ddl) = self.shards.iter().map(|s| s.two_phase_latency()).max() else {
            return Err(Error::invalid_instance("an epoch needs at least one shard"));
        };
        shard_count_fits(self.shards.len())?;
        if !self.alpha.is_finite() || self.alpha <= 0.0 {
            return Err(Error::invalid_instance(format!(
                "alpha must be positive and finite, got {}",
                self.alpha
            )));
        }
        if self.capacity == 0 {
            return Err(Error::invalid_instance(
                "final-block capacity must be positive",
            ));
        }
        let mut seen = std::collections::BTreeSet::new();
        let mut total_txs = 0u64;
        for s in &self.shards {
            let Some(total) = total_txs.checked_add(s.tx_count()) else {
                return Err(Error::invalid_instance(format!(
                    "{}'s {} transactions push the epoch's total past u64::MAX",
                    s.committee(),
                    s.tx_count()
                )));
            };
            total_txs = total;
            if !seen.insert(s.committee()) {
                return Err(Error::invalid_instance(format!(
                    "duplicate shard for {}",
                    s.committee()
                )));
            }
            if s.two_phase_latency().is_infinite() {
                return Err(Error::invalid_instance(format!(
                    "{} has infinite latency (failed committee); remove it before building",
                    s.committee()
                )));
            }
        }
        if self.n_min > self.shards.len() {
            return Err(Error::infeasible(format!(
                "N_min = {} exceeds the {} arrived shards",
                self.n_min,
                self.shards.len()
            )));
        }
        let columns = ShardColumns::new(&self.shards, self.alpha, ddl, self.ddl_policy);
        let instance = Instance {
            shards: self.shards,
            alpha: self.alpha,
            capacity: self.capacity,
            n_min: self.n_min,
            ddl_policy: self.ddl_policy,
            ddl,
            columns: Arc::new(columns),
        };
        if instance.max_feasible_cardinality() < instance.n_min {
            return Err(Error::infeasible(format!(
                "even the {} smallest shards exceed the capacity {}",
                instance.n_min, instance.capacity
            )));
        }
        Ok(instance)
    }
}

/// Refuses an epoch of more than `u32::MAX` shards, naming the count: the
/// by-size and rank columns and Algorithm 2's shuffle buffer index shards
/// as `u32`.
fn shard_count_fits(len: usize) -> Result<()> {
    match u32::try_from(len) {
        Ok(_) => Ok(()),
        Err(_) => Err(Error::invalid_instance(format!(
            "{len} shards exceed the {} an epoch can index",
            u32::MAX
        ))),
    }
}

/// The NP-hardness reduction of paper §III-C, made executable.
///
/// Maps a 0/1-knapsack instance (values `p_k`, weights `w_k`, capacity `C̄`)
/// to an MVCom instance with one epoch and `N_min = 0` such that selections
/// correspond one-to-one and objectives coincide. Concretely, for each item
/// `k` we create a shard with `s_k = w_k` and a latency chosen so that
/// `α·s_k − (t − l_k) = p_k`.
///
/// The weight `α` is raised to `max(alpha, max_k p_k/w_k)` when necessary:
/// the encoding needs every age `t − l_k = α·w_k − p_k` to be non-negative,
/// and per-item marginal utilities equal `p_k` for *any* such `α`. A
/// sentinel shard with `s = C̄ + 1` (so it can never be selected) pins the
/// deadline at `t`, keeping the bijection intact.
///
/// # Errors
///
/// Returns [`Error::InvalidInstance`] for empty/mismatched item lists,
/// zero weights, or zero capacity.
pub fn knapsack_reduction(
    values: &[f64],
    weights: &[u64],
    capacity: u64,
    alpha: f64,
) -> Result<Instance> {
    if values.len() != weights.len() || values.is_empty() {
        return Err(Error::invalid_instance(
            "knapsack needs equal-length, non-empty value and weight lists",
        ));
    }
    if capacity == 0 {
        return Err(Error::invalid_instance(
            "knapsack capacity must be positive",
        ));
    }
    if weights.contains(&0) {
        return Err(Error::invalid_instance("knapsack weights must be positive"));
    }
    // Raise alpha until every age alpha*w_k - p_k is non-negative.
    let min_alpha = values
        .iter()
        .zip(weights)
        .map(|(&p, &w)| p / w as f64)
        .fold(0.0_f64, f64::max);
    let alpha = alpha.max(min_alpha);
    // t bounds every l_k = t - (alpha*w_k - p_k) within (0, t].
    let max_gap = values
        .iter()
        .zip(weights)
        .map(|(&p, &w)| alpha * w as f64 - p)
        .fold(0.0_f64, f64::max);
    let t = max_gap.max(0.0) + 1.0;
    let mut shards: Vec<ShardInfo> = values
        .iter()
        .zip(weights)
        .enumerate()
        .map(|(k, (&p, &w))| {
            let l = t - (alpha * w as f64 - p);
            ShardInfo::new(
                CommitteeId(k as u32),
                w,
                mvcom_types::TwoPhaseLatency::from_total(SimTime::from_secs(l)),
            )
        })
        .collect();
    // Sentinel pinning the deadline at exactly t: latency t, size C̄+1 so it
    // can never be selected.
    shards.push(ShardInfo::new(
        CommitteeId(values.len() as u32),
        capacity + 1,
        mvcom_types::TwoPhaseLatency::from_total(SimTime::from_secs(t)),
    ));
    InstanceBuilder::new()
        .alpha(alpha)
        .capacity(capacity)
        .n_min(0)
        .shards(shards)
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvcom_types::TwoPhaseLatency;

    fn shard(id: u32, txs: u64, latency: f64) -> ShardInfo {
        ShardInfo::new(
            CommitteeId(id),
            txs,
            TwoPhaseLatency::from_total(SimTime::from_secs(latency)),
        )
    }

    fn example() -> Instance {
        // Latencies 800, 900, 1200, 1000 — the paper's Fig. 1 example.
        InstanceBuilder::new()
            .alpha(1.5)
            .capacity(3_000)
            .n_min(2)
            .shards(vec![
                shard(1, 1_000, 800.0),
                shard(2, 900, 900.0),
                shard(3, 1_400, 1200.0),
                shard(4, 1_100, 1000.0),
            ])
            .build()
            .unwrap()
    }

    #[test]
    fn ddl_is_max_latency() {
        let inst = example();
        assert_eq!(inst.ddl().as_secs(), 1200.0);
        assert_eq!(inst.len(), 4);
        assert!(!inst.is_empty());
    }

    #[test]
    fn ages_follow_eq_1() {
        let inst = example();
        assert_eq!(inst.age(0), 400.0); // 1200 - 800
        assert_eq!(inst.age(1), 300.0);
        assert_eq!(inst.age(2), 0.0); // the straggler defines the DDL
        assert_eq!(inst.age(3), 200.0);
    }

    #[test]
    fn marginal_utility_mixes_throughput_and_age() {
        let inst = example();
        // alpha*s - age = 1.5*1000 - 400 = 1100.
        assert_eq!(inst.marginal_utility(0), 1100.0);
        // The straggler has zero age: 1.5*1400 = 2100.
        assert_eq!(inst.marginal_utility(2), 2100.0);
    }

    #[test]
    fn utility_sums_selected_marginals() {
        let inst = example();
        let sol = Solution::from_indices(inst.len(), [0, 2], &inst);
        assert_eq!(inst.utility(&sol), 1100.0 + 2100.0);
        assert_eq!(inst.cumulative_age(&sol), 400.0);
    }

    #[test]
    fn swap_delta_matches_recomputation() {
        let inst = example();
        let sol = Solution::from_indices(inst.len(), [0, 1], &inst);
        let delta = inst.swap_delta(&sol, 1, 2);
        let mut swapped = sol.clone();
        swapped.remove(1, &inst);
        swapped.insert(2, &inst);
        assert!((inst.utility(&swapped) - inst.utility(&sol) - delta).abs() < 1e-9);
    }

    #[test]
    fn insert_and_remove_deltas_match_recomputation() {
        for policy in [DdlPolicy::MaxArrival, DdlPolicy::MaxSelected] {
            let inst = InstanceBuilder::new()
                .alpha(1.5)
                .capacity(10_000)
                .ddl_policy(policy)
                .shards(vec![
                    shard(1, 1_000, 800.0),
                    shard(2, 900, 900.0),
                    shard(3, 1_400, 1200.0),
                    shard(4, 1_100, 1000.0),
                ])
                .build()
                .unwrap();
            let sol = Solution::from_indices(4, [0, 2], &inst);
            let base = inst.utility(&sol);
            let mut with3 = sol.clone();
            with3.insert(3, &inst);
            assert!(
                (inst.insert_delta(&sol, 3) - (inst.utility(&with3) - base)).abs() < 1e-9,
                "{policy:?}"
            );
            let mut without2 = sol.clone();
            without2.remove(2, &inst);
            assert!(
                (inst.remove_delta(&sol, 2) - (inst.utility(&without2) - base)).abs() < 1e-9,
                "{policy:?}"
            );
        }
    }

    #[test]
    fn feasibility_checks_both_constraints() {
        let inst = example();
        let too_few = Solution::from_indices(inst.len(), [0], &inst);
        assert!(!inst.is_feasible(&too_few));
        let over_capacity = Solution::from_indices(inst.len(), [0, 2, 3], &inst); // 3500 > 3000
        assert!(!inst.is_feasible(&over_capacity));
        assert!(inst.within_capacity(&Solution::from_indices(inst.len(), [0, 2], &inst)));
        let ok = Solution::from_indices(inst.len(), [0, 1], &inst);
        assert!(inst.is_feasible(&ok));
    }

    #[test]
    fn max_feasible_cardinality_uses_smallest_shards() {
        let inst = example();
        // Sorted sizes: 900, 1000, 1100, 1400 → prefix sums 900, 1900, 3000, 4400.
        assert_eq!(inst.max_feasible_cardinality(), 3);
    }

    #[test]
    fn head_total_is_the_head_sum_at_every_split() {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let inst = InstanceBuilder::new()
            .capacity(u64::MAX / 2)
            .shards(
                (0..101)
                    .map(|i| shard(i, 50 + (u64::from(i) * 37) % 500, 10.0 + f64::from(i)))
                    .collect(),
            )
            .build()
            .unwrap();
        let mut shuffled: Vec<usize> = (0..101).collect();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(9);
        for _ in 0..4 {
            shuffled.shuffle(&mut rng);
            for n in 0..=101 {
                let head: u64 = shuffled[..n]
                    .iter()
                    .map(|&i| inst.shards()[i].tx_count())
                    .sum();
                assert_eq!(inst.head_total(&shuffled, n), head, "n = {n}");
                let narrow: Vec<u32> = shuffled.iter().map(|&i| i as u32).collect();
                assert_eq!(inst.head_total(&narrow, n), head, "u32, n = {n}");
            }
        }
    }

    #[test]
    fn an_epoch_past_u32_max_shards_is_refused_by_its_count() {
        assert!(shard_count_fits(u32::MAX as usize).is_ok());
        if let Some(past) = (u32::MAX as usize).checked_add(1) {
            let err = shard_count_fits(past).unwrap_err().to_string();
            assert!(err.contains(&past.to_string()), "{err}");
        }
    }

    #[test]
    fn valuable_degree_clamps_zero_age() {
        let inst = example();
        let sol = Solution::from_indices(inst.len(), [0, 2], &inst);
        // shard 0: 1000/400; shard 2: age 0 clamped to 1 → 1400/1.
        let vd = inst.valuable_degree(&sol);
        assert!((vd - (1000.0 / 400.0 + 1400.0)).abs() < 1e-9);
    }

    #[test]
    fn builder_rejects_bad_inputs() {
        assert!(InstanceBuilder::new().capacity(10).build().is_err()); // no shards
        assert!(InstanceBuilder::new()
            .shard(shard(0, 10, 1.0))
            .build()
            .is_err()); // zero capacity
        assert!(InstanceBuilder::new()
            .alpha(0.0)
            .capacity(10)
            .shard(shard(0, 10, 1.0))
            .build()
            .is_err());
        assert!(InstanceBuilder::new()
            .alpha(f64::NAN)
            .capacity(10)
            .shard(shard(0, 10, 1.0))
            .build()
            .is_err());
        // Duplicate committee.
        assert!(InstanceBuilder::new()
            .capacity(100)
            .shard(shard(0, 10, 1.0))
            .shard(shard(0, 20, 2.0))
            .build()
            .is_err());
        // Infinite latency.
        let dead = ShardInfo::new(
            CommitteeId(5),
            10,
            TwoPhaseLatency::from_total(SimTime::INFINITY),
        );
        assert!(InstanceBuilder::new()
            .capacity(100)
            .shard(dead)
            .build()
            .is_err());
    }

    #[test]
    fn sizes_summing_past_u64_max_are_refused_by_shard() {
        // Each size alone is legal and the capacity admits either shard;
        // only the epoch's total cannot be represented.
        let half = u64::MAX / 2 + 1;
        let build = |shards| {
            InstanceBuilder::new()
                .capacity(u64::MAX)
                .shards(shards)
                .build()
        };
        let err = build(vec![shard(0, half, 1.0), shard(7, half, 2.0)]).unwrap_err();
        assert!(matches!(err, Error::InvalidInstance { .. }), "{err}");
        assert!(err.to_string().contains("committee-7"), "{err}");
        let fits = build(vec![shard(0, half, 1.0), shard(7, half - 1, 2.0)]).unwrap();
        assert_eq!(fits.total_txs(), u64::MAX);
        // A join goes through the same check.
        let err = fits.with_joined(shard(9, 1, 3.0)).unwrap_err();
        assert!(err.to_string().contains("committee-9"), "{err}");
    }

    #[test]
    fn builder_rejects_infeasible_constraints() {
        // N_min exceeds shard count.
        assert!(matches!(
            InstanceBuilder::new()
                .capacity(100)
                .n_min(3)
                .shards(vec![shard(0, 10, 1.0), shard(1, 10, 2.0)])
                .build(),
            Err(Error::Infeasible { .. })
        ));
        // N_min smallest shards exceed capacity.
        assert!(matches!(
            InstanceBuilder::new()
                .capacity(15)
                .n_min(2)
                .shards(vec![shard(0, 10, 1.0), shard(1, 10, 2.0)])
                .build(),
            Err(Error::Infeasible { .. })
        ));
    }

    #[test]
    fn without_committee_trims_and_rederives_ddl() {
        let inst = example();
        let (trimmed, idx) = inst.without_committee(CommitteeId(3)).unwrap();
        assert_eq!(idx, 2);
        assert_eq!(trimmed.len(), 3);
        assert_eq!(trimmed.ddl().as_secs(), 1000.0);
        assert!(inst.without_committee(CommitteeId(99)).is_err());
    }

    #[test]
    fn with_joined_extends_and_rejects_duplicates() {
        let inst = example();
        let joined = inst.with_joined(shard(9, 500, 1500.0)).unwrap();
        assert_eq!(joined.len(), 5);
        assert_eq!(joined.ddl().as_secs(), 1500.0);
        // Existing committee cannot join twice.
        assert!(inst.with_joined(shard(1, 1, 1.0)).is_err());
    }

    #[test]
    fn max_selected_policy_uses_induced_deadline() {
        let inst = InstanceBuilder::new()
            .alpha(1.5)
            .capacity(10_000)
            .n_min(1)
            .ddl_policy(DdlPolicy::MaxSelected)
            .shards(vec![
                shard(1, 1_000, 800.0),
                shard(2, 900, 900.0),
                shard(3, 1_400, 1200.0),
            ])
            .build()
            .unwrap();
        // Selecting {0,1}: deadline 900, ages 100 and 0.
        let sol = Solution::from_indices(inst.len(), [0, 1], &inst);
        let expected = 1.5 * 1000.0 - 100.0 + 1.5 * 900.0;
        assert!((inst.utility(&sol) - expected).abs() < 1e-9);
        // Adding the straggler raises everyone's age.
        let all = Solution::from_indices(inst.len(), [0, 1, 2], &inst);
        let expected_all = (1.5 * 1000.0 - 400.0) + (1.5 * 900.0 - 300.0) + 1.5 * 1400.0;
        assert!((inst.utility(&all) - expected_all).abs() < 1e-9);
        // swap_delta agrees with recomputation under MaxSelected too.
        let delta = inst.swap_delta(&sol, 1, 2);
        let mut next = sol.clone();
        next.remove(1, &inst);
        next.insert(2, &inst);
        assert!((delta - (inst.utility(&next) - inst.utility(&sol))).abs() < 1e-9);
    }

    /// Clamp audit (ISSUE 2 satellite): under `MaxSelected` the deadline is
    /// a pure `f64::max` fold over the selected latencies themselves, so
    /// `t − l_i ≥ 0` holds exactly — clamping the age at zero is
    /// unreachable and `utility` is bitwise equal to the unclamped
    /// per-shard marginal sum for any selection.
    #[test]
    fn max_selected_utility_equals_unclamped_marginal_sum() {
        // Latencies with non-representable decimal parts to stress float
        // identity (0.1 + 0.2 ≠ 0.3 territory).
        let inst = InstanceBuilder::new()
            .alpha(1.7)
            .capacity(u64::MAX / 2)
            .ddl_policy(DdlPolicy::MaxSelected)
            .shards(
                (0..64)
                    .map(|i| shard(i, 10 + u64::from(i), 0.1 + (f64::from(i) * 3.7) % 29.0))
                    .collect(),
            )
            .build()
            .unwrap();
        let selections = [
            Solution::full(&inst),
            Solution::from_indices(64, (0..64).step_by(3), &inst),
            Solution::from_indices(64, [7], &inst),
        ];
        for sol in &selections {
            let t = inst.selected_ddl(sol);
            let mut unclamped = 0.0;
            let mut clamped = 0.0;
            for i in sol.iter_selected() {
                let l = inst.shards()[i].two_phase_latency().as_secs();
                assert!(t - l >= 0.0, "selected shard {i} older than its deadline");
                unclamped += inst.alpha() * inst.shards()[i].tx_count() as f64 - (t - l);
                clamped += inst.alpha() * inst.shards()[i].tx_count() as f64 - (t - l).max(0.0);
            }
            // Bitwise identical: the clamp can never fire.
            assert_eq!(unclamped, clamped);
            assert_eq!(inst.utility(sol), unclamped);
        }
    }

    #[test]
    #[should_panic(expected = "swap_delta precondition")]
    fn swap_delta_precondition_panics_in_all_profiles() {
        let inst = example();
        let sol = Solution::from_indices(inst.len(), [0, 1], &inst);
        let _ = inst.swap_delta(&sol, 2, 3); // `out` not selected
    }

    #[test]
    #[should_panic(expected = "insert_delta precondition")]
    fn insert_delta_precondition_panics_in_all_profiles() {
        let inst = example();
        let sol = Solution::from_indices(inst.len(), [0, 1], &inst);
        let _ = inst.insert_delta(&sol, 0); // already selected
    }

    #[test]
    #[should_panic(expected = "remove_delta precondition")]
    fn remove_delta_precondition_panics_in_all_profiles() {
        let inst = example();
        let sol = Solution::from_indices(inst.len(), [0, 1], &inst);
        let _ = inst.remove_delta(&sol, 3); // not selected
    }

    #[test]
    #[should_panic(expected = "swap_delta precondition")]
    fn swap_delta_rejects_out_of_range_committee_id() {
        let inst = example();
        let sol = Solution::from_indices(inst.len(), [0, 1], &inst);
        let _ = inst.swap_delta(&sol, 0, inst.len()); // `inc` out of range
    }

    #[test]
    #[should_panic(expected = "insert_delta precondition")]
    fn insert_delta_rejects_out_of_range_committee_id() {
        let inst = example();
        let sol = Solution::from_indices(inst.len(), [0, 1], &inst);
        let _ = inst.insert_delta(&sol, inst.len() + 7);
    }

    #[test]
    #[should_panic(expected = "remove_delta precondition")]
    fn remove_delta_rejects_foreign_solution() {
        let inst = example();
        // A solution built for a *different* (larger) shard set used to
        // slip past the membership check and feed garbage latencies into
        // the O(n) recompute path.
        let sol = Solution::from_indices(inst.len() + 3, [0, 1], &inst);
        let _ = inst.remove_delta(&sol, 0);
    }

    #[test]
    fn knapsack_reduction_preserves_objective() {
        // Items: values 60, 100, 120; weights 10, 20, 30; capacity 50.
        // Optimal knapsack: items 1+2 → value 220.
        let inst = knapsack_reduction(&[60.0, 100.0, 120.0], &[10, 20, 30], 50, 2.0).unwrap();
        assert_eq!(inst.len(), 4); // 3 items + sentinel
                                   // Per-item marginal utility equals the knapsack value.
        assert!((inst.marginal_utility(0) - 60.0).abs() < 1e-9);
        assert!((inst.marginal_utility(1) - 100.0).abs() < 1e-9);
        assert!((inst.marginal_utility(2) - 120.0).abs() < 1e-9);
        // Sentinel cannot fit.
        let sentinel = Solution::from_indices(inst.len(), [3], &inst);
        assert!(!inst.within_capacity(&sentinel));
        // The knapsack optimum maps to a feasible MVCom solution of equal value.
        let best = Solution::from_indices(inst.len(), [1, 2], &inst);
        assert!(inst.is_feasible(&best));
        assert!((inst.utility(&best) - 220.0).abs() < 1e-9);
    }

    #[test]
    fn knapsack_reduction_rejects_bad_input() {
        assert!(knapsack_reduction(&[], &[], 10, 1.0).is_err());
        assert!(knapsack_reduction(&[1.0], &[1, 2], 10, 1.0).is_err());
        assert!(knapsack_reduction(&[1.0], &[1], 0, 1.0).is_err());
    }
}
