//! The selection vector `x ∈ {0,1}^|I|`.
//!
//! [`Solution`] is a compact bitset over the shard indices of one
//! [`Instance`], with cached aggregates (selected count, selected TX and
//! latency totals) so the SE sampler's inner loop is allocation-free and
//! `O(1)` per mutation. It is the one membership store of a chain: the
//! [`crate::eval::EvalCache`] beside it holds no copy of the selection.
//!
//! The bitset is counted: one `u32` of selected shards per 512-shard block
//! (eight words, one cache line). The `k`-th selected (or unselected) shard
//! *in index order* — what the samplers' rejection-loop fallback resolves —
//! is a walk over the block counts, then a select within at most eight
//! words, `O(|I|/512)` rather than a bit-by-bit scan.

use rand::Rng;

use crate::problem::Instance;

/// Words per counted block of the bitset: 512 shards, one 64-byte cache
/// line.
const BLOCK_WORDS: usize = 8;
/// Shards per counted block.
const BLOCK: usize = 64 * BLOCK_WORDS;

/// A candidate selection of shards (a state `f ∈ F` of the Markov chain).
///
/// # Example
///
/// ```
/// use mvcom_core::problem::InstanceBuilder;
/// use mvcom_core::solution::Solution;
/// use mvcom_types::{CommitteeId, ShardInfo, SimTime, TwoPhaseLatency};
///
/// let instance = InstanceBuilder::new()
///     .capacity(100)
///     .shards((0..4).map(|i| ShardInfo::new(
///         CommitteeId(i),
///         10,
///         TwoPhaseLatency::from_total(SimTime::from_secs(1.0 + f64::from(i))),
///     )).collect())
///     .build()
///     .unwrap();
/// let mut sol = Solution::empty(instance.len());
/// sol.insert(2, &instance);
/// assert!(sol.contains(2));
/// assert_eq!(sol.selected_count(), 1);
/// assert_eq!(sol.tx_total(), 10);
/// ```
#[derive(Debug, Clone)]
pub struct Solution {
    words: Vec<u64>,
    /// Selected shards per [`BLOCK`]-shard block of `words`.
    counts: Vec<u32>,
    len: usize,
    selected: usize,
    tx_total: u64,
    /// Running `Σ x_i·l_i` in seconds — the latency aggregate the
    /// incremental evaluator ([`crate::eval::EvalCache`]) combines with the
    /// induced deadline to evaluate `U(f)` without iterating the selection.
    /// Tracked as an f64 running sum; insert/remove pairs cancel exactly in
    /// practice, and consumers treat it as correct to ~1e-9 relative.
    lat_total: f64,
}

/// Equality is equality of the *selection*: the block counts and cached
/// aggregates are a function of `(words, instance)` and `lat_total` is a
/// float running sum, so comparing the bitset alone keeps `Eq` lawful.
impl PartialEq for Solution {
    fn eq(&self, other: &Solution) -> bool {
        self.len == other.len && self.words == other.words
    }
}

impl Eq for Solution {}

impl Solution {
    /// The empty selection over `len` shards.
    pub fn empty(len: usize) -> Solution {
        Solution {
            words: vec![0; len.div_ceil(64)],
            counts: vec![0; len.div_ceil(BLOCK)],
            len,
            selected: 0,
            tx_total: 0,
            lat_total: 0.0,
        }
    }

    /// Deselects every shard in place, keeping the allocation: the state
    /// [`Solution::empty`] builds.
    pub(crate) fn clear(&mut self) {
        self.words.fill(0);
        self.counts.fill(0);
        self.selected = 0;
        self.tx_total = 0;
        self.lat_total = 0.0;
    }

    /// A selection with exactly the given indices set.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range or repeated.
    pub fn from_indices<I>(len: usize, indices: I, instance: &Instance) -> Solution
    where
        I: IntoIterator<Item = usize>,
    {
        let mut sol = Solution::empty(len);
        for i in indices {
            sol.insert(i, instance);
        }
        sol
    }

    /// The full selection (every shard admitted) — the `f_{|I_j|}` state of
    /// Alg. 1 line 25.
    pub fn full(instance: &Instance) -> Solution {
        Solution::from_indices(instance.len(), 0..instance.len(), instance)
    }

    /// Number of shard slots (`|I_j|`).
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` iff no shard is selected.
    pub fn is_empty(&self) -> bool {
        self.selected == 0
    }

    /// The bitset: bit `i % 64` of word `i / 64` is `x_i`, in
    /// `⌈len/64⌉` words, and no bit at or past `len()` is set.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Number of selected shards, `Σ x_i`.
    pub fn selected_count(&self) -> usize {
        self.selected
    }

    /// Total transactions of the selected shards, `Σ x_i·s_i`.
    pub fn tx_total(&self) -> u64 {
        self.tx_total
    }

    /// Total two-phase latency of the selected shards in seconds,
    /// `Σ x_i·l_i` — maintained incrementally so `U(f)` under either
    /// deadline policy reduces to `α·Σs − (k·t − Σl)` without a scan.
    pub fn lat_total(&self) -> f64 {
        self.lat_total
    }

    /// Whether shard `i` is selected.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn contains(&self, i: usize) -> bool {
        assert!(i < self.len, "shard index {i} out of range {}", self.len);
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Selects shard `i`, updating the cached aggregates from `instance`'s
    /// size and latency columns.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range or already selected.
    pub fn insert(&mut self, i: usize, instance: &Instance) {
        assert!(!self.contains(i), "shard {i} already selected");
        self.words[i / 64] |= 1 << (i % 64);
        self.counts[i / BLOCK] += 1;
        self.selected += 1;
        self.tx_total += instance.size(i);
        self.lat_total += instance.columns().lat[i];
    }

    /// Deselects shard `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range or not selected.
    pub fn remove(&mut self, i: usize, instance: &Instance) {
        assert!(self.contains(i), "shard {i} not selected");
        self.words[i / 64] &= !(1 << (i % 64));
        self.counts[i / BLOCK] -= 1;
        self.selected -= 1;
        self.tx_total -= instance.size(i);
        self.lat_total -= instance.columns().lat[i];
        if self.selected == 0 {
            // An empty selection has latency sum exactly zero; resetting
            // here keeps float cancellation error from surviving a drain.
            self.lat_total = 0.0;
        }
    }

    /// Performs the Markov-chain transition of paper Fig. 4: deselect `out`
    /// and select `inc` in one step, keeping the cardinality constant.
    pub fn swap(&mut self, out: usize, inc: usize, instance: &Instance) {
        self.remove(out, instance);
        self.insert(inc, instance);
    }

    /// Iterates over the selected indices in increasing order.
    pub fn iter_selected(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(move |(w, &word)| {
            BitIter { word }
                .map(move |b| w * 64 + b)
                .filter(|&i| i < self.len)
        })
    }

    /// Iterates over the unselected indices in increasing order.
    pub fn iter_unselected(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.len).filter(move |&i| !self.contains(i))
    }

    /// The shard index of the `k`-th selected shard in increasing index
    /// order (0-indexed `k`) — `iter_selected().nth(k)` in `O(|I|/512)`.
    ///
    /// # Panics
    ///
    /// Panics (debug) when `k >= selected_count()`.
    pub fn select_kth_selected(&self, k: usize) -> usize {
        debug_assert!(k < self.selected);
        self.select::<true>(k)
    }

    /// The shard index of the `k`-th *unselected* shard in increasing
    /// index order (0-indexed `k`) — `iter_unselected().nth(k)` in
    /// `O(|I|/512)`.
    ///
    /// # Panics
    ///
    /// Panics (debug) when `k >= len() − selected_count()`.
    pub fn select_kth_unselected(&self, k: usize) -> usize {
        debug_assert!(k < self.len - self.selected);
        self.select::<false>(k)
    }

    /// The one select: the index of the `k`-th (0-indexed) selected shard,
    /// or with `ONES` false the `k`-th unselected one. Walks the block
    /// counts to the block holding it, then that block's words; `ONES` is
    /// resolved at compile time.
    #[inline]
    fn select<const ONES: bool>(&self, mut k: usize) -> usize {
        let len = self.len;
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

    /// A uniformly random selected index, or `None` if empty.
    ///
    /// 64 rejection draws over `0..len` (expected `len/selected` draws —
    /// `O(1)` at the densities the SE sampler works at), then one draw over
    /// `0..selected` resolved by the block walk, so the distribution stays
    /// exactly uniform. At the sparse densities of a 10⁴–10⁵-committee
    /// sweep the rejection loop fails ≈`(1−n/|I|)⁶⁴` of the time, so the
    /// walk *is* the hot path there.
    pub fn random_selected<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<usize> {
        self.sample::<true, R>(rng)
    }

    /// A uniformly random unselected index, or `None` if full.
    ///
    /// Same sampling strategy as [`Solution::random_selected`].
    pub fn random_unselected<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<usize> {
        self.sample::<false, R>(rng)
    }

    /// The one sampler body; `SELECTED` picks the side at compile time.
    #[inline]
    fn sample<const SELECTED: bool, R: Rng + ?Sized>(&self, rng: &mut R) -> Option<usize> {
        let pool = if SELECTED {
            self.selected
        } else {
            self.len - self.selected
        };
        if pool == 0 {
            return None;
        }
        for _ in 0..64 {
            let i = rng.gen_range(0..self.len);
            if self.contains(i) == SELECTED {
                return Some(i);
            }
        }
        let target = rng.gen_range(0..pool);
        Some(self.select::<SELECTED>(target))
    }

    /// The symmetric-difference size `|f ∪ f'| − |f ∩ f'|` between two
    /// solutions — adjacent Markov-chain states have distance exactly 2
    /// (paper §IV-C condition (a)).
    pub fn distance(&self, other: &Solution) -> usize {
        assert_eq!(self.len, other.len, "solutions over different shard sets");
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a ^ b).count_ones() as usize)
            .sum()
    }

    /// Re-derives a solution over a trimmed instance: keeps every selected
    /// shard except `removed_idx`, shifting higher indices down by one.
    /// Used by the §V failure-handling path.
    pub fn project_out(&self, removed_idx: usize, trimmed: &Instance) -> Solution {
        let mut out = Solution::empty(self.len - 1);
        for i in self.iter_selected() {
            if i == removed_idx {
                continue;
            }
            let j = if i > removed_idx { i - 1 } else { i };
            out.insert(j, trimmed);
        }
        out
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

struct BitIter {
    word: u64,
}

impl Iterator for BitIter {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.word == 0 {
            return None;
        }
        let bit = self.word.trailing_zeros() as usize;
        self.word &= self.word - 1;
        Some(bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::InstanceBuilder;
    use mvcom_types::{CommitteeId, ShardInfo, SimTime, TwoPhaseLatency};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn instance(n: usize) -> Instance {
        InstanceBuilder::new()
            .capacity(1_000_000)
            .shards(
                (0..n)
                    .map(|i| {
                        ShardInfo::new(
                            CommitteeId(i as u32),
                            (i as u64 + 1) * 10,
                            TwoPhaseLatency::from_total(SimTime::from_secs(1.0 + i as f64)),
                        )
                    })
                    .collect(),
            )
            .build()
            .unwrap()
    }

    #[test]
    fn empty_solution() {
        let sol = Solution::empty(100);
        assert_eq!(sol.len(), 100);
        assert!(sol.is_empty());
        assert_eq!(sol.selected_count(), 0);
        assert_eq!(sol.tx_total(), 0);
        assert_eq!(sol.iter_selected().count(), 0);
        assert_eq!(sol.iter_unselected().count(), 100);
    }

    #[test]
    fn insert_remove_track_aggregates() {
        let inst = instance(10);
        let mut sol = Solution::empty(10);
        sol.insert(3, &inst); // txs 40
        sol.insert(7, &inst); // txs 80
        assert_eq!(sol.selected_count(), 2);
        assert_eq!(sol.tx_total(), 120);
        assert!(sol.contains(3) && sol.contains(7));
        sol.remove(3, &inst);
        assert_eq!(sol.selected_count(), 1);
        assert_eq!(sol.tx_total(), 80);
        assert!(!sol.contains(3));
    }

    #[test]
    #[should_panic(expected = "already selected")]
    fn double_insert_panics() {
        let inst = instance(4);
        let mut sol = Solution::empty(4);
        sol.insert(1, &inst);
        sol.insert(1, &inst);
    }

    #[test]
    #[should_panic(expected = "not selected")]
    fn remove_unselected_panics() {
        let inst = instance(4);
        let mut sol = Solution::empty(4);
        sol.remove(1, &inst);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        let sol = Solution::empty(4);
        let _ = sol.contains(4);
    }

    #[test]
    fn swap_keeps_cardinality() {
        let inst = instance(6);
        let mut sol = Solution::from_indices(6, [0, 1], &inst);
        sol.swap(1, 5, &inst);
        assert_eq!(sol.selected_count(), 2);
        assert!(sol.contains(5) && !sol.contains(1));
        // txs: 10 + 60 = 70.
        assert_eq!(sol.tx_total(), 70);
    }

    #[test]
    fn iteration_crosses_word_boundaries() {
        let inst = instance(130);
        let picks = [0usize, 63, 64, 100, 129];
        let sol = Solution::from_indices(130, picks, &inst);
        let got: Vec<usize> = sol.iter_selected().collect();
        assert_eq!(got, picks);
        assert_eq!(sol.iter_unselected().count(), 125);
    }

    #[test]
    fn full_selection() {
        let inst = instance(5);
        let sol = Solution::full(&inst);
        assert_eq!(sol.selected_count(), 5);
        assert_eq!(sol.tx_total(), 10 + 20 + 30 + 40 + 50);
    }

    #[test]
    fn random_picks_are_members() {
        let inst = instance(50);
        let sol = Solution::from_indices(50, (0..50).step_by(3), &inst);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for _ in 0..200 {
            let s = sol.random_selected(&mut rng).unwrap();
            assert!(sol.contains(s));
            let u = sol.random_unselected(&mut rng).unwrap();
            assert!(!sol.contains(u));
        }
    }

    #[test]
    fn random_picks_cover_uniformly() {
        let inst = instance(8);
        let sol = Solution::from_indices(8, [1, 4, 6], &inst);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut counts = [0u32; 8];
        for _ in 0..3000 {
            counts[sol.random_selected(&mut rng).unwrap()] += 1;
        }
        for i in [1, 4, 6] {
            assert!(counts[i] > 800, "index {i} drawn {}", counts[i]);
        }
    }

    /// The |I|=8 coverage test above never leaves the rejection loop
    /// (density 3/8 ⇒ the 64 draws miss with probability ≈(5/8)⁶⁴). This
    /// one pins the *fallback* branch — the exact-order-statistic path
    /// that used to be `O(|I|)` and is the hot path at sparse densities:
    /// at 3/4096 the rejection loop fails ≈95% of the time, so ~950 of
    /// 1000 draws below exercise the fallback.
    #[test]
    fn random_picks_cover_uniformly_through_the_fallback() {
        let n = 4096;
        let inst = instance(n);
        let picks = [7usize, 2048, 4095];
        let sol = Solution::from_indices(n, picks, &inst);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut counts = [0u32; 4096];
        for _ in 0..1000 {
            counts[sol.random_selected(&mut rng).unwrap()] += 1;
        }
        for i in picks {
            assert!(counts[i] > 230, "index {i} drawn {}", counts[i]);
        }
        assert_eq!(counts.iter().sum::<u32>(), 1000);
        // The mirror regime: all but a handful selected, so the
        // unselected fallback fires on nearly every draw.
        let unpicked = [9usize, 1024, 4000];
        let sol = Solution::from_indices(n, (0..n).filter(|i| !unpicked.contains(i)), &inst);
        let mut counts = [0u32; 4096];
        for _ in 0..1000 {
            counts[sol.random_unselected(&mut rng).unwrap()] += 1;
        }
        for i in unpicked {
            assert!(counts[i] > 230, "index {i} drawn {}", counts[i]);
        }
        assert_eq!(counts.iter().sum::<u32>(), 1000);
    }

    #[test]
    fn random_on_empty_and_full_return_none() {
        let inst = instance(3);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        assert_eq!(Solution::empty(3).random_selected(&mut rng), None);
        assert_eq!(Solution::full(&inst).random_unselected(&mut rng), None);
    }

    #[test]
    fn distance_is_symmetric_difference() {
        let inst = instance(10);
        let a = Solution::from_indices(10, [0, 1, 2], &inst);
        let b = Solution::from_indices(10, [0, 2, 5], &inst);
        assert_eq!(a.distance(&b), 2);
        assert_eq!(a.distance(&a), 0);
    }

    /// After any random insert/remove/swap sequence, every cached
    /// aggregate (`selected_count`, `tx_total`, `lat_total`) and every
    /// block count (three blocks, the last partial) must match a
    /// from-scratch recount over the bitset.
    #[test]
    fn cached_aggregates_match_recount_after_random_ops() {
        let n = 1100;
        let inst = instance(n);
        for seed in 0..8u64 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut sol = Solution::empty(n);
            for _ in 0..400 {
                match rng.gen_range(0..3) {
                    0 => {
                        if let Some(i) = sol.random_unselected(&mut rng) {
                            sol.insert(i, &inst);
                        }
                    }
                    1 => {
                        if let Some(i) = sol.random_selected(&mut rng) {
                            sol.remove(i, &inst);
                        }
                    }
                    _ => {
                        let (out, inc) = (
                            sol.random_selected(&mut rng),
                            sol.random_unselected(&mut rng),
                        );
                        if let (Some(out), Some(inc)) = (out, inc) {
                            sol.swap(out, inc, &inst);
                        }
                    }
                }
                // From-scratch recounts over the raw bitset.
                let count = sol.iter_selected().count();
                let txs: u64 = sol
                    .iter_selected()
                    .map(|i| inst.shards()[i].tx_count())
                    .sum();
                let lats: f64 = sol
                    .iter_selected()
                    .map(|i| inst.shards()[i].two_phase_latency().as_secs())
                    .sum();
                let mut blocks = vec![0u32; n.div_ceil(BLOCK)];
                sol.iter_selected().for_each(|i| blocks[i / BLOCK] += 1);
                assert_eq!(sol.selected_count(), count);
                assert_eq!(sol.tx_total(), txs);
                assert!(
                    (sol.lat_total() - lats).abs() < 1e-9 * (1.0 + lats.abs()),
                    "lat_total {} vs recount {lats}",
                    sol.lat_total()
                );
                assert_eq!(sol.counts, blocks);
            }
        }
    }

    #[test]
    fn project_out_shifts_indices() {
        let inst = instance(6);
        let sol = Solution::from_indices(6, [0, 2, 5], &inst);
        // Remove index 2 from the instance; selected {0, 5} become {0, 4}.
        let trimmed = InstanceBuilder::new()
            .capacity(1_000_000)
            .shards(
                inst.shards()
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| *i != 2)
                    .map(|(_, s)| *s)
                    .collect(),
            )
            .build()
            .unwrap();
        let projected = sol.project_out(2, &trimmed);
        let got: Vec<usize> = projected.iter_selected().collect();
        assert_eq!(got, vec![0, 4]);
        assert_eq!(projected.len(), 5);
        // TX totals correspond to the surviving shards (10 + 60).
        assert_eq!(projected.tx_total(), 70);
    }
}
