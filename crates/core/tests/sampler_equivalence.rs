//! The SE sampler against its naive reference (DESIGN.md §14).
//!
//! [`EvalCache::random_selected`]/[`EvalCache::random_unselected`] promise
//! a *bit-identical* contract with [`Solution::random_selected`]/
//! [`Solution::random_unselected`]: the same RNG draw sequence (64
//! rejection draws, then one fallback draw) and the same returned index,
//! with only the fallback's bit-by-bit scan replaced by a walk over the
//! cache's per-512-shard block counts and a select within one block.
//! These tests pin that contract three ways: the order statistics
//! themselves (select-kth-one/zero and membership vs `iter_*().nth(k)` on
//! arbitrary bitsets, within one block and across several, at block and
//! word boundaries), the sampler outputs under shared seeds across
//! density regimes (dense, sparse, empty-adjacent, full-adjacent — the
//! sparse regimes are where the fallback actually fires), and whole
//! seeded [`SeEngine`] runs against pinned outcomes of the scan sampler
//! and across thread counts.

#![expect(
    clippy::unwrap_used,
    reason = "helpers outside #[test] fns panic like their callers"
)]
#![expect(clippy::float_cmp, reason = "asserts bit-identical floats")]
use mvcom_core::eval::EvalCache;
use mvcom_core::problem::{Instance, InstanceBuilder};
use mvcom_core::se::{SeConfig, SeEngine};
use mvcom_core::Solution;
use mvcom_types::{CommitteeId, ShardInfo, SimTime, TwoPhaseLatency};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn instance(n: usize) -> Instance {
    InstanceBuilder::new()
        .alpha(1.5)
        .capacity(u64::MAX / 2)
        .n_min(1)
        .shards(
            (0..n)
                .map(|i| {
                    ShardInfo::new(
                        CommitteeId(i as u32),
                        80 + (i as u64 * 13) % 90,
                        TwoPhaseLatency::from_total(SimTime::from_secs(
                            400.0 + ((i as f64 * 71.0) % 500.0),
                        )),
                    )
                })
                .collect(),
        )
        .build()
        .unwrap()
}

/// An arbitrary bitset: a length and a subset of indices.
fn arb_bitset() -> impl Strategy<Value = (usize, Vec<usize>)> {
    (2usize..300).prop_flat_map(|len| {
        (
            Just(len),
            proptest::collection::btree_set(0..len, 0..len.min(64)),
        )
            .prop_map(|(len, set)| (len, set.into_iter().collect()))
    })
}

/// An arbitrary bitset spanning up to five 512-shard blocks, the last one
/// usually partial, at any density from empty to about half full.
fn arb_multi_block_bitset() -> impl Strategy<Value = (usize, Vec<usize>)> {
    (2usize..2100).prop_flat_map(|len| {
        (
            Just(len),
            proptest::collection::btree_set(0..len, 0..(len / 2).max(1)),
        )
            .prop_map(|(len, set)| (len, set.into_iter().collect()))
    })
}

proptest! {
    /// Select-kth-one agrees with `iter_selected().nth(k)` and
    /// select-kth-zero with `iter_unselected().nth(k)` for every valid
    /// `k` of an arbitrary bitset.
    #[test]
    fn select_kth_matches_nth((len, picks) in arb_bitset()) {
        let inst = instance(len);
        let sol = Solution::from_indices(len, picks.iter().copied(), &inst);
        let cache = EvalCache::new(&inst, &sol);
        for k in 0..sol.selected_count() {
            prop_assert_eq!(
                cache.select_kth_selected(k),
                sol.iter_selected().nth(k).unwrap()
            );
        }
        for k in 0..(len - sol.selected_count()) {
            prop_assert_eq!(
                cache.select_kth_unselected(k),
                sol.iter_unselected().nth(k).unwrap()
            );
        }
    }

    /// The select trees stay consistent through incremental mutation, not
    /// just construction: after random swaps, select-kth still matches.
    #[test]
    fn select_kth_matches_nth_after_mutations(
        (len, picks) in arb_bitset(),
        seed in 0u64..32,
    ) {
        let inst = instance(len);
        let mut sol = Solution::from_indices(len, picks.iter().copied(), &inst);
        let mut cache = EvalCache::new(&inst, &sol);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        for _ in 0..40 {
            let (out, inc) = (sol.random_selected(&mut rng), sol.random_unselected(&mut rng));
            if let (Some(out), Some(inc)) = (out, inc) {
                sol.swap(out, inc, &inst);
                cache.swap(out, inc);
            }
            for k in 0..sol.selected_count() {
                prop_assert_eq!(
                    cache.select_kth_selected(k),
                    sol.iter_selected().nth(k).unwrap()
                );
            }
            for k in 0..(len - sol.selected_count()) {
                prop_assert_eq!(
                    cache.select_kth_unselected(k),
                    sol.iter_unselected().nth(k).unwrap()
                );
            }
        }
    }

    /// The block walk through inserts, removes and swaps across block
    /// boundaries: after every mutation, select-kth-one/zero equal
    /// `iter_*().nth(k)` (collected once per state) for every valid `k`,
    /// and `contains` equals the solution's membership for every shard.
    #[test]
    fn select_kth_and_contains_match_nth_across_blocks_after_mutations(
        (len, picks) in arb_multi_block_bitset(),
        seed in 0u64..32,
    ) {
        let inst = instance(len);
        let mut sol = Solution::from_indices(len, picks.iter().copied(), &inst);
        let mut cache = EvalCache::new(&inst, &sol);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        for _ in 0..24 {
            match rng.gen_range(0..3) {
                0 => {
                    if let Some(i) = sol.random_unselected(&mut rng) {
                        sol.insert(i, &inst);
                        cache.insert(i);
                    }
                }
                1 => {
                    if let Some(i) = sol.random_selected(&mut rng) {
                        sol.remove(i, &inst);
                        cache.remove(i);
                    }
                }
                _ => {
                    let (out, inc) = (sol.random_selected(&mut rng), sol.random_unselected(&mut rng));
                    if let (Some(out), Some(inc)) = (out, inc) {
                        sol.swap(out, inc, &inst);
                        cache.swap(out, inc);
                    }
                }
            }
            let selected: Vec<usize> = sol.iter_selected().collect();
            let unselected: Vec<usize> = sol.iter_unselected().collect();
            for (k, &i) in selected.iter().enumerate() {
                prop_assert_eq!(cache.select_kth_selected(k), i);
            }
            for (k, &i) in unselected.iter().enumerate() {
                prop_assert_eq!(cache.select_kth_unselected(k), i);
            }
            for i in 0..len {
                prop_assert_eq!(cache.contains(i), sol.contains(i));
            }
        }
    }
}

/// The select's boundary shapes, which the arbitrary bitsets above reach
/// only by luck (never all selected): lengths 1, 2ᵏ and 2ᵏ±1 — a last
/// word or a last 512-shard block that is full, one short, or holds one
/// shard — and 1535/1536/1537 around a three-block edge, against none,
/// all, one end, the other end and every other shard selected.
#[test]
fn select_kth_matches_nth_at_power_of_two_boundaries_and_full_or_empty_trees() {
    let mut lens = vec![1usize];
    for k in 1..=10 {
        lens.extend([(1 << k) - 1, 1 << k, (1 << k) + 1]);
    }
    lens.extend([1535, 1536, 1537]);
    for len in lens {
        let inst = instance(len);
        let shapes: [Vec<usize>; 5] = [
            vec![],
            (0..len).collect(),
            vec![0],
            vec![len - 1],
            (0..len).step_by(2).collect(),
        ];
        for picks in shapes {
            let sol = Solution::from_indices(len, picks.iter().copied(), &inst);
            let cache = EvalCache::new(&inst, &sol);
            let selected: Vec<usize> = (0..picks.len())
                .map(|k| cache.select_kth_selected(k))
                .collect();
            assert_eq!(selected, picks, "len {len}");
            let unselected: Vec<usize> = (0..len - picks.len())
                .map(|k| cache.select_kth_unselected(k))
                .collect();
            assert_eq!(
                unselected,
                sol.iter_unselected().collect::<Vec<_>>(),
                "len {len}, {} selected",
                picks.len()
            );
        }
    }
}

/// Drives both samplers from identically seeded RNGs over one solution
/// shape and asserts index-sequence equality *and* RNG-state equality
/// (the draw counts must match too, or downstream draws would diverge).
fn assert_samplers_agree(len: usize, picks: &[usize], seed: u64, draws: usize) {
    let inst = instance(len);
    let sol = Solution::from_indices(len, picks.iter().copied(), &inst);
    let cache = EvalCache::new(&inst, &sol);
    let mut slow_rng = ChaCha8Rng::seed_from_u64(seed);
    let mut fast_rng = ChaCha8Rng::seed_from_u64(seed);
    for step in 0..draws {
        assert_eq!(
            sol.random_selected(&mut slow_rng),
            cache.random_selected(&sol, &mut fast_rng),
            "selected draw diverged at step {step} (len={len}, |sel|={})",
            sol.selected_count()
        );
        assert_eq!(
            sol.random_unselected(&mut slow_rng),
            cache.random_unselected(&sol, &mut fast_rng),
            "unselected draw diverged at step {step} (len={len}, |sel|={})",
            sol.selected_count()
        );
        // Same number of RNG draws consumed: the streams stay in lockstep.
        assert_eq!(
            slow_rng.gen::<u64>(),
            fast_rng.gen::<u64>(),
            "RNG streams out of lockstep after step {step}"
        );
    }
}

#[test]
fn samplers_agree_dense() {
    // Half density: the 64-draw rejection loop almost always succeeds.
    let picks: Vec<usize> = (0..64).step_by(2).collect();
    for seed in 0..4 {
        assert_samplers_agree(64, &picks, seed, 200);
    }
}

#[test]
fn samplers_agree_sparse() {
    // 3 of 4096 (≈0.07% density): `random_selected`'s rejection loop
    // fails with probability ≈(1−3/4096)⁶⁴ ≈ 95% — the fallback *is* the
    // hot path here, exactly the regime the block select exists for.
    for seed in 0..4 {
        assert_samplers_agree(4096, &[7, 2048, 4095], seed, 200);
    }
}

#[test]
fn samplers_agree_sparse_across_blocks() {
    // 5 of 1537 (≈0.3% density) over three full 512-shard blocks and a
    // one-shard fourth: `random_selected`'s rejection loop fails ≈81% of
    // the time, and the fallback walks block counts to every pick,
    // including the last block's lone shard.
    for seed in 0..4 {
        assert_samplers_agree(1537, &[3, 511, 512, 1100, 1536], seed, 200);
    }
}

#[test]
fn samplers_agree_empty_adjacent() {
    // A single selected shard: the sparsest reachable selected set.
    for seed in 0..4 {
        assert_samplers_agree(2048, &[1337], seed, 200);
    }
}

#[test]
fn samplers_agree_full_adjacent() {
    // All but one selected: `random_unselected`'s fallback is hot.
    let picks: Vec<usize> = (0..2048).filter(|&i| i != 600).collect();
    for seed in 0..4 {
        assert_samplers_agree(2048, &picks, seed, 200);
    }
}

#[test]
fn samplers_agree_empty_and_full() {
    let inst = instance(8);
    let mut rng = ChaCha8Rng::seed_from_u64(0);
    let empty = Solution::empty(8);
    let cache = EvalCache::new(&inst, &empty);
    assert_eq!(cache.random_selected(&empty, &mut rng), None);
    let full = Solution::full(&inst);
    let cache = EvalCache::new(&inst, &full);
    assert_eq!(cache.random_unselected(&full, &mut rng), None);
}

fn engine_instance() -> Instance {
    InstanceBuilder::new()
        .alpha(1.5)
        .capacity(40 * 120)
        .n_min(13)
        .shards(
            (0..40)
                .map(|i| {
                    ShardInfo::new(
                        CommitteeId(i as u32),
                        80 + (i as u64 * 13) % 90,
                        TwoPhaseLatency::from_total(SimTime::from_secs(
                            400.0 + ((i as f64 * 71.0) % 500.0),
                        )),
                    )
                })
                .collect(),
        )
        .build()
        .unwrap()
}

/// One pinned [`SeEngine`] outcome on [`engine_instance`] at 300 iterations.
struct Golden {
    seed: u64,
    best_utility_bits: u64,
    iterations: u64,
    /// `(iteration, vtime bits, current_best bits, best_so_far bits)` of
    /// the last trajectory point.
    last_point: (u64, u64, u64, u64),
}

/// Both seeds land on the same best selection; the trajectories differ.
const GOLDEN_SELECTED: [usize; 15] = [5, 6, 7, 12, 13, 14, 19, 20, 21, 26, 27, 28, 33, 34, 35];

/// Produced at the parent of the commit that deleted the sampler knob
/// (10040b4), by the *deleted* rejection-then-scan sampler arm — chains
/// drawing through `Solution::random_*` with its `O(|I|)` scan fallback.
/// The surviving `EvalCache::random_*` path must reproduce them bit for
/// bit; this replaces the old run-both-and-compare test.
const GOLDEN: [Golden; 2] = [
    Golden {
        seed: 3,
        best_utility_bits: 0x409b_a800_0000_0000,
        iterations: 300,
        last_point: (
            300,
            0x2f5c_aae0_4113_ac99,
            0x409b_6c00_0000_0000,
            0x409b_a800_0000_0000,
        ),
    },
    Golden {
        seed: 17,
        best_utility_bits: 0x409b_a800_0000_0000,
        iterations: 300,
        last_point: (
            300,
            0x2f64_8e9f_681d_4729,
            0x409b_a800_0000_0000,
            0x409b_a800_0000_0000,
        ),
    },
];

#[test]
fn engine_output_matches_the_scan_sampler_goldens() {
    let inst = engine_instance();
    for golden in &GOLDEN {
        let cfg = SeConfig::paper(golden.seed).with_max_iterations(300);
        let outcome = SeEngine::new(&inst, cfg).unwrap().run();
        let seed = golden.seed;
        assert_eq!(
            outcome.best_utility.to_bits(),
            golden.best_utility_bits,
            "seed {seed}"
        );
        assert_eq!(
            outcome.best_solution.iter_selected().collect::<Vec<_>>(),
            GOLDEN_SELECTED,
            "seed {seed}"
        );
        assert_eq!(outcome.iterations, golden.iterations, "seed {seed}");
        let last = outcome.trajectory.last().unwrap();
        assert_eq!(
            (
                last.iteration,
                last.vtime.to_bits(),
                last.current_best.to_bits(),
                last.best_so_far.to_bits(),
            ),
            golden.last_point,
            "seed {seed}"
        );
    }
}

#[test]
fn engine_output_is_identical_across_thread_counts() {
    let inst = engine_instance();
    for seed in [5, 23] {
        let serial = SeEngine::new(&inst, SeConfig::paper(seed).with_max_iterations(300))
            .unwrap()
            .run();
        for threads in [2, 4, 16] {
            let fanned = SeEngine::new(&inst, SeConfig::paper(seed).with_max_iterations(300))
                .unwrap()
                .with_threads(threads)
                .run();
            assert_eq!(
                serial.best_solution, fanned.best_solution,
                "{threads} threads"
            );
            assert_eq!(
                serial.best_utility, fanned.best_utility,
                "{threads} threads"
            );
            assert_eq!(serial.trajectory, fanned.trajectory, "{threads} threads");
        }
    }
}
