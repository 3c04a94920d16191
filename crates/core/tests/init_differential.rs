//! Algorithm 2's initialisation against a test-local copy of the path it
//! replaced.
//!
//! [`Chain::init_on`] tests each shuffled candidate against `Ĉ` on the
//! smaller side of the split (`Σ_all − Σ_tail` when `2n > |I|`), builds
//! the fitting candidate from the dense columns and prices a MaxArrival
//! utility off the `marginal` column, all in a buffer the caller reuses.
//! [`reference_init`] below is the path before that: a fresh index vector,
//! `tx_total` of the picked side, `Solution::from_indices` over the shard
//! records and `Instance::utility`. Per chain, at every cardinality from
//! `N_min` to `|I|` under both deadline policies, the two must agree on the
//! outcome, the bitset words, the bits of `lat_total` and of the utility,
//! and the next `u64` of the RNG — so the stream downstream of every init
//! is the same stream.

#![expect(
    clippy::unwrap_used,
    reason = "helpers outside #[test] fns panic like their callers"
)]
use std::sync::Arc;

use mvcom_core::eval::ShardColumns;
use mvcom_core::problem::{DdlPolicy, Instance, InstanceBuilder};
use mvcom_core::se::chain::Chain;
use mvcom_core::Solution;
use mvcom_types::{CommitteeId, ShardInfo, SimTime, TwoPhaseLatency};
use rand::seq::SliceRandom;
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// How an init ended in [`reference_init`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Path {
    Shuffled,
    Fallback,
    Infeasible,
}

/// Algorithm 2 as it was written before the smaller-side test: 64
/// shuffles of a fresh `0..|I|`, each tested by the sum of its first `n`
/// sizes, then the `n` smallest shards under a stable sort by size.
fn reference_init(instance: &Instance, n: usize, rng: &mut ChaCha8Rng) -> (Path, Option<Solution>) {
    let len = instance.len();
    let size = |i: usize| instance.shards()[i].tx_count();
    let mut indices: Vec<usize> = (0..len).collect();
    for _ in 0..64 {
        indices.shuffle(rng);
        let picked = &indices[..n];
        if picked.iter().map(|&i| size(i)).sum::<u64>() <= instance.capacity() {
            let solution = Solution::from_indices(len, picked.iter().copied(), instance);
            return (Path::Shuffled, Some(solution));
        }
    }
    let mut by_size: Vec<usize> = (0..len).collect();
    by_size.sort_by_key(|&i| size(i));
    let solution = Solution::from_indices(len, by_size[..n].iter().copied(), instance);
    if instance.within_capacity(&solution) {
        (Path::Fallback, Some(solution))
    } else {
        (Path::Infeasible, None)
    }
}

/// A generated epoch: sizes and latencies drawn from `seed`, the capacity
/// a `fill` fraction of the total, `N_min` a tenth of the shards.
fn generated(len: usize, fill: f64, policy: DdlPolicy, seed: u64) -> Instance {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let shards: Vec<ShardInfo> = (0..len)
        .map(|i| {
            ShardInfo::new(
                CommitteeId(i as u32),
                rng.gen_range(1..2_000),
                TwoPhaseLatency::from_total(SimTime::from_secs(rng.gen_range(1.0..900.0))),
            )
        })
        .collect();
    let total: u64 = shards.iter().map(ShardInfo::tx_count).sum();
    InstanceBuilder::new()
        .alpha(1.5)
        .capacity((total as f64 * fill) as u64)
        .n_min(len / 10)
        .ddl_policy(policy)
        .shards(shards)
        .build()
        .unwrap()
}

/// The capacity admits exactly the even-indexed small shards, so at the
/// top cardinalities every one of the 64 shuffles fails and the fallback
/// decides.
fn tight(policy: DdlPolicy) -> Instance {
    InstanceBuilder::new()
        .alpha(2.0)
        .capacity(200)
        .ddl_policy(policy)
        .shards(
            (0..40)
                .map(|i| {
                    ShardInfo::new(
                        CommitteeId(i),
                        if i % 2 == 0 { 10 } else { 500 },
                        TwoPhaseLatency::from_total(SimTime::from_secs(1.0 + f64::from(i))),
                    )
                })
                .collect(),
        )
        .build()
        .unwrap()
}

/// Runs both inits at every cardinality from `N_min` (at least 1) to
/// `|I|` on one RNG stream each, comparing chain by chain, and returns how
/// many ended on each path.
fn compare(instance: &Instance, seed: u64) -> [usize; 3] {
    let columns = Arc::new(ShardColumns::new(instance));
    // One buffer across the whole family, as `build_replicas` keeps it;
    // it starts dirty on purpose.
    let mut indices = vec![7usize; 3];
    let mut ours = ChaCha8Rng::seed_from_u64(seed);
    let mut theirs = ChaCha8Rng::seed_from_u64(seed);
    let mut paths = [0; 3];
    for n in instance.n_min().max(1)..=instance.len() {
        let chain = Chain::init_on(&columns, instance, n, &mut indices, &mut ours);
        let (path, reference) = reference_init(instance, n, &mut theirs);
        paths[path as usize] += 1;
        let what = format!(
            "{:?} |I|={} n={n} ({path:?})",
            instance.ddl_policy(),
            instance.len()
        );
        match (chain, reference) {
            (Ok(chain), Some(reference)) => {
                let solution = chain.solution();
                assert_eq!(solution.words(), reference.words(), "{what}: selection");
                assert_eq!(solution.selected_count(), n, "{what}");
                assert_eq!(solution.tx_total(), reference.tx_total(), "{what}");
                assert_eq!(
                    solution.lat_total().to_bits(),
                    reference.lat_total().to_bits(),
                    "{what}: lat_total"
                );
                assert_eq!(
                    chain.utility().to_bits(),
                    instance.utility(&reference).to_bits(),
                    "{what}: utility"
                );
            }
            (Err(_), None) => {}
            (chain, reference) => panic!(
                "{what}: init_on {} but the reference {}",
                if chain.is_ok() {
                    "built a chain"
                } else {
                    "refused"
                },
                if reference.is_some() {
                    "built one"
                } else {
                    "refused"
                },
            ),
        }
        assert_eq!(ours.next_u64(), theirs.next_u64(), "{what}: RNG position");
    }
    paths
}

#[test]
fn init_on_matches_the_reference_path_chain_for_chain() {
    let mut totals = [0; 3];
    let mut below_half = 0;
    for policy in [DdlPolicy::MaxArrival, DdlPolicy::MaxSelected] {
        for (len, fill, seed) in [(40, 0.5, 1), (97, 0.9, 2), (160, 0.97, 3), (64, 0.2, 4)] {
            let instance = generated(len, fill, policy, seed);
            below_half += (instance.n_min().max(1)..len / 2).len();
            let paths = compare(&instance, seed ^ 0x5eed);
            totals.iter_mut().zip(paths).for_each(|(t, p)| *t += p);
        }
        let paths = compare(&tight(policy), 11);
        assert!(paths[Path::Fallback as usize] > 0, "{paths:?}");
        totals.iter_mut().zip(paths).for_each(|(t, p)| *t += p);
    }
    // Both sides of the split were summed, and every path was taken.
    assert!(below_half > 100, "{below_half}");
    assert!(totals.iter().all(|&t| t > 0), "{totals:?}");
}

#[test]
fn a_cardinality_outside_the_epoch_is_refused_without_a_draw() {
    let instance = tight(DdlPolicy::MaxArrival);
    let columns = Arc::new(ShardColumns::new(&instance));
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let before = rng.clone().next_u64();
    for n in [0, instance.len() + 1] {
        assert!(Chain::init_on(&columns, &instance, n, &mut Vec::new(), &mut rng).is_err());
    }
    assert_eq!(rng.next_u64(), before);
}
