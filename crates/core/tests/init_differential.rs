//! Algorithm 2's initialisation, and every reader of the instance's shard
//! columns, against test-local copies of the record-based paths they
//! replaced.
//!
//! [`Chain::init_on`] tests each shuffled candidate against `Ĉ` on the
//! smaller side of the split (`Σ_all − Σ_tail` when `2n > |I|`) and builds
//! the fitting candidate from the instance's columns, all in a buffer the
//! caller reuses. [`reference_init`] below is the path before that: a fresh
//! index vector, `tx_total` of the picked side, the aggregates summed over
//! the shard records and the utility priced from them. Per chain, at every
//! cardinality from `N_min` to `|I|` under both deadline policies, the two
//! must agree on the outcome, the bitset words, the bits of `lat_total` and
//! of the utility, and the next `u64` of the RNG — so the stream
//! downstream of every init is the same stream.
//!
//! [`records`] holds each record-based formula the columns replaced;
//! `column_reads_match_the_record_formulas_bit_for_bit` holds every
//! column-based `Instance` and `Solution` read to them, with tied sizes and
//! tied latencies, under both deadline policies.

#![expect(
    clippy::unwrap_used,
    reason = "helpers outside #[test] fns panic like their callers"
)]
use mvcom_core::problem::{DdlPolicy, Instance, InstanceBuilder};
use mvcom_core::se::chain::Chain;
use mvcom_core::Solution;
use mvcom_types::{CommitteeId, ShardInfo, SimTime, TwoPhaseLatency};
use rand::seq::SliceRandom;
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// The record-based formulas the shard columns replaced, read straight off
/// `Instance::shards()` as the library read them before.
mod records {
    use mvcom_core::problem::{DdlPolicy, Instance};
    use mvcom_core::Solution;

    fn lat(instance: &Instance, i: usize) -> f64 {
        instance.shards()[i].two_phase_latency().as_secs()
    }

    fn size(instance: &Instance, i: usize) -> u64 {
        instance.shards()[i].tx_count()
    }

    pub fn age(instance: &Instance, i: usize) -> f64 {
        (instance.ddl().as_secs() - lat(instance, i)).max(0.0)
    }

    pub fn marginal_utility(instance: &Instance, i: usize) -> f64 {
        instance.alpha() * size(instance, i) as f64 - age(instance, i)
    }

    pub fn selected_ddl(instance: &Instance, solution: &Solution) -> f64 {
        solution
            .iter_selected()
            .map(|i| lat(instance, i))
            .fold(0.0, f64::max)
    }

    pub fn utility(instance: &Instance, solution: &Solution) -> f64 {
        match instance.ddl_policy() {
            DdlPolicy::MaxArrival => solution
                .iter_selected()
                .map(|i| marginal_utility(instance, i))
                .sum(),
            DdlPolicy::MaxSelected => {
                let t = selected_ddl(instance, solution);
                solution
                    .iter_selected()
                    .map(|i| instance.alpha() * size(instance, i) as f64 - (t - lat(instance, i)))
                    .sum()
            }
        }
    }

    /// The deadline `cumulative_age` and `valuable_degree` price with.
    fn deadline(instance: &Instance, solution: &Solution) -> f64 {
        match instance.ddl_policy() {
            DdlPolicy::MaxArrival => instance.ddl().as_secs(),
            DdlPolicy::MaxSelected => selected_ddl(instance, solution),
        }
    }

    pub fn cumulative_age(instance: &Instance, solution: &Solution) -> f64 {
        let t = deadline(instance, solution);
        solution
            .iter_selected()
            .map(|i| (t - lat(instance, i)).max(0.0))
            .sum()
    }

    pub fn valuable_degree(instance: &Instance, solution: &Solution) -> f64 {
        let t = deadline(instance, solution);
        solution
            .iter_selected()
            .map(|i| size(instance, i) as f64 / (t - lat(instance, i)).max(1.0))
            .sum()
    }

    pub fn total_txs(instance: &Instance) -> u64 {
        instance.shards().iter().map(|s| s.tx_count()).sum()
    }

    /// The sort-and-sum `max_feasible_cardinality` ran at every build.
    pub fn max_feasible_cardinality(instance: &Instance) -> usize {
        let mut sizes: Vec<u64> = instance.shards().iter().map(|s| s.tx_count()).collect();
        sizes.sort_unstable();
        let mut total = 0u64;
        let mut n = 0usize;
        for s in sizes {
            total = total.saturating_add(s);
            if total > instance.capacity() {
                break;
            }
            n += 1;
        }
        n
    }

    /// SA's own initial order: a stable sort of `0..|I|` by size.
    pub fn by_size(instance: &Instance) -> Vec<usize> {
        let mut by_size: Vec<usize> = (0..instance.len()).collect();
        by_size.sort_by_key(|&i| size(instance, i));
        by_size
    }

    /// `Solution::from_indices`'s `(tx_total, lat_total)`: the records'
    /// sizes and latencies added in insertion order.
    pub fn totals(instance: &Instance, indices: &[usize]) -> (u64, f64) {
        indices.iter().fold((0, 0.0), |(tx, l), &i| {
            (tx + size(instance, i), l + lat(instance, i))
        })
    }
}

/// How an init ended in [`reference_init`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Path {
    Shuffled,
    Fallback,
    Infeasible,
}

/// Algorithm 2 as it was written before the smaller-side test: 64
/// shuffles of a fresh `0..|I|`, each tested by the sum of its first `n`
/// record sizes, then the `n` smallest shards under a stable sort by size.
/// Returns the picked indices in insertion order.
fn reference_init(
    instance: &Instance,
    n: usize,
    rng: &mut ChaCha8Rng,
) -> (Path, Option<Vec<usize>>) {
    let len = instance.len();
    let size = |i: usize| instance.shards()[i].tx_count();
    let mut indices: Vec<usize> = (0..len).collect();
    for _ in 0..64 {
        indices.shuffle(rng);
        let picked = &indices[..n];
        if picked.iter().map(|&i| size(i)).sum::<u64>() <= instance.capacity() {
            return (Path::Shuffled, Some(picked.to_vec()));
        }
    }
    let mut picked = records::by_size(instance);
    picked.truncate(n);
    if records::totals(instance, &picked).0 <= instance.capacity() {
        (Path::Fallback, Some(picked))
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
    // One buffer across the whole family, as `build_replicas` keeps it;
    // it starts dirty on purpose.
    let mut indices = vec![7usize; 3];
    let mut ours = ChaCha8Rng::seed_from_u64(seed);
    let mut theirs = ChaCha8Rng::seed_from_u64(seed);
    let mut paths = [0; 3];
    for n in instance.n_min().max(1)..=instance.len() {
        let chain = Chain::init_on(instance, n, &mut indices, &mut ours);
        let (path, reference) = reference_init(instance, n, &mut theirs);
        paths[path as usize] += 1;
        let what = format!(
            "{:?} |I|={} n={n} ({path:?})",
            instance.ddl_policy(),
            instance.len()
        );
        match (chain, reference) {
            (Ok(chain), Some(picked)) => {
                let solution = chain.solution();
                let reference =
                    Solution::from_indices(instance.len(), picked.iter().copied(), instance);
                let (tx_total, lat_total) = records::totals(instance, &picked);
                assert_eq!(solution.words(), reference.words(), "{what}: selection");
                assert_eq!(solution.selected_count(), n, "{what}");
                assert_eq!(solution.tx_total(), tx_total, "{what}");
                assert_eq!(
                    solution.lat_total().to_bits(),
                    lat_total.to_bits(),
                    "{what}: lat_total"
                );
                assert_eq!(
                    chain.utility().to_bits(),
                    records::utility(instance, &reference).to_bits(),
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
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let before = rng.clone().next_u64();
    for n in [0, instance.len() + 1] {
        assert!(Chain::init_on(&instance, n, &mut Vec::new(), &mut rng).is_err());
    }
    assert_eq!(rng.next_u64(), before);
}

/// An epoch whose sizes tie on a grid of 8 values and whose latencies tie
/// on a grid of 12, the capacity a `fill` fraction of the total.
fn tied(len: usize, fill: f64, policy: DdlPolicy, seed: u64) -> Instance {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let shards: Vec<ShardInfo> = (0..len)
        .map(|i| {
            ShardInfo::new(
                CommitteeId(i as u32),
                100 * rng.gen_range(1..=8),
                TwoPhaseLatency::from_total(SimTime::from_secs(
                    0.1 + 7.3 * f64::from(rng.gen_range(0..12)),
                )),
            )
        })
        .collect();
    let total: u64 = shards.iter().map(ShardInfo::tx_count).sum();
    InstanceBuilder::new()
        .alpha(1.7)
        .capacity((total as f64 * fill) as u64)
        .ddl_policy(policy)
        .shards(shards)
        .build()
        .unwrap()
}

#[test]
fn column_reads_match_the_record_formulas_bit_for_bit() {
    let mut checked = 0;
    for policy in [DdlPolicy::MaxArrival, DdlPolicy::MaxSelected] {
        let epochs = [
            tied(90, 0.4, policy, 1),
            tied(300, 0.85, policy, 2),
            tied(7, 0.3, policy, 3),
            generated(160, 0.97, policy, 4),
            tight(policy),
        ];
        for (e, instance) in epochs.iter().enumerate() {
            let len = instance.len();
            let what = format!("{policy:?} epoch {e}");
            for i in 0..len {
                assert_eq!(instance.size(i), instance.shards()[i].tx_count(), "{what}");
                assert_eq!(
                    instance.age(i).to_bits(),
                    records::age(instance, i).to_bits(),
                    "{what}: age({i})"
                );
                assert_eq!(
                    instance.marginal_utility(i).to_bits(),
                    records::marginal_utility(instance, i).to_bits(),
                    "{what}: marginal_utility({i})"
                );
            }
            assert_eq!(instance.total_txs(), records::total_txs(instance), "{what}");
            assert_eq!(
                instance.max_feasible_cardinality(),
                records::max_feasible_cardinality(instance),
                "{what}"
            );
            assert_eq!(
                instance.smallest(len).collect::<Vec<_>>(),
                records::by_size(instance),
                "{what}: SA's initial order"
            );

            let mut rng = ChaCha8Rng::seed_from_u64(e as u64);
            for density in [0.0, 0.05, 0.5, 0.95, 1.0] {
                // Inserted in shuffled order, as Algorithm 2 builds them.
                let mut picked: Vec<usize> = (0..len).filter(|_| rng.gen_bool(density)).collect();
                picked.shuffle(&mut rng);
                let mut solution = Solution::from_indices(len, picked.iter().copied(), instance);
                let (tx_total, lat_total) = records::totals(instance, &picked);
                assert_eq!(solution.tx_total(), tx_total, "{what}");
                assert_eq!(
                    solution.lat_total().to_bits(),
                    lat_total.to_bits(),
                    "{what}"
                );
                let pairs: [(f64, f64); 4] = [
                    (
                        instance.utility(&solution),
                        records::utility(instance, &solution),
                    ),
                    (
                        instance.selected_ddl(&solution),
                        records::selected_ddl(instance, &solution),
                    ),
                    (
                        instance.cumulative_age(&solution),
                        records::cumulative_age(instance, &solution),
                    ),
                    (
                        instance.valuable_degree(&solution),
                        records::valuable_degree(instance, &solution),
                    ),
                ];
                for (k, (ours, theirs)) in pairs.into_iter().enumerate() {
                    assert_eq!(ours.to_bits(), theirs.to_bits(), "{what} d={density}: #{k}");
                }
                // Removals and swaps keep the running sums on the records'
                // values too.
                let (mut tx, mut lat) = (tx_total, lat_total);
                for _ in 0..20 {
                    let (Some(out), Some(inc)) = (
                        solution.random_selected(&mut rng),
                        solution.random_unselected(&mut rng),
                    ) else {
                        break;
                    };
                    solution.swap(out, inc, instance);
                    let record = |i: usize| &instance.shards()[i];
                    tx = tx - record(out).tx_count() + record(inc).tx_count();
                    lat -= record(out).two_phase_latency().as_secs();
                    lat += record(inc).two_phase_latency().as_secs();
                    assert_eq!(solution.tx_total(), tx, "{what}");
                    assert_eq!(solution.lat_total().to_bits(), lat.to_bits(), "{what}");
                }
                checked += 1;
            }
        }
    }
    assert_eq!(checked, 50);
}
