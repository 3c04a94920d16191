//! Model-based testing: the bitset `Solution` against a reference
//! `HashSet` implementation under random operation sequences.

#![expect(
    clippy::unwrap_used,
    reason = "helpers outside #[test] fns panic like their callers"
)]
#![expect(
    clippy::disallowed_types,
    reason = "a hash set as reference model or uniqueness count"
)]
use std::collections::HashSet;

use mvcom_core::problem::{Instance, InstanceBuilder};
use mvcom_core::Solution;
use mvcom_types::{CommitteeId, ShardInfo, SimTime, TwoPhaseLatency};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Insert(usize),
    Remove(usize),
    Swap(usize, usize),
}

fn arb_ops(n: usize) -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            (0..n).prop_map(Op::Insert),
            (0..n).prop_map(Op::Remove),
            ((0..n), (0..n)).prop_map(|(a, b)| Op::Swap(a, b)),
        ],
        0..120,
    )
}

fn instance(n: usize) -> Instance {
    InstanceBuilder::new()
        .capacity(u64::MAX / 2)
        .shards(
            (0..n)
                .map(|i| {
                    ShardInfo::new(
                        CommitteeId(i as u32),
                        (i as u64 + 1) * 3,
                        TwoPhaseLatency::from_total(SimTime::from_secs(1.0 + i as f64)),
                    )
                })
                .collect(),
        )
        .build()
        .unwrap()
}

proptest! {
    #[test]
    fn solution_agrees_with_hashset_model(ops in arb_ops(150)) {
        let n = 150;
        let inst = instance(n);
        let mut solution = Solution::empty(n);
        let mut model: HashSet<usize> = HashSet::new();
        for op in ops {
            match op {
                Op::Insert(i) => {
                    if !model.contains(&i) {
                        model.insert(i);
                        solution.insert(i, &inst);
                    }
                }
                Op::Remove(i) => {
                    if model.contains(&i) {
                        model.remove(&i);
                        solution.remove(i, &inst);
                    }
                }
                Op::Swap(out, inc) => {
                    if model.contains(&out) && !model.contains(&inc) {
                        model.remove(&out);
                        model.insert(inc);
                        solution.swap(out, inc, &inst);
                    }
                }
            }
            // Invariants after every operation.
            prop_assert_eq!(solution.selected_count(), model.len());
            let expected_txs: u64 = model.iter().map(|&i| inst.shards()[i].tx_count()).sum();
            prop_assert_eq!(solution.tx_total(), expected_txs);
        }
        // Full-membership agreement at the end.
        let got: HashSet<usize> = solution.iter_selected().collect();
        prop_assert_eq!(got, model.clone());
        let complement: HashSet<usize> = solution.iter_unselected().collect();
        prop_assert_eq!(complement.len(), n - model.len());
        prop_assert!(complement.is_disjoint(&model));
    }

    #[test]
    fn distance_is_a_metric_sample(
        a in proptest::collection::btree_set(0usize..64, 0..32),
        b in proptest::collection::btree_set(0usize..64, 0..32),
        c in proptest::collection::btree_set(0usize..64, 0..32),
    ) {
        let inst = instance(64);
        let sa = Solution::from_indices(64, a.iter().copied(), &inst);
        let sb = Solution::from_indices(64, b.iter().copied(), &inst);
        let sc = Solution::from_indices(64, c.iter().copied(), &inst);
        // Identity, symmetry, triangle inequality.
        prop_assert_eq!(sa.distance(&sa), 0);
        prop_assert_eq!(sa.distance(&sb), sb.distance(&sa));
        prop_assert!(sa.distance(&sc) <= sa.distance(&sb) + sb.distance(&sc));
        // Agreement with the symmetric difference of the models.
        let sym: usize = a.symmetric_difference(&b).count();
        prop_assert_eq!(sa.distance(&sb), sym);
    }
}
