//! Differential testing: the incremental [`EvalCache`] against the naive
//! clone-and-recompute paths of [`Instance`], under both deadline policies.
//!
//! The cache answers the same questions as `Instance::{utility, selected_ddl,
//! swap_delta, insert_delta, remove_delta}` via closed forms — over the
//! instance's marginals under `MaxArrival`, where `selected_ddl` is a scan
//! of the cache's own bitset, and over Fenwick order statistics of the
//! latency ranks under `MaxSelected`. These properties drive both
//! implementations through random instances and random operation
//! sequences and require agreement to 1e-9 relative at every step. Caches attached to one shared
//! [`ShardColumns`] must additionally agree *bit for bit* with a cache built
//! alone through [`EvalCache::new`], however their walks interleave.

#![expect(
    clippy::expect_used,
    reason = "helpers outside #[test] fns panic like their callers"
)]
#![expect(clippy::float_cmp, reason = "asserts bit-identical floats")]
use std::sync::Arc;

use mvcom_core::eval::{EvalCache, ShardColumns};
use mvcom_core::problem::{DdlPolicy, Instance, InstanceBuilder};
use mvcom_core::Solution;
use mvcom_types::{CommitteeId, ShardInfo, SimTime, TwoPhaseLatency};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Swap(usize, usize),
    Insert(usize),
    Remove(usize),
}

/// A random instance: 2–60 shards with arbitrary sizes and latencies
/// (duplicate latencies included with reasonable probability via the coarse
/// grid), either deadline policy, alpha in the paper's sweep range.
fn arb_instance() -> impl Strategy<Value = Instance> {
    (
        proptest::collection::vec((1u64..2_000, 0u32..400), 2..60),
        1u32..20,
        prop_oneof![Just(DdlPolicy::MaxArrival), Just(DdlPolicy::MaxSelected)],
    )
        .prop_map(|(shards, alpha_half, policy)| {
            InstanceBuilder::new()
                .alpha(f64::from(alpha_half) * 0.5)
                .capacity(u64::MAX / 2)
                .ddl_policy(policy)
                .shards(
                    shards
                        .iter()
                        .enumerate()
                        .map(|(i, &(txs, lat_step))| {
                            ShardInfo::new(
                                CommitteeId(i as u32),
                                txs,
                                // 2.5-second grid ⇒ collisions are common,
                                // exercising duplicate-latency tie-breaks.
                                TwoPhaseLatency::from_total(SimTime::from_secs(
                                    f64::from(lat_step) * 2.5,
                                )),
                            )
                        })
                        .collect(),
                )
                .build()
                .expect("generated instances are valid")
        })
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            ((0..64usize), (0..64usize)).prop_map(|(a, b)| Op::Swap(a, b)),
            (0..64usize).prop_map(Op::Insert),
            (0..64usize).prop_map(Op::Remove),
        ],
        1..200,
    )
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() < 1e-9 * (1.0 + a.abs().max(b.abs()))
}

/// Applies `op` (when legal on `sol`) to the solution and to every cache
/// mirroring it. Before the commit the first cache's delta must match the
/// naive clone-and-recompute and every other cache's delta must equal it
/// bit for bit; after it, each cache must agree with the naive utility and
/// induced deadline.
fn drive(
    inst: &Instance,
    sol: &mut Solution,
    caches: &mut [EvalCache],
    op: &Op,
) -> Result<(), TestCaseError> {
    let n = inst.len();
    let agree = |what: &str, naive: f64, fast: Vec<f64>| {
        prop_assert!(
            close(naive, fast[0]),
            "{}: naive {} vs cached {}",
            what,
            naive,
            fast[0]
        );
        for f in &fast {
            prop_assert_eq!(f.to_bits(), fast[0].to_bits(), "{}: caches disagree", what);
        }
        Ok(())
    };
    match *op {
        Op::Swap(out, inc) => {
            let (out, inc) = (out % n, inc % n);
            if !sol.contains(out) || sol.contains(inc) {
                return Ok(());
            }
            let fast = caches
                .iter()
                .map(|c| c.swap_delta(inst, sol, out, inc))
                .collect();
            agree("swap", inst.swap_delta(sol, out, inc), fast)?;
            sol.swap(out, inc, inst);
            caches.iter_mut().for_each(|c| c.swap(out, inc));
        }
        Op::Insert(i) => {
            let i = i % n;
            if sol.contains(i) {
                return Ok(());
            }
            let fast = caches
                .iter()
                .map(|c| c.insert_delta(inst, sol, i))
                .collect();
            agree("insert", inst.insert_delta(sol, i), fast)?;
            sol.insert(i, inst);
            caches.iter_mut().for_each(|c| c.insert(i));
        }
        Op::Remove(i) => {
            let i = i % n;
            if !sol.contains(i) {
                return Ok(());
            }
            let fast = caches
                .iter()
                .map(|c| c.remove_delta(inst, sol, i))
                .collect();
            agree("remove", inst.remove_delta(sol, i), fast)?;
            sol.remove(i, inst);
            caches.iter_mut().for_each(|c| c.remove(i));
        }
    }
    // State-level agreement after each committed op: utility and induced
    // deadline.
    let fast = caches.iter().map(|c| c.utility(inst, sol)).collect();
    agree("utility", inst.utility(sol), fast)?;
    for cache in caches.iter() {
        prop_assert_eq!(cache.selected_ddl(), inst.selected_ddl(sol));
        prop_assert_eq!(cache.selected_count(), sol.selected_count());
    }
    Ok(())
}

proptest! {
    /// Every delta the cache prices agrees with the naive clone-and-
    /// recompute reference, on every reachable state of a random walk.
    #[test]
    fn incremental_deltas_match_naive_recompute(
        inst in arb_instance(),
        ops in arb_ops(),
        start_stride in 1usize..4,
    ) {
        let n = inst.len();
        let mut sol = Solution::from_indices(n, (0..n).step_by(start_stride), &inst);
        let mut cache = EvalCache::new(&inst, &sol);
        for op in &ops {
            drive(&inst, &mut sol, std::slice::from_mut(&mut cache), op)?;
        }
    }

    /// A family of caches attached to *one* `ShardColumns` — what an SE
    /// engine builds — walks independently: each agrees, op for op and bit
    /// for bit, with a cache built alone via `EvalCache::new`, and with
    /// the naive deltas. The walks are interleaved round-robin, so a
    /// write that leaked into shared state would corrupt a sibling's very
    /// next check.
    #[test]
    fn caches_sharing_columns_walk_independently(
        inst in arb_instance(),
        walks in proptest::collection::vec((1usize..4, arb_ops()), 2..5),
    ) {
        let n = inst.len();
        let columns = Arc::new(ShardColumns::new(&inst));
        let mut family: Vec<(Solution, [EvalCache; 2])> = walks
            .iter()
            .map(|&(stride, _)| {
                let sol = Solution::from_indices(n, (0..n).step_by(stride), &inst);
                let attached = EvalCache::attach(Arc::clone(&columns), &inst, &sol);
                let alone = EvalCache::new(&inst, &sol);
                (sol, [attached, alone])
            })
            .collect();
        let longest = walks.iter().map(|(_, ops)| ops.len()).max().unwrap_or(0);
        for step in 0..longest {
            for ((sol, caches), (_, ops)) in family.iter_mut().zip(&walks) {
                if let Some(op) = ops.get(step) {
                    drive(&inst, sol, caches, op)?;
                }
            }
        }
        for (sol, [attached, alone]) in &family {
            prop_assert!(Arc::ptr_eq(attached.columns(), &columns));
            prop_assert!(!Arc::ptr_eq(alone.columns(), &columns));
            for i in 0..n {
                prop_assert_eq!(attached.contains(i), sol.contains(i));
            }
        }
    }

    /// A cache built fresh on the final state agrees with one that lived
    /// through the whole walk — mutation never diverges from construction
    /// (this is exactly the checkpoint-restore rebuild contract).
    #[test]
    fn mutated_cache_equals_rebuilt_cache(
        inst in arb_instance(),
        ops in arb_ops(),
    ) {
        let n = inst.len();
        let mut sol = Solution::empty(n);
        let mut cache = EvalCache::new(&inst, &sol);
        for op in ops {
            match op {
                Op::Swap(out, inc) => {
                    let (out, inc) = (out % n, inc % n);
                    if sol.contains(out) && !sol.contains(inc) {
                        sol.swap(out, inc, &inst);
                        cache.swap(out, inc);
                    }
                }
                Op::Insert(i) => {
                    if !sol.contains(i % n) {
                        sol.insert(i % n, &inst);
                        cache.insert(i % n);
                    }
                }
                Op::Remove(i) => {
                    if sol.contains(i % n) {
                        sol.remove(i % n, &inst);
                        cache.remove(i % n);
                    }
                }
            }
        }
        let rebuilt = EvalCache::new(&inst, &sol);
        prop_assert_eq!(rebuilt.selected_count(), cache.selected_count());
        prop_assert_eq!(rebuilt.selected_ddl(), cache.selected_ddl());
        for i in 0..n {
            prop_assert_eq!(rebuilt.contains(i), sol.contains(i));
            prop_assert_eq!(cache.contains(i), sol.contains(i));
        }
        prop_assert_eq!(
            rebuilt.utility(&inst, &sol).to_bits(),
            cache.utility(&inst, &sol).to_bits()
        );
    }
}
