//! Pins of [`SaSolver`]'s draws: the best selection, its utility bits and
//! every trajectory point, folded into one FNV-1a digest per run.
//!
//! SA samples its moves through `Solution::random_{selected,unselected}`,
//! so these digests hold the sampler's draw sequence and returned indices
//! fixed, as well as the incremental pricing that decides each accept.
//! They were captured at df9e832, where the samplers' fallback was a
//! bit-by-bit scan; the block-count walk must reproduce them unedited.
//! The paper-size runs keep the rejection loop busy; on the sparse
//! instance (4,000 shards, at most ≈ 0.5 % selected) `random_selected`'s
//! 64 rejection draws all miss on most calls, so the fallback decides.

#![expect(
    clippy::expect_used,
    reason = "helpers outside #[test] fns panic like their callers"
)]
use mvcom_baselines::sa::SaConfig;
use mvcom_baselines::{SaSolver, Solver};
use mvcom_core::problem::{DdlPolicy, Instance, InstanceBuilder};
use mvcom_types::{CommitteeId, ShardInfo, SimTime, TwoPhaseLatency};

/// `n` shards of 800–1,599 transactions and 400–899 s latencies, spread
/// by coprime strides so neither column is sorted by index.
fn instance(n: usize, capacity: u64, n_min: usize, policy: DdlPolicy) -> Instance {
    InstanceBuilder::new()
        .alpha(1.5)
        .capacity(capacity)
        .n_min(n_min)
        .ddl_policy(policy)
        .shards(
            (0..n)
                .map(|i| {
                    ShardInfo::new(
                        CommitteeId(i as u32),
                        800 + (i as u64 * 379) % 800,
                        TwoPhaseLatency::from_total(SimTime::from_secs(
                            400.0 + (i as f64 * 71.0) % 500.0,
                        )),
                    )
                })
                .collect(),
        )
        .build()
        .expect("pinned instances are valid")
}

/// FNV-1a over the run: selected indices, utility bits, then each
/// trajectory point's iteration and utility bits, all little-endian.
fn digest(instance: &Instance, seed: u64) -> u64 {
    let outcome = SaSolver::new(SaConfig::paper(seed))
        .solve(instance)
        .expect("SA solves the pinned instances");
    let mut bytes = Vec::new();
    for i in outcome.best_solution.iter_selected() {
        bytes.extend((i as u64).to_le_bytes());
    }
    bytes.extend(outcome.best_utility.to_bits().to_le_bytes());
    for (iteration, utility) in &outcome.trajectory {
        bytes.extend(iteration.to_le_bytes());
        bytes.extend(utility.to_bits().to_le_bytes());
    }
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn paper_size_runs_match_their_pins() {
    // 200 shards, room for about 60 % of them, N_min = |I|/2 as in the
    // paper's Figs. 10–14; both deadline policies.
    let mut got = Vec::new();
    for policy in [DdlPolicy::MaxArrival, DdlPolicy::MaxSelected] {
        let inst = instance(200, 144_000, 100, policy);
        for seed in [1, 2] {
            got.push(digest(&inst, seed));
        }
    }
    assert_eq!(
        got,
        [
            0x7bc5_2fee_b6b8_d64d,
            0xc275_6764_3be0_fad0,
            0x5c87_34bb_c910_bdd6,
            0x23e0_8d46_b8a9_3caa,
        ],
        "{got:#018x?}"
    );
}

#[test]
fn sparse_runs_match_their_pins() {
    // Room for at most 20 of 4,000 shards; N_min = 8.
    let inst = instance(4_000, 20_000, 8, DdlPolicy::MaxArrival);
    let got: Vec<u64> = [1, 2].iter().map(|&seed| digest(&inst, seed)).collect();
    assert_eq!(
        got,
        [0x8bcf_d9e9_dc63_dabe, 0xefb7_9e5f_102a_136d],
        "{got:#018x?}"
    );
}
