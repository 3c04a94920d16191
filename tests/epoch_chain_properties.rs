//! Property-based tests of the cross-epoch carry-over scheduler.

#![expect(
    clippy::disallowed_types,
    reason = "a hash set as reference model or uniqueness count"
)]
use mvcom::core::epoch_chain::{EpochChain, EpochChainConfig};
use mvcom::prelude::*;
use proptest::prelude::*;

fn arb_epoch(base_id: u32) -> impl Strategy<Value = Vec<ShardInfo>> {
    proptest::collection::vec((200u64..=2_000, 50.0f64..=3_000.0), 8..=24).prop_map(move |raw| {
        raw.into_iter()
            .enumerate()
            .map(|(i, (txs, lat))| {
                ShardInfo::new(
                    CommitteeId(base_id + i as u32),
                    txs,
                    TwoPhaseLatency::from_total(SimTime::from_secs(lat)),
                )
            })
            .collect()
    })
}

fn config(seed: u64) -> EpochChainConfig {
    EpochChainConfig {
        policy: EpochPolicy {
            capacity: Capacity::PerCommittee(1_000),
            ..EpochPolicy::paper()
        },
        se: SeConfig::fast_test(seed),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn conservation_admitted_plus_refused_equals_arrived(
        e0 in arb_epoch(0),
        e1 in arb_epoch(1_000),
        seed in 0u64..500,
    ) {
        let mut chain = EpochChain::new(config(seed)).unwrap();
        for fresh in [e0, e1] {
            let arrived_expected = fresh.len() + chain.pending();
            let outcome = chain.run_epoch(fresh).unwrap();
            prop_assert_eq!(outcome.arrived, arrived_expected);
            prop_assert_eq!(
                outcome.admitted.len() + outcome.carried_out,
                outcome.arrived,
                "every arrived shard is either admitted or carried"
            );
            // Pending now equals the refusals queued this epoch.
            prop_assert_eq!(chain.pending(), outcome.carried_out);
        }
    }

    #[test]
    fn no_committee_is_ever_scheduled_twice_in_one_epoch(
        e0 in arb_epoch(0),
        seed in 0u64..500,
    ) {
        let mut chain = EpochChain::new(config(seed)).unwrap();
        let first = chain.run_epoch(e0.clone()).unwrap();
        // Re-submit the exact same committees fresh next epoch: carried
        // duplicates must be superseded, so arrivals equal the fresh count.
        let second = chain.run_epoch(e0).unwrap();
        let _ = first;
        let mut seen = std::collections::HashSet::new();
        for s in &second.admitted {
            prop_assert!(seen.insert(s.committee()), "duplicate {:?}", s.committee());
        }
    }

    #[test]
    fn carried_latencies_shrink_monotonically(
        e0 in arb_epoch(0),
        seed in 0u64..500,
    ) {
        let mut chain = EpochChain::new(config(seed)).unwrap();
        let outcome = chain.run_epoch(e0.clone()).unwrap();
        // Every refused shard re-enters with latency <= original.
        let originals: std::collections::HashMap<CommitteeId, SimTime> = e0
            .iter()
            .map(|s| (s.committee(), s.two_phase_latency()))
            .collect();
        // Run a second epoch with fresh ids only; the carried-in shards of
        // that epoch are exactly the refusals, with reduced latencies.
        let fresh: Vec<ShardInfo> = (0..10)
            .map(|i| {
                ShardInfo::new(
                    CommitteeId(50_000 + i),
                    800,
                    TwoPhaseLatency::from_total(SimTime::from_secs(600.0)),
                )
            })
            .collect();
        let second = chain.run_epoch(fresh).unwrap();
        for s in &second.admitted {
            if let Some(&orig) = originals.get(&s.committee()) {
                prop_assert!(
                    s.two_phase_latency() <= orig,
                    "carried shard latency grew: {:?}",
                    s.committee()
                );
            }
        }
        let _ = outcome;
    }

    #[test]
    fn epoch_outcomes_respect_constraints(
        e0 in arb_epoch(0),
        seed in 0u64..500,
    ) {
        let n = e0.len();
        let mut chain = EpochChain::new(config(seed)).unwrap();
        let outcome = chain.run_epoch(e0).unwrap();
        // Capacity: Ĉ = 1000·|arrived|.
        prop_assert!(outcome.admitted_txs <= 1_000 * outcome.arrived as u64);
        // N_min = 50% of arrivals (rounded).
        let n_min = ((outcome.arrived as f64) * 0.5).round() as usize;
        prop_assert!(outcome.admitted.len() >= n_min.min(n));
        prop_assert!(outcome.cumulative_age >= 0.0);
    }
}
