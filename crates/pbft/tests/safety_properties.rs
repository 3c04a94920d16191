//! Property-based PBFT safety and liveness under randomized fault
//! injection.

#![expect(
    clippy::unwrap_used,
    reason = "helpers outside #[test] fns panic like their callers"
)]
use mvcom_pbft::runner::{PbftConfig, PbftRunner};
use mvcom_pbft::Behavior;
use mvcom_simnet::{rng, Network, NetworkConfig};
use mvcom_types::{Hash32, SimTime};
use proptest::prelude::*;

fn run(n: u32, faults: &[(u32, Behavior)], seed: u64) -> mvcom_pbft::ConsensusResult {
    let mut config = PbftConfig::new(n).unwrap();
    for &(idx, b) in faults {
        config = config.with_behavior(idx, b);
    }
    config.deadline = SimTime::from_secs(2_000.0);
    let mut master = rng::master(seed);
    let network = Network::new(NetworkConfig::lan(n), rng::fork(&mut master, "net")).unwrap();
    PbftRunner::new(config, network, rng::fork(&mut master, "pbft"))
        .run(Hash32::digest(b"property"))
        .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Liveness: any committee with at most `f` faulty replicas commits
    /// the proposed digest (possibly after view changes).
    #[test]
    fn commits_with_at_most_f_random_faults(
        seed in 0u64..10_000,
        n_pick in 0usize..3,
        fault_seed in 0u64..1_000,
    ) {
        let n = [4u32, 7, 10][n_pick];
        let f = (n - 1) / 3;
        // Choose up to f distinct random victims with random behaviours.
        let mut victims: Vec<u32> = (0..n).collect();
        let mut r = rng::master(fault_seed);
        use rand::seq::SliceRandom;
        victims.shuffle(&mut r);
        use rand::Rng;
        let k = r.gen_range(0..=f);
        let faults: Vec<(u32, Behavior)> = victims[..k as usize]
            .iter()
            .map(|&v| {
                let b = if r.gen::<bool>() { Behavior::Silent } else { Behavior::Equivocate };
                (v, b)
            })
            .collect();
        let result = run(n, &faults, seed);
        prop_assert!(
            result.committed,
            "n={n}, faults={faults:?} should commit (view {})",
            result.final_view
        );
        prop_assert_eq!(result.digest, Hash32::digest(b"property"));
    }

    /// Safety: whatever the fault pattern (even beyond `f`), a committed
    /// digest is always the proposer's honest digest — equivocation can
    /// stall the protocol but never commit a forged value.
    #[test]
    fn committed_digest_is_never_forged(
        seed in 0u64..10_000,
        fault_mask in 0u32..16,
    ) {
        let n = 4u32;
        let faults: Vec<(u32, Behavior)> = (0..n)
            .filter(|i| fault_mask >> i & 1 == 1)
            .map(|i| (i, Behavior::Equivocate))
            .collect();
        if faults.len() == n as usize {
            return Ok(()); // nothing honest left to assert about
        }
        let result = run(n, &faults, seed);
        if result.committed {
            prop_assert_eq!(result.digest, Hash32::digest(b"property"));
        }
    }
}

#[test]
fn repeated_view_changes_eventually_commit() {
    // Leaders of views 0 and 1 are both silent: two successive view
    // changes are needed before an honest leader proposes.
    let n = 7u32;
    let result = run(n, &[(0, Behavior::Silent), (1, Behavior::Silent)], 424_242);
    assert!(result.committed);
    assert!(result.final_view >= 2, "needed at least two view changes");
}
