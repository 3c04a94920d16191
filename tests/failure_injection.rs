//! Failure injection across the stack: Byzantine replicas inside PBFT,
//! scheduled network outages, and committee failures during scheduling.

#![expect(
    clippy::unwrap_used,
    reason = "helpers outside #[test] fns panic like their callers"
)]
use mvcom::pbft::runner::{PbftConfig, PbftRunner};
use mvcom::pbft::Behavior;
use mvcom::prelude::*;
use mvcom::simnet::{rng, Network, NetworkConfig};

fn pbft_with(behaviors: &[(u32, Behavior)], n: u32, seed: u64) -> mvcom::pbft::ConsensusResult {
    let mut config = PbftConfig::new(n).unwrap();
    for &(idx, b) in behaviors {
        config = config.with_behavior(idx, b);
    }
    let mut master = rng::master(seed);
    let network = Network::new(NetworkConfig::lan(n), rng::fork(&mut master, "net")).unwrap();
    PbftRunner::new(config, network, rng::fork(&mut master, "pbft"))
        .run(Hash32::digest(b"failure-injection"))
        .unwrap()
}

#[test]
fn pbft_commits_with_boundary_fault_counts() {
    // n = 3f+1: exactly f Byzantine nodes must be tolerated.
    for (n, f) in [(4u32, 1u32), (7, 2), (10, 3), (13, 4)] {
        let silent: Vec<(u32, Behavior)> = (0..f).map(|i| (n - 1 - i, Behavior::Silent)).collect();
        let result = pbft_with(&silent, n, 1000 + u64::from(n));
        assert!(result.committed, "n={n}, f={f} should commit");
    }
}

#[test]
fn pbft_stalls_beyond_the_fault_threshold() {
    // f+1 silent followers leave fewer than 2f+1 honest voters.
    for (n, f) in [(4u32, 1u32), (7, 2)] {
        let silent: Vec<(u32, Behavior)> = (0..=f).map(|i| (n - 1 - i, Behavior::Silent)).collect();
        let mut config = PbftConfig::new(n).unwrap();
        for &(idx, b) in &silent {
            config = config.with_behavior(idx, b);
        }
        config.deadline = SimTime::from_secs(500.0);
        let mut master = rng::master(2000 + u64::from(n));
        let network = Network::new(NetworkConfig::lan(n), rng::fork(&mut master, "net")).unwrap();
        let result = PbftRunner::new(config, network, rng::fork(&mut master, "pbft"))
            .run(Hash32::digest(b"x"))
            .unwrap();
        assert!(!result.committed, "n={n} with {} faults must stall", f + 1);
    }
}

#[test]
fn crashed_leader_is_replaced_via_view_change() {
    let n = 4u32;
    let mut master = rng::master(77);
    let mut network = Network::new(NetworkConfig::lan(n), rng::fork(&mut master, "net")).unwrap();
    // The view-0 leader (node 0) is down from the start and never returns.
    let crash = ChaosConfig::none().with_crash(CrashEvent::permanent(NodeId(0), SimTime::ZERO));
    network.set_chaos(ChaosInjector::new(crash, rng::fork(&mut master, "chaos")).unwrap());
    let result = PbftRunner::new(
        PbftConfig::new(n).unwrap(),
        network,
        rng::fork(&mut master, "pbft"),
    )
    .run(Hash32::digest(b"crashed-leader"))
    .unwrap();
    assert!(
        result.committed,
        "view change should route around the crashed leader"
    );
    assert!(result.final_view >= 1);
}

#[test]
fn committee_failure_mid_schedule_respects_theorem_2() {
    let trace = Trace::generate(TraceConfig::tiny(200), 5);
    let mut gen = EpochGenerator::new(&trace, LatencyConfig::paper(), 5);
    let shards = gen.next_epoch_with_replacement(30, 1).unwrap();
    let instance = InstanceBuilder::new()
        .alpha(1.5)
        .capacity(24_000)
        .n_min(10)
        .shards(shards)
        .build()
        .unwrap();
    let victim = instance.shards()[3].committee();
    let events = vec![TimedEvent::leave(150, victim)];
    let config = SeConfig {
        max_iterations: 600,
        convergence_window: 0,
        ..SeConfig::paper(5)
    };
    let online = run_online(&instance, config, &events, DynamicsPolicy::Trim).unwrap();
    let record = &online.events[0];
    // Theorem 2: |U_before − U_after| ≤ max_g U_g over the trimmed space,
    // which the post-event optimum upper-bounds. Verify against the
    // trimmed instance's exhaustive-free proxy: the final converged value.
    let perturbation = (record.utility_before - record.utility_after).abs();
    let trimmed_best = online
        .outcome
        .best_utility
        .abs()
        .max(record.utility_after.abs());
    assert!(
        perturbation <= record.utility_before.abs() + trimmed_best + 1e-6,
        "perturbation {perturbation} out of any plausible bound"
    );
    // The victim can never appear in the final schedule.
    let (trimmed, _) = instance.without_committee(victim).unwrap();
    assert!(trimmed.is_feasible(&online.outcome.best_solution));
}

#[test]
fn repeated_failures_shrink_the_epoch_but_keep_it_schedulable() {
    let trace = Trace::generate(TraceConfig::tiny(200), 6);
    let mut gen = EpochGenerator::new(&trace, LatencyConfig::paper(), 6);
    let shards = gen.next_epoch_with_replacement(20, 1).unwrap();
    let instance = InstanceBuilder::new()
        .alpha(1.5)
        .capacity(16_000)
        .n_min(5)
        .shards(shards)
        .build()
        .unwrap();
    let victims: Vec<CommitteeId> = instance.shards()[..5]
        .iter()
        .map(|s| s.committee())
        .collect();
    let events: Vec<TimedEvent> = victims
        .iter()
        .enumerate()
        .map(|(k, &c)| TimedEvent::leave(50 + 50 * k as u64, c))
        .collect();
    let config = SeConfig {
        max_iterations: 600,
        convergence_window: 0,
        ..SeConfig::paper(6)
    };
    let online = run_online(&instance, config, &events, DynamicsPolicy::Trim).unwrap();
    assert_eq!(online.events.len(), 5);
    assert_eq!(online.outcome.best_solution.len(), 15);
    assert!(online.outcome.best_solution.selected_count() >= 5);
}

#[test]
fn chaos_crashed_committee_recovers_within_the_theorem_2_bound() {
    // The acceptance path of the fault-tolerant epoch pipeline, end to
    // end and unscripted: an admitted committee's submission node is
    // crashed mid-epoch under lossy links; the phi-accrual heartbeat
    // detector (not a TimedEvent) must notice, the SE engine re-solves
    // through a serialized checkpoint restore (Trim surgery), and the
    // survivors commit a final block before the consensus deadline with a
    // utility perturbation inside Theorem 2's bound.
    let crash_at = SimTime::from_secs(2_500.0);
    let recovery = RecoveryConfig {
        chaos: ChaosConfig::lossy(0.1)
            .with_crash(CrashEvent::permanent(submission_node(1), crash_at)),
        ..RecoveryConfig::paper()
    };
    let run = || {
        let mut sim = ElasticoSim::new(ElasticoConfig::small_test(), 29).unwrap();
        let mut selector = SeSelector::adaptive(29, 0.6);
        let env = EpochEnv {
            recovery: Some(&recovery),
            ..EpochEnv::default()
        };
        let (report, _) = sim.run_epoch_in(&mut selector, &env).unwrap();
        (serde_json::to_string(&report).unwrap(), report, selector)
    };
    let (bytes_a, report, selector) = run();
    let (bytes_b, _, _) = run();
    assert_eq!(bytes_a, bytes_b, "fixed seed must reproduce the epoch");

    // Detection came from heartbeats observing the crash, after it.
    let victim = report.shards[1].committee();
    let robustness = report.robustness.clone().expect("recovering telemetry");
    let (failed, detected_at) = robustness
        .failures_detected
        .iter()
        .copied()
        .find(|&(c, _)| c == victim)
        .expect("the crashed committee must be detected");
    assert_eq!(failed, victim);
    assert!(
        detected_at >= crash_at,
        "detection cannot precede the crash"
    );

    // The survivors still commit, before the deadline, without the victim.
    assert!(report.final_block.committed);
    assert!(!report.final_block.included.is_empty());
    assert!(!report.final_block.included.contains(&victim));
    assert!(
        report.final_block.consensus_latency <= ElasticoConfig::small_test().consensus_deadline
    );

    // The re-solve went through the checkpoint/restore path and its
    // utility drop respects Theorem 2: |U_before − U_after| is bounded by
    // the best utility reachable in the trimmed space, which the
    // restored engine's best utility right after the trim witnesses.
    assert!(selector.chains_restored() > 0, "restore path must run");
    let record = selector
        .events()
        .iter()
        .find(|e| !e.is_join)
        .expect("the trim must be recorded");
    let perturbation = (record.utility_before - record.utility_after).abs();
    let trimmed_best = record.utility_after;
    assert!(
        perturbation <= mvcom::core::theory::perturbation_bound(trimmed_best) + 1e-6,
        "perturbation {perturbation} exceeds the Theorem 2 bound {trimmed_best}"
    );
}
