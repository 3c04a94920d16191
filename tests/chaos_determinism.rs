//! Determinism of the fault-tolerant epoch pipeline.
//!
//! The chaos injector, the phi-accrual failure detector, and the recovery
//! runner all draw from forked seeded RNG streams, so a fixed seed must
//! reproduce a recovering epoch *byte for byte* — including every dropped
//! message, every missed heartbeat, and every re-solve.

#![expect(
    clippy::unwrap_used,
    reason = "helpers outside #[test] fns panic like their callers"
)]
use mvcom::elastico::EpochReport;
use mvcom::prelude::*;
use proptest::prelude::*;

/// One epoch whose shards reach the final committee over the chaos network.
fn recovering<S: ShardSelector + ?Sized>(
    sim: &mut ElasticoSim,
    selector: &mut S,
    recovery: &RecoveryConfig,
) -> EpochReport {
    let env = EpochEnv {
        recovery: Some(recovery),
        ..EpochEnv::default()
    };
    sim.run_epoch_in(selector, &env).unwrap().0
}

/// Runs one recovering epoch with the wait-for-all selector (every
/// survivor is admitted) and returns its serialized report.
fn survivors_report_json(seed: u64, recovery: &RecoveryConfig) -> String {
    let mut sim = ElasticoSim::new(ElasticoConfig::small_test(), seed).unwrap();
    let report = recovering(&mut sim, &mut WaitForAll, recovery);
    serde_json::to_string(&report).unwrap()
}

proptest! {
    // Each case runs two full epochs; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn same_chaos_seed_reproduces_the_epoch_byte_for_byte(
        seed in 0u64..1_000,
        drop_prob in 0.0f64..0.45,
    ) {
        let recovery = RecoveryConfig {
            chaos: ChaosConfig::lossy(drop_prob),
            ..RecoveryConfig::paper()
        };
        prop_assert_eq!(
            survivors_report_json(seed, &recovery),
            survivors_report_json(seed, &recovery),
        );
    }
}

#[test]
fn se_recovery_pipeline_is_deterministic_under_crash_and_loss() {
    // The full MVCom path: lossy links plus a mid-epoch permanent crash,
    // admission by the SE engine with checkpoint-restore on each failure.
    let recovery = RecoveryConfig {
        chaos: ChaosConfig::lossy(0.15).with_crash(CrashEvent::permanent(
            submission_node(1),
            SimTime::from_secs(2_500.0),
        )),
        ..RecoveryConfig::paper()
    };
    let run = || {
        let mut sim = ElasticoSim::new(ElasticoConfig::small_test(), 41).unwrap();
        let mut selector = SeSelector::adaptive(41, 0.6);
        let report = recovering(&mut sim, &mut selector, &recovery);
        serde_json::to_string(&report).unwrap()
    };
    assert_eq!(run(), run());
}

#[test]
fn recovering_runner_does_not_perturb_the_epoch_stages() {
    // Chaos delivery forks its submission-network and chaos RNG streams
    // *after* the stage 1–3 forks, so for the same sim seed the
    // formed committees and measured shards are byte-identical to the
    // vanilla wait-for-all epoch — fault tolerance is pay-as-you-go.
    let mut vanilla = ElasticoSim::new(ElasticoConfig::small_test(), 97).unwrap();
    let baseline = vanilla.run_epoch().unwrap();
    let mut sim = ElasticoSim::new(ElasticoConfig::small_test(), 97).unwrap();
    let report = recovering(&mut sim, &mut WaitForAll, &RecoveryConfig::paper());
    assert_eq!(
        serde_json::to_string(&baseline.formed).unwrap(),
        serde_json::to_string(&report.formed).unwrap(),
    );
    assert_eq!(
        serde_json::to_string(&baseline.shards).unwrap(),
        serde_json::to_string(&report.shards).unwrap(),
    );
    // Fault-free recovery admits the same committees wait-for-all does.
    assert_eq!(baseline.final_block.included, report.final_block.included);
}
