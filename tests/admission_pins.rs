//! Pinned admitted sets of the five `mvcom simulate` modes.
//!
//! The first three constants were captured at 978133f, when
//! `SeSelector::select` and a separate recovery selector each built their
//! own instance, ran their own loop and kept their own admit-everything
//! fallback. They hold the one `mvcom::core::admission` path to the same
//! arrival cutoff, the same `N_min`/`Ĉ` bases, the same RNG streams and
//! the same fallback set (every *input* committee, not only the ones the
//! cutoff kept). The fourth and fifth were captured later; their tests
//! say when.

#![expect(
    clippy::unwrap_used,
    reason = "helpers outside #[test] fns panic like their callers"
)]
use mvcom::prelude::*;

const SEED: u64 = 5;
const EPOCHS: usize = 3;

fn fnv(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn sim(nodes: u32) -> ElasticoSim {
    ElasticoSim::new(ElasticoConfig::with_nodes(nodes, 12), SEED).unwrap()
}

/// `--crash 1@2500 --chaos-drop 0.1`.
fn crash_and_drop() -> RecoveryConfig {
    RecoveryConfig {
        chaos: ChaosConfig::lossy(0.1).with_crash(CrashEvent::permanent(
            submission_node(1),
            SimTime::from_secs(2_500.0),
        )),
        ..RecoveryConfig::paper()
    }
}

/// `simulate --scheduler se`: the batch selector, once over 16 committees
/// (a real knapsack) and once over 4, where the three kept shards cannot
/// be posed and every arrival — the cut-off one included — is admitted.
#[test]
fn adaptive_selector_admits_the_pinned_sets() {
    let included = |nodes: u32| {
        let mut sim = sim(nodes);
        let mut selector = SeSelector::adaptive(SEED, 0.6);
        (0..EPOCHS)
            .map(|_| {
                sim.run_epoch_in(&mut selector, &EpochEnv::default())
                    .unwrap()
                    .0
                    .final_block
                    .included
            })
            .collect::<Vec<_>>()
    };
    let solved = included(240);
    assert!(solved.iter().all(|set| set.len() == 8), "{solved:?}");
    assert_eq!(fnv(&format!("{solved:?}")), 0xafa7_ad06_bc95_e5c8);
    let degenerate = included(60);
    assert!(
        degenerate.iter().all(|set| set.len() == 4),
        "{degenerate:?}"
    );
    assert_eq!(fnv(&format!("{degenerate:?}")), 0x28ed_c066_96b4_ffcd);
}

/// `simulate --adv-fraction 0.33 --adv-strategy starver --defense on`.
#[test]
fn defended_selector_admits_the_pinned_sets_against_a_starver() {
    let mut sim = sim(240);
    let adversary = Starver::new(AdversaryConfig::new(0.33, SEED).unwrap());
    let mut defended = SeSelector::adaptive(SEED, 0.6)
        .with_defense(DefenseEngine::new(DefenseConfig::paper()).unwrap());
    let env = EpochEnv {
        adversary: Some(&adversary),
        ..EpochEnv::default()
    };
    let included: Vec<_> = (0..EPOCHS)
        .map(|_| {
            let (report, _) = sim.run_epoch_in(&mut defended, &env).unwrap();
            report.final_block.included
        })
        .collect();
    assert_eq!(included.iter().map(Vec::len).collect::<Vec<_>>(), [8, 8, 5]);
    assert_eq!(fnv(&format!("{included:?}")), 0xef8e_62dc_5f81_7695);
}

/// `simulate --scheduler se --crash 1@2500`: one selector per epoch, a
/// permanent crash of the second submission node, the failure trimmed
/// through a serialized checkpoint restore.
#[test]
fn recovering_runner_admits_the_pinned_sets_around_a_crash() {
    let recovery = RecoveryConfig {
        chaos: ChaosConfig::lossy(0.0).with_crash(CrashEvent::permanent(
            submission_node(1),
            SimTime::from_secs(2_500.0),
        )),
        ..RecoveryConfig::paper()
    };
    let env = EpochEnv {
        recovery: Some(&recovery),
        ..EpochEnv::default()
    };
    let mut sim = sim(240);
    let mut observed = Vec::new();
    for _ in 0..EPOCHS {
        let mut selector = SeSelector::adaptive(SEED, 0.6);
        let (report, _) = sim.run_epoch_in(&mut selector, &env).unwrap();
        let events: Vec<(u64, u64, u64, bool)> = selector
            .events()
            .iter()
            .map(|e| {
                (
                    e.at_iteration,
                    e.utility_before.to_bits(),
                    e.utility_after.to_bits(),
                    e.is_join,
                )
            })
            .collect();
        observed.push((
            report.final_block.included,
            events,
            selector.chains_restored(),
        ));
    }
    // The crash lands in epoch 0 only (later epochs outlive t = 2500 s
    // before the node is addressed again), so both the trimmed and the
    // untouched recovery path are pinned.
    assert_eq!(
        observed
            .iter()
            .map(|(_, events, _)| events.len())
            .collect::<Vec<_>>(),
        [1, 0, 0]
    );
    assert!(observed[0].2 > 0, "the restore path must run");
    assert_eq!(fnv(&format!("{observed:?}")), 0x0312_7f32_854c_8922);
}

/// `simulate --scheduler all --crash 1@2500 --chaos-drop 0.1`: the
/// wait-for-all selector under the recovering runner, with lossy links
/// that also get healthy committees declared dead. The FNVs of each
/// epoch's serialized report were captured at 3b83955, where this path
/// was a recovery strategy of its own that pruned its admitted list on
/// each failure; here `WaitForAll` is asked only about the survivors.
#[test]
fn wait_for_all_recovering_runner_writes_the_pinned_reports() {
    let recovery = crash_and_drop();
    let env = EpochEnv {
        recovery: Some(&recovery),
        ..EpochEnv::default()
    };
    let mut sim = sim(240);
    let reports: Vec<_> = (0..EPOCHS)
        .map(|_| sim.run_epoch_in(&mut WaitForAll, &env).unwrap().0)
        .collect();
    // Of 16 shards per epoch: (declared dead, admitted).
    let shape: Vec<(usize, usize)> = reports
        .iter()
        .map(|r| {
            (
                r.robustness.as_ref().unwrap().failures_detected.len(),
                r.final_block.included.len(),
            )
        })
        .collect();
    assert_eq!(shape, [(2, 14), (4, 12), (1, 14)]);
    let digests: Vec<u64> = reports
        .iter()
        .map(|r| fnv(&serde_json::to_string(r).unwrap()))
        .collect();
    assert_eq!(
        digests,
        [
            0x3614_6038_ded1_0c6b,
            0x07c6_8611_0880_fcbc,
            0x1399_3dac_6974_ac55
        ]
    );
}

/// `simulate --scheduler se --adv-fraction 0.33 --adv-strategy starver
/// --defense on --crash 1@2500 --chaos-drop 0.1`: adversaries and faults
/// in one epoch. The starvers' reports reach the defended selector over
/// the chaos network; it answers at `finish` over the screened
/// survivors, and the defense settles on every committee's truth. The
/// constants were captured at the commit that added `run_epoch_in`, the
/// first where this mode could run.
#[test]
fn defended_selector_admits_the_pinned_sets_against_a_starver_under_faults() {
    let recovery = crash_and_drop();
    let adversary = Starver::new(AdversaryConfig::new(0.33, SEED).unwrap());
    let env = EpochEnv {
        adversary: Some(&adversary),
        recovery: Some(&recovery),
    };
    let mut sim = sim(240);
    let mut defended = SeSelector::adaptive(SEED, 0.6)
        .with_defense(DefenseEngine::new(DefenseConfig::paper()).unwrap());
    let (reports, committee_reports): (Vec<_>, Vec<_>) = (0..EPOCHS)
        .map(|_| sim.run_epoch_in(&mut defended, &env).unwrap())
        .unzip();
    // Per epoch: (starvers, declared dead, admitted).
    let shape: Vec<(usize, usize, usize)> = reports
        .iter()
        .zip(&committee_reports)
        .map(|(r, filed)| {
            (
                filed.iter().filter(|c| c.adversarial).count(),
                r.robustness.as_ref().unwrap().failures_detected.len(),
                r.final_block.included.len(),
            )
        })
        .collect();
    let digests: Vec<u64> = reports
        .iter()
        .map(|r| fnv(&serde_json::to_string(r).unwrap()))
        .collect();
    assert_eq!(shape, [(5, 2, 7), (5, 4, 5), (5, 1, 4)]);
    assert_eq!(
        digests,
        [
            0xbaa8_fbc5_9bfc_11e0,
            0x6436_f01f_876f_2b24,
            0x3b23_0b3e_c30e_36b2
        ]
    );
    let defense = defended.committee.defense.as_ref().unwrap().checkpoint();
    let defense = serde_json::to_string(&defense).unwrap();
    assert_eq!(fnv(&defense), 0x3557_491e_7a30_f65a);
}
