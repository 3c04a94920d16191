//! Crash-recovery integration: a defended scheduling loop killed
//! mid-quarantine, restored from serialized checkpoints, must reproduce
//! the uninterrupted run's decisions byte-for-byte.
//!
//! Two layers are snapshotted across a simulated process boundary (JSON):
//!
//! * [`DefenseCheckpoint`] — the reputation/quarantine state. The defense
//!   engine is RNG-free, so a restored engine replays the exact decision
//!   sequence of an uninterrupted one.
//! * [`SeCheckpoint`] — an SE solve killed mid-epoch. Restore re-derives
//!   deterministic RNG streams keyed by the checkpoint version, so every
//!   resume from the same snapshot lands on the same admitted set.

#![expect(
    clippy::unwrap_used,
    reason = "helpers outside #[test] fns panic like their callers"
)]
use std::collections::BTreeSet;

use mvcom_core::problem::InstanceBuilder;
use mvcom_core::se::{SeCheckpoint, SeConfig, SeEngine};
use mvcom_core::{DefenseCheckpoint, DefenseConfig, DefenseEngine, DefenseObservation};
use mvcom_types::{CommitteeId, ShardInfo, SimTime, TwoPhaseLatency};

const N: usize = 8;
const LIARS: [u32; 2] = [6, 7];
const EPOCHS: u64 = 8;
const INTERRUPT_AT: u64 = 3;

/// Ground truth for one epoch — plain arithmetic, no RNG, so both runs
/// regenerate identical inputs on their own.
fn truth(epoch: u64) -> Vec<ShardInfo> {
    (0..N as u32)
        .map(|c| {
            let txs = 900 + 40 * u64::from(c) + 13 * epoch;
            let lat = 500.0 + 12.0 * f64::from(c) + 7.0 * epoch as f64;
            ShardInfo::new(
                CommitteeId(c),
                txs,
                TwoPhaseLatency::from_total(SimTime::from_secs(lat)),
            )
        })
        .collect()
}

/// What the scheduler hears: the two liars inflate size and deflate
/// latency every epoch, everyone else reports truth.
fn reports(epoch: u64) -> Vec<ShardInfo> {
    truth(epoch)
        .into_iter()
        .map(|s| {
            if LIARS.contains(&s.committee().value()) {
                ShardInfo::new(
                    s.committee(),
                    (s.tx_count() as f64 * 1.8).round() as u64,
                    TwoPhaseLatency::from_total(s.two_phase_latency() * 0.6),
                )
            } else {
                s
            }
        })
        .collect()
}

fn se_config(epoch: u64) -> SeConfig {
    SeConfig {
        seed: 42 ^ epoch.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        ..SeConfig::fast_test(0)
    }
}

fn schedule(candidates: &[ShardInfo], epoch: u64) -> BTreeSet<CommitteeId> {
    let instance = InstanceBuilder::new()
        .alpha(1.5)
        .capacity(6_000)
        .n_min((N / 2).min(candidates.len()))
        .shards(candidates.to_vec())
        .build()
        .unwrap();
    let outcome = SeEngine::new(&instance, se_config(epoch)).unwrap().run();
    instance.committees(&outcome.best_solution).collect()
}

fn observe(epoch: u64, admitted: &BTreeSet<CommitteeId>) -> Vec<DefenseObservation> {
    truth(epoch)
        .iter()
        .zip(reports(epoch))
        .map(|(tr, rep)| DefenseObservation::settled(&rep, tr, admitted.contains(&tr.committee())))
        .collect()
}

/// One epoch of the defended loop. Returns the admitted set plus the
/// defense state serialized to JSON — the byte-for-byte decision record
/// the two runs are compared on.
fn run_epoch(defense: &mut DefenseEngine, epoch: u64) -> (Vec<u32>, String) {
    let candidates = defense.admissible(epoch, &reports(epoch), N / 2);
    let admitted = schedule(&candidates, epoch);
    defense.end_epoch(epoch, &observe(epoch, &admitted));
    let ids = admitted.iter().map(|c| c.value()).collect();
    let state = serde_json::to_string(&defense.checkpoint()).unwrap();
    (ids, state)
}

#[test]
fn defense_restore_mid_quarantine_reproduces_decisions_byte_for_byte() {
    // Uninterrupted reference run.
    let mut reference = DefenseEngine::new(DefenseConfig::paper()).unwrap();
    let reference_log: Vec<_> = (0..EPOCHS).map(|e| run_epoch(&mut reference, e)).collect();

    // Interrupted run: killed after epoch 2, while both liars sit in
    // quarantine; state crosses the process boundary as JSON.
    let mut victim = DefenseEngine::new(DefenseConfig::paper()).unwrap();
    let mut log: Vec<_> = (0..INTERRUPT_AT)
        .map(|e| run_epoch(&mut victim, e))
        .collect();
    for liar in LIARS {
        assert!(
            victim.is_quarantined(CommitteeId(liar), INTERRUPT_AT),
            "liar {liar} should be quarantined at the interruption point"
        );
    }
    let json = serde_json::to_string(&victim.checkpoint()).unwrap();
    drop(victim); // the scheduler process dies here

    let ckpt: DefenseCheckpoint = serde_json::from_str(&json).unwrap();
    let mut restored = DefenseEngine::from_checkpoint(&ckpt).unwrap();
    for liar in LIARS {
        assert!(restored.is_quarantined(CommitteeId(liar), INTERRUPT_AT));
    }
    log.extend((INTERRUPT_AT..EPOCHS).map(|e| run_epoch(&mut restored, e)));

    assert_eq!(reference_log, log, "restored decisions diverged");
    assert_eq!(
        serde_json::to_string(&reference.checkpoint()).unwrap(),
        serde_json::to_string(&restored.checkpoint()).unwrap(),
        "final defense state diverged"
    );
}

#[test]
fn se_solve_killed_mid_quarantine_epoch_resumes_deterministically() {
    // Reach the quarantine epoch, then kill the SE solve itself mid-run.
    let mut defense = DefenseEngine::new(DefenseConfig::paper()).unwrap();
    for epoch in 0..INTERRUPT_AT {
        run_epoch(&mut defense, epoch);
    }
    let candidates = defense.admissible(INTERRUPT_AT, &reports(INTERRUPT_AT), N / 2);
    assert!(
        candidates
            .iter()
            .all(|s| !LIARS.contains(&s.committee().value())),
        "quarantined liars must be out of the candidate pool"
    );
    assert_eq!(candidates.len(), N - LIARS.len());

    let instance = InstanceBuilder::new()
        .alpha(1.5)
        .capacity(6_000)
        .n_min(N / 2)
        .shards(candidates)
        .build()
        .unwrap();
    let config = se_config(INTERRUPT_AT);
    let mut engine = SeEngine::new(&instance, config).unwrap();
    for _ in 0..60 {
        engine.step();
    }
    let json = serde_json::to_string(&engine.checkpoint()).unwrap();
    drop(engine); // the solver process dies here

    let ckpt: SeCheckpoint = serde_json::from_str(&json).unwrap();
    let resume = |ckpt: &SeCheckpoint| {
        let engine = SeEngine::from_checkpoint(&instance, config, ckpt).unwrap();
        assert_eq!(engine.restored_chains(), ckpt.chain_count());
        assert_eq!(engine.iteration(), 60);
        let outcome = engine.run();
        let admitted: Vec<u32> = outcome
            .best_solution
            .iter_selected()
            .map(|i| instance.shards()[i].committee().value())
            .collect();
        (outcome.best_utility.to_bits(), admitted)
    };
    // Every resume from the same snapshot lands on the same decision —
    // the recovery manager can hand the checkpoint to any replacement.
    let first = resume(&ckpt);
    let second = resume(&ckpt);
    assert_eq!(first, second, "resumed solves diverged");
}
