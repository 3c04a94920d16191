//! End-to-end integration: dataset → Elastico protocol → MVCom scheduling
//! → final block, across multiple epochs.

use mvcom::elastico::epoch::EpochReport;
use mvcom::prelude::*;

fn final_start(report: &EpochReport) -> SimTime {
    report
        .shards
        .iter()
        .filter(|s| report.final_block.included.contains(&s.committee()))
        .map(|s| s.two_phase_latency())
        .max()
        .unwrap_or(SimTime::ZERO)
}

fn admitted_age(report: &EpochReport) -> f64 {
    let start = final_start(report);
    report
        .shards
        .iter()
        .filter(|s| report.final_block.included.contains(&s.committee()))
        .map(|s| (start - s.two_phase_latency()).as_secs())
        .sum()
}

#[test]
fn mvcom_accelerates_block_formation_over_wait_for_all() {
    let seed = 99;
    let epochs = 3;

    let mut vanilla_sim = ElasticoSim::new(ElasticoConfig::with_nodes(240, 12), seed).unwrap();
    let mut mvcom_sim = ElasticoSim::new(ElasticoConfig::with_nodes(240, 12), seed).unwrap();
    let mut selector = SeSelector::adaptive(seed, 0.6);

    let mut vanilla_start_total = 0.0;
    let mut mvcom_start_total = 0.0;
    let mut vanilla_age_total = 0.0;
    let mut mvcom_age_total = 0.0;
    for epoch in 0..epochs {
        let vanilla = vanilla_sim.run_epoch().unwrap();
        let (scheduled, _) = mvcom_sim
            .run_epoch_in(&mut selector, &EpochEnv::default())
            .unwrap();
        assert!(vanilla.final_block.committed);
        assert!(scheduled.final_block.committed);
        // Identical seeds → identical shard populations at epoch 0 only:
        // from epoch 1 on, the admitted set feeds the stage-5 randomness
        // (by design), so the two runs diverge into statistically
        // equivalent but distinct epochs.
        if epoch == 0 {
            assert_eq!(vanilla.shards, scheduled.shards);
        }
        // MVCom admits a strict, non-empty subset.
        assert!(!scheduled.final_block.included.is_empty());
        assert!(scheduled.final_block.included.len() <= vanilla.final_block.included.len());
        vanilla_start_total += final_start(&vanilla).as_secs();
        mvcom_start_total += final_start(&scheduled).as_secs();
        vanilla_age_total += admitted_age(&vanilla);
        mvcom_age_total += admitted_age(&scheduled);
    }
    // The paper's headline: eliminating stragglers lets the final
    // consensus start earlier and keeps transactions fresher.
    assert!(
        mvcom_start_total < vanilla_start_total,
        "MVCom should start the final consensus earlier ({mvcom_start_total} vs {vanilla_start_total})"
    );
    assert!(
        mvcom_age_total < vanilla_age_total * 0.5,
        "MVCom should at least halve the cumulative age ({mvcom_age_total} vs {vanilla_age_total})"
    );
}

#[test]
fn epoch_reports_are_internally_consistent() {
    let mut sim = ElasticoSim::new(ElasticoConfig::small_test(), 5).unwrap();
    for expected_epoch in 0..3u64 {
        let report = sim.run_epoch().unwrap();
        assert_eq!(report.epoch, EpochId(expected_epoch));
        // Every shard belongs to a formed committee.
        for shard in &report.shards {
            assert!(
                report.formed.iter().any(|c| c.id == shard.committee()),
                "{} has no formed committee",
                shard.committee()
            );
        }
        // Every consensus result corresponds to a formed committee.
        assert_eq!(report.consensus.len(), report.formed.len());
        // Total TXs of the block equal the sum over included shards.
        let sum: u64 = report
            .shards
            .iter()
            .filter(|s| report.final_block.included.contains(&s.committee()))
            .map(|s| s.tx_count())
            .sum();
        assert_eq!(report.final_block.total_txs, sum);
    }
}

#[test]
fn scheduling_from_real_protocol_latencies() {
    // Feed the latencies *measured* by the protocol simulator (not the
    // parametric model) into the scheduler and check the instance is sane.
    let mut sim = ElasticoSim::new(ElasticoConfig::with_nodes(240, 12), 31).unwrap();
    let report = sim.run_epoch().unwrap();
    let total: u64 = report.shards.iter().map(|s| s.tx_count()).sum();
    let instance = InstanceBuilder::new()
        .alpha(1.5)
        .capacity((total as f64 * 0.7) as u64)
        .n_min(report.shards.len() / 2)
        .shards(report.shards.clone())
        .build()
        .unwrap();
    let outcome = SeEngine::new(&instance, SeConfig::paper(31)).unwrap().run();
    assert!(instance.is_feasible(&outcome.best_solution));
    // The scheduler must not admit more TXs than the capacity.
    assert!(outcome.best_solution.tx_total() <= instance.capacity());
    // And must include at least N_min committees.
    assert!(outcome.best_solution.selected_count() >= instance.n_min());
}

#[test]
fn wait_for_all_start_time_is_gated_by_the_straggler() {
    let mut sim = ElasticoSim::new(ElasticoConfig::small_test(), 13).unwrap();
    let report = sim.run_epoch().unwrap();
    assert_eq!(final_start(&report), report.straggler_latency());
}
