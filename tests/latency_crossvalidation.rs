//! Cross-validation of the two latency paths (DESIGN.md §5): the
//! parametric `EpochGenerator` model used by the scheduling experiments
//! must be statistically consistent with the latencies *measured* by
//! actually running the Elastico protocol.

#![expect(
    clippy::unwrap_used,
    reason = "helpers outside #[test] fns panic like their callers"
)]
use mvcom::prelude::*;
use mvcom::simnet::stats::Summary;

fn measured_latencies(epochs: usize, seed: u64) -> (Summary, Summary) {
    let mut sim = ElasticoSim::new(ElasticoConfig::with_nodes(300, 12), seed).unwrap();
    let mut formation = Summary::new();
    let mut consensus = Summary::new();
    for _ in 0..epochs {
        let report = sim.run_epoch().unwrap();
        for shard in &report.shards {
            formation.add(shard.latency().formation().as_secs());
            consensus.add(shard.latency().consensus().as_secs());
        }
    }
    (formation, consensus)
}

#[test]
fn measured_consensus_latency_matches_the_paper_mean() {
    // Paper §VI-A: "the expectation of consensus latency is set to 54.5
    // seconds". The protocol path is calibrated to that; allow ±30% since
    // the estimate comes from a finite sample of PBFT runs.
    let (_, consensus) = measured_latencies(8, 17);
    assert!(consensus.count() >= 100, "need enough samples");
    let mean = consensus.mean();
    assert!(
        (mean - 54.5).abs() / 54.5 < 0.30,
        "measured consensus mean {mean}s is not within 30% of 54.5s"
    );
}

#[test]
fn parametric_and_protocol_paths_agree_on_the_consensus_scale() {
    let (_, measured) = measured_latencies(6, 18);
    let parametric = LatencyConfig::paper();
    // Parametric consensus mean is exactly 54.5 by construction.
    let ratio = measured.mean() / parametric.consensus.mean();
    assert!(
        (0.6..=1.4).contains(&ratio),
        "protocol/parametric consensus ratio {ratio} out of range"
    );
}

#[test]
fn formation_dominates_consensus_in_both_paths() {
    let (formation, consensus) = measured_latencies(4, 19);
    assert!(formation.mean() > 10.0 * consensus.mean());
    let parametric = LatencyConfig::paper();
    assert!(parametric.formation.mean() > 10.0 * parametric.consensus.mean());
}

#[test]
fn protocol_latencies_are_dispersed_like_fig_2b() {
    // Fig. 2(b): both components "show a random distribution within a
    // particular range" — neither collapses to a constant.
    let (formation, consensus) = measured_latencies(6, 20);
    assert!(formation.std_dev() > 0.1 * formation.mean());
    assert!(consensus.std_dev() > 0.1 * consensus.mean());
}
