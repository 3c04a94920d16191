//! The simulator's report at the benchmark's scale, pinned across commits.

use mvcom_elastico::epoch::{ElasticoConfig, ElasticoSim};
use serde::Serialize;

/// One epoch in the benchmark's regime: eight committees of ~100 replicas
/// with Exp(70 s) verification, where a third of the pushed deliveries are
/// never popped and ~100 commit runs overlap in the event queue. The
/// constants were captured at aa0d74a, before the event queue carried its
/// payloads in the run keys.
#[test]
fn a_paper_scale_epoch_reproduces_the_pinned_report() {
    let fnv = |bytes: &[u8]| {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325_u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    };
    let mut sim = ElasticoSim::new(ElasticoConfig::with_nodes(800, 100), 5).unwrap();
    let report = sim.run_epoch().unwrap();
    let mut json = String::new();
    report.write_json(&mut json);
    let delivered: u64 = report
        .consensus
        .iter()
        .map(|(_, result)| result.messages_delivered)
        .sum();
    assert_eq!(report.consensus.len(), 8);
    assert_eq!(delivered, 108_512);
    assert_eq!(fnv(json.as_bytes()), 0x38b0_f000_cc9d_9ee6);
}
