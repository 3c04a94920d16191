//! Byte-identical replay regression for roster assembly (DESIGN.md §7).
//!
//! The directory protocol's roster maps are `BTreeMap`s, so the `Debug`
//! rendering of the configured committees — members, PoW completion,
//! formation latency — is a total fingerprint of stage 1–2. A
//! reintroduced `HashMap` (or any ambient entropy) in the lottery,
//! bucketing, or overlay path breaks byte-identity and this test names
//! the seed.

#![expect(
    clippy::unwrap_used,
    reason = "helpers outside #[test] fns panic like their callers"
)]
use mvcom_elastico::directory::{configure_overlay, DirectoryConfig};
use mvcom_elastico::epoch::{ElasticoConfig, ElasticoSim};
use mvcom_elastico::formation::{CommitteeFormation, OverlayConfig};
use mvcom_elastico::pow::{run_lottery, PowConfig};
use mvcom_simnet::{rng, Network, NetworkConfig};
use mvcom_types::Hash32;
use serde::Serialize;

fn fingerprint(seed: u64) -> String {
    let n = 150;
    let pow = PowConfig::paper(3);
    let mut master = rng::master(seed);
    let sols = run_lottery(&pow, n, Hash32::digest(b"replay"), &mut master).unwrap();
    let formation = CommitteeFormation::new(OverlayConfig::paper(), 4);
    let committees = formation
        .form(&pow, &sols, n, &mut rng::fork(&mut master, "form"))
        .unwrap();
    let mut network = Network::new(NetworkConfig::lan(n), rng::fork(&mut master, "net")).unwrap();
    let configured =
        configure_overlay(&DirectoryConfig::paper(), &sols, &committees, &mut network).unwrap();
    format!("{configured:?}")
}

#[test]
fn roster_assembly_is_byte_identical_for_two_seeds() {
    for seed in [11, 40_417] {
        let first = fingerprint(seed);
        let second = fingerprint(seed);
        assert_eq!(first, second, "seed {seed} did not replay byte-identically");
        assert!(first.len() > 100, "fingerprint suspiciously small: {first}");
    }
}

#[test]
fn different_seeds_produce_different_rosters() {
    assert_ne!(fingerprint(11), fingerprint(40_417));
}

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
