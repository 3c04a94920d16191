//! Pinned [`PbftRunner`] outcomes on the epoch-simulation consensus mix.
//!
//! The constants were captured at commit 1ffabac (the parent of the commit
//! that deleted `crates/bench/benches/epoch_sim.rs`). That bench carried a
//! line-for-line port of the pre-fast-path event loop (`legacy::Runner`
//! over the frozen `ReferenceReplica`s: one event per scheduler
//! round-trip, full-committee rescans after every delivery) and asserted,
//! while timing, that it and [`PbftRunner`] return identical
//! [`ConsensusResult`]s. Before the deletion every task below was run
//! through both runners, the two results were confirmed equal, and the
//! common value was written down here — so the production runner is still
//! held to the legacy runner's answers without keeping the legacy runner.
//!
//! Tasks: the bench's `workload(2)` — per epoch `e ∈ {0, 1}` four n = 16
//! committees (seeds `1000·e + 100 + k`), eight n = 40 committees (seeds
//! `1000·e + 200 + k`) and one n = 16 committee with a silent leader (seed
//! `1000·e + 300`, commits in view 1) — plus the three honest
//! single-instance points the bench also compared (n = 16 / 40 / 100).

#![expect(
    clippy::unwrap_used,
    reason = "helpers outside #[test] fns panic like their callers"
)]
use mvcom_pbft::runner::{PbftConfig, PbftRunner};
use mvcom_pbft::{Behavior, ConsensusResult};
use mvcom_simnet::{rng, Network, NetworkConfig};
use mvcom_types::{Hash32, SimTime};

/// `(n, seed, silent_leader, latency bits, final_view, messages_delivered)`;
/// every task commits the proposed digest.
const GOLDEN: [(u32, u64, bool, u64, u64, u64); 29] = [
    (16, 100, false, 0x4003_111e_d4c9_93c7, 0, 349),
    (16, 101, false, 0x3ff1_cb13_be80_d5fd, 0, 366),
    (16, 102, false, 0x4000_5866_697d_facb, 0, 354),
    (16, 103, false, 0x4001_6c62_ca56_3061, 0, 349),
    (40, 200, false, 0x3ff9_c696_2dd7_4bb7, 0, 2169),
    (40, 201, false, 0x4003_1189_bc20_38f9, 0, 2160),
    (40, 202, false, 0x3ff8_b947_cc89_16e3, 0, 2153),
    (40, 203, false, 0x3ff9_84ba_5294_34de, 0, 2180),
    (40, 204, false, 0x4002_95c5_fb65_0191, 0, 2168),
    (40, 205, false, 0x4002_f5d9_81b6_27b2, 0, 2171),
    (40, 206, false, 0x4005_e3ea_07a2_983e, 0, 2212),
    (40, 207, false, 0x4000_40b9_8eaf_733e, 0, 2173),
    (16, 300, true, 0x404f_58b5_bd87_be3f, 1, 592),
    (16, 1100, false, 0x3ffe_3ce0_4501_9e45, 0, 349),
    (16, 1101, false, 0x4000_2396_a20d_91ae, 0, 348),
    (16, 1102, false, 0x3fef_910e_f510_d694, 0, 357),
    (16, 1103, false, 0x3ff7_1ff3_830e_20ad, 0, 351),
    (40, 1200, false, 0x4004_c93d_d07f_5ee5, 0, 2183),
    (40, 1201, false, 0x4006_b760_6233_5fbc, 0, 2222),
    (40, 1202, false, 0x4002_5baf_ac0f_6dd6, 0, 2194),
    (40, 1203, false, 0x3ff9_ebcd_27e0_c174, 0, 2166),
    (40, 1204, false, 0x3fff_62cf_297a_235c, 0, 2191),
    (40, 1205, false, 0x4000_85ca_3364_6841, 0, 2186),
    (40, 1206, false, 0x4001_7079_42e1_de24, 0, 2171),
    (40, 1207, false, 0x3ffd_c75e_679b_0feb, 0, 2180),
    (16, 1300, true, 0x404e_ef23_97ed_deae, 1, 608),
    (16, 7, false, 0x4009_a6d8_45f0_1255, 0, 354),
    (40, 8, false, 0x3ffc_374e_1d58_3b5e, 0, 2178),
    (100, 10, false, 0x3ffc_6dd9_39f8_9cd7, 0, 13508),
];

fn run(n: u32, seed: u64, silent_leader: bool, digest: Hash32) -> ConsensusResult {
    let mut config = PbftConfig::new(n).unwrap();
    if silent_leader {
        config = config.with_behavior(0, Behavior::Silent);
    }
    let mut master = rng::master(seed);
    let network = Network::new(NetworkConfig::lan(n), rng::fork(&mut master, "net")).unwrap();
    PbftRunner::new(config, network, rng::fork(&mut master, "pbft"))
        .run(digest)
        .unwrap()
}

#[test]
fn runner_matches_the_legacy_runner_goldens() {
    let digest = Hash32::digest(b"epoch-sim");
    for &(n, seed, silent_leader, latency_bits, final_view, messages_delivered) in &GOLDEN {
        assert_eq!(
            run(n, seed, silent_leader, digest),
            ConsensusResult {
                committed: true,
                latency: SimTime::from_secs(f64::from_bits(latency_bits)),
                digest,
                final_view,
                messages_delivered,
            },
            "n={n} seed={seed} silent_leader={silent_leader}"
        );
    }
}
