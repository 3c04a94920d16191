//! Pinned whole-engine outputs on an instance whose top cardinalities
//! exhaust `init_attempts`, so Algorithm 2's deterministic smallest-`n`
//! fallback decides part of the initial family.
//!
//! The constants were captured at 02332d9, when every chain built its own
//! latency sort and SoA columns, `Chain::init` materialised a `Solution`
//! per shuffled candidate and the fallback re-sorted the shards by size.
//! They hold the shared [`mvcom_core::eval::ShardColumns`] path to the
//! same RNG stream, the same `lat_total` accumulation order and the same
//! stable by-size fallback selection — bit for bit, under both deadline
//! policies, through a checkpoint → JSON → restore round trip. A
//! checkpoint is hashed in the index-list rendering it was captured in
//! (`checkpoint_digest`), so the pins hold its content, whatever layout
//! the checkpoint itself stores selections in.
//!
//! The dynamics leg (constants captured at bce9c14, when `SeEngine::new`,
//! `from_checkpoint` and join/leave each assembled the replica family by
//! hand and a warm start scanned the pool linearly per chain) walks the
//! same instance through a `Trim` leave, a `Trim` join and a
//! `Reinitialize` leave, so the one replica builder and its
//! cardinality-keyed warm pool are pinned to the same chains, RNG streams
//! and trajectory.

#![expect(
    clippy::unwrap_used,
    reason = "helpers outside #[test] fns panic like their callers"
)]
use mvcom_core::dynamics::DynamicsPolicy;
use mvcom_core::problem::{DdlPolicy, Instance, InstanceBuilder};
use mvcom_core::se::{selected_indices, SeCheckpoint, SeConfig, SeEngine, SeOutcome};
use mvcom_types::{CommitteeId, ShardInfo, SimTime, TwoPhaseLatency};
use serde::Serialize;

const SHARDS: usize = 48;
/// The capacity admits exactly the `TOP` smallest shards (plus 3 txs of
/// slack), so a uniformly random `TOP`-subset essentially never fits.
const TOP: usize = 18;

fn size(i: usize) -> u64 {
    // 48 shards over 40 residues: sizes tie, and one tie straddles the
    // `TOP` boundary, so the fallback's tie-break (by index) is pinned.
    50 + (i as u64 * 29) % 40
}

/// The `n` smallest shards under a *stable* sort by size (ties by index).
fn smallest(n: usize) -> Vec<usize> {
    let mut by_size: Vec<usize> = (0..SHARDS).collect();
    by_size.sort_by_key(|&i| size(i));
    by_size.truncate(n);
    by_size.sort_unstable();
    by_size
}

fn instance(policy: DdlPolicy) -> Instance {
    let capacity: u64 = smallest(TOP).iter().map(|&i| size(i)).sum::<u64>() + 3;
    InstanceBuilder::new()
        .alpha(1.5)
        .capacity(capacity)
        .n_min(6)
        .ddl_policy(policy)
        .shards(
            (0..SHARDS)
                .map(|i| {
                    ShardInfo::new(
                        CommitteeId(i as u32),
                        size(i),
                        TwoPhaseLatency::from_total(SimTime::from_secs(
                            300.0 + ((i as f64 * 71.0) % 500.0),
                        )),
                    )
                })
                .collect(),
        )
        .build()
        .unwrap()
}

fn config() -> SeConfig {
    SeConfig {
        max_iterations: 120,
        convergence_window: 0,
        ..SeConfig::fast_test(11)
    }
}

/// FNV-1a over a rendered value — one word per pinned artefact.
fn fnv(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A checkpoint as the goldens were captured: selections as index lists,
/// fields in their order of the time.
#[derive(Serialize)]
struct IndexCheckpoint {
    version: u64,
    seed: u64,
    iteration: u64,
    vtime: f64,
    best_selected: Vec<usize>,
    best_utility: f64,
    replicas: Vec<Vec<IndexChain>>,
}

#[derive(Serialize)]
struct IndexChain {
    cardinality: usize,
    selected: Vec<usize>,
}

/// FNV-1a of `ckpt` rendered with index lists, so the pins keep holding
/// the checkpoint's content whatever layout the format stores it in.
fn checkpoint_digest(ckpt: &SeCheckpoint) -> u64 {
    let indexed = IndexCheckpoint {
        version: ckpt.version,
        seed: ckpt.seed,
        iteration: ckpt.iteration,
        vtime: ckpt.vtime,
        best_selected: selected_indices(&ckpt.best_words).collect(),
        best_utility: ckpt.best_utility,
        replicas: ckpt
            .replicas
            .iter()
            .map(|chains| {
                chains
                    .iter()
                    .map(|c| IndexChain {
                        cardinality: c.cardinality,
                        selected: selected_indices(&c.words).collect(),
                    })
                    .collect()
            })
            .collect(),
    };
    fnv(&serde_json::to_string(&indexed).unwrap())
}

fn outcome_digest(outcome: &SeOutcome) -> (u64, u64, u64) {
    let selected: Vec<usize> = outcome.best_solution.iter_selected().collect();
    let trajectory: Vec<(u64, u64, u64, u64)> = outcome
        .trajectory
        .points()
        .iter()
        .map(|p| {
            (
                p.iteration,
                p.vtime.to_bits(),
                p.current_best.to_bits(),
                p.best_so_far.to_bits(),
            )
        })
        .collect();
    (
        outcome.best_utility.to_bits(),
        fnv(&format!("{selected:?}")),
        fnv(&format!("{trajectory:?}")),
    )
}

/// Everything one policy pins.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    /// `(cardinality, utility bits)` of every chain of a fresh engine.
    chain_utilities: u64,
    /// The fresh engine's checkpoint (every initial selection), rendered
    /// with index lists.
    init_checkpoint: u64,
    /// `(best utility bits, best selection, trajectory)` of `run()`.
    run: (u64, u64, u64),
    /// The checkpoint taken after 60 steps, after a JSON round trip.
    mid_checkpoint: u64,
    /// Chain utilities of the engine restored from that JSON.
    restored_chain_utilities: u64,
    /// The restored engine stepped to the budget and finished.
    restored_run: (u64, u64, u64),
    /// Its checkpoint just before finishing.
    final_checkpoint: u64,
}

fn chain_utilities_digest(engine: &SeEngine) -> u64 {
    let bits: Vec<(usize, u64)> = engine
        .chain_utilities()
        .into_iter()
        .map(|(n, u)| (n, u.to_bits()))
        .collect();
    fnv(&format!("{bits:?}"))
}

fn observe(policy: DdlPolicy) -> Golden {
    let inst = instance(policy);
    assert_eq!(inst.max_feasible_cardinality(), TOP);

    let fresh = SeEngine::new(&inst, config()).unwrap();
    let init = fresh.checkpoint();
    // The capacity-ceiling chain of every replica came out of the
    // fallback: it holds exactly the TOP smallest shards, ties by index.
    for replica in &init.replicas {
        let top = replica.last().unwrap();
        assert_eq!(top.cardinality, TOP);
        let selected: Vec<usize> = selected_indices(&top.words).collect();
        assert_eq!(selected, smallest(TOP));
    }
    let chain_utilities = chain_utilities_digest(&fresh);
    let init_checkpoint = checkpoint_digest(&init);
    let run = outcome_digest(&fresh.run());

    let mut engine = SeEngine::new(&inst, config()).unwrap();
    for _ in 0..60 {
        engine.step();
    }
    let json = serde_json::to_string(&engine.checkpoint()).unwrap();
    let ckpt: SeCheckpoint = serde_json::from_str(&json).unwrap();
    let mid_checkpoint = checkpoint_digest(&ckpt);
    let mut restored = SeEngine::from_checkpoint(&inst, config(), &ckpt).unwrap();
    let restored_chain_utilities = chain_utilities_digest(&restored);
    while restored.iteration() < config().max_iterations {
        restored.step();
    }
    let final_checkpoint = checkpoint_digest(&restored.checkpoint());
    let restored_run = outcome_digest(&restored.finish());

    Golden {
        chain_utilities,
        init_checkpoint,
        run,
        mid_checkpoint,
        restored_chain_utilities,
        restored_run,
        final_checkpoint,
    }
}

#[test]
fn max_arrival_engine_matches_the_per_chain_column_goldens() {
    assert_eq!(
        observe(DdlPolicy::MaxArrival),
        Golden {
            chain_utilities: 0xd0cd_5a12_fe30_26ee,
            init_checkpoint: 0x0630_99b2_2527_f490,
            run: (
                0x4085_0000_0000_0000,
                0xa360_7f1f_c7ef_661f,
                0x7429_c343_9603_4716,
            ),
            mid_checkpoint: 0x4147_4e48_ca4b_f284,
            restored_chain_utilities: 0xa704_5822_6a46_fe2c,
            restored_run: (
                0x4084_4400_0000_0000,
                0xeb1f_95d7_643a_1da9,
                0xf7e0_6d55_330a_4b67,
            ),
            final_checkpoint: 0xadce_5715_3eb2_dd52,
        }
    );
}

#[test]
fn max_selected_engine_matches_the_per_chain_column_goldens() {
    assert_eq!(
        observe(DdlPolicy::MaxSelected),
        Golden {
            chain_utilities: 0xc5f3_0879_faa3_bd56,
            init_checkpoint: 0xd99c_a78d_7131_ddc0,
            run: (
                0x4089_5c00_0000_0000,
                0x81c6_7ce4_4308_0aed,
                0x4aa7_354c_8904_8da7,
            ),
            mid_checkpoint: 0xe1cb_7145_bb75_aa4a,
            restored_chain_utilities: 0xf780_0fd6_c0f2_dea1,
            restored_run: (
                0x4089_a800_0000_0000,
                0xebaa_ec3e_f528_bc52,
                0x4d31_d734_3467_84d4,
            ),
            final_checkpoint: 0x52ad_e70f_6579_122d,
        }
    );
}

/// What one policy pins across three dynamic events, 30 steps apart.
#[derive(Debug, PartialEq, Eq)]
struct DynamicsGolden {
    /// Chain utilities right after committee 5 leaves under `Trim`: the
    /// chains that held it drop one cardinality, so the warm pool offers
    /// two candidates for most cardinalities and the first one wins.
    after_trim_leave: u64,
    /// … after a straggler joins under `Trim` (the deadline moves, every
    /// warm chain is re-priced, the capacity ceiling stays fresh).
    after_trim_join: u64,
    /// … after committee 17 leaves under `Reinitialize` (no warm pool).
    after_reinit_leave: u64,
    /// 30 more steps, then `finish()`: the trajectory spans all events.
    run: (u64, u64, u64),
}

fn observe_dynamics(policy: DdlPolicy) -> DynamicsGolden {
    fn steps(engine: &mut SeEngine) {
        for _ in 0..30 {
            engine.step();
        }
    }
    let mut engine = SeEngine::new(&instance(policy), config()).unwrap();
    steps(&mut engine);
    engine
        .handle_leave(CommitteeId(5), DynamicsPolicy::Trim)
        .unwrap();
    let after_trim_leave = chain_utilities_digest(&engine);
    steps(&mut engine);
    let straggler = ShardInfo::new(
        CommitteeId(100),
        57,
        TwoPhaseLatency::from_total(SimTime::from_secs(950.0)),
    );
    engine.handle_join(straggler, DynamicsPolicy::Trim).unwrap();
    let after_trim_join = chain_utilities_digest(&engine);
    steps(&mut engine);
    engine
        .handle_leave(CommitteeId(17), DynamicsPolicy::Reinitialize)
        .unwrap();
    let after_reinit_leave = chain_utilities_digest(&engine);
    steps(&mut engine);
    DynamicsGolden {
        after_trim_leave,
        after_trim_join,
        after_reinit_leave,
        run: outcome_digest(&engine.finish()),
    }
}

#[test]
fn dynamics_leg_matches_the_hand_assembled_family_goldens() {
    assert_eq!(
        observe_dynamics(DdlPolicy::MaxArrival),
        DynamicsGolden {
            after_trim_leave: 0x59b3_9047_a3b2_5c79,
            after_trim_join: 0x662a_141e_7e74_d3c9,
            after_reinit_leave: 0x30c1_ce36_03ca_03c7,
            run: (
                0xc070_5000_0000_0000,
                0xd5d5_7a18_2bf0_7379,
                0xc969_68d1_a81c_0490,
            ),
        }
    );
    assert_eq!(
        observe_dynamics(DdlPolicy::MaxSelected),
        DynamicsGolden {
            after_trim_leave: 0x57bc_2843_e16a_f8f1,
            after_trim_join: 0x5408_6e34_1014_efcb,
            after_reinit_leave: 0x276b_014f_565f_f829,
            run: (
                0x4087_8c00_0000_0000,
                0xb15e_1caf_1ad7_32dd,
                0x62ea_820e_a670_1bc5,
            ),
        }
    );
}
