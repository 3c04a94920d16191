//! The MVCom problem and the online distributed Stochastic-Exploration
//! scheduler — the primary contribution of *"MVCom: Scheduling Most Valuable
//! Committees for the Large-Scale Sharded Blockchain"* (ICDCS 2021).
//!
//! # The problem
//!
//! At each epoch of a sharded blockchain, member committees submit shards to
//! a final committee. Shard `i` carries `s_i` transactions and arrives with
//! two-phase latency `l_i`; the epoch deadline is `t = max_i l_i`. The final
//! committee must choose a subset `x ∈ {0,1}^|I|` maximizing
//!
//! ```text
//! U(x) = Σ_i x_i · (α·s_i − (t − l_i))
//! s.t.  Σ_i x_i ≥ N_min,    Σ_i x_i·s_i ≤ Ĉ
//! ```
//!
//! — a knapsack-hard tradeoff between throughput (`α·s_i`) and the
//! cumulative age `Π_i = t − l_i` of the transactions kept waiting
//! ([`problem`]). NP-hardness is witnessed by the reduction implemented in
//! [`problem::knapsack_reduction`].
//!
//! # The algorithm
//!
//! [`se`] implements the paper's Algorithm 1: a family of candidate
//! solutions (one Markov chain per admitted-shard cardinality `n`), each
//! repeatedly proposing a random swap of one admitted shard for one excluded
//! shard and arming an exponential timer with mean
//! `exp(−½β(U_f' − U_f)) / (|I| − n)` (eq. (7)'s τ is 0). The first timer
//! to expire commits its swap and broadcasts RESET; the race between
//! timers realizes a time-reversible Markov chain whose stationary
//! distribution is
//! `p*_f ∝ exp(β·U_f)` — so the process concentrates on near-optimal
//! solutions. Committee joins, leaves and failures are handled online
//! ([`dynamics`]).
//!
//! # The final committee
//!
//! [`admission`] states the per-epoch procedure around the algorithm
//! (Alg. 1 lines 22–30) once: stop listening at `N_max`, require `N_min`,
//! cap the block at `Ĉ`, run SE, admit the converged set — or, for a
//! degenerate epoch, admit everything like vanilla Elastico. The Elastico
//! selectors, the daemon, the adversarial figure and the cross-epoch
//! [`epoch_chain`] all go through it.
//!
//! # The theory
//!
//! [`theory`] turns the paper's analytical results into executable
//! functions: the log-sum-exp approximation gap `(1/β)·log|F|`, the
//! Theorem 1 mixing-time bounds, the Lemma 4 total-variation bound, the
//! Theorem 2 perturbation bound, and an exact stationary-distribution
//! calculator for small instances used to validate the sampler empirically.
//!
//! # Quick start
//!
//! ```
//! use mvcom_core::problem::InstanceBuilder;
//! use mvcom_core::se::{SeConfig, SeEngine};
//! use mvcom_types::{CommitteeId, ShardInfo, SimTime, TwoPhaseLatency};
//!
//! # fn main() -> Result<(), mvcom_types::Error> {
//! let shards: Vec<ShardInfo> = (0..20)
//!     .map(|i| {
//!         ShardInfo::new(
//!             CommitteeId(i),
//!             1_000 + 50 * u64::from(i),
//!             TwoPhaseLatency::from_total(SimTime::from_secs(600.0 + 10.0 * f64::from(i))),
//!         )
//!     })
//!     .collect();
//! let instance = InstanceBuilder::new()
//!     .alpha(1.5)
//!     .capacity(15_000)
//!     .n_min(5)
//!     .shards(shards)
//!     .build()?;
//! let outcome = SeEngine::new(&instance, SeConfig::fast_test(1))?.run();
//! assert!(outcome.best_solution.selected_count() >= 5);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![cfg_attr(
    test,
    allow(
        clippy::float_cmp,
        clippy::disallowed_types,
        reason = "unit tests compare floats bit for bit and use hash sets and locks as scaffolding"
    )
)]
pub mod admission;
pub mod defense;
pub mod dynamics;
pub mod epoch_chain;
pub mod eval;
pub mod problem;
pub mod se;
pub mod solution;
pub mod theory;

pub use defense::{
    DefenseCheckpoint, DefenseConfig, DefenseEngine, DefenseObservation, ScreenedReport,
};
pub use eval::EvalCache;
pub use problem::{DdlPolicy, Instance, InstanceBuilder};
pub use se::{SeConfig, SeEngine, SeOutcome};
pub use solution::Solution;
