//! The online distributed Stochastic-Exploration algorithm (paper §IV).
//!
//! # How the paper's Algorithm 1 maps onto this module
//!
//! * **Solution family.** For every feasible cardinality
//!   `n ∈ [N_min, min(|I|−1, n_cap)]` (where `n_cap` is the largest `n`
//!   whose smallest-`n` shards fit in `Ĉ`), a [`chain::Chain`] holds one
//!   candidate solution `f_n` with exactly `n` admitted shards,
//!   initialized per Algorithm 2 ([`chain::Chain::init`]).
//! * **Timers.** Following Algorithm 3, a chain draws pairs `(ĩ, ï)` —
//!   one admitted shard to drop, one excluded shard to admit — and arms an
//!   exponential timer with mean `exp(−½β(U_f' − U_f)) / (|I_j| − n)`
//!   per pair. Timers are compared in log-space so utility differences in
//!   the thousands cannot overflow.
//! * **State transit & RESET.** The paper's solution threads execute
//!   *concurrently* (§IV-A, Fig. 5): between two RESET broadcasts each
//!   thread's local timer expires roughly once in real time. The
//!   virtual-time engine images that as a *round*: per iteration, every
//!   chain races the timers of `proposal_fanout` sampled pairs and commits
//!   the winner — a sampled jump of the designed CTMC, whose winning
//!   neighbor is distributed ∝ its transition rate `exp(½β·ΔU)` —
//!   then all timers are RESET (Alg. 1 lines 14–20).
//! * **Γ parallel execution threads.** Following §IV-D ("each runs a set of
//!   feasible solutions {f_n}"), the engine hosts Γ independent *replicas*
//!   of the whole solution family; each iteration advances every replica by
//!   one round. Γ therefore trades extra exploration per iteration for
//!   diminishing returns — reproducing the saturation of Fig. 8.
//! * **Convergence & answer.** The run converges when the best utility has
//!   not improved for a configured window; the answer is the best feasible
//!   solution across all chains of all replicas, plus the full selection
//!   `f_{|I_j|}` when it fits in `Ĉ` (Alg. 1 line 25).
//!
//! Dynamic joining/leaving of committees is layered on top in
//! [`crate::dynamics`].

pub mod chain;
pub mod checkpoint;
pub mod config;
pub mod engine;

pub use checkpoint::{selected_indices, ChainSnapshot, SeCheckpoint};
pub use config::SeConfig;
pub use engine::{SeEngine, SeOutcome, Trajectory, TrajectoryPoint};
