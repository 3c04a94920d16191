//! The MVCom figure-regeneration harness.
//!
//! Every figure in the paper's evaluation (§VI) has a module under
//! [`experiments`] that rebuilds its workload, runs the SE scheduler and
//! the baselines with the paper's parameters, and emits the plotted series
//! as CSV plus a human-readable summary with the expected *shape checks*
//! (who wins, by how much, where it saturates). [`experiments::FIGURES`]
//! is the one list of them.
//!
//! ```text
//! cargo run --release -p mvcom-bench --bin repro -- --list   # the index
//! cargo run --release -p mvcom-bench --bin repro -- all      # run them
//! ```
//!
//! `--quick` shrinks the workloads ~10× for smoke testing. CSVs land in
//! `results/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Unit tests may unwrap freely; library code goes through the P1 rule of
// `mvcom-lint` and the workspace `clippy::unwrap_used` deny set instead.
#![cfg_attr(test, allow(clippy::unwrap_used))]
pub mod experiments;
pub mod figures;
pub mod harness;
pub mod plot;

pub use harness::{FigureReport, Scale};
