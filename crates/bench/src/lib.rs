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

#![warn(missing_docs)]
#![cfg_attr(
    test,
    allow(
        clippy::float_cmp,
        clippy::disallowed_types,
        reason = "unit tests compare floats bit for bit and use hash sets and locks as scaffolding"
    )
)]
pub mod experiments;
pub mod figures;
pub mod harness;
pub mod plot;

pub use harness::{FigureReport, Scale};
