//! `mvcom-lint`: an exhaustive interleaving proof of the workspace's one
//! threaded protocol.
//!
//! [`model`] is a small interleaving-model DSL (states, atomic steps,
//! memoized exhaustive exploration, invariant closures) with one model on
//! it: the `ordered_map` claim/write protocol ([`model::merge`]), beside a
//! deliberately broken twin. The proof is this crate's unit tests;
//! `cargo test -p mvcom-lint` runs them.
//!
//! The workspace's *static* invariants (determinism, panic-freedom, float
//! ordering, hygiene) are clippy configuration, not code here: the root
//! `clippy.toml` and `[workspace.lints]` (DESIGN.md §7).

#![cfg_attr(
    test,
    allow(
        clippy::float_cmp,
        clippy::disallowed_types,
        reason = "unit tests compare floats bit for bit and use hash sets and locks as scaffolding"
    )
)]
pub mod model;

pub use model::{Exploration, Violation};
