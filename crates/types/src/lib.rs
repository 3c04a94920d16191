//! Core domain types shared by every crate in the MVCom workspace.
//!
//! This crate defines the vocabulary of the system reproduced from
//! *"MVCom: Scheduling Most Valuable Committees for the Large-Scale Sharded
//! Blockchain"* (ICDCS 2021): identifiers for nodes, committees, epochs and
//! shards; the simulated-time axis; the *two-phase latency* of a committee
//! (formation + intra-committee consensus); the per-shard features the final
//! committee evaluates; and the shared error type.
//!
//! Everything here is a plain data structure — no behaviour beyond
//! validation — so the simulator (`mvcom-simnet`, `mvcom-elastico`), the
//! consensus layer (`mvcom-pbft`) and the scheduler (`mvcom-core`) can
//! interoperate without depending on one another.
//!
//! # Example
//!
//! ```
//! use mvcom_types::{CommitteeId, ShardInfo, SimTime, TwoPhaseLatency};
//!
//! let latency = TwoPhaseLatency::new(SimTime::from_secs(800.0), SimTime::from_secs(50.0));
//! let shard = ShardInfo::new(CommitteeId(3), 12_000, latency);
//! assert_eq!(shard.two_phase_latency().as_secs(), 850.0);
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
pub mod error;
pub mod hash;
pub mod id;
pub mod latency;
pub mod shard;
pub mod time;

pub use error::{Error, Result};
pub use hash::Hash32;
pub use id::{BlockId, CommitteeId, EpochId, NodeId, ShardId, TxId};
pub use latency::TwoPhaseLatency;
pub use latency::{approx_eq, max_by_f64, min_by_f64, sort_by_f64, sort_by_f64_desc};
pub use shard::{CommitteeReport, ShardInfo};
pub use time::SimTime;
