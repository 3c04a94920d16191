//! Practical Byzantine Fault Tolerance for MVCom committees.
//!
//! Elastico's stage 3 (intra-committee consensus) and stage 4 (final
//! consensus) both run "a standard Byzantine protocol such as PBFT"
//! (Castro & Liskov, OSDI '99). This crate implements a single-decision
//! PBFT instance suitable for committee-level agreement on one shard block:
//!
//! * [`message`] — the wire protocol: `PRE-PREPARE`, `PREPARE`, `COMMIT`,
//!   `VIEW-CHANGE`, `NEW-VIEW`.
//! * [`replica`] — the per-node state machine with quorum tracking
//!   (`2f` matching prepares to *prepare*, `2f+1` matching commits to
//!   *commit*) and Byzantine behaviours for failure injection (silent
//!   replicas, an equivocating leader).
//! * [`runner`] — drives `n = 3f+1` replicas over a simulated
//!   [`Network`](mvcom_simnet::Network) with a deterministic event queue,
//!   including view changes when a faulty leader stalls the protocol.
//!
//! The measured three-phase latency of a run is exactly the
//! intra-committee consensus latency that enters MVCom's two-phase latency
//! `l_i`.
//!
//! # Example
//!
//! ```
//! use mvcom_pbft::runner::{PbftConfig, PbftRunner};
//! use mvcom_simnet::{rng, Network, NetworkConfig};
//! use mvcom_types::Hash32;
//!
//! # fn main() -> Result<(), mvcom_types::Error> {
//! let mut rng = rng::master(7);
//! let config = PbftConfig::new(4)?; // tolerates f = 1 fault
//! let network = Network::new(NetworkConfig::lan(4), rng::fork(&mut rng, "net"))?;
//! let result = PbftRunner::new(config, network, rng::fork(&mut rng, "pbft"))
//!     .run(Hash32::digest(b"shard block"))?;
//! assert!(result.committed);
//! assert!(result.latency.as_secs() > 0.0);
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
pub mod message;
pub mod replica;
pub mod runner;

pub use message::{Message, MessageKind};
pub use replica::{Behavior, Replica};
pub use runner::{ConsensusResult, PbftConfig, PbftRunner};
