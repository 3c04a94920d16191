//! Deterministic discrete-event simulation engine and P2P network model.
//!
//! This crate is the substrate beneath the Elastico sharding simulator
//! (`mvcom-elastico`) and the PBFT implementation (`mvcom-pbft`). It
//! provides:
//!
//! * [`rng`] — reproducible random-number streams: every stochastic
//!   component draws from a [`rng::SimRng`] forked from a single master
//!   seed, so a whole simulation replays bit-for-bit.
//! * [`event`] — a time-ordered [`event::EventQueue`] of `Copy` payloads
//!   with stable FIFO tie-breaking, plus the [`event::Scheduler`] clock
//!   wrapper.
//! * [`latency`] — parametric [`latency::LatencyModel`]s (constant,
//!   uniform, exponential, log-normal, shifted variants) used for PoW solve
//!   times, link delays and verification costs.
//! * [`net`] — a simulated P2P [`net::Network`]: point-to-point messages
//!   with sampled delay, broadcast, and a ping whose latency is infinite
//!   across a fault.
//! * [`chaos`] — seeded deterministic fault injection (message drops,
//!   latency spikes, scheduled node outages), the network's only fault
//!   model, so every protocol above it can be chaos-wrapped without code
//!   changes.
//! * [`fanout`] — [`fanout::ordered_map`], the workspace's one
//!   deterministic fan-out: `repro --threads` reaches it, and the SE engine
//!   build runs its replicas on it; it lives beside the [`rng::fork`]
//!   seed-per-task helper it is always used with.
//! * [`stats`] — streaming summary statistics and empirical CDFs used by
//!   the measurement figures.
//!
//! # Example: a tiny two-event simulation
//!
//! ```
//! use mvcom_simnet::event::Scheduler;
//! use mvcom_types::SimTime;
//!
//! #[derive(Debug, Clone, Copy, PartialEq)]
//! enum Ev { Ping, Pong }
//!
//! let mut sched = Scheduler::new();
//! sched.schedule_in(SimTime::from_secs(1.0), Ev::Ping);
//! sched.schedule_in(SimTime::from_secs(2.0), Ev::Pong);
//!
//! let (t1, e1) = sched.next_event().unwrap();
//! assert_eq!((t1.as_secs(), e1), (1.0, Ev::Ping));
//! let (t2, e2) = sched.next_event().unwrap();
//! assert_eq!((t2.as_secs(), e2), (2.0, Ev::Pong));
//! assert!(sched.next_event().is_none());
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
pub mod chaos;
pub mod event;
pub mod fanout;
pub mod latency;
pub mod net;
pub mod rng;
pub mod stats;

pub use chaos::{ChaosConfig, ChaosInjector, ChaosStats, CrashEvent};
pub use event::{EventQueue, Scheduler};
pub use fanout::ordered_map;
pub use latency::LatencyModel;
pub use net::{Network, NetworkConfig};
pub use rng::SimRng;
