//! An Elastico-style sharding-protocol simulator.
//!
//! The MVCom paper builds on Elastico (Luu et al., CCS '16), whose epoch
//! has five stages (paper §I):
//!
//! 1. **Committee formation** — nodes solve PoW puzzles to establish
//!    identities; the puzzle's last bits assign each node to a committee.
//! 2. **Overlay configuration** — committee members discover each other by
//!    exchanging membership through directory nodes, a cost that grows with
//!    the network size.
//! 3. **Intra-committee consensus** — each committee runs PBFT over its
//!    shard of transactions.
//! 4. **Final consensus** — the final committee merges the shards into a
//!    global block (this is where MVCom's scheduler intervenes).
//! 5. **Epoch randomness** — the final committee refreshes the shared
//!    randomness that seeds the next epoch's PoW.
//!
//! This crate simulates all five stages on the `mvcom-simnet` substrate
//! with real `mvcom-pbft` runs for stages 3 and 4, reproducing the
//! *two-phase latency* measurements of paper Fig. 2 and providing the
//! end-to-end epoch pipeline the integration tests and examples drive.
//!
//! * [`pow`] — the PoW identity lottery and formation-latency model.
//! * [`formation`] — grouping solved identities into committees and
//!   timing the overlay configuration.
//! * [`epoch`] — the five-stage epoch runner producing
//!   [`ShardInfo`](mvcom_types::ShardInfo)s and a final block, the
//!   [`EpochEnv`] it runs against (honest or adversarial reports, direct
//!   or chaos delivery), and [`ShardSelector`](epoch::ShardSelector), the
//!   one stage-4 seam.
//! * [`detector`] — the phi-accrual heartbeat failure detector the final
//!   committee runs over its member committees (paper §V-A).
//! * [`recovery`] — stage 4's fault-tolerant delivery: chaos-wrapped
//!   shard submission with retries, heartbeat-driven failure detection,
//!   online re-solving through the selector's online verbs, and graceful
//!   degradation to a block of survivors.
//!
//! # Example
//!
//! ```
//! use mvcom_elastico::epoch::{ElasticoConfig, ElasticoSim};
//!
//! # fn main() -> Result<(), mvcom_types::Error> {
//! let config = ElasticoConfig::small_test();
//! let mut sim = ElasticoSim::new(config, 42)?;
//! let report = sim.run_epoch()?;
//! assert!(!report.shards.is_empty());
//! assert!(report.final_block.committed);
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
pub mod detector;
pub mod epoch;
pub mod formation;
pub mod pow;
pub mod recovery;

pub use detector::{CommitteeHealth, DetectorStats, HeartbeatConfig, HeartbeatMonitor};
pub use epoch::{ElasticoConfig, ElasticoSim, EpochEnv, EpochReport, FinalBlock};
pub use formation::{CommitteeFormation, FormedCommittee};
pub use pow::{PowConfig, PowSolution};
pub use recovery::{RecoveryConfig, RobustnessReport};
