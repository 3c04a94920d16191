//! Synthetic Bitcoin-like transaction dataset and epoch shard sampling.
//!
//! The paper evaluates MVCom on "the dataset of real-world blockchain
//! transactions": the first 1,500,000 transactions recorded in January 2016,
//! from which 1,378 transaction blocks were sampled; each record carries
//! `blockID`, `bhash`, `btime` and `txs` (§VI-A). That snapshot is not
//! redistributable, so this crate generates a **statistically equivalent
//! synthetic trace**: Poisson block arrivals with the Bitcoin target
//! inter-block time (~600 s) and per-block transaction counts drawn from a
//! log-normal matched to the snapshot's mean (1.5 M / 1378 ≈ 1089 TXs per
//! block). The MVCom scheduler consumes only per-shard transaction counts
//! and latencies, so matching these marginals preserves every behaviour the
//! evaluation exercises (see DESIGN.md §5).
//!
//! * [`block`] — the `TxBlock` record (`blockID`, `bhash`, `btime`, `txs`).
//! * [`trace`] — [`trace::TraceConfig`] / [`trace::Trace`]: the generator
//!   and (de)serialization.
//! * [`sampler`] — [`sampler::ShardSampler`]: groups sampled blocks into
//!   per-committee shards for one epoch, exactly as §VI-A describes.
//! * [`epoch`] — [`epoch::EpochGenerator`]: attaches two-phase latencies to
//!   sampled shards, producing ready-to-schedule `Vec<ShardInfo>`.
//! * [`stream`] — [`stream::ShardStream`]: chunked `O(chunk)`-memory shard
//!   generation for `|I| = 10⁴–10⁵` instances (chunk-size-invariant,
//!   deterministic per seed).
//! * [`adversary`] — strategic committee behaviours (`Misreport`,
//!   `Freerider`, `Starver`) and the stable-identity
//!   [`adversary::StrategicPopulation`] the reputation defenses learn over.
//!
//! # Example
//!
//! ```
//! use mvcom_dataset::{Trace, TraceConfig};
//!
//! let trace = Trace::generate(TraceConfig::jan_2016(), 42);
//! assert_eq!(trace.blocks().len(), 1378);
//! let total: u64 = trace.blocks().iter().map(|b| b.txs).sum();
//! assert!((1_300_000..1_700_000).contains(&total));
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
pub mod adversary;
pub mod block;
pub mod epoch;
pub mod sampler;
pub mod stream;
pub mod trace;

pub use adversary::{
    build_adversary, Adversary, AdversaryConfig, CommitteeReport, Freerider, Misreport, Starver,
    StrategicPopulation,
};
pub use block::TxBlock;
pub use epoch::{EpochGenerator, LatencyConfig};
pub use sampler::ShardSampler;
pub use stream::{ShardStream, StreamConfig};
pub use trace::{Trace, TraceConfig};
