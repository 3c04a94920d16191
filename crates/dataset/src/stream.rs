//! Chunked shard generation for the 10⁴–10⁵ committee regime.
//!
//! [`EpochGenerator`](crate::epoch::EpochGenerator) materializes a full
//! `Vec<u64>` of TX counts and then a full `Vec<ShardInfo>` per epoch —
//! two `O(|I|)` intermediates plus a shuffled copy of the trace on the
//! partition path. At `|I| = 1000` that is noise; at `|I| = 10⁵` it is
//! the difference between streaming an instance off a ~1.4k-block trace
//! and holding three full copies of the epoch in flight.
//!
//! [`ShardStream`] generates the same kind of shards (with-replacement
//! block sampling, paper latency models) strictly per shard: each
//! `next()` draws `blocks_per_shard` block indices and one two-phase
//! latency, so the only `O(|I|)` allocation left is whatever the caller
//! chooses to accumulate. Chunk boundaries carry no state — consuming
//! the stream one shard at a time, in 4k chunks, or all at once yields
//! the identical shard sequence for a given seed (pinned by tests).
//!
//! The draw order is *per shard* (count, then latency), unlike the
//! legacy epoch API's counts-first-then-latencies order. The legacy
//! order is load-bearing for the byte-identical small-`|I|` figures, so
//! it stays frozen; this stream is the builder for the scale sweep and
//! anything else that outgrows the materialized path.

use rand::Rng;

use mvcom_types::{CommitteeId, Error, Result, ShardInfo};

use crate::epoch::LatencyConfig;
use crate::trace::Trace;

/// Shape of a streamed instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamConfig {
    /// Total number of shards (committees) the stream yields.
    pub shards: usize,
    /// Blocks aggregated into each shard (with-replacement draws).
    pub blocks_per_shard: usize,
}

impl StreamConfig {
    /// Validates parameter domains.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] when either count is zero.
    pub fn validate(&self) -> Result<()> {
        if self.shards == 0 {
            return Err(Error::invalid_config("shards", "must be positive"));
        }
        if self.blocks_per_shard == 0 {
            return Err(Error::invalid_config(
                "blocks_per_shard",
                "must be positive",
            ));
        }
        Ok(())
    }
}

/// A bounded, deterministic stream of ready-to-schedule shards.
///
/// # Example
///
/// ```
/// use mvcom_dataset::{LatencyConfig, ShardStream, StreamConfig, Trace, TraceConfig};
///
/// let trace = Trace::generate(TraceConfig::tiny(200), 1);
/// let config = StreamConfig { shards: 10_000, blocks_per_shard: 1 };
/// let mut stream = ShardStream::new(&trace, LatencyConfig::paper(), 7, config).unwrap();
/// let mut buf = Vec::new();
/// let mut total = 0usize;
/// while stream.next_chunk(&mut buf, 4096) > 0 {
///     total += buf.len(); // O(chunk) working set, never O(|I|)
/// }
/// assert_eq!(total, 10_000);
/// ```
#[derive(Debug)]
pub struct ShardStream<'a> {
    trace: &'a Trace,
    latency: LatencyConfig,
    rng: mvcom_simnet::SimRng,
    config: StreamConfig,
    next_committee: u32,
    produced: usize,
}

impl<'a> ShardStream<'a> {
    /// Creates a stream over `trace` with the given latency model, RNG
    /// seed, and shape.
    ///
    /// # Errors
    ///
    /// Propagates [`StreamConfig::validate`]; additionally
    /// [`Error::InvalidInstance`] on an empty trace.
    pub fn new(
        trace: &'a Trace,
        latency: LatencyConfig,
        seed: u64,
        config: StreamConfig,
    ) -> Result<ShardStream<'a>> {
        config.validate()?;
        if trace.blocks().is_empty() {
            return Err(Error::invalid_instance(
                "cannot stream shards from an empty trace",
            ));
        }
        Ok(ShardStream {
            trace,
            latency,
            rng: mvcom_simnet::rng::master(seed),
            config,
            next_committee: 0,
            produced: 0,
        })
    }

    /// Shards not yet produced.
    pub fn remaining(&self) -> usize {
        self.config.shards - self.produced
    }

    /// Clears `buf` and fills it with the next `min(max, remaining)`
    /// shards; returns how many were produced (0 when exhausted). The
    /// caller's `buf` is the *only* shard storage — reusing one buffer
    /// across calls makes the whole pass `O(max)` in memory.
    pub fn next_chunk(&mut self, buf: &mut Vec<ShardInfo>, max: usize) -> usize {
        buf.clear();
        let take = max.min(self.remaining());
        buf.extend((0..take).map(|_| self.produce_one()));
        take
    }

    fn produce_one(&mut self) -> ShardInfo {
        let blocks = self.trace.blocks();
        let txs: u64 = (0..self.config.blocks_per_shard)
            .map(|_| blocks[self.rng.gen_range(0..blocks.len())].txs)
            .sum();
        let id = CommitteeId(self.next_committee);
        self.next_committee += 1;
        self.produced += 1;
        ShardInfo::new(id, txs, self.latency.sample(&mut self.rng))
    }
}

impl Iterator for ShardStream<'_> {
    type Item = ShardInfo;

    fn next(&mut self) -> Option<ShardInfo> {
        if self.remaining() == 0 {
            return None;
        }
        Some(self.produce_one())
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining(), Some(self.remaining()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceConfig;

    fn trace() -> Trace {
        Trace::generate(TraceConfig::tiny(300), 9)
    }

    fn config(shards: usize) -> StreamConfig {
        StreamConfig {
            shards,
            blocks_per_shard: 1,
        }
    }

    #[test]
    fn chunk_size_does_not_change_the_shard_sequence() {
        let t = trace();
        let whole: Vec<ShardInfo> = ShardStream::new(&t, LatencyConfig::paper(), 11, config(1_000))
            .unwrap()
            .collect();
        assert_eq!(whole.len(), 1_000);
        for chunk_size in [1usize, 7, 64, 333, 5_000] {
            let mut stream =
                ShardStream::new(&t, LatencyConfig::paper(), 11, config(1_000)).unwrap();
            let mut buf = Vec::new();
            let mut rebuilt = Vec::new();
            while stream.next_chunk(&mut buf, chunk_size) > 0 {
                assert!(buf.len() <= chunk_size);
                rebuilt.extend(buf.iter().cloned());
            }
            assert_eq!(rebuilt, whole, "chunk_size={chunk_size}");
        }
    }

    #[test]
    fn ids_are_sequential_and_features_positive() {
        let t = trace();
        let stream = ShardStream::new(&t, LatencyConfig::paper(), 3, config(500)).unwrap();
        for (i, shard) in stream.enumerate() {
            assert_eq!(shard.committee().0 as usize, i);
            assert!(shard.tx_count() >= 1);
            assert!(shard.two_phase_latency().as_secs() > 0.0);
        }
    }

    #[test]
    fn deterministic_per_seed_and_distinct_across_seeds() {
        let t = trace();
        let a: Vec<ShardInfo> = ShardStream::new(&t, LatencyConfig::paper(), 5, config(200))
            .unwrap()
            .collect();
        let b: Vec<ShardInfo> = ShardStream::new(&t, LatencyConfig::paper(), 5, config(200))
            .unwrap()
            .collect();
        let c: Vec<ShardInfo> = ShardStream::new(&t, LatencyConfig::paper(), 6, config(200))
            .unwrap()
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn mean_tracks_the_trace() {
        let t = trace();
        let shards: Vec<ShardInfo> = ShardStream::new(
            &t,
            LatencyConfig::paper(),
            4,
            StreamConfig {
                shards: 5_000,
                blocks_per_shard: 2,
            },
        )
        .unwrap()
        .collect();
        let mean = shards.iter().map(ShardInfo::tx_count).sum::<u64>() as f64 / 5_000.0;
        let expected = 2.0 * t.mean_txs();
        assert!(
            (mean - expected).abs() / expected < 0.1,
            "mean {mean} vs {expected}"
        );
    }

    #[test]
    fn validation_rejects_degenerate_shapes() {
        let t = trace();
        assert!(StreamConfig {
            shards: 0,
            blocks_per_shard: 1
        }
        .validate()
        .is_err());
        assert!(StreamConfig {
            shards: 1,
            blocks_per_shard: 0
        }
        .validate()
        .is_err());
        assert!(ShardStream::new(
            &t,
            LatencyConfig::paper(),
            1,
            StreamConfig {
                shards: 0,
                blocks_per_shard: 1
            }
        )
        .is_err());
    }
}
