//! Serializable snapshots of the SE engine's solver state.
//!
//! The paper's SE threads "can run in either one single machine or
//! multiple distributed machines" (§IV-D); a distributed solver process
//! can therefore be killed mid-run. A [`SeCheckpoint`] captures everything
//! needed to resume — every chain's current solution per replica, the best
//! solution so far and both clocks — as plain data (`serde`-serializable,
//! so it survives a process boundary as JSON). Restoring through
//! [`SeEngine::from_checkpoint`](crate::se::SeEngine::from_checkpoint)
//! rebuilds the chains from their recorded solutions and re-derives fresh
//! deterministic RNG streams keyed by the checkpoint version, so a resumed
//! run is reproducible without serializing RNG internals.
//!
//! A selection is stored as the words of a bitset: bit `i % 64` of word
//! `⌊i/64⌋` marks shard `i`, in `⌈|I|/64⌉` words ([`selected_indices`]
//! reads them back). The daemon's history format embeds that layout, so it
//! is defined here rather than borrowed from
//! [`Solution`](crate::solution::Solution)'s internals.
//!
//! Checkpoints are *version-stamped* with the iteration they were taken
//! at; a recovery manager holding several can always prefer the newest and
//! discard stale ones, mirroring the versioned RESET signals of the
//! parallel runner.
//!
//! # Example: kill → JSON → resume
//!
//! ```
//! use mvcom_core::problem::InstanceBuilder;
//! use mvcom_core::se::{SeCheckpoint, SeConfig, SeEngine};
//! use mvcom_types::{CommitteeId, ShardInfo, SimTime, TwoPhaseLatency};
//!
//! # fn main() -> Result<(), mvcom_types::Error> {
//! let shards = (0..10).map(|i| ShardInfo::new(
//!     CommitteeId(i),
//!     100 + 10 * u64::from(i),
//!     TwoPhaseLatency::from_total(SimTime::from_secs(500.0 + 10.0 * f64::from(i))),
//! )).collect();
//! let instance = InstanceBuilder::new()
//!     .alpha(2.0).capacity(2_000).n_min(2).shards(shards).build()?;
//! let mut engine = SeEngine::new(&instance, SeConfig::fast_test(3))?;
//! for _ in 0..40 { engine.step(); }
//! let ckpt = engine.checkpoint();
//! assert_eq!(ckpt.version, 40);
//! drop(engine); // the solver process dies here
//!
//! // The snapshot survives a process boundary as JSON…
//! let json = serde_json::to_string(&ckpt).expect("checkpoints serialize");
//! let ckpt: SeCheckpoint = serde_json::from_str(&json).expect("and parse back");
//! // …and a replacement solver resumes where the original stood.
//! let restored = SeEngine::from_checkpoint(&instance, SeConfig::fast_test(3), &ckpt)?;
//! assert_eq!(restored.iteration(), 40);
//! assert_eq!(restored.restored_chains(), ckpt.chain_count());
//! # Ok(())
//! # }
//! ```

use serde::{Deserialize, Serialize};

use mvcom_types::{Error, Result};

/// One chain's position in the solution space: its selection as bitset
/// words (the layout of [`selected_indices`]).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChainSnapshot {
    /// The chain's cardinality (must equal the number of bits set).
    pub cardinality: usize,
    /// The selected shards: bit `i % 64` of word `i / 64` marks shard `i`
    /// of the instance's shard order, in `⌈|I|/64⌉` words.
    pub words: Vec<u64>,
}

/// A full snapshot of a running [`SeEngine`](crate::se::SeEngine).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SeCheckpoint {
    /// Version stamp: the iteration the snapshot was taken at. Recovery
    /// managers keep the largest version and drop stale snapshots.
    pub version: u64,
    /// The seed of the run that produced the snapshot (restore refuses a
    /// mismatched configuration).
    pub seed: u64,
    /// Iterations executed when the snapshot was taken.
    pub iteration: u64,
    /// Accumulated virtual time.
    pub vtime: f64,
    /// The best feasible solution so far, as bitset words (the layout of
    /// [`ChainSnapshot::words`]).
    pub best_words: Vec<u64>,
    /// Utility of that best solution.
    pub best_utility: f64,
    /// Per replica, per chain: the current solution.
    pub replicas: Vec<Vec<ChainSnapshot>>,
}

/// The shards a selection's `words` mark, in increasing order: bit
/// `i % 64` of word `i / 64` is shard `i`.
pub fn selected_indices(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(w, &word)| {
        let mut rest = word;
        std::iter::from_fn(move || {
            let bit = rest.trailing_zeros() as usize;
            rest &= rest.wrapping_sub(1);
            (bit < 64).then_some(w * 64 + bit)
        })
    })
}

impl SeCheckpoint {
    /// Total chains recorded across all replicas.
    pub fn chain_count(&self) -> usize {
        self.replicas.iter().map(Vec::len).sum()
    }

    /// Checks internal consistency against an instance of `instance_len`
    /// shards: every selection holds exactly `⌈instance_len/64⌉` words
    /// and no bit at or past `instance_len`, and each chain sets as many
    /// bits as its cardinality says. The reason names the failing field's
    /// path, e.g. `replicas[0][3].words[1]: …`.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] describing the corruption.
    pub fn validate(&self, instance_len: usize) -> Result<()> {
        if let Some(why) = misfit(&self.best_words, instance_len) {
            return Err(Error::invalid_config(
                "best_words",
                format!("best_words{why}"),
            ));
        }
        for (r, chains) in self.replicas.iter().enumerate() {
            for (c, snap) in chains.iter().enumerate() {
                let set: usize = snap.words.iter().map(|w| w.count_ones() as usize).sum();
                let why = misfit(&snap.words, instance_len).or_else(|| {
                    (set != snap.cardinality).then(|| {
                        format!(
                            ": {set} bits set, but the cardinality is {}",
                            snap.cardinality
                        )
                    })
                });
                if let Some(why) = why {
                    return Err(Error::invalid_config(
                        "replicas",
                        format!("replicas[{r}][{c}].words{why}"),
                    ));
                }
            }
        }
        if !self.vtime.is_finite() || self.vtime < 0.0 {
            return Err(Error::invalid_config(
                "vtime",
                format!("vtime: must be finite and non-negative, got {}", self.vtime),
            ));
        }
        Ok(())
    }
}

/// Why `words` is not a selection over `len` shards — not `⌈len/64⌉`
/// words, or a bit at or past `len` — as the rest of an error that starts
/// with the field's path.
fn misfit(words: &[u64], len: usize) -> Option<String> {
    let expected = len.div_ceil(64);
    if words.len() != expected {
        return Some(format!(
            ": {} words, expected {expected} for {len} shards",
            words.len()
        ));
    }
    // Only the last word can hold a bit past `len`.
    let used = len % 64;
    let stray = words
        .last()
        .map_or(0, |&w| if used == 0 { 0 } else { w >> used });
    (stray != 0).then(|| {
        let shard = (expected - 1) * 64 + used + stray.trailing_zeros() as usize;
        format!("[{}]: shard {shard} is past the {len} shards", expected - 1)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn checkpoint() -> SeCheckpoint {
        SeCheckpoint {
            version: 120,
            seed: 7,
            iteration: 120,
            vtime: 3.5,
            best_words: vec![0b10_0101],
            best_utility: 123.4,
            replicas: vec![vec![
                ChainSnapshot {
                    cardinality: 2,
                    words: vec![0b1010],
                },
                ChainSnapshot {
                    cardinality: 3,
                    words: vec![0b10_0101],
                },
            ]],
        }
    }

    fn reason(ckpt: &SeCheckpoint, len: usize) -> String {
        match ckpt.validate(len) {
            Err(Error::InvalidConfig { reason, .. }) => reason,
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn valid_checkpoint_passes_and_counts_chains() {
        let ckpt = checkpoint();
        assert!(ckpt.validate(6).is_ok());
        assert_eq!(ckpt.chain_count(), 2);
        let indices: Vec<usize> = selected_indices(&ckpt.best_words).collect();
        assert_eq!(indices, [0, 2, 5]);
    }

    #[test]
    fn the_layout_is_bit_i_mod_64_of_word_i_div_64() {
        let words = [1 << 63 | 1, 0, 1 << 5];
        let indices: Vec<usize> = selected_indices(&words).collect();
        assert_eq!(indices, [0, 63, 133]);
        assert_eq!(selected_indices(&[]).count(), 0);
        assert_eq!(selected_indices(&[u64::MAX]).count(), 64);
    }

    #[test]
    fn wrong_word_count_stray_bit_dishonest_cardinality_are_rejected_by_path() {
        let ckpt = checkpoint();
        assert_eq!(
            reason(&ckpt, 4),
            "best_words[0]: shard 5 is past the 4 shards"
        );
        assert_eq!(
            reason(&ckpt, 65),
            "best_words: 1 words, expected 2 for 65 shards"
        );
        // Every bit of a full last word is in range.
        let mut ckpt = checkpoint();
        ckpt.best_words = vec![u64::MAX];
        ckpt.replicas.clear();
        assert!(ckpt.validate(64).is_ok());
        let mut ckpt = checkpoint();
        ckpt.replicas[0][1].words = vec![0b10_0101, 0];
        assert_eq!(
            reason(&ckpt, 6),
            "replicas[0][1].words: 2 words, expected 1 for 6 shards"
        );
        let mut ckpt = checkpoint();
        ckpt.replicas[0][0].words = vec![0b100_1010];
        assert_eq!(
            reason(&ckpt, 6),
            "replicas[0][0].words[0]: shard 6 is past the 6 shards"
        );
        let mut ckpt = checkpoint();
        ckpt.replicas[0][0].cardinality = 9;
        assert_eq!(
            reason(&ckpt, 6),
            "replicas[0][0].words: 2 bits set, but the cardinality is 9"
        );
        let mut ckpt = checkpoint();
        ckpt.vtime = f64::NAN;
        assert!(ckpt.validate(6).is_err());
    }

    #[test]
    fn serde_round_trip_preserves_the_snapshot() {
        let ckpt = checkpoint();
        let json = serde_json::to_string(&ckpt).unwrap();
        let back: SeCheckpoint = serde_json::from_str(&json).unwrap();
        assert_eq!(back, ckpt);
    }
}
