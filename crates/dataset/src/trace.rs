//! Trace generation and (de)serialization.

use rand::Rng;
use rand_distr::{Distribution, Exp, LogNormal};
use serde::{Deserialize, Serialize};

use mvcom_types::{BlockId, Error, Hash32, Result};

use crate::block::TxBlock;

/// Parameters of the synthetic Bitcoin-like trace generator.
///
/// Defaults reproduce the statistics the paper reports for its snapshot
/// (§VI-A): 1,378 blocks carrying ≈1.5 M transactions in total, block
/// creation times spaced by ~600 s starting at 2016-01-01.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TraceConfig {
    /// Number of blocks to generate.
    pub n_blocks: usize,
    /// Unix timestamp of the first block.
    pub start_unix: u64,
    /// Mean inter-block time in seconds (exponential / Poisson arrivals).
    pub mean_interval_secs: f64,
    /// Mean transactions per block.
    pub mean_txs_per_block: f64,
    /// Coefficient of variation of the per-block TX count (log-normal).
    pub txs_cv: f64,
    /// Hard floor on per-block TX count (a mined block has ≥ 1 coinbase TX).
    pub min_txs: u64,
}

impl TraceConfig {
    /// The paper's January-2016 snapshot: 1378 blocks, ≈1089 TXs per block
    /// (1.5 M total), 600-second target spacing.
    pub fn jan_2016() -> TraceConfig {
        TraceConfig {
            n_blocks: 1378,
            start_unix: 1_451_606_400, // 2016-01-01T00:00:00Z
            mean_interval_secs: 600.0,
            mean_txs_per_block: 1_500_000.0 / 1378.0,
            txs_cv: 0.45,
            min_txs: 1,
        }
    }

    /// A small trace for fast tests.
    pub fn tiny(n_blocks: usize) -> TraceConfig {
        TraceConfig {
            n_blocks,
            ..TraceConfig::jan_2016()
        }
    }

    /// Validates the configuration: `Ok` exactly when
    /// [`Trace::generate`] accepts it.
    pub fn validate(&self) -> Result<()> {
        self.distributions().map(drop)
    }

    /// The inter-block time and per-block TX count distributions, or the
    /// error naming the first field they cannot be built from.
    fn distributions(&self) -> Result<(Exp, LogNormal)> {
        if self.n_blocks == 0 {
            return Err(Error::invalid_config(
                "n_blocks",
                "trace needs at least one block",
            ));
        }
        // A positive interval can still be so small that its rate is ∞.
        let interval = Exp::new(1.0 / self.mean_interval_secs).map_err(|_| {
            Error::invalid_config(
                "mean_interval_secs",
                format!(
                    "must be positive with a finite rate, got {}",
                    self.mean_interval_secs
                ),
            )
        })?;
        if !(self.mean_txs_per_block.is_finite() && self.mean_txs_per_block >= 1.0) {
            return Err(Error::invalid_config(
                "mean_txs_per_block",
                format!("must be >= 1, got {}", self.mean_txs_per_block),
            ));
        }
        // Log-normal parameters from desired mean m and CV c:
        // sigma^2 = ln(1 + c^2), mu = ln m - sigma^2 / 2. With m checked,
        // only a CV whose square overflows makes them non-finite.
        let sigma2 = (1.0 + self.txs_cv * self.txs_cv).ln();
        let mu = self.mean_txs_per_block.ln() - sigma2 / 2.0;
        match LogNormal::new(mu, sigma2.sqrt()) {
            Ok(txs) if self.txs_cv > 0.0 => Ok((interval, txs)),
            _ => Err(Error::invalid_config(
                "txs_cv",
                format!("must be positive and finite, got {}", self.txs_cv),
            )),
        }
    }
}

/// A generated (or loaded) block trace, sorted by creation time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    config: TraceConfig,
    blocks: Vec<TxBlock>,
}

impl Trace {
    /// Generates a trace deterministically from `config` and `seed`.
    ///
    /// # Panics
    ///
    /// Panics exactly when [`TraceConfig::validate`] returns `Err`; check
    /// untrusted configurations with it first.
    pub fn generate(config: TraceConfig, seed: u64) -> Trace {
        #[expect(
            clippy::expect_used,
            reason = "documented panic contract; untrusted configs call validate() first"
        )]
        let (interval, txs_dist) = config.distributions().expect("invalid trace configuration");
        let mut rng = mvcom_simnet::rng::master(seed);
        let mut btime = config.start_unix as f64;
        let blocks = (0..config.n_blocks)
            .map(|i| {
                btime += interval.sample(&mut rng);
                let txs = (txs_dist.sample(&mut rng).round() as u64).max(config.min_txs);
                let nonce: u64 = rng.gen();
                TxBlock {
                    id: BlockId(i as u64),
                    bhash: Hash32::digest(
                        &[(i as u64).to_le_bytes(), nonce.to_le_bytes()].concat(),
                    ),
                    btime: btime as u64,
                    txs,
                }
            })
            .collect();
        Trace { config, blocks }
    }

    /// The generator configuration this trace was built from.
    pub fn config(&self) -> &TraceConfig {
        &self.config
    }

    /// The blocks, ordered by creation time.
    pub fn blocks(&self) -> &[TxBlock] {
        &self.blocks
    }

    /// Total number of transactions across all blocks.
    pub fn total_txs(&self) -> u64 {
        self.blocks.iter().map(|b| b.txs).sum()
    }

    /// Mean transactions per block.
    pub fn mean_txs(&self) -> f64 {
        if self.blocks.is_empty() {
            0.0
        } else {
            self.total_txs() as f64 / self.blocks.len() as f64
        }
    }

    /// Serializes the trace to a JSON string (the on-disk dataset format).
    pub fn to_json(&self) -> String {
        let mut json = String::new();
        self.write_json(&mut json);
        json
    }

    /// Loads a trace previously produced by [`Trace::to_json`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidInstance`] if the JSON does not parse as a
    /// trace or the blocks are not time-ordered.
    pub fn from_json(json: &str) -> Result<Trace> {
        let trace: Trace = serde_json::from_str(json)
            .map_err(|e| Error::invalid_instance(format!("malformed trace JSON: {e}")))?;
        if !trace.blocks.is_sorted_by(TxBlock::precedes) {
            return Err(Error::invalid_instance("trace blocks are not time-ordered"));
        }
        Ok(trace)
    }

    /// Imports a trace from the paper's dataset schema as CSV:
    /// `blockID,bhash,btime,txs` (a header row is accepted and skipped).
    /// Users holding the original Bitcoin snapshot can load it here and
    /// run every experiment against the real data.
    ///
    /// Blocks are re-sorted by `btime`; `bhash` accepts a 64-hex-char
    /// digest or any other string (hashed to 32 bytes).
    ///
    /// # Errors
    ///
    /// [`Error::InvalidInstance`] for rows with missing or non-numeric
    /// fields, or an empty file.
    pub fn from_csv(csv: &str) -> Result<Trace> {
        let mut blocks = Vec::new();
        for (lineno, line) in csv.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let fields: Vec<&str> = line.split(',').map(str::trim).collect();
            if lineno == 0
                && fields
                    .first()
                    .is_some_and(|f| f.eq_ignore_ascii_case("blockid"))
            {
                continue; // header row
            }
            let [f_id, f_bhash, f_btime, f_txs] = fields[..] else {
                return Err(Error::invalid_instance(format!(
                    "line {}: expected 4 fields `blockID,bhash,btime,txs`, got {}",
                    lineno + 1,
                    fields.len()
                )));
            };
            let parse_u64 = |s: &str, name: &str| {
                s.parse::<u64>().map_err(|_| {
                    Error::invalid_instance(format!(
                        "line {}: `{name}` is not an unsigned integer: {s}",
                        lineno + 1
                    ))
                })
            };
            let id = BlockId(parse_u64(f_id, "blockID")?);
            let bhash = parse_hash(f_bhash);
            let btime = parse_u64(f_btime, "btime")?;
            let txs = parse_u64(f_txs, "txs")?;
            if txs == 0 {
                return Err(Error::invalid_instance(format!(
                    "line {}: a block cannot contain zero transactions",
                    lineno + 1
                )));
            }
            blocks.push(TxBlock {
                id,
                bhash,
                btime,
                txs,
            });
        }
        blocks.sort_by_key(|b| b.btime);
        let [first, rest @ ..] = blocks.as_slice() else {
            return Err(Error::invalid_instance("CSV contained no blocks"));
        };
        let n_blocks = blocks.len();
        let span = (rest.last().unwrap_or(first).btime - first.btime).max(1);
        let total: u64 = blocks.iter().map(|b| b.txs).sum();
        let config = TraceConfig {
            n_blocks,
            start_unix: first.btime,
            mean_interval_secs: span as f64 / n_blocks.max(2).saturating_sub(1) as f64,
            mean_txs_per_block: total as f64 / n_blocks as f64,
            txs_cv: 0.0_f64.max(1e-9), // unknown for imported data; unused
            min_txs: 1,
        };
        Ok(Trace { config, blocks })
    }
}

/// Parses a 64-hex-char block hash, falling back to hashing the raw text.
fn parse_hash(s: &str) -> Hash32 {
    let (pairs, odd) = s.as_bytes().as_chunks::<2>();
    let mut bytes = [0u8; 32];
    let digit = |c: u8| (c as char).to_digit(16);
    let is_digest = pairs.len() == bytes.len()
        && odd.is_empty()
        && bytes
            .iter_mut()
            .zip(pairs)
            .all(|(byte, &[hi, lo])| match (digit(hi), digit(lo)) {
                (Some(hi), Some(lo)) => {
                    *byte = ((hi << 4) | lo) as u8;
                    true
                }
                _ => false,
            });
    if is_digest {
        Hash32(bytes)
    } else {
        Hash32::digest(s.as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jan_2016_statistics_match_paper() {
        let trace = Trace::generate(TraceConfig::jan_2016(), 0);
        assert_eq!(trace.blocks().len(), 1378);
        let total = trace.total_txs();
        // Expect ≈1.5M with a log-normal spread; seed 0 must land within 10%.
        assert!(
            (1_350_000..=1_650_000).contains(&total),
            "total txs = {total}"
        );
        let mean = trace.mean_txs();
        assert!((mean - 1089.0).abs() < 110.0, "mean txs/block = {mean}");
    }

    #[test]
    fn blocks_are_time_ordered_with_600s_spacing() {
        let trace = Trace::generate(TraceConfig::jan_2016(), 1);
        let blocks = trace.blocks();
        for w in blocks.windows(2) {
            assert!(w[0].precedes(&w[1]));
        }
        let span = (blocks.last().unwrap().btime - blocks[0].btime) as f64;
        let mean_gap = span / (blocks.len() - 1) as f64;
        assert!((mean_gap - 600.0).abs() < 60.0, "mean gap = {mean_gap}");
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Trace::generate(TraceConfig::tiny(50), 7);
        let b = Trace::generate(TraceConfig::tiny(50), 7);
        assert_eq!(a, b);
        let c = Trace::generate(TraceConfig::tiny(50), 8);
        assert_ne!(a, c);
    }

    #[test]
    fn block_ids_are_sequential_and_hashes_unique() {
        let trace = Trace::generate(TraceConfig::tiny(100), 3);
        let mut hashes = std::collections::HashSet::new();
        for (i, b) in trace.blocks().iter().enumerate() {
            assert_eq!(b.id, BlockId(i as u64));
            assert!(hashes.insert(b.bhash), "duplicate hash at block {i}");
            assert!(b.txs >= 1);
        }
    }

    #[test]
    fn json_round_trip() {
        let trace = Trace::generate(TraceConfig::tiny(10), 5);
        let json = trace.to_json();
        let back = Trace::from_json(&json).unwrap();
        // Blocks are integers and must round-trip exactly; float config
        // fields may lose an ULP through JSON text formatting.
        assert_eq!(back.blocks(), trace.blocks());
        assert_eq!(back.config().n_blocks, trace.config().n_blocks);
        assert!(
            (back.config().mean_txs_per_block - trace.config().mean_txs_per_block).abs() < 1e-6
        );
    }

    #[test]
    fn from_json_rejects_garbage_and_misordered() {
        assert!(Trace::from_json("not json").is_err());
        let mut trace = Trace::generate(TraceConfig::tiny(3), 5);
        trace.blocks.swap(0, 2);
        let json = serde_json::to_string(&trace).unwrap();
        assert!(Trace::from_json(&json).is_err());
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut c = TraceConfig::jan_2016();
        c.n_blocks = 0;
        assert!(c.validate().is_err());
        let mut c = TraceConfig::jan_2016();
        c.mean_interval_secs = 0.0;
        assert!(c.validate().is_err());
        let mut c = TraceConfig::jan_2016();
        c.mean_txs_per_block = 0.5;
        assert!(c.validate().is_err());
        let mut c = TraceConfig::jan_2016();
        c.txs_cv = -1.0;
        assert!(c.validate().is_err());
        // Positive and finite, yet the rate 1/x or the variance ln(1 + c²)
        // overflows: errors naming the field, not a panic in `generate`.
        let mut c = TraceConfig::jan_2016();
        c.mean_interval_secs = 1e-320;
        let err = c.validate().unwrap_err().to_string();
        assert!(err.contains("mean_interval_secs"), "{err}");
        let mut c = TraceConfig::jan_2016();
        c.txs_cv = 1e200;
        let err = c.validate().unwrap_err().to_string();
        assert!(err.contains("txs_cv"), "{err}");
    }

    #[test]
    fn from_csv_parses_the_paper_schema() {
        let csv = "blockID,bhash,btime,txs\n\
                   2,aa00000000000000000000000000000000000000000000000000000000000bb,1451606401,500\n\
                   0,00112233445566778899aabbccddeeff00112233445566778899aabbccddeeff,1451606400,1000\n\
                   1,some-opaque-hash,1451606500,750\n";
        let trace = Trace::from_csv(csv).unwrap();
        assert_eq!(trace.blocks().len(), 3);
        // Re-sorted by btime.
        assert_eq!(trace.blocks()[0].id, BlockId(0));
        assert_eq!(trace.blocks()[1].id, BlockId(2));
        assert_eq!(trace.blocks()[2].id, BlockId(1));
        assert_eq!(trace.total_txs(), 2_250);
        // A valid 64-hex hash round-trips exactly.
        assert_eq!(
            trace.blocks()[0].bhash.to_hex(),
            "00112233445566778899aabbccddeeff00112233445566778899aabbccddeeff"
        );
        // Hex case is immaterial; 64 characters that are not all hex
        // digits are opaque text like any other.
        assert_eq!(parse_hash(&"AB".repeat(32)), parse_hash(&"ab".repeat(32)));
        assert_eq!(parse_hash(&"ab".repeat(32)), Hash32([0xab; 32]));
        let opaque = "0g".repeat(32);
        assert_eq!(parse_hash(&opaque), Hash32::digest(opaque.as_bytes()));
    }

    #[test]
    fn from_csv_rejects_malformed_rows() {
        assert!(Trace::from_csv("").is_err());
        assert!(Trace::from_csv("1,h,100").is_err()); // missing field
        assert!(Trace::from_csv("x,h,100,5").is_err()); // non-numeric id
        assert!(Trace::from_csv("1,h,abc,5").is_err()); // non-numeric btime
        assert!(Trace::from_csv("1,h,100,0").is_err()); // zero txs
        assert!(Trace::from_csv("blockID,bhash,btime,txs\n").is_err()); // header only
    }

    #[test]
    fn from_csv_derives_config_statistics() {
        let csv = "0,h0,1000,100\n1,h1,1600,200\n2,h2,2200,300\n";
        let trace = Trace::from_csv(csv).unwrap();
        assert_eq!(trace.config().n_blocks, 3);
        assert_eq!(trace.config().start_unix, 1000);
        assert!((trace.config().mean_interval_secs - 600.0).abs() < 1.0);
        assert!((trace.config().mean_txs_per_block - 200.0).abs() < 1e-9);
        // One block is its own first and last: the span floors at 1 s.
        let one = Trace::from_csv("7,h,1000,100\n").unwrap();
        assert_eq!((one.config().n_blocks, one.config().start_unix), (1, 1000));
        assert!((one.config().mean_interval_secs - 1.0).abs() < 1e-9);
    }

    #[test]
    fn min_txs_floor_is_respected() {
        let config = TraceConfig {
            mean_txs_per_block: 1.0,
            txs_cv: 3.0,
            min_txs: 1,
            ..TraceConfig::tiny(500)
        };
        let trace = Trace::generate(config, 9);
        assert!(trace.blocks().iter().all(|b| b.txs >= 1));
    }
}
