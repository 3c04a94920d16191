//! Ingest sources: where the daemon's committee reports come from.
//!
//! Two implementations share the [`IngestSource`] trait:
//!
//! * [`SeededSource`] — an unbounded, deterministic report stream grown
//!   from a seed, mirroring `mvcom_dataset::ShardStream`'s per-report
//!   draw order (tx count from a with-replacement trace-block draw, then
//!   one two-phase latency) over a *fixed committee population* that the
//!   stream cycles through. Determinism is what makes crash recovery
//!   trivial: [`IngestSource::fast_forward`] regenerates and discards the
//!   already-consumed prefix, landing the RNG in exactly the state the
//!   killed process had at its last checkpoint.
//! * [`JsonlSource`] — reports parsed from a `BufRead` of JSONL lines
//!   (`{"committee":N,"txs":N,"latency_s":X}`), for piping real feeds
//!   into the daemon. Fast-forward skips lines, so recovery works as long
//!   as the operator replays the same feed.
//!
//! The `cursor` is the count of reports ever produced — the single
//! number a [`DaemonCheckpoint`](crate::history::DaemonCheckpoint) needs
//! to rewind ingestion.

use std::io::{BufRead, Read as _};

use rand::Rng as _;
use serde::{Deserialize, Serialize};

use mvcom_dataset::{LatencyConfig, Trace, TraceConfig};
use mvcom_simnet::SimRng;
use mvcom_types::{CommitteeId, ShardInfo};

use crate::error::{DaemonError, Result};

/// A resumable, batched stream of committee reports.
pub trait IngestSource {
    /// Clears `buf` and fills it with up to `max` reports; returns how
    /// many were produced. `0` means the source is exhausted for good
    /// (a [`SeededSource`] never is).
    ///
    /// # Errors
    ///
    /// [`DaemonError::Ingest`] on malformed input or I/O failure.
    fn next_batch(&mut self, buf: &mut Vec<ShardInfo>, max: usize) -> Result<usize>;

    /// Reports produced over the source's lifetime.
    fn cursor(&self) -> u64;

    /// Advances a *fresh* source to `cursor`, discarding everything before
    /// it — the recovery path.
    ///
    /// # Errors
    ///
    /// [`DaemonError::Ingest`] when the source cannot reach `cursor`
    /// (already past it, or the stream ends first).
    fn fast_forward(&mut self, cursor: u64) -> Result<()>;
}

/// Number of trace blocks backing a [`SeededSource`]. Small enough to
/// regenerate instantly, large enough for a realistic tx-count mix.
const SEEDED_TRACE_BLOCKS: usize = 400;

/// An unbounded deterministic report stream over a fixed population.
///
/// Committee `k` files the reports at cursor positions
/// `k, k + population, k + 2·population, …` — every committee reports
/// exactly once per `population` reports, so an epoch sized at or below
/// the population never sees duplicate committee ids.
#[derive(Debug)]
pub struct SeededSource {
    trace: Trace,
    latency: LatencyConfig,
    rng: SimRng,
    population: u32,
    produced: u64,
}

impl SeededSource {
    /// A source seeded with `seed` over `population` committees.
    ///
    /// # Errors
    ///
    /// [`DaemonError::Config`] when `population` is zero.
    pub fn new(seed: u64, population: u32) -> Result<SeededSource> {
        if population == 0 {
            return Err(DaemonError::config(
                "committees",
                "the population must be positive",
            ));
        }
        Ok(SeededSource {
            trace: Trace::generate(TraceConfig::tiny(SEEDED_TRACE_BLOCKS), seed),
            latency: LatencyConfig::paper(),
            rng: mvcom_simnet::rng::master(seed),
            population,
            produced: 0,
        })
    }

    fn produce_one(&mut self) -> ShardInfo {
        let blocks = self.trace.blocks();
        let txs = blocks[self.rng.gen_range(0..blocks.len())].txs;
        let id = CommitteeId((self.produced % u64::from(self.population)) as u32);
        self.produced += 1;
        ShardInfo::new(id, txs, self.latency.sample(&mut self.rng))
    }
}

impl IngestSource for SeededSource {
    fn next_batch(&mut self, buf: &mut Vec<ShardInfo>, max: usize) -> Result<usize> {
        buf.clear();
        buf.extend((0..max).map(|_| self.produce_one()));
        Ok(max)
    }

    fn cursor(&self) -> u64 {
        self.produced
    }

    fn fast_forward(&mut self, cursor: u64) -> Result<()> {
        if cursor < self.produced {
            return Err(DaemonError::ingest(format!(
                "cannot rewind a seeded source from {} to {cursor}; build a fresh one",
                self.produced
            )));
        }
        // O(cursor) regeneration. At recovery the cursor is at most one
        // run's worth of reports; regenerating them costs two RNG draws
        // each — microseconds per million reports, and the price of
        // keeping the checkpoint a single integer.
        while self.produced < cursor {
            let _ = self.produce_one();
        }
        Ok(())
    }
}

/// One line of a JSONL ingest feed: the wire schema [`JsonlSource`]
/// decodes each line into before it checks the values.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct JsonlReport {
    /// The reporting committee's id.
    pub committee: u32,
    /// Transactions in the committee's shard.
    pub txs: u64,
    /// The shard's total two-phase latency, in seconds.
    pub latency_s: f64,
}

/// Longest accepted feed line in bytes, terminator included. A report is
/// under 100 bytes; the cap is what keeps a feed with no newline in it from
/// being buffered whole.
const MAX_LINE: usize = 64 * 1024;

/// Largest accepted `txs` of one report. An epoch holds at most 2³²
/// reports (`reports_per_epoch` is a `u32`), so its `u64` transaction sums
/// cannot wrap; a real shard is six orders of magnitude below the cap.
const MAX_REPORT_TXS: u64 = u32::MAX as u64;

/// Reports parsed line-by-line from a reader (stdin, a file, a pipe).
#[derive(Debug)]
pub struct JsonlSource<R> {
    input: R,
    /// The current line, reused from report to report.
    line: Vec<u8>,
    produced: u64,
    line_no: u64,
}

impl<R: BufRead> JsonlSource<R> {
    /// Wraps a buffered reader of JSONL report lines.
    pub fn new(input: R) -> JsonlSource<R> {
        JsonlSource {
            input,
            line: Vec::new(),
            produced: 0,
            line_no: 0,
        }
    }

    /// Reads the next report, skipping blank lines; `None` at EOF.
    fn read_one(&mut self) -> Result<Option<ShardInfo>> {
        loop {
            self.line.clear();
            let n = self
                .input
                .by_ref()
                .take(MAX_LINE as u64 + 1)
                .read_until(b'\n', &mut self.line)
                .map_err(|e| DaemonError::ingest(format!("read line: {e}")))?;
            if n == 0 {
                return Ok(None);
            }
            self.line_no += 1;
            if n > MAX_LINE {
                return Err(DaemonError::ingest(format!(
                    "line {}: longer than {MAX_LINE} bytes",
                    self.line_no
                )));
            }
            let line = std::str::from_utf8(&self.line)
                .map_err(|e| DaemonError::ingest(format!("line {}: {e}", self.line_no)))?
                .trim();
            if line.is_empty() {
                continue;
            }
            let report: JsonlReport = serde_json::from_str(line).map_err(|e| {
                DaemonError::ingest(format!("line {}: malformed report: {e}", self.line_no))
            })?;
            if !report.latency_s.is_finite() || report.latency_s <= 0.0 {
                return Err(DaemonError::ingest(format!(
                    "line {}: latency_s must be positive and finite, got {}",
                    self.line_no, report.latency_s
                )));
            }
            if report.txs > MAX_REPORT_TXS {
                return Err(DaemonError::ingest(format!(
                    "line {}: txs must be at most {MAX_REPORT_TXS}, got {}",
                    self.line_no, report.txs
                )));
            }
            self.produced += 1;
            return Ok(Some(ShardInfo::new(
                CommitteeId(report.committee),
                report.txs,
                mvcom_types::TwoPhaseLatency::from_total(mvcom_types::SimTime::from_secs(
                    report.latency_s,
                )),
            )));
        }
    }
}

impl<R: BufRead> IngestSource for JsonlSource<R> {
    fn next_batch(&mut self, buf: &mut Vec<ShardInfo>, max: usize) -> Result<usize> {
        buf.clear();
        while buf.len() < max {
            match self.read_one()? {
                Some(report) => buf.push(report),
                None => break,
            }
        }
        Ok(buf.len())
    }

    fn cursor(&self) -> u64 {
        self.produced
    }

    fn fast_forward(&mut self, cursor: u64) -> Result<()> {
        if cursor < self.produced {
            return Err(DaemonError::ingest(format!(
                "cannot rewind a JSONL source from {} to {cursor}",
                self.produced
            )));
        }
        while self.produced < cursor {
            if self.read_one()?.is_none() {
                return Err(DaemonError::ingest(format!(
                    "feed ended at report {} while fast-forwarding to {cursor}; \
                     replay the same feed to recover",
                    self.produced
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(source: &mut dyn IngestSource, n: usize) -> Vec<ShardInfo> {
        let mut buf = Vec::new();
        let mut out = Vec::new();
        while out.len() < n {
            let got = source.next_batch(&mut buf, (n - out.len()).min(7)).unwrap();
            if got == 0 {
                break;
            }
            out.extend(buf.iter().cloned());
        }
        out
    }

    #[test]
    fn seeded_source_is_deterministic_and_cycles_the_population() {
        let a = drain(&mut SeededSource::new(9, 16).unwrap(), 64);
        let b = drain(&mut SeededSource::new(9, 16).unwrap(), 64);
        let c = drain(&mut SeededSource::new(10, 16).unwrap(), 64);
        assert_eq!(a, b);
        assert_ne!(a, c);
        for (i, shard) in a.iter().enumerate() {
            assert_eq!(shard.committee().0, (i % 16) as u32);
            assert!(shard.tx_count() >= 1);
            assert!(shard.two_phase_latency().as_secs() > 0.0);
        }
    }

    #[test]
    fn seeded_fast_forward_matches_straight_consumption() {
        let mut straight = SeededSource::new(5, 12).unwrap();
        let all = drain(&mut straight, 100);
        let mut jumped = SeededSource::new(5, 12).unwrap();
        jumped.fast_forward(60).unwrap();
        assert_eq!(jumped.cursor(), 60);
        let tail = drain(&mut jumped, 40);
        assert_eq!(tail, all[60..]);
        // Rewinding is refused.
        assert!(jumped.fast_forward(10).is_err());
    }

    #[test]
    fn seeded_source_rejects_an_empty_population() {
        assert!(SeededSource::new(1, 0).is_err());
    }

    #[test]
    fn jsonl_source_parses_skips_blanks_and_ends_at_eof() {
        let feed = "{\"committee\":3,\"txs\":120,\"latency_s\":800.5}\n\
                    \n\
                    {\"committee\":4,\"txs\":90,\"latency_s\":700.0}\n";
        let mut source = JsonlSource::new(feed.as_bytes());
        let mut buf = Vec::new();
        assert_eq!(source.next_batch(&mut buf, 10).unwrap(), 2);
        assert_eq!(buf[0].committee(), CommitteeId(3));
        assert_eq!(buf[0].tx_count(), 120);
        assert_eq!(buf[1].two_phase_latency().as_secs(), 700.0);
        assert_eq!(source.cursor(), 2);
        assert_eq!(source.next_batch(&mut buf, 10).unwrap(), 0);
    }

    #[test]
    fn jsonl_source_rejects_malformed_lines() {
        let mut garbage = JsonlSource::new("not json\n".as_bytes());
        let mut buf = Vec::new();
        assert!(garbage.next_batch(&mut buf, 1).is_err());
        let mut bad_latency =
            JsonlSource::new("{\"committee\":1,\"txs\":5,\"latency_s\":-1.0}\n".as_bytes());
        assert!(bad_latency.next_batch(&mut buf, 1).is_err());
    }

    #[test]
    fn jsonl_source_rejects_reports_that_could_wrap_an_epochs_sums() {
        let err = |line: &str| {
            let feed = format!("{{\"committee\":0,\"txs\":1,\"latency_s\":1.0}}\n{line}\n");
            let mut source = JsonlSource::new(feed.as_bytes());
            let err = source.next_batch(&mut Vec::new(), 2).unwrap_err();
            assert_eq!(source.cursor(), 1, "the bad report is not counted");
            err.to_string()
        };
        let report = |txs: &str| format!("{{\"committee\":1,\"txs\":{txs},\"latency_s\":1.0}}");
        // 48 of these used to close an epoch "admitting" 2⁶⁴ − 48 txs.
        let e = err(&report("18446744073709551615"));
        assert!(e.contains("line 2: txs must be at most 4294967295"), "{e}");
        let e = err(&report("4294967296"));
        assert!(e.contains("line 2: txs must be at most 4294967295"), "{e}");
        // A float past u64 used to saturate to u64::MAX on the way in.
        for txs in ["1e30", "18446744073709551616", "1e999", "-1", "0.5"] {
            let e = err(&report(txs));
            assert!(e.contains("line 2: malformed report"), "{txs}: {e}");
        }
        // The cap itself, and an integral float below it, are reports.
        for txs in ["4294967295", "3e9", "0"] {
            let feed = report(txs);
            let mut buf = Vec::new();
            assert_eq!(
                JsonlSource::new(feed.as_bytes())
                    .next_batch(&mut buf, 1)
                    .unwrap(),
                1
            );
        }
    }

    #[test]
    fn jsonl_source_reports_hostile_nesting_as_a_malformed_line() {
        // As many brackets as `MAX_LINE` admits: this overflowed the stack.
        let feed = "[".repeat(MAX_LINE - 1) + "\n";
        let mut source = JsonlSource::new(feed.as_bytes());
        let err = source
            .next_batch(&mut Vec::new(), 1)
            .unwrap_err()
            .to_string();
        assert!(err.contains("line 1: malformed report"), "{err}");
        assert!(err.contains("nesting deeper than 128 levels"), "{err}");
    }

    #[test]
    fn jsonl_fast_forward_skips_and_detects_short_feeds() {
        let feed = "{\"committee\":0,\"txs\":10,\"latency_s\":1.0}\n\
                    {\"committee\":1,\"txs\":20,\"latency_s\":2.0}\n\
                    {\"committee\":2,\"txs\":30,\"latency_s\":3.0}\n";
        let mut source = JsonlSource::new(feed.as_bytes());
        source.fast_forward(2).unwrap();
        let mut buf = Vec::new();
        assert_eq!(source.next_batch(&mut buf, 10).unwrap(), 1);
        assert_eq!(buf[0].committee(), CommitteeId(2));
        let mut short = JsonlSource::new(feed.as_bytes());
        assert!(short.fast_forward(9).is_err());
    }

    #[test]
    fn jsonl_fast_forward_counts_reports_not_lines() {
        let feed = "\n{\"committee\":0,\"txs\":10,\"latency_s\":1.0}\n\n  \r\n\
                    {\"committee\":1,\"txs\":20,\"latency_s\":2.0}\r\n\n\
                    {\"committee\":2,\"txs\":30,\"latency_s\":3.0}";
        let mut source = JsonlSource::new(feed.as_bytes());
        source.fast_forward(2).unwrap();
        assert_eq!((source.cursor(), source.line_no), (2, 5));
        let mut buf = Vec::new();
        assert_eq!(source.next_batch(&mut buf, 10).unwrap(), 1);
        assert_eq!(buf[0].committee(), CommitteeId(2));
        assert_eq!((source.cursor(), source.line_no), (3, 7));
    }

    #[test]
    fn jsonl_source_refuses_an_over_long_line_without_buffering_it() {
        let report = "{\"committee\":0,\"txs\":10,\"latency_s\":1.0}\n";
        let mut feed = report.as_bytes().to_vec();
        feed.resize(feed.len() + 10_000_000, b'x');
        let mut source = JsonlSource::new(feed.as_slice());
        let mut buf = Vec::new();
        assert_eq!(source.next_batch(&mut buf, 1).unwrap(), 1);
        let err = source.next_batch(&mut buf, 1).unwrap_err().to_string();
        assert!(err.contains("line 2: longer than 65536 bytes"), "{err}");
        assert_eq!(source.cursor(), 1);
        // Neither held nor consumed beyond the cap (a `Vec` may round its
        // capacity up to the next power of two).
        assert!(source.line.capacity() <= 2 * MAX_LINE);
        assert_eq!(source.input.len(), 10_000_000 - (MAX_LINE + 1));
        // A line of exactly the cap is still a line.
        let mut padded = report.trim_end().to_owned();
        padded.push_str(&" ".repeat(MAX_LINE - report.len()));
        padded.push('\n');
        assert_eq!(padded.len(), MAX_LINE);
        let mut at_cap = JsonlSource::new(padded.as_bytes());
        assert_eq!(at_cap.next_batch(&mut buf, 2).unwrap(), 1);
    }
}
