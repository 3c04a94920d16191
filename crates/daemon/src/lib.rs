//! `mvcom-daemon` — MVCom scheduling as a long-running service.
//!
//! The library behind the `mvcom daemon` subcommand: a persistent
//! process that ingests a continuous stream of committee reports, closes
//! epochs on a logical clock, schedules each epoch with the SE engine
//! (optionally screening reports through the reputation defense), and
//! exposes live state to operators.
//!
//! The moving parts, one module each:
//!
//! * [`ingest`] — where reports come from: a seed-deterministic
//!   generator ([`SeededSource`]) or a JSONL feed ([`JsonlSource`]).
//! * [`epoch_clock`] — the logical clock ([`EpochClock`]): batches in,
//!   epochs out, no wall time anywhere.
//! * [`daemon`] — the loop itself ([`Daemon`]): ingest → schedule →
//!   defend → alert → persist.
//! * [`history`] — the crash-safe, append-only epoch log
//!   (length-prefixed, CRC-framed JSONL) and the checkpoint types that
//!   make `kill -9` recoverable with byte-identical subsequent history.
//! * [`http`] — the zero-dependency metrics snapshot endpoint
//!   ([`MetricsServer`]).
//! * [`alerts`] — operator-armed threshold alerts ([`AlertEngine`]).
//!
//! The operator-facing contract — flags, the epoch lifecycle, the log
//! format, recovery procedure, alert and endpoint semantics — is
//! documented in `OPERATIONS.md` at the repository root, and a doc-sync
//! test keeps that file honest against [`DAEMON_FLAGS`], the history
//! record kinds and the alert kinds.
//!
//! # Example
//!
//! Run three epochs against a seeded stream and read the totals:
//!
//! ```
//! use mvcom_daemon::{AlertConfig, AlertEngine, Daemon, DaemonConfig, SeededSource};
//!
//! let dir = std::env::temp_dir().join(format!("mvcom-daemon-doc-{}", std::process::id()));
//! std::fs::create_dir_all(&dir)?;
//! let history = dir.join("history.log");
//!
//! let config = DaemonConfig { max_epochs: 3, se_iterations: 200, ..DaemonConfig::default() };
//! let source = SeededSource::new(config.seed, config.population)?;
//! let mut daemon = Daemon::open(
//!     config.clone(),
//!     Box::new(source),
//!     &history,
//!     /* resume = */ false,
//!     mvcom_obs::Obs::off(),
//!     AlertEngine::new(AlertConfig::default()),
//! )?;
//! let closed = daemon.run(|summary, alerts| {
//!     assert!(summary.admitted > 0);
//!     assert!(alerts.is_empty()); // no threshold is armed
//! })?;
//! assert_eq!(closed, 3);
//! std::fs::remove_dir_all(&dir)?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![cfg_attr(
    test,
    allow(
        clippy::float_cmp,
        clippy::disallowed_types,
        reason = "unit tests compare floats bit for bit and use hash sets and locks as scaffolding"
    )
)]

pub mod alerts;
pub mod daemon;
pub mod epoch_clock;
pub mod error;
pub mod history;
pub mod http;
pub mod ingest;

pub use alerts::{AlertConfig, AlertEngine, AlertKind, AlertRecord};
pub use daemon::{Daemon, DaemonConfig, Startup};
pub use epoch_clock::EpochClock;
pub use error::{DaemonError, Result};
pub use history::{
    crc32, read_history, DaemonCheckpoint, EpochRecord, EpochSummary, HistoryRecord, HistoryWriter,
    LoadedHistory, RunHeader, HISTORY_VERSION, RECORD_KINDS,
};
pub use http::{MetricsServer, SnapshotCell};
pub use ingest::{IngestSource, JsonlReport, JsonlSource, SeededSource};

/// One CLI flag of an `mvcom` subcommand.
///
/// A table of these is the single source of truth for a subcommand's
/// surface: the binary parses against it, takes its defaults from it and
/// renders its usage text from it; for [`DAEMON_FLAGS`] the OPERATIONS.md
/// doc-sync test also asserts every row is documented.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlagSpec {
    /// The flag, with leading dashes (`--seed`).
    pub flag: &'static str,
    /// The value placeholder (`N`, `FILE`, `on|off`, …).
    pub value: &'static str,
    /// The default, as the CLI would parse it.
    pub default: &'static str,
    /// One-line help.
    pub help: &'static str,
}

impl FlagSpec {
    /// One table row: flag, value placeholder, default, help.
    pub const fn new(
        flag: &'static str,
        value: &'static str,
        default: &'static str,
        help: &'static str,
    ) -> FlagSpec {
        FlagSpec {
            flag,
            value,
            default,
            help,
        }
    }
}

/// Every flag `mvcom daemon` accepts.
#[rustfmt::skip]
pub const DAEMON_FLAGS: &[FlagSpec] = &[
    FlagSpec::new("--source", "seeded|stdin", "seeded", "report stream: deterministic seeded generator, or JSONL on stdin"),
    FlagSpec::new("--seed", "N", "7", "master seed (stream, per-epoch SE, adversary)"),
    FlagSpec::new("--committees", "N", "96", "committee population of the seeded stream"),
    FlagSpec::new("--batch-size", "N", "8", "reports ingested per batch"),
    FlagSpec::new("--epoch-reports", "N", "48", "reports that close an epoch (must be <= --committees for seeded streams)"),
    FlagSpec::new("--batch-interval", "SECS", "0.5", "logical seconds each batch advances the clock"),
    FlagSpec::new("--epochs", "N", "0", "stop after N epochs (0 = run until killed or the feed drains)"),
    FlagSpec::new("--alpha", "X", "1.5", "throughput weight of the scheduling objective"),
    FlagSpec::new("--capacity", "N", "1000", "final-block tx capacity per screened committee"),
    FlagSpec::new("--n-min-frac", "X", "0.5", "minimum admitted committees, as a fraction of the screened set"),
    FlagSpec::new("--defense", "on|off", "off", "screen reports through the reputation defense"),
    FlagSpec::new("--adv-fraction", "X", "0", "fraction of committees controlled by the adversary"),
    FlagSpec::new("--adv-strategy", "NAME", "", "adversary strategy (required when --adv-fraction > 0)"),
    FlagSpec::new("--se-iters", "N", "0", "SE iteration budget per epoch (0 = paper default)"),
    FlagSpec::new("--history", "FILE", "mvcom-history.log", "append-only epoch history log"),
    FlagSpec::new("--resume", "on|off", "on", "replay an existing history and resume from its last checkpoint"),
    FlagSpec::new("--http", "ADDR", "", "serve the metrics snapshot endpoint on ADDR (e.g. 127.0.0.1:9464)"),
    FlagSpec::new("--throttle-ms", "MS", "0", "sleep after each ingest batch (pacing only; never touches the clock)"),
    FlagSpec::new("--alert-min-utility", "X", "", "fire low_utility when an epoch's utility falls below X"),
    FlagSpec::new("--alert-min-admitted", "N", "", "fire low_admission when an epoch admits fewer than N committees"),
    FlagSpec::new("--alert-max-quarantined", "N", "", "fire high_quarantine when the defense screens out more than N reports"),
    FlagSpec::new("--obs-out", "FILE", "", "write telemetry events as JSONL to FILE"),
    FlagSpec::new("--obs-level", "LEVEL", "summary", "telemetry level: off, summary, events, or trace"),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_are_unique_and_well_formed() {
        let mut flags: Vec<&str> = DAEMON_FLAGS.iter().map(|f| f.flag).collect();
        assert!(flags.iter().all(|f| f.starts_with("--")));
        flags.sort_unstable();
        flags.dedup();
        assert_eq!(flags.len(), DAEMON_FLAGS.len());
    }

    #[test]
    fn obs_level_help_names_exactly_the_levels_the_parser_accepts() {
        use mvcom_obs::ObsLevel;
        let spec = DAEMON_FLAGS
            .iter()
            .find(|f| f.flag == "--obs-level")
            .expect("the daemon declares --obs-level");
        let named: Vec<&str> = spec
            .help
            .strip_prefix("telemetry level: ")
            .expect("the help line lists the levels")
            .split(|c: char| !c.is_ascii_alphabetic())
            .filter(|word| !word.is_empty() && *word != "or")
            .collect();
        let levels = [
            ObsLevel::Off,
            ObsLevel::Summary,
            ObsLevel::Events,
            ObsLevel::Trace,
        ];
        assert_eq!(named, levels.map(ObsLevel::as_str));
        for (name, level) in named.iter().zip(levels) {
            assert_eq!(ObsLevel::parse(name), Some(level));
        }
        assert!(ObsLevel::parse(spec.default).is_some());
    }
}
