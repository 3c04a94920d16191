//! Crash-recovery integration tests: kill the daemon at injected points
//! and prove the resumed history is byte-identical to an uninterrupted
//! run's.
//!
//! A `kill -9` can only ever leave a *prefix* of the history file on
//! disk (appends are single `write_all` calls), so the injected kill
//! points are byte-level truncations of a reference history:
//!
//! 1. at a record boundary (death between epochs),
//! 2. mid-frame inside an epoch record (death during the append),
//! 3. just past the header (death during the very first epoch).
//!
//! Each truncated file is resumed to the reference epoch count and the
//! bytes compared with `assert_eq!`. A *complete* frame whose payload was
//! corrupted is a different story — that is not a crash artifact, and
//! recovery must refuse it. Neither may an epoch that cannot be posed
//! reach the file: it ends the run with nothing appended.

#![expect(
    clippy::unwrap_used,
    reason = "helpers outside #[test] fns panic like their callers"
)]
use std::path::{Path, PathBuf};

use mvcom_daemon::{
    read_history, AlertConfig, AlertEngine, Daemon, DaemonConfig, DaemonError, HistoryRecord,
    HistoryWriter, JsonlSource, RunHeader, SeededSource, Startup, HISTORY_VERSION,
};
use mvcom_obs::Obs;

/// A fresh scratch directory under the system temp dir.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "mvcom-daemon-recovery-{}-{tag}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A small, fast configuration exercising the full pipeline: uneven
/// batches, defense screening, and a misreporting adversary.
fn config() -> DaemonConfig {
    DaemonConfig {
        seed: 11,
        population: 24,
        batch_size: 5,
        reports_per_epoch: 12,
        batch_interval_s: 0.25,
        se_iterations: 150,
        defense: true,
        adv_fraction: 0.25,
        adv_strategy: "misreport".to_string(),
        ..DaemonConfig::default()
    }
}

/// Opens a daemon over the standard test config against `history`.
fn open(history: &Path, max_epochs: u64, resume: bool) -> Daemon {
    let cfg = DaemonConfig {
        max_epochs,
        ..config()
    };
    let source = SeededSource::new(cfg.seed, cfg.population).unwrap();
    Daemon::open(
        cfg,
        Box::new(source),
        history,
        resume,
        Obs::off(),
        AlertEngine::new(AlertConfig::default()),
    )
    .unwrap()
}

/// Runs an uninterrupted daemon for `epochs` epochs and returns the
/// history bytes.
fn reference_history(dir: &Path, epochs: u64) -> Vec<u8> {
    let path = dir.join("reference.log");
    let mut daemon = open(&path, epochs, false);
    assert_eq!(daemon.run(|_, _| {}).unwrap(), epochs);
    std::fs::read(&path).unwrap()
}

/// Truncates `reference` to `len` bytes at `path` (the kill), resumes a
/// daemon over it to `epochs` total, and asserts the resulting file is
/// byte-identical to the reference.
fn kill_resume_and_compare(dir: &Path, reference: &[u8], len: usize, epochs: u64, tag: &str) {
    let path = dir.join(format!("killed-{tag}.log"));
    std::fs::write(&path, &reference[..len]).unwrap();
    let mut daemon = open(&path, epochs, true);
    assert!(
        matches!(daemon.startup(), Startup::Resumed { .. }),
        "expected a resume, got {:?}",
        daemon.startup()
    );
    daemon.run(|_, _| {}).unwrap();
    drop(daemon);
    let resumed = std::fs::read(&path).unwrap();
    assert_eq!(
        resumed, reference,
        "resumed history diverged from the uninterrupted reference ({tag})"
    );
}

/// Byte offsets of every record boundary in a history file.
fn record_boundaries(bytes: &[u8]) -> Vec<usize> {
    let mut offsets = Vec::new();
    let mut at = 0usize;
    while at + 8 <= bytes.len() {
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
        at += 8 + len;
        offsets.push(at);
    }
    assert_eq!(at, bytes.len(), "reference history has a torn tail");
    offsets
}

const EPOCHS: u64 = 5;

#[test]
fn kill_at_three_points_resumes_byte_identically() {
    let dir = scratch("killpoints");
    let reference = reference_history(&dir, EPOCHS);
    let boundaries = record_boundaries(&reference);
    // Header + EPOCHS epoch records.
    assert_eq!(boundaries.len() as u64, 1 + EPOCHS);

    // Kill point 1: a record boundary — death between epochs 3 and 4.
    kill_resume_and_compare(&dir, &reference, boundaries[3], EPOCHS, "boundary");
    // Kill point 2: mid-frame — death while appending epoch 2's record.
    // The torn frame must be dropped and the epoch re-run.
    let mid_frame = boundaries[2] + (boundaries[3] - boundaries[2]) / 2;
    kill_resume_and_compare(&dir, &reference, mid_frame, EPOCHS, "mid-frame");
    // Kill point 3: just past the header — death during the very first
    // epoch, before anything but the header hit the disk.
    kill_resume_and_compare(&dir, &reference, boundaries[0] + 3, EPOCHS, "early");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn live_kill_mid_epoch_resumes_byte_identically() {
    // The in-process flavour: a daemon that died after two epochs with a
    // third partially ingested persisted exactly two records — dropping
    // the `Daemon` mid-run models that (ingested-but-unclosed state lives
    // only in memory).
    let dir = scratch("live");
    let reference = reference_history(&dir, EPOCHS);
    let path = dir.join("killed-live.log");
    let mut first = open(&path, 2, false);
    assert_eq!(first.run(|_, _| {}).unwrap(), 2);
    drop(first); // the "kill": epoch 2's ingest state is lost with the process
    let mut resumed = open(&path, EPOCHS, true);
    assert!(matches!(
        resumed.startup(),
        Startup::Resumed {
            epochs: 2,
            dropped_bytes: 0,
            ..
        }
    ));
    assert_eq!(resumed.run(|_, _| {}).unwrap(), 3);
    drop(resumed);
    assert_eq!(std::fs::read(&path).unwrap(), reference);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_tail_is_rejected_not_resumed() {
    // Flip one payload byte of the last record, keeping the frame
    // complete. That is bit rot, not a crash: recovery must hard-error
    // (resuming would silently fork the run's history).
    let dir = scratch("corrupt");
    let reference = reference_history(&dir, 3);
    let mut corrupted = reference.clone();
    let last = *record_boundaries(&reference).last().unwrap();
    corrupted[last - 10] ^= 0x01;
    let path = dir.join("corrupt.log");
    std::fs::write(&path, &corrupted).unwrap();

    let err = read_history(&path).unwrap_err();
    assert!(
        err.to_string().contains("CRC mismatch"),
        "unexpected error: {err}"
    );
    // Daemon::open refuses the file the same way.
    let cfg = DaemonConfig {
        max_epochs: 3,
        ..config()
    };
    let source = SeededSource::new(cfg.seed, cfg.population).unwrap();
    let opened = Daemon::open(
        cfg,
        Box::new(source),
        &path,
        true,
        Obs::off(),
        AlertEngine::new(AlertConfig::default()),
    );
    assert!(opened.is_err());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn header_mismatch_is_rejected() {
    // A history written under one configuration cannot be resumed under
    // another: the run would no longer be reproducible.
    let dir = scratch("header");
    let path = dir.join("seed11.log");
    let mut daemon = open(&path, 2, false);
    daemon.run(|_, _| {}).unwrap();
    drop(daemon);
    let cfg = DaemonConfig {
        seed: 12, // differs from the on-disk header
        max_epochs: 4,
        ..config()
    };
    let source = SeededSource::new(cfg.seed, cfg.population).unwrap();
    let opened = Daemon::open(
        cfg,
        Box::new(source),
        &path,
        true,
        Obs::off(),
        AlertEngine::new(AlertConfig::default()),
    );
    let err = opened.expect_err("mismatched header must be refused");
    assert!(
        err.to_string().contains("does not match"),
        "unexpected error: {err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_version_1_log_is_refused_by_its_version() {
    // Version 1 recorded SE selections as index lists; this build reads
    // bitset words, and says so rather than printing two headers.
    let dir = scratch("version-1");
    let path = dir.join("v1.log");
    let header = RunHeader {
        version: 1,
        ..config().header()
    };
    let mut writer = HistoryWriter::create(&path).unwrap();
    writer.append(&HistoryRecord::Header(header)).unwrap();
    drop(writer);
    let source = SeededSource::new(config().seed, config().population).unwrap();
    let opened = Daemon::open(
        config(),
        Box::new(source),
        &path,
        true,
        Obs::off(),
        AlertEngine::new(AlertConfig::default()),
    );
    match opened {
        Err(DaemonError::History(msg)) => assert_eq!(
            msg,
            format!("history format version 1 on disk, this build reads {HISTORY_VERSION}")
        ),
        Err(other) => panic!("{other}"),
        Ok(_) => panic!("a version-1 log resumed"),
    }
    assert_eq!(HISTORY_VERSION, 2);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn history_records_are_well_formed_and_summaries_match_callbacks() {
    // Cross-check the persisted records against what the run callback
    // observed, and sanity-check the checkpoint bookkeeping.
    let dir = scratch("wellformed");
    let path = dir.join("run.log");
    let mut daemon = open(&path, 4, false);
    let mut seen = Vec::new();
    daemon.run(|s, _| seen.push(s.clone())).unwrap();
    drop(daemon);

    let loaded = read_history(&path).unwrap();
    assert_eq!(loaded.dropped_bytes, 0);
    let mut epochs = 0u64;
    for record in &loaded.records {
        match record {
            HistoryRecord::Header(h) => assert_eq!(h.seed, 11),
            HistoryRecord::Epoch(e) => {
                assert_eq!(e.summary, seen[epochs as usize]);
                epochs += 1;
                assert_eq!(e.checkpoint.total_epochs, epochs);
                assert_eq!(e.checkpoint.cursor, epochs * 12);
                assert!(e.checkpoint.defense.is_some());
                assert!(e.checkpoint.se.is_some());
                assert!(e.summary.admitted >= e.summary.n_min);
                assert!(e.summary.admitted_txs <= e.summary.offered_txs);
            }
        }
    }
    assert_eq!(epochs, 4);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_committee_reporting_twice_ends_the_run_before_its_epoch_is_written() {
    // Four 900-tx reports at Ĉ = 500·4: four distinct committees admit two
    // shards, but committee 1 reports twice and the epoch cannot be posed.
    // Admitting it whole would put 3,600 txs in a 2,000-tx block.
    let dir = scratch("duplicate");
    let path = dir.join("run.log");
    let feed: String = [1, 2, 3, 1]
        .map(|c| format!("{{\"committee\":{c},\"txs\":900,\"latency_s\":700.5}}\n"))
        .concat();
    let cfg = DaemonConfig {
        batch_size: 4,
        reports_per_epoch: 4,
        capacity_per_committee: 500,
        ..DaemonConfig::default()
    };
    let mut daemon = Daemon::open(
        cfg,
        Box::new(JsonlSource::new(std::io::Cursor::new(feed))),
        &path,
        false,
        Obs::off(),
        AlertEngine::new(AlertConfig::default()),
    )
    .unwrap();
    let err = daemon.run(|_, _| {}).unwrap_err().to_string();
    assert!(err.contains("duplicate shard for committee-1"), "{err}");
    drop(daemon);
    let records = read_history(&path).unwrap().records;
    assert!(matches!(records.as_slice(), [HistoryRecord::Header(_)]));
    let _ = std::fs::remove_dir_all(&dir);
}
