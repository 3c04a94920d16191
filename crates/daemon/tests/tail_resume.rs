//! Resuming reads the log's tail, not the log: `Daemon::open` verifies every
//! frame but decodes only the header and the last intact epoch. These tests
//! hold that shortcut to the full decode it replaced — `read_history`, whose
//! records say what a resume must restore — at every place a crash can cut
//! the file, and check that corruption anywhere is still refused.

#![expect(
    clippy::unwrap_used,
    reason = "helpers outside #[test] fns panic like their callers"
)]
use std::path::{Path, PathBuf};

use mvcom_daemon::history::encode_record;
use mvcom_daemon::{
    read_history, AlertConfig, AlertEngine, Daemon, DaemonConfig, DaemonError, HistoryRecord,
    JsonlSource, Startup,
};
use mvcom_obs::Obs;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "mvcom-daemon-tail-resume-{}-{tag}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Small epochs, so that every byte of a frame can be a cut point.
fn config(defense: bool) -> DaemonConfig {
    DaemonConfig {
        seed: 23,
        population: 10,
        batch_size: 3,
        reports_per_epoch: 4,
        batch_interval_s: 0.25,
        se_iterations: 4,
        defense,
        adv_fraction: 0.2,
        adv_strategy: "misreport".to_string(),
        ..DaemonConfig::default()
    }
}

/// The feed every daemon here replays: a resumed one fast-forwards over
/// the same lines the killed one consumed.
fn feed() -> String {
    (0..40u32)
        .map(|i| {
            format!(
                "{{\"committee\":{},\"txs\":{},\"latency_s\":{}.5}}\n",
                i % 10,
                100 + (i * 271) % 1900,
                500 + (i * 97) % 700
            )
        })
        .collect()
}

fn try_open(cfg: &DaemonConfig, history: &Path, resume: bool) -> Result<Daemon, DaemonError> {
    let source = JsonlSource::new(std::io::Cursor::new(feed()));
    Daemon::open(
        cfg.clone(),
        Box::new(source),
        history,
        resume,
        Obs::off(),
        AlertEngine::new(AlertConfig::default()),
    )
}

/// An uninterrupted run's log and the end offset of each of its frames.
fn reference(dir: &Path, cfg: &DaemonConfig, epochs: u64) -> (Vec<u8>, Vec<usize>) {
    let path = dir.join("reference.log");
    let mut daemon = try_open(cfg, &path, false).unwrap();
    for _ in 0..epochs {
        daemon.step_epoch().unwrap().unwrap();
    }
    drop(daemon);
    let bytes = std::fs::read(&path).unwrap();
    let mut ends = Vec::new();
    let mut at = 0;
    while at < bytes.len() {
        at += 8 + u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
        ends.push(at);
    }
    assert_eq!(ends.len() as u64, epochs + 1);
    (bytes, ends)
}

/// Cuts the reference at `cut`, resumes over it, and holds the resumed
/// daemon to what a full decode of the same file says; then (with `step`)
/// closes one epoch and holds the file to the uninterrupted run.
fn resume_matches_the_full_decode(
    cfg: &DaemonConfig,
    path: &Path,
    bytes: &[u8],
    ends: &[usize],
    cut: usize,
    step: bool,
) {
    std::fs::write(path, &bytes[..cut]).unwrap();
    let loaded = read_history(path).unwrap();
    let epochs: Vec<_> = loaded
        .records
        .iter()
        .filter_map(|r| match r {
            HistoryRecord::Epoch(e) => Some(e),
            HistoryRecord::Header(_) => None,
        })
        .collect();
    let mut daemon = try_open(cfg, path, true).unwrap();
    assert_eq!(
        daemon.startup(),
        Startup::Resumed {
            epochs: epochs.len() as u64,
            cursor: epochs.last().map_or(0, |e| e.checkpoint.cursor),
            dropped_bytes: loaded.dropped_bytes,
        },
        "cut={cut}"
    );
    if let Some(last) = epochs.last() {
        assert_eq!(*daemon.clock(), last.checkpoint.clock, "cut={cut}");
    }
    // The torn tail is gone from the file, not merely skipped.
    assert_eq!(daemon.history_bytes(), loaded.valid_bytes, "cut={cut}");
    assert_eq!(
        std::fs::metadata(path).unwrap().len(),
        loaded.valid_bytes,
        "cut={cut}"
    );
    // One more epoch: defense state, totals and cursor all came back, or
    // these bytes would differ.
    let intact = 1 + epochs.len();
    assert_eq!(loaded.valid_bytes, ends[intact - 1] as u64, "cut={cut}");
    if step && intact < ends.len() {
        daemon.step_epoch().unwrap().unwrap();
        drop(daemon);
        let resumed = std::fs::read(path).unwrap();
        assert!(resumed == bytes[..ends[intact]], "cut={cut}");
    }
}

#[test]
fn tail_resume_equals_full_decode_resume_at_every_cut_of_the_last_frame() {
    for defense in [false, true] {
        let dir = scratch(if defense { "cuts-defended" } else { "cuts" });
        let cfg = config(defense);
        let total = 4;
        let (bytes, ends) = reference(&dir, &cfg, total);
        let path = dir.join("cut.log");
        // Histories of 0, 1 and N intact epochs, each followed by every
        // prefix of the frame a crash was in the middle of appending —
        // from none of it (a clean stop) to all but its last byte.
        for intact_epochs in [0, 1, total as usize - 1] {
            let (from, to) = (ends[intact_epochs], ends[intact_epochs + 1]);
            for cut in from..to {
                // Solving an epoch costs a hundred opens: do it where the
                // cut changes kind (clean stop, inside the frame header,
                // one byte short) and at a stride in between.
                let step = cut - from < 10 || to - cut < 10 || (cut - from) % 50 == 0;
                resume_matches_the_full_decode(&cfg, &path, &bytes, &ends, cut, step);
            }
        }
        // And the whole log, with nothing after it to re-derive.
        resume_matches_the_full_decode(&cfg, &path, &bytes, &ends, bytes.len(), true);
        // Cut inside the header there is nothing to resume from.
        for cut in 1..ends[0] {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            let err = try_open(&cfg, &path, true).unwrap_err().to_string();
            assert!(err.contains("does not start with a Header"), "{cut}: {err}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn resume_still_verifies_the_frames_it_does_not_decode() {
    let dir = scratch("corrupt");
    let cfg = config(true);
    let (bytes, ends) = reference(&dir, &cfg, 4);
    let path = dir.join("bad.log");
    let refuse = |bytes: &[u8]| {
        std::fs::write(&path, bytes).unwrap();
        let full = read_history(&path).unwrap_err().to_string();
        let tail = try_open(&cfg, &path, true).unwrap_err().to_string();
        assert_eq!(tail, full, "resume and read_history report the same fault");
        tail
    };
    // A flipped payload byte in a frame that is neither first nor last.
    let mut flipped = bytes.clone();
    flipped[ends[1] + 8 + 40] ^= 0x20;
    let err = refuse(&flipped);
    assert!(
        err.contains(&format!("CRC mismatch on the record at byte {}", ends[1])),
        "{err}"
    );
    assert!(err.contains("the log is corrupt"), "{err}");
    // An implausible length mid-log is corruption, not a torn tail…
    let mut zero_len = bytes.clone();
    zero_len[ends[1]..ends[1] + 4].copy_from_slice(&0u32.to_le_bytes());
    assert!(refuse(&zero_len).contains("implausible length 0"));
    let mut huge_len = bytes.clone();
    huge_len[ends[1]..ends[1] + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(refuse(&huge_len).contains("implausible length 4294967295"));
    // …and so are a payload that lost its terminator and one that is not
    // text, even under a CRC that matches them.
    let reframed = |payload: &[u8]| {
        let mut log = bytes[..ends[1]].to_vec();
        log.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        log.extend_from_slice(&mvcom_daemon::crc32(payload).to_le_bytes());
        log.extend_from_slice(payload);
        log.extend_from_slice(&bytes[ends[2]..]);
        log
    };
    let payload = &bytes[ends[1] + 8..ends[2]];
    let err = refuse(&reframed(&payload[..payload.len() - 1]));
    assert!(err.contains("is not newline-terminated"), "{err}");
    let mut not_text = payload.to_vec();
    not_text[10] = 0xFF;
    assert!(refuse(&reframed(&not_text)).contains("is not UTF-8"));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn resume_refuses_a_log_that_does_not_open_with_its_header() {
    let dir = scratch("headless");
    let cfg = config(false);
    let (bytes, ends) = reference(&dir, &cfg, 2);
    let path = dir.join("headless.log");
    // Epoch frames only.
    std::fs::write(&path, &bytes[ends[0]..]).unwrap();
    let err = try_open(&cfg, &path, true).unwrap_err().to_string();
    assert!(err.contains("does not start with a Header record"), "{err}");
    // Another run's header.
    let other = DaemonConfig {
        seed: cfg.seed + 1,
        ..cfg.clone()
    };
    let mut foreign = encode_record(&HistoryRecord::Header(other.header())).unwrap();
    foreign.extend_from_slice(&bytes[ends[0]..]);
    std::fs::write(&path, &foreign).unwrap();
    let err = try_open(&cfg, &path, true).unwrap_err().to_string();
    assert!(
        err.contains("does not match the daemon configuration"),
        "{err}"
    );
    // A header where the last epoch should be: two runs in one file.
    let mut doubled = bytes.clone();
    doubled.extend_from_slice(&bytes[..ends[0]]);
    std::fs::write(&path, &doubled).unwrap();
    let err = try_open(&cfg, &path, true).unwrap_err().to_string();
    assert!(err.contains("ends in a second Header record"), "{err}");
    // A frame in the middle that verifies but does not decode is beyond
    // what resume looks at; the full read is what reports it.
    let garbage = b"{\"Epoch\":17}\n";
    let mut mangled = bytes[..ends[0]].to_vec();
    mangled.extend_from_slice(&(garbage.len() as u32).to_le_bytes());
    mangled.extend_from_slice(&mvcom_daemon::crc32(garbage).to_le_bytes());
    mangled.extend_from_slice(garbage);
    mangled.extend_from_slice(&bytes[ends[0]..]);
    std::fs::write(&path, &mangled).unwrap();
    let err = read_history(&path).unwrap_err().to_string();
    assert!(err.contains("fails to parse"), "{err}");
    assert!(matches!(
        try_open(&cfg, &path, true).unwrap().startup(),
        Startup::Resumed { epochs: 2, .. }
    ));
    std::fs::remove_dir_all(&dir).unwrap();
}
