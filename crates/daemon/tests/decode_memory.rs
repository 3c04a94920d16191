//! What decoding an epoch record costs in memory. A history payload decodes
//! straight into its types: the peak it adds is the typed record, 1.0× the
//! payload's length for this checkpoint of bitset words (8 bytes for a word
//! spelled in 1 to 20 digits, plus `Vec` growth slack). Lifting it through
//! a parsed `Value` tree first reads 5.1×, which the bound below refuses.
//! Dense words only (20 digits each) would let that path pass at 3.0×;
//! the sparse ones keep the bound's teeth.
//!
//! `VmHWM` is per process, so this file holds one test: nothing else runs
//! in its process while it measures.

#![expect(
    clippy::unwrap_used,
    reason = "helpers outside test functions panic like their callers"
)]
use mvcom_core::se::SeCheckpoint;
use mvcom_daemon::{DaemonCheckpoint, EpochClock, EpochRecord, EpochSummary, HistoryRecord};

/// The process's peak resident set, in bytes; `None` without procfs.
fn high_water_mark() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// Words per selection: one over 11,520 shards.
const WORDS: u64 = 180;

/// An epoch record whose SE checkpoint holds 4 replicas of 600 chains, each
/// a selection of [`WORDS`] words: ≥ 4 MB of JSON.
fn big_epoch_record() -> String {
    let record = HistoryRecord::Epoch(Box::new(EpochRecord {
        summary: EpochSummary {
            epoch: 41,
            t_open: 1_230.5,
            t_close: 1_260.5,
            reports: 48,
            offered_txs: 52_311,
            quarantined: 0,
            adversarial: 0,
            admitted: 30,
            admitted_txs: 33_019,
            utility: 812.25,
            ddl_s: 640.0,
            capacity: 96_000,
            n_min: 24,
            schedule_crc: 0x1234_5678,
        },
        alerts: Vec::new(),
        checkpoint: DaemonCheckpoint {
            cursor: 2_016,
            clock: EpochClock::new(48, 0.5).unwrap(),
            defense: None,
            total_epochs: 42,
            total_reports: 2_016,
            total_admitted_txs: 1_400_000,
            se: Some(SeCheckpoint {
                version: 2,
                seed: 7,
                iteration: 2,
                vtime: 0.5,
                best_words: vec![0b1110; WORDS as usize],
                best_utility: 812.25,
                replicas: Vec::new(),
            }),
        },
    }));
    // The replicas are written in place, so that the baseline holds one
    // copy of the payload and no more.
    let small = serde_json::to_string(&record).unwrap();
    let (head, tail) = small.split_once("\"replicas\":[]").unwrap();
    let mut json = String::with_capacity(5 << 20);
    json.push_str(head);
    json.push_str("\"replicas\":[");
    for replica in 0..4 {
        json.push_str(if replica == 0 { "[" } else { ",[" });
        for chain in 0..600u32 {
            if chain > 0 {
                json.push(',');
            }
            // Sparse words spell short numbers: shifting by `w % 64`
            // spreads the lengths over 1 to 20 digits.
            let words: Vec<u64> = (0..WORDS)
                .map(|w| {
                    (u64::from(chain) << 32 | w).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (w % 64)
                })
                .collect();
            let cardinality: u32 = words.iter().map(|w| w.count_ones()).sum();
            json.push_str(&format!("{{\"cardinality\":{cardinality},\"words\":"));
            json.push_str(&serde_json::to_string(&words).unwrap());
            json.push('}');
        }
        json.push(']');
    }
    json.push(']');
    json.push_str(tail);
    json
}

#[test]
fn decoding_an_epoch_record_peaks_below_four_times_its_length() {
    if high_water_mark().is_none() {
        eprintln!("no /proc/self/status: skipped");
        return;
    }
    let payload = big_epoch_record();
    assert!(payload.len() >= 4 << 20, "{} bytes", payload.len());
    let before = high_water_mark().unwrap();
    let record: HistoryRecord = serde_json::from_str(&payload).unwrap();
    let grown = high_water_mark().unwrap().saturating_sub(before);
    let HistoryRecord::Epoch(epoch) = &record else {
        panic!("decoded a header")
    };
    assert_eq!(epoch.checkpoint.se.as_ref().unwrap().chain_count(), 2_400);
    let ratio = grown as f64 / payload.len() as f64;
    eprintln!(
        "payload {} bytes, VmHWM grew {grown} bytes ({ratio:.2}x)",
        payload.len()
    );
    assert!(
        ratio < 4.0,
        "decoding grew VmHWM by {ratio:.2}x the payload"
    );
}
