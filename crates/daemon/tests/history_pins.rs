//! Pinned history bytes of the two ways an epoch can be settled.
//!
//! The constants were captured at 978133f, when `Daemon::schedule` built
//! the instance, ran the SE loop and hand-summed the admit-all utility
//! itself. They hold `mvcom_core::admission` to the same instances, the
//! same RNG streams and — for the degenerate path, which no SE golden
//! reaches — the same utility formula, byte for byte in the history file.

#![expect(
    clippy::unwrap_used,
    reason = "helpers outside #[test] fns panic like their callers"
)]
use mvcom_daemon::{
    read_history, AlertConfig, AlertEngine, Daemon, DaemonConfig, HistoryRecord, SeededSource,
};
use mvcom_obs::Obs;

const EPOCHS: u64 = 8;

fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Runs `EPOCHS` defended epochs against a 25 % misreport coalition and
/// returns the history digest plus whether each epoch record embeds an
/// SE checkpoint.
fn run(tag: &str, capacity_per_committee: u64) -> (u64, Vec<bool>) {
    let dir = std::env::temp_dir().join(format!("mvcom-daemon-pins-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("history.log");
    let config = DaemonConfig {
        seed: 11,
        population: 24,
        batch_size: 5,
        reports_per_epoch: 12,
        batch_interval_s: 0.25,
        se_iterations: 150,
        defense: true,
        adv_fraction: 0.25,
        adv_strategy: "misreport".to_string(),
        capacity_per_committee,
        max_epochs: EPOCHS,
        ..DaemonConfig::default()
    };
    let source = SeededSource::new(config.seed, config.population).unwrap();
    let mut daemon = Daemon::open(
        config,
        Box::new(source),
        &path,
        false,
        Obs::off(),
        AlertEngine::new(AlertConfig::default()),
    )
    .unwrap();
    assert_eq!(daemon.run(|_| {}).unwrap(), EPOCHS);
    drop(daemon);
    let digest = fnv(&std::fs::read(&path).unwrap());
    let solved = read_history(&path)
        .unwrap()
        .records
        .iter()
        .filter_map(|r| match r {
            HistoryRecord::Epoch(e) => Some(e.checkpoint.se.is_some()),
            HistoryRecord::Header(_) => None,
        })
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    (digest, solved)
}

#[test]
fn solved_epochs_write_the_pinned_history() {
    let (digest, solved) = run("solved", 1_000);
    assert_eq!(solved, vec![true; EPOCHS as usize]);
    assert_eq!(digest, 0xc703_c146_091c_16e7);
}

#[test]
fn admit_all_epochs_write_the_pinned_history() {
    // One tx of capacity per committee is below the smallest shard, so no
    // epoch can be posed: every record carries the admit-all utility and
    // no SE checkpoint.
    let (digest, solved) = run("admit-all", 1);
    assert_eq!(solved, vec![false; EPOCHS as usize]);
    assert_eq!(digest, 0x303e_ba71_f52e_a0b1);
}
