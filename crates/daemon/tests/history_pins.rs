//! Pinned history bytes of the two ways an epoch can be settled.
//!
//! The constants were captured at 978133f, when `Daemon::schedule` built
//! the instance, ran the SE loop and hand-summed the admit-all utility
//! itself. They hold `mvcom_core::admission` to the same instances, the
//! same RNG streams and — for the degenerate path, which no SE golden
//! reaches — the same utility formula, byte for byte in the history file.
//!
//! History format version 2 stores each SE selection as bitset words
//! (and says `"version":2` in the header), so both file digests were
//! re-captured at that change. The constants above did not move: each run
//! is also re-encoded as version 1 spelled it — the header at version 1,
//! every selection an index list, every frame re-checksummed — and that
//! log must hash to the digest pinned before, so the records' content is
//! what it was.

#![expect(
    clippy::unwrap_used,
    reason = "helpers outside #[test] fns panic like their callers"
)]
use mvcom_core::se::{selected_indices, SeCheckpoint};
use mvcom_daemon::{
    crc32, read_history, AlertConfig, AlertEngine, Daemon, DaemonConfig, HistoryRecord, RunHeader,
    SeededSource,
};
use mvcom_obs::Obs;
use serde::Serialize;

const EPOCHS: u64 = 8;

fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// An SE checkpoint as version 1 of the history format spelled it.
#[derive(Serialize)]
struct IndexCheckpoint {
    version: u64,
    seed: u64,
    iteration: u64,
    vtime: f64,
    best_selected: Vec<usize>,
    best_utility: f64,
    replicas: Vec<Vec<IndexChain>>,
}

#[derive(Serialize)]
struct IndexChain {
    cardinality: usize,
    selected: Vec<usize>,
}

impl From<&SeCheckpoint> for IndexCheckpoint {
    fn from(ckpt: &SeCheckpoint) -> IndexCheckpoint {
        IndexCheckpoint {
            version: ckpt.version,
            seed: ckpt.seed,
            iteration: ckpt.iteration,
            vtime: ckpt.vtime,
            best_selected: selected_indices(&ckpt.best_words).collect(),
            best_utility: ckpt.best_utility,
            replicas: ckpt
                .replicas
                .iter()
                .map(|chains| {
                    chains
                        .iter()
                        .map(|c| IndexChain {
                            cardinality: c.cardinality,
                            selected: selected_indices(&c.words).collect(),
                        })
                        .collect()
                })
                .collect(),
        }
    }
}

/// FNV-1a of the log version 1 would have written for the same records:
/// the header at version 1, each SE checkpoint spelled with index lists.
fn version_1_digest(records: &[HistoryRecord]) -> u64 {
    let mut log = Vec::new();
    for record in records {
        let json = match record {
            HistoryRecord::Header(header) => {
                let header = RunHeader {
                    version: 1,
                    ..header.clone()
                };
                serde_json::to_string(&HistoryRecord::Header(header)).unwrap()
            }
            HistoryRecord::Epoch(epoch) => {
                let mut epoch = epoch.clone();
                let se = epoch.checkpoint.se.take();
                let json = serde_json::to_string(&HistoryRecord::Epoch(epoch)).unwrap();
                let se = se.map_or("null".to_string(), |c| {
                    serde_json::to_string(&IndexCheckpoint::from(&c)).unwrap()
                });
                let (head, tail) = json.rsplit_once("\"se\":null").unwrap();
                format!("{head}\"se\":{se}{tail}")
            }
        };
        let payload = format!("{json}\n");
        log.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        log.extend_from_slice(&crc32(payload.as_bytes()).to_le_bytes());
        log.extend_from_slice(payload.as_bytes());
    }
    fnv(&log)
}

/// What a run left: the history file's digest, whether each epoch record
/// embeds an SE checkpoint, and [`version_1_digest`] of its records.
struct Run {
    digest: u64,
    solved: Vec<bool>,
    version_1: u64,
}

/// Runs `EPOCHS` defended epochs against a 25 % misreport coalition.
fn run(tag: &str, capacity_per_committee: u64) -> Run {
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
    assert_eq!(daemon.run(|_, _| {}).unwrap(), EPOCHS);
    drop(daemon);
    let digest = fnv(&std::fs::read(&path).unwrap());
    let records = read_history(&path).unwrap().records;
    let solved = records
        .iter()
        .filter_map(|r| match r {
            HistoryRecord::Epoch(e) => Some(e.checkpoint.se.is_some()),
            HistoryRecord::Header(_) => None,
        })
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    Run {
        digest,
        solved,
        version_1: version_1_digest(&records),
    }
}

#[test]
fn solved_epochs_write_the_pinned_history() {
    let run = run("solved", 1_000);
    assert_eq!(run.solved, vec![true; EPOCHS as usize]);
    assert_eq!(run.version_1, 0xc703_c146_091c_16e7);
    assert_eq!(run.digest, 0x9db4_e638_13c5_d666);
}

#[test]
fn admit_all_epochs_write_the_pinned_history() {
    // One tx of capacity per committee is below the smallest shard, so no
    // epoch can be posed: every record carries the admit-all utility and
    // no SE checkpoint.
    let run = run("admit-all", 1);
    assert_eq!(run.solved, vec![false; EPOCHS as usize]);
    assert_eq!(run.version_1, 0x303e_ba71_f52e_a0b1);
    assert_eq!(run.digest, 0x0869_6e16_75a2_abb5);
}
