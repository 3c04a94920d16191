//! Well-formed JSON of the wrong shape, resumed from. `hostile_json.rs`
//! holds the parser to totality on arbitrary bytes; this file holds the
//! typed decoders to it on documents that parse. Every case is a CRC-valid
//! log — the header of a real run, then its last epoch record with one
//! slot of `DaemonCheckpoint`, `SeCheckpoint` or `DefenseCheckpoint`
//! rewritten — opened by `Daemon::open(resume = true)`. Each hostile case
//! ends in a named `DaemonError`, never in a panic; the edits the decoding
//! rules tolerate (unknown keys, a later duplicate, an escaped key) resume
//! as the untouched log does. A clock that decodes but does not stand
//! where an epoch's close left it is refused too, naming its field, and so
//! is an SE selection whose bitset words do not fit the epoch's shards.

#![expect(
    clippy::unwrap_used,
    reason = "helpers outside #[test] fns panic like their callers"
)]
use std::path::{Path, PathBuf};

use mvcom::daemon::{
    crc32, read_history, AlertConfig, AlertEngine, Daemon, DaemonConfig, DaemonError,
    HistoryRecord, JsonlSource, Startup,
};
use mvcom_obs::Obs;
use proptest::prelude::*;
use serde::Value;

fn config() -> DaemonConfig {
    DaemonConfig {
        seed: 29,
        population: 8,
        batch_size: 3,
        reports_per_epoch: 4,
        batch_interval_s: 0.25,
        se_iterations: 4,
        defense: true,
        adv_fraction: 0.25,
        adv_strategy: "misreport".to_string(),
        ..DaemonConfig::default()
    }
}

fn feed() -> String {
    (0..24u32)
        .map(|i| {
            format!(
                "{{\"committee\":{},\"txs\":{},\"latency_s\":{}.5}}\n",
                i % 8,
                100 + (i * 271) % 1900,
                500 + (i * 97) % 700
            )
        })
        .collect()
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mvcom-wrong-shape-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn open(path: &Path) -> Result<Daemon, DaemonError> {
    Daemon::open(
        config(),
        Box::new(JsonlSource::new(std::io::Cursor::new(feed()))),
        path,
        true,
        Obs::off(),
        AlertEngine::new(AlertConfig::default()),
    )
}

/// The header and the last epoch record of a three-epoch run, as JSON.
fn reference(tag: &str) -> (String, Value) {
    let dir = scratch(tag);
    let path = dir.join("reference.log");
    let mut daemon = Daemon::open(
        config(),
        Box::new(JsonlSource::new(std::io::Cursor::new(feed()))),
        &path,
        false,
        Obs::off(),
        AlertEngine::new(AlertConfig::default()),
    )
    .unwrap();
    for _ in 0..3 {
        daemon.step_epoch().unwrap().unwrap();
    }
    drop(daemon);
    let records = read_history(&path).unwrap().records;
    std::fs::remove_dir_all(&dir).unwrap();
    let last = records.last().unwrap();
    let HistoryRecord::Epoch(epoch) = last else {
        panic!("the run closed no epoch")
    };
    assert!(epoch.checkpoint.se.is_some() && epoch.checkpoint.defense.is_some());
    let header = serde_json::to_string(&records[0]).unwrap();
    let epoch = serde_json::from_str_value(&serde_json::to_string(last).unwrap()).unwrap();
    (header, epoch)
}

/// One CRC-valid frame around `json`.
fn frame(json: &str, log: &mut Vec<u8>) {
    let payload = format!("{json}\n");
    log.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    log.extend_from_slice(&crc32(payload.as_bytes()).to_le_bytes());
    log.extend_from_slice(payload.as_bytes());
}

/// Resumes from the header and `epoch`, spelled as given.
fn resume(dir: &Path, header: &str, epoch: &str) -> Result<Daemon, DaemonError> {
    let path = dir.join("case.log");
    let mut log = Vec::new();
    frame(header, &mut log);
    frame(epoch, &mut log);
    std::fs::write(&path, &log).unwrap();
    open(&path)
}

/// The object at `path` (keys from the epoch record's payload down).
fn object<'a>(root: &'a mut Value, path: &[&str]) -> &'a mut Vec<(String, Value)> {
    let Value::Object(fields) = root else {
        panic!("not an object")
    };
    match path.split_first() {
        None => fields,
        Some((key, rest)) => {
            let (_, inner) = fields.iter_mut().find(|(k, _)| k == key).unwrap();
            object(inner, rest)
        }
    }
}

const CHECKPOINT: &[&str] = &["Epoch", "checkpoint"];
const SE: &[&str] = &["Epoch", "checkpoint", "se"];
const DEFENSE: &[&str] = &["Epoch", "checkpoint", "defense"];
const CLOCK: &[&str] = &["Epoch", "checkpoint", "clock"];

fn set(root: &mut Value, at: &[&str], key: &str, value: Value) {
    let fields = object(root, at);
    match fields.iter_mut().find(|(k, _)| k == key) {
        Some(slot) => slot.1 = value,
        None => fields.push((key.to_string(), value)),
    }
}

fn remove(root: &mut Value, at: &[&str], key: &str) {
    object(root, at).retain(|(k, _)| k != key);
}

fn raw(json: &str) -> Value {
    serde_json::from_str_value(json).unwrap()
}

/// A hostile case: what to do to the epoch record, and the words its
/// error must contain.
struct Case {
    name: &'static str,
    edit: fn(&mut Value),
    says: &'static str,
}

const CASES: &[Case] = &[
    // DaemonCheckpoint: wrong scalar types, missing, duplicate, junk Options.
    Case {
        name: "cursor as a string",
        edit: |r| set(r, CHECKPOINT, "cursor", raw("\"12\"")),
        says: "Epoch.checkpoint.cursor: expected an integer, found a string",
    },
    Case {
        name: "negative cursor",
        edit: |r| set(r, CHECKPOINT, "cursor", raw("-1")),
        says: "Epoch.checkpoint.cursor: integer -1 out of range",
    },
    Case {
        name: "fractional total",
        edit: |r| set(r, CHECKPOINT, "total_epochs", raw("2.5")),
        says: "Epoch.checkpoint.total_epochs: expected an integer, found 2.5",
    },
    Case {
        name: "clock as an array",
        edit: |r| set(r, CHECKPOINT, "clock", raw("[1,2,3]")),
        says: "Epoch.checkpoint.clock: expected an object (EpochClock), found an array",
    },
    Case {
        name: "missing total",
        edit: |r| remove(r, CHECKPOINT, "total_reports"),
        says: "Epoch.checkpoint: missing field `total_reports`",
    },
    Case {
        name: "junk where the defense Option goes",
        edit: |r| set(r, CHECKPOINT, "defense", raw("7")),
        says: "Epoch.checkpoint.defense: expected an object (DefenseCheckpoint), found a number",
    },
    Case {
        name: "junk where the SE Option goes",
        edit: |r| set(r, CHECKPOINT, "se", raw("\"none\"")),
        says: "Epoch.checkpoint.se: expected an object (SeCheckpoint), found a string",
    },
    Case {
        name: "a duplicate cursor whose first copy is junk",
        edit: |r| object(r, CHECKPOINT).insert(0, ("cursor".into(), raw("{}"))),
        says: "Epoch.checkpoint.cursor: expected an integer, found an object",
    },
    Case {
        name: "128-deep nesting inside an unknown key",
        edit: |r| {
            let deep = "[".repeat(128) + &"]".repeat(128);
            set(r, CHECKPOINT, "unknown", raw(&deep[1..deep.len() - 1]));
            // Parsed at 127 levels; the record puts it 3 levels down.
            let Some((_, value)) = object(r, CHECKPOINT).last_mut() else {
                unreachable!()
            };
            *value = Value::Array(vec![std::mem::replace(value, Value::Null)]);
        },
        says: "Epoch.checkpoint.unknown: nesting deeper than 128 levels",
    },
    // SeCheckpoint.
    Case {
        name: "SE version as a bool",
        edit: |r| set(r, SE, "version", raw("true")),
        says: "Epoch.checkpoint.se.version: expected an integer, found a bool",
    },
    Case {
        name: "SE replicas as an object",
        edit: |r| set(r, SE, "replicas", raw("{\"0\":[]}")),
        says: "Epoch.checkpoint.se.replicas: expected an array, found an object",
    },
    Case {
        name: "a chain without its cardinality",
        edit: |r| set(r, SE, "replicas", raw("[[{\"words\":[1]}]]")),
        says: "Epoch.checkpoint.se.replicas[0][0]: missing field `cardinality`",
    },
    Case {
        name: "a word past u64::MAX",
        edit: |r| {
            let chain = "{\"cardinality\":1,\"words\":[18446744073709551616]}";
            set(r, SE, "replicas", raw(&format!("[[],[{chain}]]")));
        },
        says: "Epoch.checkpoint.se.replicas[1][0].words[0]: integer 18446744073709552000 \
               out of range",
    },
    Case {
        name: "a string where a chain's words belong",
        edit: |r| {
            set(
                r,
                SE,
                "replicas",
                raw("[[{\"cardinality\":1,\"words\":\"1\"}]]"),
            )
        },
        says: "Epoch.checkpoint.se.replicas[0][0].words: expected an array, found a string",
    },
    Case {
        name: "a string where the best words belong",
        edit: |r| set(r, SE, "best_words", raw("\"0x1f\"")),
        says: "Epoch.checkpoint.se.best_words: expected an array, found a string",
    },
    Case {
        name: "best utility as a string",
        edit: |r| set(r, SE, "best_utility", raw("\"NaN\"")),
        says: "Epoch.checkpoint.se.best_utility: expected a number, found a string",
    },
    // DefenseCheckpoint.
    Case {
        name: "defense epoch as null",
        edit: |r| set(r, DEFENSE, "epoch", Value::Null),
        says: "Epoch.checkpoint.defense.epoch: expected an integer, found null",
    },
    Case {
        name: "defense config as an array",
        edit: |r| set(r, DEFENSE, "config", raw("[]")),
        says: "Epoch.checkpoint.defense.config: expected an object (DefenseConfig), found an array",
    },
    Case {
        name: "a defense record of one element",
        edit: |r| set(r, DEFENSE, "records", raw("[[3]]")),
        says: "Epoch.checkpoint.defense.records[0]: expected a tuple with 2 elements, found 1",
    },
    Case {
        name: "a defense record keyed by a string",
        edit: |r| {
            let Value::Array(records) = &mut object(r, DEFENSE)
                .iter_mut()
                .find(|(k, _)| k == "records")
                .unwrap()
                .1
            else {
                panic!("records")
            };
            let Value::Array(pair) = &mut records[0] else {
                panic!("pair")
            };
            pair[0] = raw("\"c3\"");
        },
        says: "Epoch.checkpoint.defense.records[0][0]: expected an integer, found a string",
    },
    Case {
        name: "a defense record without its trust",
        edit: |r| {
            let Value::Array(records) = &mut object(r, DEFENSE)
                .iter_mut()
                .find(|(k, _)| k == "records")
                .unwrap()
                .1
            else {
                panic!("records")
            };
            let Value::Array(pair) = &mut records[0] else {
                panic!("pair")
            };
            let Value::Object(record) = &mut pair[1] else {
                panic!("record")
            };
            record.retain(|(k, _)| k != "trust");
        },
        says: "Epoch.checkpoint.defense.records[0][1]: missing field `trust`",
    },
];

#[test]
fn every_wrong_shape_is_a_named_history_error() {
    let (header, epoch) = reference("cases");
    let dir = scratch("cases");
    // The untouched record resumes: the cases below fail for their edit.
    let clean = resume(&dir, &header, &serde_json::to_string(&epoch).unwrap()).unwrap();
    assert!(matches!(
        clean.startup(),
        Startup::Resumed { epochs: 3, .. }
    ));
    drop(clean);
    for case in CASES {
        let mut doc = epoch.clone();
        (case.edit)(&mut doc);
        match resume(&dir, &header, &serde_json::to_string(&doc).unwrap()) {
            Err(DaemonError::History(msg)) => {
                assert!(msg.contains("fails to parse"), "{}: {msg}", case.name);
                assert!(msg.contains(case.says), "{}: {msg}", case.name);
            }
            Err(other) => panic!("{}: {other}", case.name),
            Ok(_) => panic!("{}: resumed", case.name),
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_clock_not_at_an_epoch_close_is_refused_by_name() {
    let (header, epoch) = reference("clock");
    let dir = scratch("clock");
    // The run closed three epochs of four reports at 0.25 s per batch.
    let cases = [
        (
            "reports_per_epoch",
            "0",
            "`reports_per_epoch` is 0, expected the header's 4",
        ),
        (
            "batch_interval_s",
            "0.0",
            "`batch_interval_s` is 0, expected the header's 0.25",
        ),
        (
            "batch_interval_s",
            "-1.0",
            "`batch_interval_s` is -1, expected the header's 0.25",
        ),
        (
            "in_epoch",
            "2",
            "`in_epoch` is 2, expected 0 at an epoch's close",
        ),
        (
            "batches",
            "18446744073709551615",
            "`batches` is 18446744073709551615, expected at most",
        ),
        ("epoch", "2", "`epoch` is 2, expected 3, the epochs closed"),
        ("epoch", "4", "`epoch` is 4, expected 3, the epochs closed"),
    ];
    for (field, value, says) in cases {
        let mut doc = epoch.clone();
        set(&mut doc, CLOCK, field, raw(value));
        match resume(&dir, &header, &serde_json::to_string(&doc).unwrap()) {
            Err(DaemonError::History(msg)) => assert!(msg.contains(says), "{field}: {msg}"),
            Err(other) => panic!("{field} = {value}: {other}"),
            Ok(_) => panic!("{field} = {value}: resumed"),
        }
    }
    // Exactly room for one more epoch of (at most) four batches.
    let mut doc = epoch.clone();
    set(&mut doc, CLOCK, "batches", raw("18446744073709551611"));
    resume(&dir, &header, &serde_json::to_string(&doc).unwrap()).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_million_element_words_array_fails_at_its_last_element() {
    let (header, mut epoch) = reference("million");
    let dir = scratch("million");
    set(
        &mut epoch,
        SE,
        "replicas",
        raw("[[{\"cardinality\":1,\"words\":\"here\"}]]"),
    );
    let mut words = "[".to_string();
    for i in 0..999_999u64 {
        words.push_str(&(i << 40 | i).to_string());
        words.push(',');
    }
    words.push_str("\"last\"]");
    let doc = serde_json::to_string(&epoch)
        .unwrap()
        .replacen("\"here\"", &words, 1);
    let err = resume(&dir, &header, &doc).err().unwrap();
    let DaemonError::History(msg) = &err else {
        panic!("{err}")
    };
    assert!(
        msg.contains(
            "Epoch.checkpoint.se.replicas[0][0].words[999999]: \
             expected an integer, found a string at byte"
        ),
        "{msg}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// SE selections that decode but do not fit the reference run's epochs,
/// each of which poses at most 4 shards: one word.
const MISFITS: &[Case] = &[
    Case {
        name: "a word too many",
        edit: |r| {
            set(
                r,
                SE,
                "replicas",
                raw("[[{\"cardinality\":1,\"words\":[1,0]}]]"),
            )
        },
        says: "Epoch.checkpoint.se.replicas[0][0].words: 2 words, expected 1 for",
    },
    Case {
        name: "no words",
        edit: |r| {
            set(
                r,
                SE,
                "replicas",
                raw("[[],[{\"cardinality\":0,\"words\":[]}]]"),
            )
        },
        says: "Epoch.checkpoint.se.replicas[1][0].words: 0 words, expected 1 for",
    },
    Case {
        name: "a bit past the shards",
        edit: |r| {
            let chain = "{\"cardinality\":1,\"words\":[9223372036854775808]}";
            set(r, SE, "replicas", raw(&format!("[[{chain}]]")));
        },
        says: "Epoch.checkpoint.se.replicas[0][0].words[0]: shard 63 is past the",
    },
    Case {
        name: "a cardinality the bits do not have",
        edit: |r| {
            set(
                r,
                SE,
                "replicas",
                raw("[[{\"cardinality\":3,\"words\":[1]}]]"),
            )
        },
        says: "Epoch.checkpoint.se.replicas[0][0].words: 1 bits set, but the cardinality is 3",
    },
    Case {
        name: "best words too many",
        edit: |r| set(r, SE, "best_words", raw("[1,1]")),
        says: "Epoch.checkpoint.se.best_words: 2 words, expected 1 for",
    },
];

#[test]
fn a_selection_that_does_not_fit_the_epoch_is_refused_by_path() {
    let (header, epoch) = reference("misfit");
    let dir = scratch("misfit");
    for case in MISFITS {
        let mut doc = epoch.clone();
        (case.edit)(&mut doc);
        match resume(&dir, &header, &serde_json::to_string(&doc).unwrap()) {
            Err(DaemonError::History(msg)) => {
                assert!(msg.contains(case.says), "{}: {msg}", case.name);
            }
            Err(other) => panic!("{}: {other}", case.name),
            Ok(_) => panic!("{}: resumed", case.name),
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_defense_config_out_of_its_domain_is_a_core_error() {
    let (header, mut epoch) = reference("domain");
    let dir = scratch("domain");
    set(
        &mut epoch,
        &[DEFENSE, &["config"]].concat(),
        "window",
        raw("0"),
    );
    let err = resume(&dir, &header, &serde_json::to_string(&epoch).unwrap())
        .err()
        .unwrap();
    assert!(matches!(err, DaemonError::Core(_)), "{err}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn what_the_decoding_rules_tolerate_resumes_as_the_clean_log() {
    let (header, epoch) = reference("tolerated");
    let dir = scratch("tolerated");
    let startup = |doc: &str| format!("{:?}", resume(&dir, &header, doc).unwrap().startup());
    let clean = startup(&serde_json::to_string(&epoch).unwrap());
    let tolerated: [fn(&mut Value); 4] = [
        |r| set(r, CHECKPOINT, "unknown", raw("{\"a\":[[[null]]]}")),
        |r| object(r, CHECKPOINT).push(("cursor".into(), raw("\"later\""))),
        |r| object(r, SE).push(("replicas".into(), raw("7"))),
        |r| object(r, DEFENSE).push(("future_field".into(), raw("[]"))),
    ];
    for edit in tolerated {
        let mut doc = epoch.clone();
        edit(&mut doc);
        assert_eq!(startup(&serde_json::to_string(&doc).unwrap()), clean);
    }
    let escaped =
        serde_json::to_string(&epoch)
            .unwrap()
            .replacen("\"cursor\"", "\"\\u0063ursor\"", 1);
    assert_eq!(startup(&escaped), clean);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Values of every kind, and numbers on the classifier's edges.
const JUNK: &[&str] = &[
    "null",
    "true",
    "\"x\"",
    "[]",
    "[[1,2]]",
    "{}",
    "{\"k\":null}",
    "-1",
    "0",
    "1.5",
    "1e999",
    "18446744073709551615",
    "18446744073709551616",
];

/// Every slot under the checkpoint, as the keys and indices leading to it.
fn slots(
    value: &Value,
    path: &mut Vec<Result<String, usize>>,
    out: &mut Vec<Vec<Result<String, usize>>>,
) {
    out.push(path.clone());
    match value {
        Value::Array(items) => {
            for (i, item) in items.iter().enumerate() {
                path.push(Err(i));
                slots(item, path, out);
                path.pop();
            }
        }
        Value::Object(fields) => {
            for (k, item) in fields {
                path.push(Ok(k.clone()));
                slots(item, path, out);
                path.pop();
            }
        }
        _ => {}
    }
}

fn slot_mut<'a>(value: &'a mut Value, path: &[Result<String, usize>]) -> &'a mut Value {
    match path.split_first() {
        None => value,
        Some((step, rest)) => match (value, step) {
            (Value::Array(items), Err(i)) => slot_mut(&mut items[*i], rest),
            (Value::Object(fields), Ok(k)) => slot_mut(
                &mut fields.iter_mut().find(|(key, _)| key == k).unwrap().1,
                rest,
            ),
            _ => unreachable!("paths come from the same tree"),
        },
    }
}

proptest! {
    #[test]
    fn junk_in_any_checkpoint_slot_is_refused_or_resumed(
        picks in proptest::collection::vec((any::<u32>(), 0usize..JUNK.len(), 0usize..3), 1..4),
    ) {
        let (header, epoch) = reference("junk");
        let dir = scratch("junk");
        let mut doc = epoch.clone();
        let checkpoint = slot_mut(&mut doc, &[Ok("Epoch".into()), Ok("checkpoint".into())]);
        for (slot, junk, how) in picks {
            let mut all = Vec::new();
            slots(checkpoint, &mut Vec::new(), &mut all);
            let target = slot_mut(checkpoint, &all[slot as usize % all.len()]);
            match (how, target) {
                // Drop a member, or put junk first under a member's key.
                (0, Value::Object(fields)) if !fields.is_empty() => {
                    let i = slot as usize % fields.len();
                    fields.remove(i);
                }
                (1, Value::Object(fields)) if !fields.is_empty() => {
                    let key = fields[slot as usize % fields.len()].0.clone();
                    fields.insert(0, (key, raw(JUNK[junk])));
                }
                (_, target) => *target = raw(JUNK[junk]),
            }
        }
        match resume(&dir, &header, &serde_json::to_string(&doc).unwrap()) {
            Ok(_) => {}
            Err(DaemonError::History(_) | DaemonError::Core(_) | DaemonError::Ingest(_)) => {}
            Err(other) => prop_assert!(false, "{}", other),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
