//! Typed decoding against its reference. `serde_json::from_str::<T>` reads
//! a type straight off the parser; `T::from_value(&from_str_value(..))`
//! lifts a parsed `Value` tree, the way every reader decoded before. On the
//! documents the writer produces, and on mutations of them, both must
//! accept the same documents and decode them to the same values.
//!
//! The types are every derive shape the serde shim's writer test lists,
//! and every type a production reader reaches: the `HistoryRecord` tree
//! (header, epoch summary, alerts, daemon, SE and defense checkpoints),
//! `JsonlReport`, `Trace` and `SimTime`. The mutations are the places the
//! two decoders could part: number lexemes (`-0`, `7.0`, `7e0`, `01`,
//! integers past `u64::MAX`), values of the wrong kind, escaped, duplicate,
//! unknown and missing keys, and nesting at 127, 128 and 129 levels.

#![expect(
    clippy::unwrap_used,
    reason = "helpers outside #[test] fns panic like their callers"
)]
use std::fmt::Debug;

use mvcom::daemon::{
    read_history, AlertConfig, AlertEngine, Daemon, DaemonConfig, HistoryRecord, JsonlReport,
    JsonlSource,
};
use mvcom::dataset::{Trace, TraceConfig};
use mvcom::types::SimTime;
use mvcom_obs::Obs;
use proptest::prelude::*;
use serde::{Deserialize, Serialize, Value};

// ---- the derive shapes --------------------------------------------------

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Unit;

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Newtype(u32);

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Pair(i64, String);

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Empty {}

fn seven() -> u8 {
    7
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Named {
    id: u64,
    name: String,
    opt: Option<f64>,
    boxed: Box<Newtype>,
    nested: Vec<Vec<Pair>>,
    tuple: (u8, bool),
    array: [i16; 3],
    unit: Unit,
    #[serde(default)]
    extra: u32,
    #[serde(default = "seven")]
    seven: u8,
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
enum Shape {
    Dot,
    Circle(f64),
    Segment(i8, String),
    Group {
        label: char,
        inner: Option<Box<Shape>>,
    },
}

// ---- the two decoders ---------------------------------------------------

/// Decodes `doc` both ways: the same verdict, and on success the same
/// value (`Debug` as well as `==`, so that `-0.0` and `0.0` differ).
/// Returns whether the document was accepted.
fn agree<T: Deserialize + PartialEq + Debug>(doc: &str) -> bool {
    let typed = serde_json::from_str::<T>(doc);
    let reference = serde_json::from_str_value(doc).and_then(|tree| T::from_value(&tree));
    match (typed, reference) {
        (Ok(typed), Ok(reference)) => {
            assert!(
                typed == reference && format!("{typed:?}") == format!("{reference:?}"),
                "{doc}\ntyped     {typed:?}\nreference {reference:?}"
            );
            true
        }
        (Err(_), Err(_)) => false,
        (typed, reference) => panic!("{doc}\ntyped     {typed:?}\nreference {reference:?}"),
    }
}

/// A type under test: its decoders, type-erased, and documents of it.
struct Subject {
    name: &'static str,
    agree: fn(&str) -> bool,
    docs: Vec<String>,
}

fn subject<T: Serialize + Deserialize + PartialEq + Debug>(
    name: &'static str,
    values: &[T],
) -> Subject {
    let docs: Vec<String> = values
        .iter()
        .map(|v| serde_json::to_string(v).unwrap())
        .collect();
    for doc in &docs {
        assert!(agree::<T>(doc), "{name}: the writer's own bytes: {doc}");
    }
    Subject {
        name,
        agree: agree::<T>,
        docs,
    }
}

/// The log of a short daemon run with every optional part present: the
/// defense, an adversary, an SE checkpoint and an alert per epoch.
fn history_records(tag: &str) -> Vec<HistoryRecord> {
    let dir =
        std::env::temp_dir().join(format!("mvcom-typed-decoding-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("history.log");
    let feed: String = (0..12u32)
        .map(|i| {
            format!(
                "{{\"committee\":{},\"txs\":{},\"latency_s\":{}.5}}\n",
                i % 6,
                100 + (i * 271) % 1900,
                500 + (i * 97) % 700
            )
        })
        .collect();
    let config = DaemonConfig {
        seed: 23,
        population: 6,
        batch_size: 3,
        reports_per_epoch: 4,
        batch_interval_s: 0.25,
        se_iterations: 4,
        defense: true,
        adv_fraction: 0.2,
        adv_strategy: "misreport".to_string(),
        ..DaemonConfig::default()
    };
    let alerts = AlertEngine::new(AlertConfig {
        min_utility: Some(1e18),
        ..AlertConfig::default()
    });
    let mut daemon = Daemon::open(
        config,
        Box::new(JsonlSource::new(std::io::Cursor::new(feed))),
        &path,
        false,
        Obs::off(),
        alerts,
    )
    .unwrap();
    for _ in 0..2 {
        daemon.step_epoch().unwrap().unwrap();
    }
    drop(daemon);
    let records = read_history(&path).unwrap().records;
    std::fs::remove_dir_all(&dir).unwrap();
    let HistoryRecord::Epoch(last) = &records[records.len() - 1] else {
        panic!("the run closed no epoch");
    };
    assert!(last.checkpoint.se.is_some() && last.checkpoint.defense.is_some());
    assert!(!last.alerts.is_empty());
    records
}

fn subjects(tag: &str) -> Vec<Subject> {
    let named = Named {
        id: u64::MAX,
        name: "quo\"te".into(),
        opt: Some(-0.5),
        boxed: Box::new(Newtype(1)),
        nested: vec![
            vec![],
            vec![Pair(0, String::new()), Pair(i64::MIN, "é".into())],
        ],
        tuple: (255, false),
        array: [-1, 0, 1],
        unit: Unit,
        extra: 3,
        seven: 8,
    };
    let group = Shape::Group {
        label: '→',
        inner: Some(Box::new(Shape::Group {
            label: 'x',
            inner: Some(Box::new(Shape::Dot)),
        })),
    };
    vec![
        subject("Unit", &[Unit]),
        subject("Newtype", &[Newtype(9)]),
        subject("Pair", &[Pair(-4, "x".into())]),
        subject("Empty", &[Empty {}]),
        subject("Named", &[named]),
        subject(
            "Shape",
            &[
                Shape::Dot,
                Shape::Circle(0.5),
                Shape::Segment(-3, "ab".into()),
                group,
            ],
        ),
        subject(
            "Vec<Option<Shape>>",
            &[vec![Some(Shape::Dot), None, Some(Shape::Circle(2.0))]],
        ),
        subject("HistoryRecord", &history_records(tag)),
        subject(
            "JsonlReport",
            &[JsonlReport {
                committee: 3,
                txs: 900,
                latency_s: 700.5,
            }],
        ),
        subject("Trace", &[Trace::generate(TraceConfig::tiny(3), 7)]),
        subject(
            "SimTime",
            &[
                SimTime::ZERO,
                SimTime::from_secs(854.5),
                SimTime::from_secs(5e-324),
                SimTime::INFINITY,
            ],
        ),
    ]
}

// ---- documents as trees of lexemes ---------------------------------------

/// A document whose scalars and keys are kept as the text that spells
/// them, so that a mutation can choose the spelling.
#[derive(Clone, Debug)]
enum Doc {
    Raw(String),
    Arr(Vec<Doc>),
    /// Keys as written: quotes and escapes included.
    Obj(Vec<(String, Doc)>),
}

impl Doc {
    fn parse(text: &str) -> Doc {
        fn of(value: &Value) -> Doc {
            match value {
                Value::Array(items) => Doc::Arr(items.iter().map(of).collect()),
                Value::Object(fields) => Doc::Obj(
                    fields
                        .iter()
                        .map(|(k, v)| (serde_json::to_string(k).unwrap(), of(v)))
                        .collect(),
                ),
                scalar => Doc::Raw(serde_json::to_string(scalar).unwrap()),
            }
        }
        of(&serde_json::from_str_value(text).unwrap())
    }

    fn render(&self) -> String {
        fn write(doc: &Doc, out: &mut String) {
            match doc {
                Doc::Raw(text) => out.push_str(text),
                Doc::Arr(items) => {
                    out.push('[');
                    for (i, item) in items.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        write(item, out);
                    }
                    out.push(']');
                }
                Doc::Obj(fields) => {
                    out.push('{');
                    for (i, (key, value)) in fields.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        out.push_str(key);
                        out.push(':');
                        write(value, out);
                    }
                    out.push('}');
                }
            }
        }
        let mut out = String::new();
        write(self, &mut out);
        out
    }

    /// The path (child indices from the root) of every node, pre-order.
    fn paths(&self) -> Vec<Vec<usize>> {
        fn walk(doc: &Doc, path: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
            out.push(path.clone());
            let children: Vec<&Doc> = match doc {
                Doc::Raw(_) => Vec::new(),
                Doc::Arr(items) => items.iter().collect(),
                Doc::Obj(fields) => fields.iter().map(|(_, v)| v).collect(),
            };
            for (i, child) in children.into_iter().enumerate() {
                path.push(i);
                walk(child, path, out);
                path.pop();
            }
        }
        let mut out = Vec::new();
        walk(self, &mut Vec::new(), &mut out);
        out
    }

    fn at_mut(&mut self, path: &[usize]) -> &mut Doc {
        match path.split_first() {
            None => self,
            Some((&i, rest)) => match self {
                Doc::Arr(items) => items[i].at_mut(rest),
                Doc::Obj(fields) => fields[i].1.at_mut(rest),
                Doc::Raw(_) => unreachable!("a path never enters a scalar"),
            },
        }
    }
}

/// Number spellings: the classifier's edge cases.
const NUMBERS: &[&str] = &[
    "-0",
    "7.0",
    "7e0",
    "01",
    "-1",
    "0.5",
    "255",
    "256",
    "18446744073709551615",
    "18446744073709551616",
    "-9223372036854775809",
    "1e999",
    "-1e999",
    "1E2",
    "1e+2",
    "4294967296",
];

/// Values of every kind, for any slot.
const JUNK: &[&str] = &[
    "null",
    "true",
    "\"s\"",
    "\"Dot\"",
    "\"→\"",
    "[]",
    "[1]",
    "{}",
    "{\"Circle\":1.0}",
    "{\"k\":[{}]}",
    "0",
];

/// `levels` arrays, one inside the other.
fn nest(levels: usize) -> Doc {
    (0..levels).fold(Doc::Raw("0".into()), |inner, _| Doc::Arr(vec![inner]))
}

/// How many arrays, put in a slot at `depth`, take the document to 127,
/// 128 and 129 levels.
fn nest_levels(depth: usize) -> impl Iterator<Item = usize> {
    [127, 128, 129]
        .into_iter()
        .filter_map(move |target: usize| target.checked_sub(depth))
}

/// `"id"` spelled `"\u0069d"`: the same key, escaped.
fn escape_first_char(key: &str) -> String {
    let inner = &key[1..key.len() - 1];
    match inner.chars().next() {
        Some(c) if c != '\\' && u32::from(c) < 0x1_0000 => {
            format!("\"\\u{:04x}{}\"", u32::from(c), &inner[c.len_utf8()..])
        }
        _ => key.to_string(),
    }
}

/// Every single-edit mutation of `root` at the node `path` leads to.
fn mutations_at(root: &Doc, path: &[usize]) -> Vec<Doc> {
    let mut out = Vec::new();
    let mut edit = |change: &dyn Fn(&mut Doc)| {
        let mut doc = root.clone();
        change(doc.at_mut(path));
        out.push(doc);
    };
    let node = {
        let mut doc = root.clone();
        doc.at_mut(path).clone()
    };
    for &text in JUNK {
        edit(&|n| *n = Doc::Raw(text.into()));
    }
    // A node at `path` has `path.len()` containers around it; its members
    // sit one level deeper.
    let member_depth = path.len() + 1;
    match &node {
        Doc::Raw(text) if text.starts_with(|c: char| c == '-' || c.is_ascii_digit()) => {
            for &number in NUMBERS {
                edit(&|n| *n = Doc::Raw(number.into()));
            }
        }
        Doc::Raw(_) => {}
        Doc::Arr(items) => {
            if !items.is_empty() {
                edit(&|n| {
                    if let Doc::Arr(items) = n {
                        items.pop();
                    }
                });
                edit(&|n| {
                    if let Doc::Arr(items) = n {
                        items.push(items[0].clone());
                    }
                });
            }
            for levels in nest_levels(member_depth) {
                edit(&|n| {
                    if let Doc::Arr(items) = n {
                        items.push(nest(levels));
                    }
                });
            }
        }
        Doc::Obj(fields) => {
            for i in 0..fields.len() {
                // Missing: what `Option` and `default` fields are for.
                edit(&|n| {
                    if let Doc::Obj(fields) = n {
                        fields.remove(i);
                    }
                });
                // Duplicated: a later copy of junk is ignored, an earlier
                // one is what the field reads.
                edit(&|n| {
                    if let Doc::Obj(fields) = n {
                        let key = fields[i].0.clone();
                        fields.push((key, Doc::Raw("\"dup\"".into())));
                    }
                });
                edit(&|n| {
                    if let Doc::Obj(fields) = n {
                        let key = fields[i].0.clone();
                        fields.insert(0, (key, Doc::Raw("\"dup\"".into())));
                    }
                });
                edit(&|n| {
                    if let Doc::Obj(fields) = n {
                        let copy = fields[i].clone();
                        fields.push(copy);
                    }
                });
                edit(&|n| {
                    if let Doc::Obj(fields) = n {
                        fields[i].0 = escape_first_char(&fields[i].0);
                    }
                });
            }
            edit(&|n| {
                if let Doc::Obj(fields) = n {
                    fields.push(("\"zz\\u0000unknown\"".into(), Doc::Raw("[1,{}]".into())));
                }
            });
            for levels in nest_levels(member_depth) {
                edit(&|n| {
                    if let Doc::Obj(fields) = n {
                        fields.insert(0, ("\"deep\"".into(), nest(levels)));
                    }
                });
            }
        }
    }
    out
}

/// Accepted and refused mutations, so a run can show it reached both.
#[derive(Default)]
struct Tally {
    accepted: usize,
    refused: usize,
}

impl Tally {
    fn check(&mut self, subject: &Subject, doc: &Doc) {
        if (subject.agree)(&doc.render()) {
            self.accepted += 1;
        } else {
            self.refused += 1;
        }
    }
}

#[test]
fn every_single_edit_of_every_document_decodes_alike() {
    for subject in subjects("single") {
        let mut tally = Tally::default();
        for text in &subject.docs {
            let root = Doc::parse(text);
            for path in root.paths() {
                for doc in mutations_at(&root, &path) {
                    tally.check(&subject, &doc);
                }
            }
        }
        // `Unit` takes any value, and its document has no container to
        // nest in; every other subject must have met both verdicts.
        assert!(
            tally.accepted > 0 && (tally.refused > 0 || subject.name == "Unit"),
            "{}: {} accepted, {} refused",
            subject.name,
            tally.accepted,
            tally.refused
        );
    }
}

#[test]
fn the_lexeme_classifier_decides_for_both() {
    let bits = |doc: &str| serde_json::from_str::<f64>(doc).unwrap().to_bits();
    assert_eq!(bits("-0"), 0.0f64.to_bits());
    assert_eq!(bits("-0.0"), (-0.0f64).to_bits());
    assert_eq!(
        bits("18446744073709551616"),
        18_446_744_073_709_551_616.0f64.to_bits()
    );
    for seven in ["7", "7.0", "7e0", "07", "0.7e1"] {
        assert_eq!(serde_json::from_str::<u64>(seven).unwrap(), 7, "{seven}");
        assert!(agree::<u64>(seven) && agree::<i8>(seven) && agree::<f64>(seven));
    }
    for refused in [
        "7.5",
        "-1",
        "18446744073709551616",
        "1e999",
        "\"7\"",
        "7 7",
        "- 7",
    ] {
        assert!(serde_json::from_str::<u64>(refused).is_err(), "{refused}");
        assert!(!agree::<u64>(refused), "{refused}");
    }
    assert!(agree::<SimTime>("-0") && !agree::<SimTime>("-1e-300"));
}

#[test]
fn missing_duplicate_and_unknown_keys_follow_the_reference_rules() {
    let doc = r#"{"committee":3,"txs":900,"latency_s":700.5}"#;
    let report = |doc: &str| serde_json::from_str::<JsonlReport>(doc);
    let first = report(doc).unwrap();
    // A later duplicate is validated, not read; an unknown key is skipped.
    let later = r#"{"committee":3,"txs":900,"latency_s":700.5,"txs":"x","extra":[{"a":null}]}"#;
    assert_eq!(report(later).unwrap(), first);
    assert!(report(r#"{"txs":"x","committee":3,"txs":900,"latency_s":700.5}"#).is_err());
    assert!(report(r#"{"committee":3,"txs":900,"latency_s":700.5,"txs":[}"#).is_err());
    // An escaped key is the key it spells.
    assert_eq!(
        report(&doc.replace("\"txs\"", "\"\\u0074xs\"")).unwrap(),
        first
    );
    // A missing key reads as `null`: an error for a number ...
    let err = report(r#"{"committee":3,"latency_s":700.5}"#).unwrap_err();
    assert_eq!(err.to_string(), "missing field `txs` at byte 0");
    // ... `None` for an `Option`, the default for a `#[serde(default)]`.
    let named = serde_json::from_str::<Named>(
        r#"{"id":1,"name":"n","boxed":2,"nested":[],"tuple":[1,true],"array":[1,2,3]}"#,
    )
    .unwrap();
    assert_eq!(
        (named.opt, named.unit, named.extra, named.seven),
        (None, Unit, 0, 7)
    );
    for doc in [doc, later] {
        assert!(agree::<JsonlReport>(doc));
    }
}

#[test]
fn nesting_counts_from_the_document_root() {
    // The report object is level 1, so an unknown key's arrays reach
    // level 1 + k.
    for (levels, ok) in [(127, true), (128, true), (129, false)] {
        let deep = nest(levels - 1).render();
        let doc = format!(r#"{{"deep":{deep},"committee":3,"txs":900,"latency_s":700.5}}"#);
        assert_eq!(agree::<JsonlReport>(&doc), ok, "{levels}");
    }
    let err = serde_json::from_str::<JsonlReport>(&format!(
        r#"{{"deep":{},"committee":3}}"#,
        nest(128).render()
    ))
    .unwrap_err();
    // `{"deep":` and the 127 arrays that fit before the one that does not.
    assert_eq!(err.path(), "deep");
    assert_eq!(err.byte(), Some(8 + 127));
    assert_eq!(err.message(), "nesting deeper than 128 levels");
}

#[test]
fn a_decode_error_names_the_path_and_the_byte() {
    let records = history_records("path");
    let text = serde_json::to_string(&records[records.len() - 1]).unwrap();
    let mut root = Doc::parse(&text);
    let Doc::Obj(tag) = &mut root else {
        panic!("an epoch record is an object")
    };
    let Doc::Obj(epoch) = &mut tag[0].1 else {
        panic!("tagged object")
    };
    let checkpoint = epoch
        .iter_mut()
        .find(|(k, _)| k == "\"checkpoint\"")
        .unwrap();
    let Doc::Obj(checkpoint) = &mut checkpoint.1 else {
        panic!("checkpoint")
    };
    let se = checkpoint.iter_mut().find(|(k, _)| k == "\"se\"").unwrap();
    let Doc::Obj(se) = &mut se.1 else {
        panic!("se")
    };
    let replicas = se.iter_mut().find(|(k, _)| k == "\"replicas\"").unwrap();
    let Doc::Arr(replicas) = &mut replicas.1 else {
        panic!("replicas")
    };
    let Doc::Arr(chains) = &mut replicas[0] else {
        panic!("chains")
    };
    let Doc::Obj(chain) = &mut chains[0] else {
        panic!("chain")
    };
    chain[1].1 = Doc::Raw("[0,\"twelve\"]".into());
    let doc = root.render();
    let err = serde_json::from_str::<HistoryRecord>(&doc).unwrap_err();
    let at = doc.find("\"twelve\"").unwrap();
    assert_eq!(err.path(), "Epoch.checkpoint.se.replicas[0][0].selected[1]");
    assert_eq!(err.byte(), Some(at));
    assert_eq!(
        err.to_string(),
        format!(
            "Epoch.checkpoint.se.replicas[0][0].selected[1]: \
             expected an integer, found a string at byte {at}"
        )
    );
}

/// SplitMix64: the edits need a reproducible stream, not a dependency.
struct Mix(u64);

impl Mix {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % n as u64) as usize
    }
}

proptest! {
    #[test]
    fn chains_of_edits_decode_alike(seed in any::<u64>(), edits in 2usize..6) {
        let mut rng = Mix(seed);
        for subject in subjects("chains") {
            for text in &subject.docs {
                let mut doc = Doc::parse(text);
                for _ in 0..edits {
                    let paths = doc.paths();
                    let path = &paths[rng.below(paths.len())];
                    let mut options = mutations_at(&doc, path);
                    doc = options.swap_remove(rng.below(options.len()));
                    (subject.agree)(&doc.render());
                }
            }
        }
    }
}
