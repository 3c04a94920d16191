//! Telemetry acceptance tests: same-seed runs must produce byte-identical
//! JSONL, and every line an instrumented run emits must conform to the
//! schema registry that OBSERVABILITY.md documents.

#![expect(
    clippy::unwrap_used,
    reason = "helpers outside #[test] fns panic like their callers"
)]
use mvcom::baselines::{sa::SaConfig, solve_observed};
use mvcom::obs::schema::{self, FieldType};
use mvcom::prelude::*;
use serde::Value;

fn instance(seed: u64) -> Instance {
    let trace = Trace::generate(TraceConfig::tiny(300), seed);
    let mut gen = EpochGenerator::new(&trace, LatencyConfig::paper(), seed);
    let shards = gen.next_epoch_with_replacement(40, 1).unwrap();
    InstanceBuilder::new()
        .alpha(1.5)
        .capacity(32_000)
        .n_min(10)
        .shards(shards)
        .build()
        .unwrap()
}

fn engine_jsonl(instance_seed: u64, se_seed: u64) -> String {
    let (obs, buf) = Obs::memory(ObsLevel::Trace);
    SeEngine::new(
        &instance(instance_seed),
        SeConfig::fast_test(se_seed).with_gamma(4),
    )
    .unwrap()
    .with_obs(obs.clone())
    .run();
    obs.flush_metrics(0.0);
    obs.flush();
    assert_eq!(obs.invalid_dropped(), 0, "sink rejected events");
    buf.contents()
}

fn fnv(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn engine_telemetry_is_byte_identical_for_the_same_seed() {
    let a = engine_jsonl(7, 3);
    let b = engine_jsonl(7, 3);
    assert!(!a.is_empty());
    assert_eq!(a, b, "same seed must replay the identical event stream");
    // A different SE seed must change the stream (the telemetry actually
    // reflects the exploration path rather than being canned output).
    let c = engine_jsonl(7, 4);
    assert_ne!(a, c);
}

/// The Trace-level SE stream — every `se_propose`/`se_commit` pair in
/// (replica, chain) order, between the Events-level kinds that
/// `results/fig8.events.jsonl` pins — held to a digest captured at
/// f2bb079, when the round still raced every replica before replaying its
/// commits.
#[test]
fn engine_trace_stream_matches_the_pinned_digest() {
    let stream = engine_jsonl(7, 3);
    assert!(stream.contains("\"se_propose\"") && stream.contains("\"se_commit\""));
    assert_eq!(
        fnv(&stream),
        TRACE_DIGEST,
        "{} lines",
        stream.lines().count()
    );
}

const TRACE_DIGEST: u64 = 0x3467_53e3_7f4d_b6c8;

#[test]
fn full_pipeline_telemetry_is_byte_identical_for_the_same_seed() {
    let run = || {
        let (obs, buf) = Obs::memory(ObsLevel::Trace);
        let mut sim = ElasticoSim::new(ElasticoConfig::small_test(), 23)
            .unwrap()
            .with_obs(obs.clone());
        sim.run_epoch().unwrap();
        obs.flush_metrics(0.0);
        obs.flush();
        buf.contents()
    };
    assert_eq!(run(), run());
}

/// Wire-level schema conformance, checked on parsed JSON rather than
/// in-process [`mvcom::obs::Event`]s — this is the contract an external
/// consumer of the file actually sees.
#[test]
fn every_emitted_line_conforms_to_the_documented_schema() {
    let (obs, buf) = Obs::memory(ObsLevel::Trace);

    // Exercise every emitting site: full protocol epoch (formation, PoW,
    // PBFT, final block), an SE engine run (chains, proposals, commits),
    // and a baseline solver.
    let mut sim = ElasticoSim::new(ElasticoConfig::small_test(), 23)
        .unwrap()
        .with_obs(obs.clone());
    sim.run_epoch().unwrap();
    let inst = instance(7);
    SeEngine::new(&inst, SeConfig::fast_test(3).with_gamma(4))
        .unwrap()
        .with_obs(obs.clone())
        .run();
    let sa = SaSolver::new(SaConfig::paper(5));
    solve_observed(&sa, &inst, &obs).unwrap();
    obs.flush_metrics(0.0);
    obs.flush();
    assert_eq!(obs.invalid_dropped(), 0);

    let text = buf.contents();
    let mut kinds_seen = std::collections::BTreeSet::new();
    let mut prev_seq = None;
    for line in text.lines() {
        let parsed = serde_json::from_str_value(line)
            .unwrap_or_else(|e| panic!("unparseable line `{line}`: {e}"));
        let Value::Object(fields) = &parsed else {
            panic!("line is not a JSON object: {line}");
        };
        let get = |k: &str| fields.iter().find(|(n, _)| n == k).map(|(_, v)| v);

        // Envelope.
        assert_eq!(
            get("v"),
            Some(&Value::U64(u64::from(schema::SCHEMA_VERSION))),
            "bad schema version on {line}"
        );
        let Some(Value::U64(seq)) = get("seq") else {
            panic!("missing/bad seq on {line}");
        };
        if let Some(p) = prev_seq {
            assert_eq!(*seq, p + 1, "seq must be gapless");
        }
        prev_seq = Some(*seq);
        assert!(
            matches!(
                get("t"),
                Some(Value::U64(_) | Value::I64(_) | Value::F64(_))
            ),
            "missing/bad t on {line}"
        );
        let Some(Value::Str(kind)) = get("kind") else {
            panic!("missing kind on {line}");
        };

        // Payload against the registry.
        let spec = schema::spec(kind)
            .unwrap_or_else(|| panic!("kind `{kind}` is not in the schema registry"));
        kinds_seen.insert(spec.kind);
        for f in spec.fields {
            match get(f.name) {
                Some(v) => assert!(
                    wire_matches(f.ty, v),
                    "field `{}` of `{kind}` has wire type {} (want {:?}): {line}",
                    f.name,
                    v.kind(),
                    f.ty
                ),
                None => panic!("`{kind}` is missing `{}`: {line}", f.name),
            }
        }
        if !spec.open {
            for (name, _) in fields {
                assert!(
                    matches!(name.as_str(), "v" | "seq" | "t" | "kind")
                        || spec.fields.iter().any(|f| f.name == name),
                    "closed kind `{kind}` carries undeclared field `{name}`"
                );
            }
        }
    }

    // The stream must actually cover the pipeline, not just parse.
    for required in [
        "epoch_start",
        "pow_done",
        "formation_done",
        "committee_consensus",
        "pbft_done",
        "final_block",
        "epoch_end",
        "se_init",
        "se_chain_point",
        "se_point",
        "se_improve",
        "se_converged",
        "se_propose",
        "se_commit",
        "solver_point",
        "solver_done",
        "metric",
    ] {
        assert!(
            kinds_seen.contains(required),
            "stream never emitted `{required}`"
        );
    }
}

/// Maps a [`FieldType`] onto what the JSON parser can legitimately hand
/// back. Integers may surface as either signedness, and `F64` fields with
/// integral values print without a fraction; non-finite floats encode as
/// `null` (documented in OBSERVABILITY.md).
fn wire_matches(ty: FieldType, v: &Value) -> bool {
    match ty {
        FieldType::U64 => matches!(v, Value::U64(_)),
        FieldType::I64 => matches!(v, Value::I64(_) | Value::U64(_)),
        FieldType::F64 => matches!(
            v,
            Value::F64(_) | Value::U64(_) | Value::I64(_) | Value::Null
        ),
        FieldType::Str => matches!(v, Value::Str(_)),
        FieldType::Bool => matches!(v, Value::Bool(_)),
    }
}
