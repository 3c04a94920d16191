//! End-to-end tests of the rule engine over the fixture corpus, plus the
//! guarantee the whole point of the tool rests on: the real workspace is
//! clean.
//!
//! Each `*_bad.rs` fixture is linted under a virtual deterministic-crate
//! path and must produce *exactly* the expected `(rule, line)` multiset —
//! not "at least one finding" — so a regression that drops or duplicates
//! findings fails loudly. Each `*_good.rs` twin must be silent.

// Test/example code: unwrap is fine here (the workspace-level
// `clippy::unwrap_used` warning targets library code; see mvcom-lint P1).
#![allow(clippy::unwrap_used)]
use std::path::Path;

use mvcom_lint::{lint_crate, lint_source, lint_workspace, Finding, Rule};

/// The `(rule, line)` projection of a finding list, in engine order.
fn shape(findings: &[Finding]) -> Vec<(Rule, u32)> {
    findings.iter().map(|f| (f.rule, f.line)).collect()
}

#[test]
fn d1_fixture_flags_every_hazard_and_only_those() {
    let findings = lint_source(
        "crates/simnet/src/fixture.rs",
        include_str!("fixtures/d1_bad.rs"),
    );
    assert_eq!(
        shape(&findings),
        vec![
            (Rule::D1, 3),  // use … HashMap
            (Rule::D1, 4),  // use … HashSet
            (Rule::D1, 7),  // SystemTime::now
            (Rule::D1, 8),  // Instant::now
            (Rule::D1, 9),  // thread_rng
            (Rule::D1, 13), // HashSet return type
            // Line 14 names `HashMap` twice (ascription + `::new`); the
            // identical diagnostics collapse to one finding.
            (Rule::D1, 14),
        ],
        "{findings:#?}"
    );
}

#[test]
fn d1_container_rule_only_binds_deterministic_crates() {
    // The same file under a non-deterministic crate keeps the wall-clock
    // and thread_rng findings but drops the container findings.
    let findings = lint_source(
        "crates/baselines/src/fixture.rs",
        include_str!("fixtures/d1_bad.rs"),
    );
    assert_eq!(
        shape(&findings),
        vec![(Rule::D1, 7), (Rule::D1, 8), (Rule::D1, 9)],
        "{findings:#?}"
    );
    // No crate is exempt from those three, `crates/bench` included: what
    // it writes is compared byte for byte.
    let findings = lint_source(
        "crates/bench/src/fixture.rs",
        include_str!("fixtures/d1_bad.rs"),
    );
    assert_eq!(
        shape(&findings),
        vec![(Rule::D1, 7), (Rule::D1, 8), (Rule::D1, 9)],
        "{findings:#?}"
    );
}

#[test]
fn d1_good_twin_is_silent() {
    let findings = lint_source(
        "crates/simnet/src/fixture.rs",
        include_str!("fixtures/d1_good.rs"),
    );
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn p1_fixture_flags_unwrap_expect_and_constant_index() {
    let findings = lint_source(
        "crates/core/src/fixture.rs",
        include_str!("fixtures/p1_bad.rs"),
    );
    assert_eq!(
        shape(&findings),
        vec![(Rule::P1, 4), (Rule::P1, 5), (Rule::P1, 6)],
        "{findings:#?}"
    );
}

#[test]
fn p1_rule_stands_down_in_test_paths() {
    // The identical source under tests/ is test code end to end.
    let findings = lint_source("tests/fixture.rs", include_str!("fixtures/p1_bad.rs"));
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn p1_good_twin_is_silent() {
    let findings = lint_source(
        "crates/core/src/fixture.rs",
        include_str!("fixtures/p1_good.rs"),
    );
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn f1_fixture_flags_partial_cmp_and_float_literal_equality() {
    let findings = lint_source(
        "crates/core/src/fixture.rs",
        include_str!("fixtures/f1_bad.rs"),
    );
    // `partial_cmp(…).unwrap()` is both a P1 (it panics) and an F1 (it
    // panics *because of NaN*); per-line ordering puts P1 first.
    assert_eq!(
        shape(&findings),
        vec![(Rule::P1, 4), (Rule::F1, 4), (Rule::F1, 5), (Rule::F1, 8),],
        "{findings:#?}"
    );
}

#[test]
fn f1_good_twin_is_silent() {
    let findings = lint_source(
        "crates/core/src/fixture.rs",
        include_str!("fixtures/f1_good.rs"),
    );
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn t1_fixture_flags_bare_ignore_even_in_test_code() {
    let findings = lint_source(
        "crates/core/src/fixture.rs",
        include_str!("fixtures/t1_bad.rs"),
    );
    assert_eq!(shape(&findings), vec![(Rule::T1, 6)], "{findings:#?}");
}

#[test]
fn t1_good_twin_is_silent() {
    let findings = lint_source(
        "crates/core/src/fixture.rs",
        include_str!("fixtures/t1_good.rs"),
    );
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn a0_malformed_annotation_is_reported_and_silences_nothing() {
    let findings = lint_source(
        "crates/core/src/fixture.rs",
        include_str!("fixtures/a0_bad.rs"),
    );
    assert_eq!(
        shape(&findings),
        vec![(Rule::A0, 3), (Rule::P1, 5)],
        "{findings:#?}"
    );
}

#[test]
fn c1_fixture_flags_emission_reached_through_the_call_graph() {
    // `worker_body` never spawns anything itself; it is in the parallel
    // region only because the spawned closure calls it.
    let findings = lint_source(
        "crates/core/src/fixture.rs",
        include_str!("fixtures/c1_bad.rs"),
    );
    assert_eq!(shape(&findings), vec![(Rule::C1, 4)], "{findings:#?}");
}

#[test]
fn c1_good_twin_builds_its_own_handle_and_is_silent() {
    let findings = lint_source(
        "crates/core/src/fixture.rs",
        include_str!("fixtures/c1_good.rs"),
    );
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn c2_fixture_flags_interior_mutability_and_captured_mutation() {
    let findings = lint_source(
        "crates/core/src/fixture.rs",
        include_str!("fixtures/c2_bad.rs"),
    );
    assert_eq!(
        shape(&findings),
        vec![(Rule::C2, 8), (Rule::C2, 9)],
        "{findings:#?}"
    );
}

#[test]
fn c2_good_twin_keeps_state_task_local_and_is_silent() {
    let findings = lint_source(
        "crates/core/src/fixture.rs",
        include_str!("fixtures/c2_good.rs"),
    );
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn c3_fixture_flags_weak_ordering_and_unordered_lock_pair() {
    let findings = lint_source(
        "crates/core/src/fixture.rs",
        include_str!("fixtures/c3_bad.rs"),
    );
    assert_eq!(
        shape(&findings),
        vec![(Rule::C3, 7), (Rule::C3, 9)],
        "{findings:#?}"
    );
}

#[test]
fn c3_good_twin_justifies_its_relaxation_and_is_silent() {
    // The annotated `Ordering::Relaxed` is absorbed by the allow (which
    // is therefore used, so no W1 either); the single lock receiver
    // needs no documented order.
    let findings = lint_source(
        "crates/core/src/fixture.rs",
        include_str!("fixtures/c3_good.rs"),
    );
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn c4_fixture_flags_worker_count_branching_but_not_the_partitioner() {
    let findings = lint_source(
        "crates/core/src/fixture.rs",
        include_str!("fixtures/c4_bad.rs"),
    );
    // Line 5's `workers <= 1` fast path is the partitioner's own and
    // sits outside the region; only the in-closure comparison (10) and
    // the global `threads()` read (13) fire.
    assert_eq!(
        shape(&findings),
        vec![(Rule::C4, 10), (Rule::C4, 13)],
        "{findings:#?}"
    );
}

#[test]
fn c4_good_twin_partitions_outside_the_region_and_is_silent() {
    let findings = lint_source(
        "crates/core/src/fixture.rs",
        include_str!("fixtures/c4_good.rs"),
    );
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn w1_fixture_flags_the_stale_allow() {
    let findings = lint_source(
        "crates/core/src/fixture.rs",
        include_str!("fixtures/w1_bad.rs"),
    );
    assert_eq!(shape(&findings), vec![(Rule::W1, 3)], "{findings:#?}");
}

#[test]
fn w1_good_twin_allow_absorbs_a_finding_and_is_silent() {
    let findings = lint_source(
        "crates/core/src/fixture.rs",
        include_str!("fixtures/w1_good.rs"),
    );
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn u1_fixture_flags_crate_roots_only() {
    let bad = include_str!("fixtures/u1_bad.rs");
    let findings = lint_source("crates/foo/src/lib.rs", bad);
    assert_eq!(shape(&findings), vec![(Rule::U1, 1)], "{findings:#?}");
    // The same file is fine as a plain module…
    assert!(lint_source("crates/foo/src/util.rs", bad).is_empty());
    // …and as a test target (no unsafe surface of its own).
    assert!(lint_source("crates/foo/tests/util.rs", bad).is_empty());
}

#[test]
fn u1_good_twin_carries_the_forbid_and_is_silent() {
    let findings = lint_source("crates/foo/src/lib.rs", include_str!("fixtures/u1_good.rs"));
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn finding_display_is_file_line_rule() {
    let findings = lint_source(
        "crates/core/src/fixture.rs",
        include_str!("fixtures/t1_bad.rs"),
    );
    let rendered = findings[0].to_string();
    assert!(
        rendered.starts_with("crates/core/src/fixture.rs:6: [T1]"),
        "{rendered}"
    );
}

fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("lint crate lives two levels under the workspace root")
}

#[test]
fn real_workspace_is_clean() {
    let root = workspace_root();
    let report = lint_workspace(root).expect("workspace walk");
    assert!(report.files_scanned > 50, "only {}", report.files_scanned);
    assert!(
        report.clean(),
        "the workspace must lint clean:\n{}",
        report
            .findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// Every `.rs` file under `dir`, as the `(workspace-relative path, source)`
/// pairs `lint_workspace` hands to `lint_crate`.
fn sources_under(dir: &Path, out: &mut Vec<(String, String)>) {
    let mut entries: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            sources_under(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path.strip_prefix(workspace_root()).unwrap();
            let source = std::fs::read_to_string(&path).unwrap();
            out.push((rel.to_string_lossy().replace('\\', "/"), source));
        }
    }
}

#[test]
fn real_parallel_region_reaches_the_race_the_pbft_workers_and_a_figure_sweep() {
    // "The workspace lints clean" is also what an accidentally empty
    // parallel region looks like — a worker function that moved to a file
    // the call graph no longer connects would pass it. So plant a direct
    // emission on a shared handle as the first statement of each real
    // worker and demand exactly that C1: the region computed over the
    // real sources contains `race_replica` (reached from `SeEngine`'s
    // `ordered_map` closure), `execute_pbft` (from elastico's) and the
    // closure Fig. 2(a)'s sweep hands `ordered_map` itself.
    for (krate, file, worker) in [
        (
            "core",
            "crates/core/src/se/engine/step.rs",
            "fn race_replica(",
        ),
        (
            "elastico",
            "crates/elastico/src/epoch.rs",
            "fn execute_pbft(",
        ),
        (
            "bench",
            "crates/bench/src/experiments/fig2.rs",
            "ordered_map(threads, ",
        ),
    ] {
        let mut sources = Vec::new();
        sources_under(
            &workspace_root().join("crates").join(krate).join("src"),
            &mut sources,
        );
        let (_, source) = sources
            .iter_mut()
            .find(|(rel, _)| rel == file)
            .unwrap_or_else(|| panic!("{file} is where `{worker}` lives"));
        let opening = source
            .find(worker)
            .unwrap_or_else(|| panic!("`{worker}` opens a worker body in {file}"));
        let body = opening + source[opening..].find("{\n").unwrap() + 2;
        source.insert_str(body, "    obs.emit(\"planted\", 0.0, &[]);\n");
        let planted_line = source[..body].lines().count() as u32 + 1;

        let refs: Vec<(&str, &str)> = sources
            .iter()
            .map(|(rel, src)| (rel.as_str(), src.as_str()))
            .collect();
        let findings = lint_crate(&refs);
        let c1: Vec<(&str, u32)> = findings
            .iter()
            .filter(|f| f.rule == Rule::C1)
            .map(|f| (f.file.as_str(), f.line))
            .collect();
        assert_eq!(
            c1,
            vec![(file, planted_line)],
            "`{worker}…` left the region"
        );
    }
}
