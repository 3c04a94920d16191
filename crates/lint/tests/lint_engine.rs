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

use mvcom_lint::{lint_source, lint_workspace, Finding, Rule};

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
fn d1_sync_fixture_flags_every_primitive_in_a_worker_reachable_crate() {
    let findings = lint_source(
        "crates/core/src/fixture.rs",
        include_str!("fixtures/d1_sync_bad.rs"),
    );
    assert_eq!(
        shape(&findings),
        vec![
            (Rule::D1, 4), // AtomicBool, AtomicU64: two diagnostics
            (Rule::D1, 4),
            (Rule::D1, 5), // mpsc
            (Rule::D1, 6), // Barrier, Condvar, LazyLock, Mutex, Once, OnceLock, RwLock
            (Rule::D1, 6),
            (Rule::D1, 6),
            (Rule::D1, 6),
            (Rule::D1, 6),
            (Rule::D1, 6),
            (Rule::D1, 6),
            (Rule::D1, 8),  // thread_local!
            (Rule::D1, 13), // mpsc::channel
            (Rule::D1, 14), // thread::scope
            (Rule::D1, 17), // thread::spawn
            (Rule::D1, 18), // thread::Builder
        ],
        "{findings:#?}"
    );
    // Lines 22–30 are a `#[cfg(test)]` module: forcing an interleaving
    // with a Mutex or a bare thread is what a test of concurrent code does.
}

#[test]
fn d1_sync_clause_binds_worker_reachable_library_code_only() {
    let bad = include_str!("fixtures/d1_sync_bad.rs");
    // The primitive itself is exempt by path …
    assert!(lint_source("crates/simnet/src/fanout.rs", bad).is_empty());
    // … its neighbours are not.
    assert_eq!(lint_source("crates/simnet/src/net.rs", bad).len(), 15);
    // Crates no `ordered_map` task reaches own their threads: the shared
    // metrics registry, the daemon's HTTP endpoint, binaries, the linter.
    for path in [
        "crates/obs/src/metrics.rs",
        "crates/daemon/src/http.rs",
        "crates/lint/src/fixture.rs",
        "src/bin/mvcom.rs",
    ] {
        let findings: Vec<_> = lint_source(path, bad)
            .into_iter()
            .filter(|f| f.rule != Rule::U1)
            .collect();
        assert!(findings.is_empty(), "{path}: {findings:#?}");
    }
    // Integration tests of a worker-reachable crate are test code.
    assert!(lint_source("crates/core/tests/fixture.rs", bad).is_empty());
}

#[test]
fn d1_sync_good_twin_is_silent() {
    let findings = lint_source(
        "crates/core/src/fixture.rs",
        include_str!("fixtures/d1_sync_good.rs"),
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
