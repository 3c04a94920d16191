//! `mvcom-lint`: workspace-native static analysis for MVCom.
//!
//! The simulator's correctness claims (Theorem 1 mixing bounds, the
//! Lemma 4 / Theorem 2 perturbation analysis) assume bit-deterministic
//! replay under a seed and total float orderings in the SE/SA hot loops.
//! Those are invariants of the *codebase*, not of any one function, so
//! they are enforced by a first-party tool instead of convention: the
//! workspace builds fully offline against `shims/*`, which rules out
//! `syn`-based or registry lint frameworks.
//!
//! * [`lexer`] — a small self-contained Rust lexer (tokens + comments);
//! * [`rules`] — the D1/P1/F1/T1 token rules, W1 stale-allow / U1
//!   forbid-unsafe hygiene, and the `// lint: allow(P1, reason)`
//!   annotation grammar;
//! * [`model`] — a reusable interleaving-model DSL (states, atomic steps,
//!   memoized exhaustive exploration, invariant closures) with two
//!   models: the `ordered_map` claim/write protocol and the `Obs`
//!   capture/replay protocol;
//! * [`lint_workspace`] — walks every `.rs` file under `crates/`, `src/`,
//!   `tests/`, and `examples/` and applies the rules to each.
//!
//! Run it as `cargo run -p mvcom-lint -- check`.

#![forbid(unsafe_code)]
// Unit tests may unwrap freely; library code goes through the P1 rule of
// `mvcom-lint` and the workspace `clippy::unwrap_used` deny set instead.
#![cfg_attr(test, allow(clippy::unwrap_used))]
pub mod lexer;
pub mod model;
pub mod rules;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub use model::{Exploration, Violation};
pub use rules::{lint_source, Finding, Rule, RuleSelection};

/// Result of linting a whole workspace.
#[derive(Debug, Default)]
pub struct WorkspaceReport {
    pub files_scanned: usize,
    pub findings: Vec<Finding>,
}

impl WorkspaceReport {
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Directories under the workspace root that contain first-party sources.
/// `shims/` is vendored third-party API surface and deliberately out of
/// scope; `target/` is build output.
const SCAN_ROOTS: [&str; 4] = ["crates", "src", "tests", "examples"];

/// Path segments whose subtrees are skipped entirely: the lint's own
/// deliberately-bad fixture files, and build output.
const SKIP_SEGMENTS: [&str; 2] = ["fixtures", "target"];

/// Lints every first-party `.rs` file under `root` (the workspace root).
///
/// Files are visited in sorted path order so output and exit codes are
/// reproducible.
///
/// # Errors
///
/// Propagates I/O errors from the directory walk or file reads.
pub fn lint_workspace(root: &Path) -> io::Result<WorkspaceReport> {
    let mut files = Vec::new();
    for scan in SCAN_ROOTS {
        let dir = root.join(scan);
        if dir.is_dir() {
            collect_rs_files(&dir, &mut files)?;
        }
    }
    files.sort();

    let mut report = WorkspaceReport::default();
    for file in files {
        let source = fs::read_to_string(&file)?;
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .to_string_lossy()
            .replace('\\', "/");
        report.findings.extend(rules::lint_source(&rel, &source));
        report.files_scanned += 1;
    }
    Ok(report)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with('.') || SKIP_SEGMENTS.contains(&name.as_ref()) {
            continue;
        }
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixture_dirs_are_skipped() {
        // The walker must never see the deliberately-violating fixtures,
        // or the workspace could never be clean.
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(Path::parent)
            .expect("lint crate sits two levels below the workspace root")
            .to_path_buf();
        let report = lint_workspace(&root).expect("workspace walk");
        assert!(report.files_scanned > 50, "{}", report.files_scanned);
    }
}
