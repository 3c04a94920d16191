#!/usr/bin/env bash
# Builds the benchmark (release, offline) and runs it; see README.md.
# The driver calls:  run.sh --workload NAME --seed N --seconds S --trace 0|1
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
if [ -n "${CARGO_TARGET_DIR:-}" ]; then
  bin="$CARGO_TARGET_DIR/release/mvcom-benchmark"
  cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
else
  bin="$here/target/release/mvcom-benchmark"
  cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" \
    --target-dir "$here/target" >&2
fi
MVCOM_BENCH_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
MVCOM_BENCH_COMMIT="$(git -C "$here" rev-parse HEAD 2>/dev/null || echo unknown)"
export MVCOM_BENCH_RUSTC MVCOM_BENCH_COMMIT
case "${1:-}" in
  agree|spread|manifest|help|--help|-h) exec "$bin" "$@" ;;
  *) exec "$bin" "$@" --out-dir "$here/out" ;;
esac
