#!/usr/bin/env bash
# Functional check of the benchmark package: format, lints, unit tests,
# then every workload end to end and traced at SF 0.003 (seconds, not
# minutes). Run from anywhere; builds into $CARGO_TARGET_DIR or
# .bench_build at the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$PWD/.bench_build}"
manifest=benchmark/Cargo.toml

cargo fmt --manifest-path "$manifest" --check
cargo clippy --manifest-path "$manifest" --offline --all-targets -- -D warnings
cargo test --manifest-path "$manifest" --offline --quiet
cargo run --manifest-path "$manifest" --offline --release --quiet -- --smoke
echo "benchmark smoke: PASS"
