#!/usr/bin/env bash
# Tier-1 verification: the gate every PR must keep green.
#
#   ./scripts/tier1.sh
#
# Builds every target in release (benches and examples included: neither
# `cargo build` nor `cargo test` compiles the benches), runs the whole
# test suite, where every gate lives, then the benchmark's own contract
# tests (the benchmark is a separate workspace, so this is the only gate
# that it still compiles against the flow API and answers correctly),
# and checks formatting and lints.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --workspace --release --all-targets
cargo test -q --workspace
cargo test --release --locked --offline --manifest-path perfbench/Cargo.toml
cargo fmt --check
cargo clippy --workspace --all-targets -- -D warnings
