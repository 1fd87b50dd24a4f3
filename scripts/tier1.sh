#!/usr/bin/env bash
# Tier-1 verification: the gate every PR must keep green.
#
#   ./scripts/tier1.sh
#
# Builds every target in release (benches and examples included: neither
# `cargo build` nor `cargo test` compiles the benches), runs the whole
# test suite, where every gate lives, and checks formatting and lints.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --workspace --release --all-targets
cargo test -q --workspace
cargo fmt --check
cargo clippy --workspace --all-targets -- -D warnings
