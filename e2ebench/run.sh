#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root; see e2ebench/README.md.
set -euo pipefail
cargo build --release --offline --quiet --manifest-path e2ebench/Cargo.toml --bins >&2
exec "${CARGO_TARGET_DIR:-e2ebench/target}/release/sparch-e2ebench" "$@"
