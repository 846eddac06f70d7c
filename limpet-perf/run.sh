#!/usr/bin/env bash
# Builds the benchmark and the daemon it drives from source, then runs the
# benchmark with the given arguments. This is BENCHMARK.json's `command`;
# run it from the repository root.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" 1>&2
exec "$target/release/limpet-perf" "$@"
