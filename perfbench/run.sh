#!/usr/bin/env bash
# Build the benchmark (release, offline) and run it with the given flags:
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Build output goes to stderr, so the last line of stdout stays the result.
set -euo pipefail
dir="$(dirname "$0")"
target="${CARGO_TARGET_DIR:-$dir/target}"
cargo build --release --offline --quiet --manifest-path "$dir/Cargo.toml" 1>&2
exec "$target/release/perfbench" "$@"
