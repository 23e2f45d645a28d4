#!/usr/bin/env bash
# The benchmark's one command: builds it from source, then runs it.
#
#   benchmark/run.sh
#       every workload at --seed 42: output checks, the end-to-end table,
#       the per-layer block, one record appended to benchmark/out/results.jsonl
#   benchmark/run.sh --smoke            the same at ~1/10 sizes, under 20 s
#   benchmark/run.sh --verify-port      ported drivers == crates/bench scale, chaos
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run as the driver makes it; the result object is the last line
#
# Both binaries are needed (bench spawns bench-traced for the traced
# repetition), hence `cargo build` + exec rather than `cargo run`.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --target-dir "$target"
[ $# -eq 0 ] && set -- --seed 42
exec "$target/release/bench" "$@"
