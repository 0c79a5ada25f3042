#!/usr/bin/env bash
# Builds the benchmark from source (release) and runs it.
#
#   crates/e2e/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   crates/e2e/run.sh [--seed N] [--seconds S] [--trace]     all four workloads
#   crates/e2e/run.sh --selfcheck                            two interleaved sets
set -euo pipefail
cd "$(dirname "$0")/../.."

# Build chatter goes to stderr: the last line of stdout is the result.
cargo build --release --offline --quiet -p mbir-e2e 1>&2

exec "${CARGO_TARGET_DIR:-target}/release/mbir-e2e" "$@"
