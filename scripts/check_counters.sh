#!/usr/bin/env bash
# Exact work-counter gate on the grid engines and the tuple index: runs
# the `grid_hot`, `append_mix` and `tuple_topk` end-to-end workloads
# briefly at seed 7 and fails unless each reports `correct: true`, no
# failed operation, and a `madds_per_query` bit-equal to the value
# committed below. Then runs
# `repro r8 --seed 7 --small --threads 1` in a temporary directory (so
# the committed BENCH_batch.json stays as it is) and fails unless the
# batch's physical-work counters and its per-query multiply-adds equal
# the ones below: the first are the batch memo governor's decisions, which
# no answer shows, the last is the work the sharded descent's cross-band
# floors save. One thread, because at two the workers' shared floors race
# and the counters wander.
#
#   scripts/check_counters.sh
#
# The counter is a property of the queries, not of the clock: it is the
# same at `--seconds 3` as at 14, on any host. A change that alters the
# work the engine does ON PURPOSE updates the constants here and says so,
# with the old and new values, in CHANGES.md.
set -euo pipefail
cd "$(dirname "$0")/.."

check() {
  local workload=$1 want=$2 line
  line=$(bash crates/e2e/run.sh --workload "$workload" --seed 7 --seconds 3 --trace 0 | tail -n 1)
  if ! echo "$line" | jq -e --argjson want "$want" \
    '.correct == true and .failed == 0 and .metrics.madds_per_query.value == $want' >/dev/null; then
    echo "error: $workload at seed 7 wants madds_per_query $want, correct and no failures; got: $line" >&2
    return 1
  fi
  echo "$workload: madds_per_query $want"
}

check grid_hot 13329.0625
check append_mix 5885.9140625
check tuple_topk 155134.1484375

check_batch() {
  local want=$1 repro dir got
  cargo build --release --offline --quiet -p mbir-bench 1>&2
  repro="$(realpath "${CARGO_TARGET_DIR:-target}")/release/repro"
  dir=$(mktemp -d)
  (cd "$dir" && "$repro" r8 --seed 7 --small --threads 1 >/dev/null)
  got=$(jq -c '.batched | [.cells_fetched, .cell_requests, .bound_evals, .bound_requests, .pages_read, .madds_per_query]' \
    "$dir/BENCH_batch.json")
  rm -rf "$dir"
  if [ "$got" != "$want" ]; then
    echo "error: repro r8 at seed 7 wants batched [cells_fetched, cell_requests, bound_evals, bound_requests, pages_read, madds_per_query] $want; got: $got" >&2
    return 1
  fi
  echo "r8 batched: $want"
}

check_batch '[20,320,6528,14314,8,914.625]'
