#!/usr/bin/env bash
# Exact work-counter gate on the grid engine: runs the `grid_hot` and
# `append_mix` end-to-end workloads briefly at seed 7 and fails unless
# each reports `correct: true`, no failed operation, and a
# `madds_per_query` bit-equal to the value committed below.
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
