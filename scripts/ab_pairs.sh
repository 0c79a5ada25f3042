#!/usr/bin/env bash
# A/B timing of one end-to-end workload: the working tree against a parent
# revision, in alternating pairs.
#
#   scripts/ab_pairs.sh <parent-rev> <workload> <pairs> [seed]
#
# Builds `mbir-e2e` twice, each into its OWN target directory: the parent
# from `git archive <parent-rev>` into a work directory under
# ${TMPDIR:-/tmp} (kept and reused, keyed by the parent's commit), the
# working tree into its usual `target/`. Cargo hashes path dependencies
# workspace-relatively, so two checkouts built into one shared
# CARGO_TARGET_DIR report `Fresh` and run the first one's binary; separate
# target directories are what make the two sides two programs.
#
# Then runs `mbir-e2e --workload W --seed S --seconds 14 --trace 0` once
# per side per pair, alternating which side runs first, and prints, for
# every end-to-end metric of BENCHMARK.json, each side's median and
# q1 - q3 and how many pairs each side won (in the metric's `better`
# direction; ties count for neither). Every run's JSON line is kept in the
# work directory. Exits non-zero as soon as a run reports `correct: false`
# or a failed operation. The seed defaults to 13.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 3 ] || [ $# -gt 4 ]; then
  echo "usage: $0 <parent-rev> <workload> <pairs> [seed]" >&2
  exit 2
fi
rev=$(git rev-parse --verify "$1^{commit}")
workload=$2
pairs=$3
seed=${4:-13}

work="${TMPDIR:-/tmp}/mbir-ab-${rev:0:12}"
mkdir -p "$work/bin"
if [ ! -d "$work/src" ]; then
  mkdir -p "$work/src.partial"
  git archive "$rev" | tar -x -C "$work/src.partial"
  mv "$work/src.partial" "$work/src"
fi

echo "building parent ${rev:0:12} in $work" >&2
(cd "$work/src" && CARGO_TARGET_DIR="$work/target" \
  cargo build --release --offline --quiet -p mbir-e2e 1>&2)
cp "$work/target/release/mbir-e2e" "$work/bin/parent"
echo "building the working tree" >&2
cargo build --release --offline --quiet -p mbir-e2e 1>&2
cp "${CARGO_TARGET_DIR:-target}/release/mbir-e2e" "$work/bin/change"

log="$work/runs-$workload-seed$seed.jsonl"
: >"$log"
run() {
  local side=$1 pair=$2 line
  line=$("$work/bin/$side" --workload "$workload" --seed "$seed" --seconds 14 --trace 0 | tail -n 1)
  echo "{\"side\": \"$side\", \"pair\": $pair, \"result\": $line}" >>"$log"
  if ! echo "$line" | jq -e '.correct == true and .failed == 0' >/dev/null; then
    echo "error: $side run of pair $pair is not clean: $line" >&2
    exit 1
  fi
  echo "pair $pair $side: $(echo "$line" | jq -c '.metrics | map_values(.value)')" >&2
}
for ((i = 0; i < pairs; i++)); do
  if ((i % 2 == 0)); then
    run parent "$i"
    run change "$i"
  else
    run change "$i"
    run parent "$i"
  fi
done

python3 - "$log" BENCHMARK.json <<'EOF'
import json
import sys

runs = [json.loads(line) for line in open(sys.argv[1])]
metrics = json.load(open(sys.argv[2]))["end_to_end"]


def quantile(xs, q):
    xs = sorted(xs)
    at = (len(xs) - 1) * q
    lo = int(at)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (at - lo)


def values(side, name):
    by_pair = {r["pair"]: r["result"]["metrics"][name]["value"] for r in runs if r["side"] == side}
    return [by_pair[p] for p in sorted(by_pair)]


print(f"{'metric':<16} {'parent median [q1 - q3]':>40} {'change median [q1 - q3]':>40} {'delta':>8}  wins p/c")
for m in metrics:
    name, higher = m["name"], m["better"] == "higher"
    p, c = values("parent", name), values("change", name)
    pm, cm = quantile(p, 0.5), quantile(c, 0.5)
    delta = (cm - pm) / pm * 100 if pm else 0.0
    wins_c = sum((b > a) if higher else (b < a) for a, b in zip(p, c))
    wins_p = sum((a > b) if higher else (a < b) for a, b in zip(p, c))
    band = lambda xs, mid: f"{mid:.10g} [{quantile(xs, 0.25):.10g} - {quantile(xs, 0.75):.10g}]"
    print(f"{name:<16} {band(p, pm):>40} {band(c, cm):>40} {delta:>+7.1f}%  {wins_p}/{wins_c}")
EOF
