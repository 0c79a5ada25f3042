#!/usr/bin/env bash
# Keeps the public surface from growing back (DESIGN.md §18): lists every
# `pub fn *top_k*` in the non-test part of crates/core/src and
# crates/index/src and fails if either crate has more than its limit, or
# if one of mbir-core's has no caller in tests/, examples/, crates/bench
# or crates/e2e/src. An option that varies by value belongs in
# `ExecOptions`, not in a new function name. (The caller rule is
# core-only: mbir-index's `top_k_max_multi` has only in-crate test
# callers, ROADMAP item (d).) It also fails when the non-test part of
# crates/core/src has more than CORE_PUB_FN_LIMIT `pub fn` of any name:
# lower the limit when a change removes some.
set -euo pipefail
cd "$(dirname "$0")/.."

CORE_LIMIT=13
INDEX_LIMIT=12
CORE_PUB_FN_LIMIT=185

# Every `pub fn` name above each file's first #[cfg(test)] that matches
# the regex $2.
pub_fn_names() {
  find "$1" -name '*.rs' | sort | while read -r file; do
    sed '/^#\[cfg(test)\]/,$d' "$file" | grep -oE "pub fn $2" | sed 's/^pub fn //' || true
  done
}

names=$(pub_fn_names crates/core/src '\w*top_k\w*')
count=$(printf '%s\n' "$names" | grep -c . || true)
index_names=$(pub_fn_names crates/index/src '\w*top_k\w*')
index_count=$(printf '%s\n' "$index_names" | grep -c . || true)
pub_fn_count=$(pub_fn_names crates/core/src '\w+' | grep -c . || true)
printf '%s\n' "$names"
echo "mbir-core public *top_k* functions: $count (limit $CORE_LIMIT)"
echo "mbir-index public *top_k* functions: $index_count (limit $INDEX_LIMIT)"
echo "mbir-core pub fn: $pub_fn_count (limit $CORE_PUB_FN_LIMIT)"

status=0
if [ "$count" -gt "$CORE_LIMIT" ]; then
  echo "error: more than $CORE_LIMIT public *top_k* functions in mbir-core" >&2
  status=1
fi
if [ "$index_count" -gt "$INDEX_LIMIT" ]; then
  echo "error: more than $INDEX_LIMIT public *top_k* functions in mbir-index" >&2
  status=1
fi
if [ "$pub_fn_count" -gt "$CORE_PUB_FN_LIMIT" ]; then
  echo "error: more than $CORE_PUB_FN_LIMIT pub fn in mbir-core" >&2
  status=1
fi
for name in $names; do
  if ! grep -rqw --include='*.rs' "$name" tests examples crates/bench crates/e2e/src; then
    echo "error: pub fn $name has no caller outside crates/core" >&2
    status=1
  fi
done
exit $status
