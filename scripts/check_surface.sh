#!/usr/bin/env bash
# Keeps the public query surface from growing back (DESIGN.md §18):
# lists every `pub fn *top_k*` in the non-test part of crates/core/src and
# crates/index/src and fails if either crate has more than its limit, or
# if one of mbir-core's has no caller in tests/, examples/, crates/bench
# or crates/e2e/src. An option that varies by value belongs in
# `ExecOptions`, not in a new function name. (The caller rule is
# core-only: mbir-index's `top_k_max_multi` has only in-crate test
# callers, ROADMAP item (d).)
set -euo pipefail
cd "$(dirname "$0")/.."

CORE_LIMIT=16
INDEX_LIMIT=12

# Every `pub fn *top_k*` name above each file's first #[cfg(test)].
top_k_names() {
  find "$1" -name '*.rs' | sort | while read -r file; do
    sed '/^#\[cfg(test)\]/,$d' "$file" | grep -oE 'pub fn \w*top_k\w*' | sed 's/^pub fn //' || true
  done
}

names=$(top_k_names crates/core/src)
count=$(printf '%s\n' "$names" | grep -c . || true)
index_names=$(top_k_names crates/index/src)
index_count=$(printf '%s\n' "$index_names" | grep -c . || true)
printf '%s\n' "$names"
echo "mbir-core public *top_k* functions: $count (limit $CORE_LIMIT)"
echo "mbir-index public *top_k* functions: $index_count (limit $INDEX_LIMIT)"

status=0
if [ "$count" -gt "$CORE_LIMIT" ]; then
  echo "error: more than $CORE_LIMIT public *top_k* functions in mbir-core" >&2
  status=1
fi
if [ "$index_count" -gt "$INDEX_LIMIT" ]; then
  echo "error: more than $INDEX_LIMIT public *top_k* functions in mbir-index" >&2
  status=1
fi
for name in $names; do
  if ! grep -rqw --include='*.rs' "$name" tests examples crates/bench crates/e2e/src; then
    echo "error: pub fn $name has no caller outside crates/core" >&2
    status=1
  fi
done
exit $status
