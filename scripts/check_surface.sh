#!/usr/bin/env bash
# Keeps the public surface from growing back (DESIGN.md §18).
#
# - Lists every `pub fn *top_k*` in the non-test part of crates/core/src
#   and crates/index/src and fails if either crate has more than its
#   limit, or if one of them has no caller outside its own crate (in
#   tests/, examples/, crates/bench or crates/e2e/src; an mbir-index name
#   may also be called from crates/core). An option that varies by value
#   belongs in `ExecOptions`, not in a new function name.
# - Fails when the non-test part of crates/core/src has more than
#   CORE_PUB_FN_LIMIT `pub fn` of any name.
#
# Whether each library `pub fn` has a caller at all is
# scripts/check_reachability.py's job (a compiler check, not a grep).
#
# Lower a limit when a change removes some; never raise one.
set -euo pipefail
cd "$(dirname "$0")/.."

CORE_LIMIT=13
INDEX_LIMIT=11
CORE_PUB_FN_LIMIT=150

# `pub fn` names above the first #[cfg(test)] of file $1 that match the
# regex $2.
file_pub_fns() {
  sed '/^#\[cfg(test)\]/,$d' "$1" | grep -oE "pub fn $2" | sed 's/^pub fn //' || true
}

# Every such name in the `.rs` files under directory $1.
pub_fn_names() {
  find "$1" -name '*.rs' | sort | while read -r file; do
    file_pub_fns "$file" "$2"
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
for name in $index_names; do
  if ! grep -rqw --include='*.rs' "$name" tests examples crates/bench crates/e2e/src crates/core; then
    echo "error: pub fn $name has no caller outside crates/index" >&2
    status=1
  fi
done
exit $status
