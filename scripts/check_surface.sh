#!/usr/bin/env bash
# Keeps mbir-core's public query surface from growing back (DESIGN.md §18):
# lists every `pub fn *top_k*` in the non-test part of crates/core/src and
# fails if there are more than LIMIT, or if one of them has no caller in
# tests/, examples/, crates/bench or crates/e2e/src. An option that varies
# by value belongs in `ExecOptions`, not in a new function name.
set -euo pipefail
cd "$(dirname "$0")/.."

LIMIT=16
names=$(
  find crates/core/src -name '*.rs' | sort | while read -r file; do
    # Everything above the file's first #[cfg(test)].
    sed '/^#\[cfg(test)\]/,$d' "$file" | grep -oE 'pub fn \w*top_k\w*' | sed 's/^pub fn //' || true
  done
)
count=$(printf '%s\n' "$names" | grep -c . || true)
printf '%s\n' "$names"
echo "mbir-core public *top_k* functions: $count (limit $LIMIT)"

status=0
if [ "$count" -gt "$LIMIT" ]; then
  echo "error: more than $LIMIT public *top_k* functions" >&2
  status=1
fi
for name in $names; do
  if ! grep -rqw --include='*.rs' "$name" tests examples crates/bench crates/e2e/src; then
    echo "error: pub fn $name has no caller outside crates/core" >&2
    status=1
  fi
done
exit $status
