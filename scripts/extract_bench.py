#!/usr/bin/env python3
"""Extracts benchmark artifacts into Markdown tables.

Two modes:

* ``extract_bench.py <cargo-bench-log>`` — extracts criterion median
  times from a ``cargo bench`` log (used to refresh EXPERIMENTS.md's
  wall-clock appendix).
* ``extract_bench.py --summaries [dir]`` — discovers every
  ``BENCH_*.json`` the repro harnesses write (append, batch, chaos,
  kernels, overload, reshard, shard) by glob instead of a hard-coded file
  list, and
  prints one Markdown table per artifact with its scalar headline
  metrics. Nested objects are flattened with dotted keys; lists of
  scalars are inlined and other lists summarized by length, so new
  experiments need no parser changes. Every list of objects — at any
  nesting depth, named by its dotted path — additionally gets its own
  per-entry table, one row per entry with flattened dotted columns:
  the top-level ``configs`` array of ``BENCH_kernels.json``, the
  ``queries`` list of ``BENCH_batch.json``, and the nested
  ``migration.per_band`` / ``dual_read.per_shard`` lists of
  ``BENCH_reshard.json`` all render fully instead of collapsing to an
  ``N entries`` placeholder.
"""
import json
import re
import sys
from pathlib import Path


def criterion_table(log_path):
    log = open(log_path).read()
    # Criterion prints "<id> time: [lo med hi]" with the id sometimes on
    # the preceding "Benchmarking <id>: Analyzing" line; the vendored shim
    # prints "<id> median <t> mean <t> min <t>" on one line.
    results = []
    current = None
    for line in log.splitlines():
        m = re.match(r"Benchmarking ([^:]+): Analyzing", line)
        if m:
            current = m.group(1)
            continue
        m = re.match(r"(\S+)\s+median\s+(\S+ \S+)\s+mean", line) or re.match(
            r"([\w/ _.-]+)?\s*time:\s+\[\S+ \S+ (\S+ \S+) \S+ \S+\]", line
        )
        if m:
            ident = (m.group(1) or "").strip() or current
            results.append((ident, m.group(2)))
            current = None

    print("| benchmark | median time |")
    print("|---|---|")
    for ident, med in results:
        print(f"| `{ident}` | {med} |")


def flatten(value, prefix=""):
    """Flattens nested JSON into (dotted-key, rendered-value) rows."""
    if isinstance(value, dict):
        for key, inner in value.items():
            yield from flatten(inner, f"{prefix}{key}." if prefix else f"{key}.")
    elif isinstance(value, list):
        key = prefix.rstrip(".")
        if all(isinstance(v, (int, float, str, bool)) for v in value):
            yield key, ", ".join(str(v) for v in value)
        else:
            yield key, f"{len(value)} entries"
    else:
        yield prefix.rstrip("."), value


def entry_table(name, entries):
    """Renders a list of objects as one table: a row per entry, a column
    per flattened dotted key (union across entries, first-seen order)."""
    columns = []
    rows = []
    for entry in entries:
        flat = dict(flatten(entry))
        for key in flat:
            if key not in columns:
                columns.append(key)
        rows.append(flat)
    print(f"\n#### {name}\n")
    print("| " + " | ".join(f"`{c}`" for c in columns) + " |")
    print("|" + "---|" * len(columns))
    for flat in rows:
        print("| " + " | ".join(str(flat.get(c, "")) for c in columns) + " |")


def entry_lists(value, prefix=""):
    """Finds every non-empty list of objects in the tree, at any depth,
    yielding (dotted-path, entries) in document order."""
    if isinstance(value, dict):
        for key, inner in value.items():
            yield from entry_lists(inner, f"{prefix}.{key}" if prefix else key)
    elif isinstance(value, list) and value and all(isinstance(v, dict) for v in value):
        yield prefix, value


def summaries_tables(root):
    artifacts = sorted(Path(root).glob("BENCH_*.json"))
    if not artifacts:
        print(f"no BENCH_*.json artifacts under {root}", file=sys.stderr)
        return 1
    for path in artifacts:
        try:
            data = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as err:
            print(f"skipping {path}: {err}", file=sys.stderr)
            continue
        print(f"\n### {path.name}\n")
        print("| metric | value |")
        print("|---|---|")
        for key, value in flatten(data):
            print(f"| `{key}` | {value} |")
        for name, entries in entry_lists(data):
            entry_table(name, entries)
    return 0


def main(argv):
    if len(argv) >= 2 and argv[1] == "--summaries":
        root = argv[2] if len(argv) > 2 else "."
        return summaries_tables(root)
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    criterion_table(argv[1])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
