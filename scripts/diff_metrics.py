#!/usr/bin/env python3
"""Diff two per-superstep metrics CSVs, ignoring measured columns by NAME.

Usage:
    hg_run --graph dataset:wiki --algo sssp --threads 1 --csv a.csv
    hg_run --graph dataset:wiki --algo sssp --threads 8 --csv b.csv
    python3 scripts/diff_metrics.py a.csv b.csv

The engine's determinism contract says every column of class kModeled in
src/core/run_metrics.h is bit-identical across thread counts and prefetch
settings. The columns of class kMeasured (host wall clocks, prefetch
observability counters) may diverge, so they are ignored by default; the set
is read from the HG_SUPERSTEP_METRICS_COLUMNS list in that header, never kept
here. Columns are matched by header NAME, never by position — the CSV schema
grows new columns at the end, so positional stripping would silently compare
the wrong fields.

Exit status: 0 when all compared columns match, 1 on any difference (each
printed as superstep/column/values), 2 on usage or malformed input.

    --ignore a,b,c   ignore extra columns by name (e.g. a column the other
                     build does not write)
    --quiet          suppress the per-cell difference listing
"""
import csv
import os
import re
import sys

SCHEMA = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                      "src", "core", "run_metrics.h")


def measured_columns(path=SCHEMA):
    """CSV names of the kMeasured entries of HG_SUPERSTEP_METRICS_COLUMNS."""
    try:
        with open(path) as f:
            text = f.read()
    except OSError as e:
        print(f"diff_metrics: cannot read the metrics schema: {e}",
              file=sys.stderr)
        sys.exit(2)
    # The list body: every line up to the first one without a trailing '\'.
    body = re.search(
        r"#define HG_SUPERSTEP_METRICS_COLUMNS\(.*?\n((?:.*\\\n)*.*)", text)
    if body is None:
        print(f"diff_metrics: {path}: no HG_SUPERSTEP_METRICS_COLUMNS list",
              file=sys.stderr)
        sys.exit(2)
    return set(re.findall(r"\bX\((\w+),\s*\w+,\s*\w+,\s*kMeasured\)",
                          body.group(1)))


def load(path):
    try:
        with open(path, newline="") as f:
            rows = list(csv.reader(f))
    except OSError as e:
        print(f"diff_metrics: {e}", file=sys.stderr)
        sys.exit(2)
    if not rows:
        print(f"diff_metrics: {path}: empty file", file=sys.stderr)
        sys.exit(2)
    header = rows[0]
    for i, r in enumerate(rows[1:], 1):
        if len(r) != len(header):
            print(f"diff_metrics: {path}:{i + 1}: {len(r)} fields, "
                  f"header has {len(header)}", file=sys.stderr)
            sys.exit(2)
    return header, rows[1:]


def main(argv):
    ignore = measured_columns()
    quiet = False
    paths = []
    i = 1
    while i < len(argv):
        arg = argv[i]
        if arg == "--ignore":
            i += 1
            if i >= len(argv):
                print(__doc__)
                return 2
            ignore.update(c.strip() for c in argv[i].split(",") if c.strip())
        elif arg == "--quiet":
            quiet = True
        elif arg.startswith("-"):
            print(__doc__)
            return 2
        else:
            paths.append(arg)
        i += 1
    if len(paths) != 2:
        print(__doc__)
        return 2

    header_a, rows_a = load(paths[0])
    header_b, rows_b = load(paths[1])
    compared = [c for c in header_a if c not in ignore]
    if compared != [c for c in header_b if c not in ignore]:
        print(f"diff_metrics: header mismatch:\n  {paths[0]}: {header_a}\n"
              f"  {paths[1]}: {header_b}")
        return 1
    missing = ignore - set(header_a) - set(header_b)
    if missing:
        print(f"diff_metrics: warning: ignored columns not in either header: "
              f"{sorted(missing)}", file=sys.stderr)

    differences = 0
    if len(rows_a) != len(rows_b):
        print(f"diff_metrics: row count differs: {len(rows_a)} vs "
              f"{len(rows_b)}")
        differences += 1
    col_a = {c: i for i, c in enumerate(header_a)}
    col_b = {c: i for i, c in enumerate(header_b)}
    for t, (ra, rb) in enumerate(zip(rows_a, rows_b)):
        for c in compared:
            va, vb = ra[col_a[c]], rb[col_b[c]]
            if va != vb:
                differences += 1
                if not quiet:
                    print(f"row {t}: {c}: {va} != {vb}")
    if differences:
        print(f"diff_metrics: {differences} difference(s) in "
              f"{len(compared)} compared columns "
              f"(ignored: {sorted(ignore)})")
        return 1
    print(f"diff_metrics: identical across {len(rows_a)} rows, "
          f"{len(compared)} compared columns "
          f"(ignored: {sorted(ignore)})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
