#!/usr/bin/env python3
"""Checks a fresh bench document against the tracked BENCH file it regenerates.

Usage: python3 scripts/bench_check.py FRESH TRACKED

Both files are written by a bench bin through `fedsz_bench::Report`. The
two must agree on schema, settings and every grid's layout; neither may
hold a failed gate, and both must hold the same gate verdicts. On every
grid row of the fresh file (matched by the grid's key columns, or by
position in a grid without a key) the tracked file must hold the same
row, equal in every column the grid does not list as timing. Rows only
the tracked file holds (points of a larger sweep) are not compared.
Exits 1 after listing every difference.
"""

import json
import sys


def rows_by_key(grid):
    """The grid's rows, keyed by their key columns' values (`#N` without a key)."""
    key = [(name, grid["columns"].index(name)) for name in grid["key"]]
    if not key:
        return {f"#{n}": row for n, row in enumerate(grid["rows"])}
    return {", ".join(f"{name}={json.dumps(row[i])}" for name, i in key): row for row in grid["rows"]}


def differences(fresh, tracked):
    """Yields one line per way `tracked` fails to match `fresh`."""
    for field in ("schema", "settings"):
        if fresh[field] != tracked[field]:
            yield f"{field}: fresh {fresh[field]}, tracked {tracked[field]}"
    for name, doc in (("fresh", fresh), ("tracked", tracked)):
        failed = [gate["name"] for gate in doc["gates"] if not gate["passed"]]
        if doc["gates_failed"] != 0 or failed:
            yield f"{name} file: gates_failed = {doc['gates_failed']}, failed gates {failed}"
    verdicts = [{g["name"]: g["passed"] for g in doc["gates"]} for doc in (fresh, tracked)]
    if verdicts[0] != verdicts[1]:
        yield f"gate verdicts: fresh {verdicts[0]}, tracked {verdicts[1]}"
    if fresh["grids"].keys() != tracked["grids"].keys():
        yield f"grids: fresh {sorted(fresh['grids'])}, tracked {sorted(tracked['grids'])}"
    for name in sorted(fresh["grids"].keys() & tracked["grids"].keys()):
        new, old = fresh["grids"][name], tracked["grids"][name]
        layout = [(g.get("title"), g["key"], g["timing"], g["columns"]) for g in (new, old)]
        if layout[0] != layout[1]:
            yield f"{name}: layout (title, key, timing, columns) fresh {layout[0]}, tracked {layout[1]}"
            continue
        old_rows = rows_by_key(old)
        for key, row in rows_by_key(new).items():
            if key not in old_rows:
                yield f"{name} [{key}]: no such row in the tracked file"
                continue
            for column, value, kept in zip(new["columns"], row, old_rows[key]):
                if column not in new["timing"] and value != kept:
                    yield f"{name} [{key}]: {column} fresh {value!r}, tracked {kept!r}"


def main(fresh_path, tracked_path):
    with open(fresh_path) as f:
        fresh = json.load(f)
    with open(tracked_path) as f:
        tracked = json.load(f)
    problems = list(differences(fresh, tracked))
    for problem in problems:
        print(f"{tracked_path}: {problem}")
    if problems:
        return 1
    rows = sum(len(grid["rows"]) for grid in fresh["grids"].values())
    print(f"{tracked_path} ok: {fresh_path} reproduces it ({len(fresh['gates'])} gates, {rows} rows)")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(*sys.argv[1:]))
