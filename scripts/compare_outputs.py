#!/usr/bin/env python3
"""Compare the outputs of two ``stresseq run`` calls column by column.

    python scripts/compare_outputs.py DIR_A DIR_B

For each output file of a run (``history.csv``, ``estimator_final.csv``,
``summary.csv``, ``equilibration.txt``) present in either directory, prints
the largest relative change |a - b| / max(|a|, |b|) of each numeric column.
``summary.csv`` and ``equilibration.txt`` hold one quantity per line; there
each quantity is a column.

When both directories hold ``mesh_final.txt`` (``save_mesh = true``), it
is compared byte for byte.

Exits 1 when a file is present in only one directory, when the row counts,
the integer columns (``step``, ``N``, ``element``) or any non-numeric cell
differ, or when the final meshes differ; exits 0 otherwise, whatever the
drift.
"""

from __future__ import annotations

import argparse
import csv
import math
import pathlib
import sys

OUTPUTS = ("history.csv", "estimator_final.csv", "summary.csv", "equilibration.txt")
MESH = "mesh_final.txt"
INTEGER_COLUMNS = {"step", "N", "element"}


def read_table(path: pathlib.Path) -> tuple[list[str], list[list[str]]]:
    """Header and rows of an output file; one-quantity-per-line files are
    returned as a single row with the quantities as columns."""
    if path.suffix == ".txt":
        pairs = [line.split() for line in path.read_text().splitlines() if line.strip()]
        return [p[0] for p in pairs], [[" ".join(p[1:]) for p in pairs]]
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    if header == ["quantity", "value"]:
        return [r[0] for r in body], [[r[1] for r in body]]
    return header, body


def _number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def relative_change(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    return abs(a - b) / max(abs(a), abs(b))


def compare_file(path_a: pathlib.Path, path_b: pathlib.Path) -> tuple[dict, list[str]]:
    """Largest relative change per numeric column, and the differences in
    structure (row counts, integer columns, non-numeric cells)."""
    head_a, rows_a = read_table(path_a)
    head_b, rows_b = read_table(path_b)
    if head_a != head_b:
        return {}, [f"columns differ: {head_a} against {head_b}"]
    if len(rows_a) != len(rows_b):
        return {}, [f"{len(rows_a)} rows against {len(rows_b)}"]
    drift = {}
    problems = []
    for j, name in enumerate(head_a):
        for i, (ra, rb) in enumerate(zip(rows_a, rows_b)):
            a, b = _number(ra[j]), _number(rb[j])
            if name in INTEGER_COLUMNS or a is None or b is None:
                if ra[j] != rb[j]:
                    problems.append(f"row {i}, column {name}: {ra[j]!r} against {rb[j]!r}")
                continue
            drift[name] = max(drift.get(name, 0.0), relative_change(a, b))
    return drift, problems


def compare_mesh(path_a: pathlib.Path, path_b: pathlib.Path) -> str | None:
    """None when the two mesh files are byte-identical, else the first line
    that differs."""
    text_a, text_b = path_a.read_bytes(), path_b.read_bytes()
    if text_a == text_b:
        return None
    lines_a, lines_b = text_a.splitlines(), text_b.splitlines()
    for i, (a, b) in enumerate(zip(lines_a, lines_b)):
        if a != b:
            return f"line {i + 1}: {a.decode()!r} against {b.decode()!r}"
    return f"{len(lines_a)} lines against {len(lines_b)}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("dir_a", type=pathlib.Path)
    ap.add_argument("dir_b", type=pathlib.Path)
    args = ap.parse_args(argv)

    differs = False
    for name in OUTPUTS:
        path_a, path_b = args.dir_a / name, args.dir_b / name
        if not path_a.exists() and not path_b.exists():
            continue
        if not (path_a.exists() and path_b.exists()):
            print(f"{name}: present in only one directory")
            differs = True
            continue
        drift, problems = compare_file(path_a, path_b)
        print(f"{name}:")
        for column, change in drift.items():
            print(f"  {column:<28} {change:.3g}")
        for problem in problems:
            print(f"  DIFFERS: {problem}")
        differs = differs or bool(problems)
    path_a, path_b = args.dir_a / MESH, args.dir_b / MESH
    if path_a.exists() and path_b.exists():
        problem = compare_mesh(path_a, path_b)
        print(f"{MESH}: " + ("byte-identical" if problem is None else f"DIFFERS: {problem}"))
        differs = differs or problem is not None
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
