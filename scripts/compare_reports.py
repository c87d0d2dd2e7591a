#!/usr/bin/env python3
"""Compare two trees of monodeform reports number by number.

    python3 scripts/compare_reports.py OLD NEW

OLD and NEW are directories holding the same report files (for instance two
`out/worked-examples` trees written by `scripts/run_worked_examples.py`).
Every `.json` and `.csv` file under OLD is matched by relative path in NEW.
Numbers drift by |old - new| / max(1, |old|), except the two eigenshift
diagnostics `hierarchy_residual_l2` and `hierarchy_rhs_orthogonality`, which
sit at finite-difference and rounding level and drift by |old - new|.
Anything else that differs (a missing file or key, another string, another
shape) counts as infinite drift.

Prints the worst drift per file and exits 1 if any exceeds 1e-12.
"""

import csv
import json
import math
import os
import sys

LIMIT = 1e-12
ABSOLUTE_KEYS = ("hierarchy_residual_l2", "hierarchy_rhs_orthogonality")


def _number_drift(old: float, new: float, absolute: bool) -> float:
    if old == new:
        return 0.0
    if not (math.isfinite(old) and math.isfinite(new)):
        return math.inf
    return abs(old - new) / (1.0 if absolute else max(1.0, abs(old)))


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def json_drift(old, new, absolute: bool = False) -> float:
    """Worst drift between two decoded JSON values of the same structure."""
    if _is_number(old) and _is_number(new):
        return _number_drift(float(old), float(new), absolute)
    if isinstance(old, dict) and isinstance(new, dict):
        if old.keys() != new.keys():
            return math.inf
        return max((json_drift(old[k], new[k], absolute or k in ABSOLUTE_KEYS) for k in old),
                   default=0.0)
    if isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            return math.inf
        return max((json_drift(o, n, absolute) for o, n in zip(old, new)), default=0.0)
    return 0.0 if old == new else math.inf


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def csv_drift(old_rows: list, new_rows: list) -> float:
    """Worst drift between two CSV tables; cells that parse as numbers are
    compared as numbers, the others as text."""
    return json_drift([[_cell(c) for c in r] for r in old_rows],
                      [[_cell(c) for c in r] for r in new_rows])


def file_drift(old_path: str, new_path: str) -> float:
    if not os.path.exists(new_path):
        return math.inf
    with open(old_path, newline="") as fo, open(new_path, newline="") as fn:
        if old_path.endswith(".csv"):
            return csv_drift(list(csv.reader(fo)), list(csv.reader(fn)))
        return json_drift(json.load(fo), json.load(fn))


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    old_root, new_root = argv
    worst = 0.0
    found = 0
    for dirpath, _, files in os.walk(old_root):
        for name in sorted(files):
            if not name.endswith((".json", ".csv")):
                continue
            rel = os.path.relpath(os.path.join(dirpath, name), old_root)
            drift = file_drift(os.path.join(old_root, rel), os.path.join(new_root, rel))
            found += 1
            worst = max(worst, drift)
            print(f"{drift:10.2e}  {rel}")
    print(f"{worst:10.2e}  worst over {found} files (limit {LIMIT:.0e})")
    return 0 if found and worst <= LIMIT else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
