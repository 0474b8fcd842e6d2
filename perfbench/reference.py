"""Committed reference CSVs and the row-keyed comparison against them.

Rows are matched on their grid coordinates, so a seed that permutes list
values still compares row for row.  The `regime` and `error` cells must
match exactly; every other cell is numeric and contributes its relative
difference to `max_rel_err`.

    python3 perfbench/reference.py     # rewrite reference/*.csv at seed 0

Rewrite the references only in a change that means to alter the program's
output, and state the change and its size there.
"""

import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"
EXACT_COLUMNS = ("regime", "error")
# A numeric cell may differ from its reference by this relative amount; the
# committed references reproduce with a difference of exactly 0.
REL_TOL = 1e-6


class Table:
    """A sweep CSV keyed on its grid coordinates."""

    def __init__(self, text, key_columns):
        lines = text.splitlines()
        self.columns = tuple(lines[0].split(","))
        key_at = [self.columns.index(name) for name in key_columns]
        self.rows = {}
        self.duplicates = 0
        for line in lines[1:]:
            cells = line.split(",")
            key = tuple(cells[i] for i in key_at)
            if key in self.rows:
                self.duplicates += 1
            self.rows[key] = cells

    @classmethod
    def read(cls, path, key_columns):
        return cls(Path(path).read_text(encoding="utf-8"), key_columns)


def _rel_err(produced, expected):
    if produced == expected:
        return 0.0
    if not produced or not expected:
        return math.inf
    a, b = float(produced), float(expected)
    if a == b:
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def compare(produced, expected):
    """(max relative error, number of mismatched rows) of two Tables.

    A row counts as mismatched when it is missing, extra, duplicated, has a
    different `regime` or `error`, or has a numeric cell off by more than
    REL_TOL.
    """
    if produced.columns != expected.columns:
        return math.inf, max(len(produced.rows), len(expected.rows), 1)
    exact = [i for i, name in enumerate(expected.columns)
             if name in EXACT_COLUMNS]
    bad = produced.duplicates + len(expected.rows.keys() - produced.rows.keys())
    worst = math.inf if bad else 0.0
    for key, cells in produced.rows.items():
        want = expected.rows.get(key)
        if (want is None or len(cells) != len(want)
                or any(cells[i] != want[i] for i in exact)):
            bad += 1
            worst = math.inf
            continue
        row_err = max(_rel_err(c, w) for i, (c, w) in enumerate(zip(cells, want))
                      if i not in exact)
        worst = max(worst, row_err)
        bad += row_err > REL_TOL
    return worst, bad


def key_columns(spec):
    return [name for name, _ in spec.grid()]


def reference_path(target):
    return REFERENCE_DIR / f"{target}.csv"


def main():
    sys.path.insert(0, str(HERE.parent / "src"))
    from szilard.sweeps import preset, run_sweep
    from workloads import targets

    REFERENCE_DIR.mkdir(exist_ok=True)
    for target in targets():
        outcome = run_sweep(preset(target), str(reference_path(target)))
        Path(outcome.manifest_path).unlink()
        print(f"{target}: {outcome.points} rows, {outcome.failed} error rows")


if __name__ == "__main__":
    main()
