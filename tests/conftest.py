"""Shared test plumbing.

The acceptance module registers one line per criterion here; the hook below
prints them as a block after the normal pytest summary so a full run ends
with an at-a-glance verdict, failures included.

Hypothesis runs derandomized and without an example database, so two runs
of the same code draw the same examples and their results compare like for
like.
"""

import pytest
from hypothesis import settings

from szilard import ensembles

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")

ACCEPTANCE_LINES = []


def record(number, passed, detail):
    """Register the verdict line for one acceptance criterion.

    Call before asserting so the line is printed even when the criterion
    fails.
    """
    verdict = "PASS" if passed else "FAIL"
    ACCEPTANCE_LINES.append(f"[{number:2d}] {verdict}  {detail}")


@pytest.fixture
def newton_log(monkeypatch):
    """The Newton rounds of every ensembles._mu_offsets call while the test
    runs, each an occupancy _Heads.sums call without d: the log of its
    (rungs, rows, v), rows and v as lists."""
    log, sums = [], ensembles._Heads.sums

    def logged(heads, v, kind, d=None):
        if kind == "occupancy" and d is None:
            log.append((heads.rungs, heads.rows.tolist(), v.tolist()))
        return sums(heads, v, kind, d)

    monkeypatch.setattr(ensembles._Heads, "sums", logged)
    return log


def newton_rounds(log):
    """Per _Rungs solved in a newton_log, in order, {row: the Newton rounds
    of its root}.  A root's k-th evaluation in its doubling search is at
    u = k log 2, v = e^u within rounding of 2^k; every later one, Newton's,
    lies inside the bracket that search closed at u_b = k_b log 2 < k log 2,
    so at v below 2^k / 2.  Its Newton rounds are its evaluations at v
    below 0.75 * 2^k."""
    solves = {}
    for rungs, rows, v in log:
        points = solves.setdefault(id(rungs), {})
        for row, x in zip(rows, v):
            points.setdefault(row, []).append(x)
    return [{row: sum(x < 0.75 * 2.0 ** k for k, x in enumerate(points))
             for row, points in solve.items()} for solve in solves.values()]


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in sorted(ACCEPTANCE_LINES):
        terminalreporter.write_line(line)
