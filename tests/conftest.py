"""Shared test plumbing.

The acceptance module registers one line per criterion here; the hook below
prints them as a block after the normal pytest summary so a full run ends
with an at-a-glance verdict, failures included.

Hypothesis runs derandomized and without an example database, so two runs
of the same code draw the same examples and their results compare like for
like.
"""

from hypothesis import settings

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


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in sorted(ACCEPTANCE_LINES):
        terminalreporter.write_line(line)
