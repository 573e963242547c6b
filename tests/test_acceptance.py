"""Acceptance gate: every top-level criterion, one pass/fail line each.

Each test delegates to the same criterion functions the ``check`` subcommand
runs, prints a single PASS/FAIL line with the measured detail, and enforces
the stated runtime budget where one exists.
"""

import pytest

from krawtchouk_wkb.accuracy import CRITERIA, run_criterion

#: wall-clock budgets in seconds for the criteria that state one
BUDGETS = {1: 60.0, 2: 300.0, 3: 180.0}


@pytest.mark.parametrize("crit_id", sorted(CRITERIA))
def test_criterion(crit_id, capsys):
    result = run_criterion(crit_id)
    with capsys.disabled():
        print(result.line())
    assert result.passed, f"criterion-{crit_id} {result.name}: {result.detail}"
    budget = BUDGETS.get(crit_id)
    if budget is not None:
        assert result.seconds <= budget, (
            f"criterion-{crit_id} took {result.seconds:.1f}s > {budget:.0f}s budget"
        )
