"""Cost pins: each exact quantity is computed once per row, held by call
counts of the package's public functions.  Unlike wall times, a call count
is the same on every run, so a bound here fails only on a real change.
Each bound is an upper bound written as a formula in N, so a change that
lowers a count passes unchanged."""

from collections import Counter

import pytest

from krawtchouk_wkb import cli, exact_core

PINNED_Q = ["0.34894783", "0.64894783", "0.74894783"]


def counting(calls: Counter, name: str, fn):
    """fn, with each call counted under name."""
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapper


@pytest.mark.parametrize("q", PINNED_Q)
def test_full_compare_builds_each_exact_row_once(q, monkeypatch, tmp_path):
    N = 100
    calls = Counter()
    # One CPU: the rows run in this process, where the counters are.
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
    monkeypatch.setattr(exact_core, "exact_row", counting(calls, "exact_row", exact_core.exact_row))
    monkeypatch.setattr(exact_core.ExactRow, "__init__",
                        counting(calls, "ExactRow", exact_core.ExactRow.__init__))
    out = tmp_path / "compare.csv"
    assert cli.main(["compare", "--N", str(N), "--q", q, "--out", str(out)]) == 0
    header, *data = [line for line in out.read_text(encoding="utf-8").splitlines() if not line.startswith("#")]
    assert header.startswith("x,n,N,") and len(data) == (N + 1) ** 2
    assert 0 < calls["exact_row"] <= N + 1
    assert 0 < calls["ExactRow"] <= N + 1
