"""Seeded sweep of ``approx_row`` over whole rows at large N: every point must
evaluate, with no ``nan`` and no ``+inf`` log scale.

For each N in {1000, 3000, 10000} and six q it takes the rows z = p and
z = q (where N*p is an integer) with their neighbours, both edge rows n = 0
and n = N, and 25 rows drawn from ``random.Random(SEED)``, and evaluates
each at x = 0..N: 33 rows a case.  Tier-1 covers these sizes at a few rows
only; the sweep takes about 25 s on one core.

    PYTHONPATH=src python tests/_sweeps/totality.py SEED

Prints one line per (N, q) and exits 1 on the first failing row, naming it.
"""

import math
import random
import sys

from krawtchouk_wkb import Params, approx_row

SIZES = (1000, 3000, 10000)
QS = ("0.55", "0.6", "0.7", "0.77", "0.9", "0.99")
RANDOM_ROWS = 25


def rows(params: Params, rng: random.Random) -> list:
    """The rows z = p and z = q and their neighbours, the edges, then
    RANDOM_ROWS seeded rows."""
    N = params.N
    special = [int(N * f) + d for f in (params.p, params.q) if (N * f).denominator == 1 for d in (-1, 0, 1)]
    return [n for n in special if 0 < n < N] + [0, N] + rng.sample(range(1, N), RANDOM_ROWS)


def fault(n: int, params: Params) -> str:
    """Why row n fails the sweep, or "" when every point evaluates."""
    try:
        avs = approx_row(n, range(params.N + 1), params)
    except Exception as exc:  # any raise is the fault this sweep looks for
        return f"{type(exc).__name__}: {exc}"
    for x, av in enumerate(avs):
        if math.isnan(av.value) or math.isnan(av.ln_scale) or av.ln_scale == math.inf:
            return f"x = {x}: {av}"
    return ""


def main(argv: list) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    rng = random.Random(int(argv[0]))
    for N in SIZES:
        for q in QS:
            params = Params.from_q(N, q)
            ns = rows(params, rng)
            for n in ns:
                problem = fault(n, params)
                if problem:
                    print(f"FAIL N={N} q={q} n={n}: {problem}")
                    return 1
            print(f"ok   N={N} q={q}: {len(ns)} rows")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
