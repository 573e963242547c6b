#!/usr/bin/env python3
"""Show the asymptotic error falling as the grid grows at fixed scaled points.

A scaled point (y, z) = (x/N, n/N) is held fixed while N doubles; the
windowed error of the selected region formula should drop roughly like 1/N
in the interior regions.

    python3 demos/convergence.py
"""

from krawtchouk_wkb import ExactRow, Params, approx, classify
from krawtchouk_wkb.accuracy import norm_err_row

POINTS = (("left exterior", 0.05, 0.10), ("right exterior", 0.95, 0.10),
          ("oscillatory interior", 0.35, 0.50))
SIZES = (50, 100, 200, 400)
Q = "0.64894783"


def main() -> int:
    header = "".join(f"  N={N:<6}" for N in SIZES)
    print(f"q={Q}; windowed error at fixed (y, z) while N grows\n")
    print(f"{'scaled point':>28}{header}")
    for name, y, z in POINTS:
        errs = []
        for N in SIZES:
            params = Params.from_q(N, Q)
            x, n = round(y * N), round(z * N)
            err = norm_err_row([approx(x, n, params)], ExactRow(n, params), [x])[0]
            errs.append(err)
        row = "".join(f"  {e:<8.2%}" for e in errs)
        tag = classify(round(y * SIZES[-1]), round(z * SIZES[-1]),
                       Params.from_q(SIZES[-1], Q)).label
        print(f"{name + ' (' + tag + ')':>28}{row}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
