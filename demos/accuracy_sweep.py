#!/usr/bin/env python3
"""Sweep one polynomial row, comparing every asymptotic value to the exact one.

For each x the evaluator picks a region formula; the windowed relative error
normalizes |approx - exact| by the largest exact magnitude within five grid
columns, which keeps the metric meaningful at sign changes (nodes).

    python3 demos/accuracy_sweep.py [N] [q] [n]
"""

import sys

from krawtchouk_wkb import ExactRow, Params, approx_row
from krawtchouk_wkb.accuracy import norm_err_row


def bar(err: float, width: int = 40) -> str:
    filled = min(width, int(err * 10 * width))
    return "#" * filled


def main() -> int:
    N = int(sys.argv[1]) if len(sys.argv) > 1 else 100
    q = sys.argv[2] if len(sys.argv) > 2 else "0.34894783"
    n = int(sys.argv[3]) if len(sys.argv) > 3 else 10
    params = Params.from_q(N, q)
    xs = range(0, N + 1)
    exact = ExactRow(n, params)  # the row's exact signs, logs and envelope
    avs = approx_row(n, xs, params)
    print(f"N={N}  q={q}  degree n={n}   (error bar full scale = 10%)")
    print(f"{'x':>4} {'region':>8} {'exact sign':>10} {'windowed err':>13}")
    worst = (0.0, -1, "")
    for x, av, err in zip(xs, avs, norm_err_row(avs, exact, xs)):
        sign = exact.signs[x]
        label = av.region.label
        if x % 2 == 0 or err > 0.01:
            print(f"{x:>4} {label:>8} {sign:>10} {err:>12.2%} {bar(err)}")
        if err > worst[0]:
            worst = (err, x, label)
    print(f"\nworst windowed error: {worst[0]:.2%} at x={worst[1]} (region {worst[2]})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
