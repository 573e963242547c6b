"""Direct-call timings of each module's public functions on seeded arguments.

Usage (from the repository root, with ``src`` on PYTHONPATH)::

    python3 perfbench/probe.py SEED OUT_JSON [--tiny]

Runs in a fresh interpreter, untraced, and writes one JSON object of
per-layer metrics.  Every value is measured on every workload, so the numbers
do not depend on which functions a workload's requests happen to reach:

* ``cli.criterion_s.<k>``: each acceptance criterion timed around
  ``run_criterion`` first, in criterion order, so the table cache starts
  cold as it does in a ``check`` request;
* on the N=200 grid at a seeded q: the full-grid ``classify`` sweep, one
  ``build_table``, ``approx`` on a seeded sample of points (overall and per
  region label), ``norm_err`` and ``ExactTable.signed_log`` on the same
  sample;
* ``special_fns``, ``wkb_core.k_pm_log`` and ``state_space.u_pm`` on the very
  arguments the region formulas pass them at that q.  ``lambda_j`` and
  ``airy_bi`` drop out at integer x, so they are timed on the top-corner
  (j, xi) pairs and on the turning-strip Airy arguments.

Per-call times are the median over repeats of (batch time / batch size).
"""

from __future__ import annotations

import json
import math
import random
import statistics
import sys
import time
from collections import defaultdict

from tracer import package_modules
from workloads import LABELS, label_name, q_text

REPEATS = 3


def per_call_us(fn, arg_list, repeats: int = REPEATS) -> float:
    """Median over repeats of the mean µs per call of fn(*args)."""
    if not arg_list:
        return 0.0
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for args in arg_list:
            fn(*args)
        times.append((time.perf_counter() - t0) / len(arg_list) * 1e6)
    return statistics.median(times)


def find(mods, name: str):
    """The package's function `name`, from whichever module defines it."""
    for mod in mods.values():
        fn = getattr(mod, name, None)
        if fn is not None and getattr(fn, "__module__", "") == mod.__name__:
            return fn
    raise LookupError(f"no package module defines {name}")


def capture(mods, names, thunk):
    """Run thunk() with every package-level reference to each named function
    wrapped, so the arguments of each call between modules are recorded."""
    seen = defaultdict(list)
    originals = []

    def recorder(name, fn):
        def wrapper(*args):
            seen[name].append(args)
            return fn(*args)
        return wrapper

    for mod in mods.values():
        for name in names:
            fn = getattr(mod, name, None)
            if callable(fn) and getattr(fn, "__module__", "") != mod.__name__:
                originals.append((mod, name, fn))
                setattr(mod, name, recorder(name, fn))
    try:
        thunk()
    finally:
        for mod, name, fn in originals:
            setattr(mod, name, fn)
    return seen


def spread(items, count: int, rng: random.Random):
    """Up to `count` items drawn without replacement, in a seeded order."""
    items = list(items)
    return rng.sample(items, min(count, len(items)))


def main(argv) -> int:
    seed, out_path = int(argv[0]), argv[1]
    tiny = "--tiny" in argv[2:]
    rng = random.Random(f"probe-{seed}")
    mods = package_modules()
    run_criterion, classify, approx = (find(mods, f) for f in ("run_criterion", "classify", "approx"))
    metrics = {}

    for k in range(1, 8):
        t0 = time.perf_counter()
        if not tiny or k in (5, 7):
            run_criterion(k)
        metrics[f"cli.criterion_s.{k}"] = time.perf_counter() - t0

    N = 24 if tiny else 200
    params = find(mods, "Params").from_q(N, q_text(rng.random()))
    grid = [(x, n) for n in range(N + 1) for x in range(N + 1)]

    t0 = time.perf_counter()
    labels = [classify(x, n, params) for x, n in grid]
    metrics["state_space.classify_us"] = (time.perf_counter() - t0) / len(grid) * 1e6
    by_label = defaultdict(list)
    for (x, n), rid in zip(grid, labels):
        by_label[label_name(rid)].append((x, n, params))

    builds = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        table = find(mods, "build_table")(params)
        builds.append(time.perf_counter() - t0)
    metrics["exact_core.build_table_s"] = statistics.median(builds)

    values = []
    for x, n in spread(grid, 1000, rng):
        try:
            values.append((approx(x, n, params), table, n, x))
        except (ArithmeticError, ValueError):
            pass  # approx is not yet total; the traced requests count such failures
    metrics["region_formulas.approx_us"] = per_call_us(approx, [(x, n, params) for _, _, n, x in values])
    metrics["cli.norm_err_us"] = per_call_us(find(mods, "norm_err"), values)
    metrics["exact_core.signed_log_us"] = per_call_us(table.signed_log, [(n, x) for _, _, n, x in values])

    per_label = {label: spread(by_label.get(label, []), 60, rng) for label in LABELS}
    for label, points in per_label.items():
        metrics[f"region_formulas.approx_us.{label}"] = per_call_us(approx, points)

    def run_labels(*chosen):
        for label in chosen:
            for args in per_label[label]:
                approx(*args)

    special = capture(mods, ("airy_ai", "pcf_d"), lambda: run_labels(*LABELS))
    corner = capture(mods, ("pcf_d",), lambda: run_labels("XII"))["pcf_d"]
    interior = capture(mods, ("k_pm_log", "u_pm"), lambda: run_labels("X"))
    airy_args = spread(special["airy_ai"], 100, rng)
    metrics["special_fns.airy_ai_us"] = per_call_us(find(mods, "airy_ai"), airy_args)
    metrics["special_fns.airy_bi_us"] = per_call_us(find(mods, "airy_bi"), airy_args)
    metrics["special_fns.pcf_d_us"] = per_call_us(find(mods, "pcf_d"), spread(special["pcf_d"], 100, rng))
    # Top-corner cylinder calls are D_j(sqrt(2) xi): recover (j, xi) for lambda_j.
    pairs = spread({(int(j), z / math.sqrt(2.0)) for j, z in corner}, 20, rng)
    metrics["special_fns.lambda_j_us"] = per_call_us(find(mods, "lambda_j"), pairs, repeats=1)
    metrics["wkb_core.k_pm_log_us"] = per_call_us(find(mods, "k_pm_log"), spread(interior["k_pm_log"], 300, rng))
    metrics["state_space.u_pm_us"] = per_call_us(find(mods, "u_pm"), spread(interior["u_pm"], 1000, rng))

    with open(out_path, "w", encoding="utf-8") as out:
        json.dump(metrics, out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
