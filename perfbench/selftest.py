"""Smoke test of the benchmark harness at tiny sizes.

Usage, from the root of a checkout::

    python3 perfbench/selftest.py

Checks that

* a tiny run of every workload, untraced and traced, prints every metric of
  BENCHMARK.json by name with its unit, and verifies its outputs as correct;
* the verifiers reject a corrupted row of each CSV kind, and a failing check;
* the harness exits non-zero, printing no result, in a directory that holds
  only BENCHMARK.json and the benchmark's own files.

Exits 0 when every check holds and prints each failed check otherwise.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FAILURES = []


def expect(condition: bool, what: str) -> None:
    print(("ok    " if condition else "FAIL  ") + what)
    if not condition:
        FAILURES.append(what)


def run(args, cwd=ROOT):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=600)


def cli(args) -> str:
    out = run(["-m", "krawtchouk_wkb", *args])
    return out.stdout


def check_metrics(spec: dict) -> None:
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        out = run(["perfbench/run.py", "--workload", "all", "--seed", "3", "--seconds", "1",
                   "--trace", str(trace), "--tiny"])
        expect(out.returncode == 0, f"tiny run --trace {trace} exits 0 ({out.stderr[-300:]})")
        if out.returncode != 0:
            continue
        result = json.loads(out.stdout.strip().splitlines()[-1])
        expect(sorted(result) == ["attempted", "correct", "failed", "metrics"], "result has exactly its four keys")
        expect(result["correct"] and result["failed"] == 0, f"tiny run --trace {trace} verifies as correct")
        for workload in wl.WORKLOADS:
            for metric in spec[key]:
                entry = result["metrics"].get(f"{workload}.{metric['name']}")
                expect(entry is not None and entry["unit"] == metric["unit"]
                       and isinstance(entry["value"], (int, float)),
                       f"{workload}: {metric['name']} printed in {metric['unit']}")
                expect(f"{metric['name']} " in out.stdout, f"{workload}: {metric['name']} in the report")


def corrupt(text: str, row: int, column: int, value: str) -> str:
    lines = text.splitlines(True)
    data = [i for i, line in enumerate(lines) if not line.startswith("#")][1:]
    cells = lines[data[row]].rstrip("\n").split(",")
    cells[column] = value
    lines[data[row]] = ",".join(cells) + "\n"
    return "".join(lines)


def swap_rows(text: str, a: int, b: int) -> str:
    lines = text.splitlines(True)
    data = [i for i, line in enumerate(lines) if not line.startswith("#")][1:]
    lines[data[a]], lines[data[b]] = lines[data[b]], lines[data[a]]
    return "".join(lines)


def check_verifiers() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    from krawtchouk_wkb import Params, classify

    N, q = 12, "0.64894783"
    grid = wl.Request("compare", [], N, q)
    text = cli(["compare", "--N", str(N), "--q", q])
    expect(wl.verify_compare(text, grid) == [], "intact compare output verifies")
    for what, bad in (
        ("exact_ln_mag of the first row", corrupt(text, 0, 6, "1.5")),
        ("exact_sign of the last row", corrupt(text, -1, 5, "-1")),  # K_N(N) = q**N > 0
        ("two rows swapped", swap_rows(text, 3, 4)),
        ("a non-numeric norm_err", corrupt(text, 7, 9, "oops")),
        ("a row dropped", "\n".join(text.splitlines()[:-1]) + "\n"),
    ):
        expect(wl.verify_compare(bad, grid) != [], f"corrupted compare caught: {what}")

    row = wl.Request("eval", [], N, q, 5)
    text = cli(["eval", "--N", str(N), "--q", q, "--n", "5"])
    expect(wl.verify_eval(text, row) == [], "intact eval output verifies")
    expect(wl.verify_eval(corrupt(text, 0, 3, "0.125"), row) != [], "corrupted eval caught: wrong value")

    params = Params.from_q(N, q)
    label = lambda x, n: classify(x, n, params).label  # noqa: E731
    regions = wl.Request("regions", [], N, q)
    text = cli(["regions", "--N", str(N), "--q", q])
    expect(wl.verify_regions(text, regions, label) == [], "intact regions output verifies")
    expect(wl.verify_regions(corrupt(text, 0, 2, "XII"), regions, label) != [],
           "corrupted regions caught: wrong label")

    check = wl.Request("check", [], criteria=(5, 7))
    text = cli(["check", "--criteria", "5,7"])
    expect(wl.verify_check(text, check, 0) == [], "passing check verifies")
    expect(wl.verify_check(text.replace("PASS  criterion-7", "FAIL  criterion-7"), check, 2) != [],
           "failing check caught")


def check_bare_directory() -> None:
    bare = HERE / "out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    out = run(["perfbench/run.py", "--workload", "grid", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare)
    expect(out.returncode != 0 and out.stdout == "", "bare directory: non-zero exit, no result printed")
    shutil.rmtree(bare)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_verifiers()
    check_bare_directory()
    check_metrics(spec)
    print(f"{len(FAILURES)} failed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    raise SystemExit(main())
