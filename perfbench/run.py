#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the krawtchouk-wkb command-line tool.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload {grid,row,regions,check,all} \\
        --seed N --seconds S --trace {0,1}

Every request is a fresh ``python -m krawtchouk_wkb ...`` process, sent by
this driver in a closed loop with one client: the next request starts when
the previous one has exited, and requests are issued until the next one would
end more than half a request's time after ``--seconds``.  That is what a command-line user pays, interpreter
start, imports and the cold table cache included.  Each request's output is
verified (see workloads.py); a request that exits non-zero or whose output
fails verification is counted as failed and the run goes on.

Before measuring, the run times set-up: a fresh interpreter importing the
package and answering ``--version``, several times, median reported.

With ``--trace 1`` the run then replays the same requests, each in a fresh
process under perfbench/tracer.py, and runs perfbench/probe.py for the
direct-call timings; end-to-end numbers still come from the untraced pass.

Standard output is a human-readable report followed, on the last line, by
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  perfbench/out/ receives a result JSON per run (machine record,
per-request records, every metric) and, with tracing, the spans as gzip CSV.
See perfbench/README.md for the workload rationale.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

import workloads as wl  # noqa: E402  (sibling module, found through sys.path[0])

#: set-up samples per run (median reported), after one warm-up
SETUP_SAMPLES = 7
MODULES = ("exact_core", "state_space", "wkb_core", "special_fns", "region_formulas", "cli")


def machine_record() -> dict:
    def version(dist: str) -> str:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "absent"

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "mpmath": version("mpmath"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu,
        "loadavg_start": list(os.getloadavg()),
        "platform": platform.platform(),
    }


def child_env() -> dict:
    """The caller's environment, with the package on the path and the bytecode
    cache on, as for an installed package, whatever the caller set."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(argv, stdout_path: Path) -> dict:
    """Run one process to completion; its wall, CPU and peak RSS via wait4."""
    with open(stdout_path, "wb") as out, open(stdout_path.with_suffix(".err"), "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT, env=child_env())
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "returncode": proc.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_mb": usage.ru_maxrss / 1024.0,
    }


def measure_setup(tag: str) -> list:
    cmd = [sys.executable, "-m", "krawtchouk_wkb", "--version"]
    path = OUT / f"{tag}-setup.txt"
    spawn(cmd, path)  # warm-up: writes the bytecode cache on a fresh checkout
    return [spawn(cmd, path)["wall_s"] for _ in range(SETUP_SAMPLES)]


def verify(req: wl.Request, text: str, returncode: int) -> list:
    """Problems with one request's output (empty when it is right)."""
    if req.kind == "check":
        return wl.verify_check(text, req, returncode)
    if returncode != 0:
        return [f"exit code {returncode}"]
    if req.kind == "compare":
        return wl.verify_compare(text, req)
    if req.kind == "eval":
        return wl.verify_eval(text, req)
    from krawtchouk_wkb import Params, classify  # the package under test, from SRC

    params = Params.from_q(req.N, req.q)
    return wl.verify_regions(text, req, lambda x, n: classify(x, n, params).label)


def run_requests(workload: str, seed: int, seconds: float, scale: str, tag: str) -> list:
    """The closed loop: one request at a time until the budget is spent."""
    records = []
    start = time.perf_counter()
    for i, req in enumerate(wl.requests(workload, seed, scale)):
        path = OUT / f"{tag}-req.txt"
        rec = spawn([sys.executable, "-m", "krawtchouk_wkb", *req.argv], path)
        text = path.read_text(encoding="utf-8", errors="replace")
        rec.update(index=i, argv=req.argv, kind=req.kind, points=req.points)
        rec["problems"] = verify(req, text, rec["returncode"])[:5]
        rec["norm_errs"] = wl.norm_errs(text) if req.kind == "compare" and not rec["problems"] else []
        records.append((req, rec))
        elapsed = time.perf_counter() - start
        mean_wall = statistics.fmean(r["wall_s"] for _, r in records)
        if elapsed + mean_wall / 2 > seconds:  # the next request would end mostly past the budget
            return records


def end_to_end(setup: list, records: list) -> dict:
    recs = [r for _, r in records]
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(r["wall_s"] for r in recs),
        "peak_rss_mb": max(r["maxrss_mb"] for r in recs),
    }


def report_only(records: list) -> dict:
    """Metrics printed in the report but not bounded in BENCHMARK.json."""
    recs = [r for _, r in records]
    out = {
        "cpu_s": (statistics.median(r["cpu_s"] for r in recs), "s"),
        "fail_ratio": (sum(bool(r["problems"]) for r in recs) / len(recs), "ratio"),
    }
    with_points = [r for r in recs if r["points"]]
    if with_points:
        out["points_per_s"] = (statistics.median(r["points"] / r["wall_s"] for r in with_points), "1/s")
    errs = sorted(e for r in recs for e in r["norm_errs"] if e == e)
    if errs:
        for name, share in (("p50", 0.50), ("p99", 0.99), ("max", 1.0)):
            out[f"norm_err_{name}"] = (wl.quantile(errs, share), "ratio")
        out["norm_err_points"] = (len(errs), "count")
    return out


# ---------------------------------------------------------------------------
# Traced pass
# ---------------------------------------------------------------------------


def traced_pass(records: list, setup_s: float, seed: int, scale: str, tag: str, spans_path: Path) -> dict:
    summaries = []
    with open(spans_path, "wb") as spans:
        spans.write(gzip.compress(b"request,span,parent,name,start_ns,end_ns,error\n"))
        for req, rec in records:
            rid = f"{tag}-{rec['index']}"
            part, summary_path = OUT / f"{tag}-part.csv.gz", OUT / f"{tag}-summary.json"
            traced = spawn([sys.executable, str(HERE / "tracer.py"), str(part), str(summary_path),
                            rid, "--", *req.argv], OUT / f"{tag}-traced.txt")
            if traced["returncode"] != rec["returncode"] or not summary_path.is_file():
                raise RuntimeError(f"traced replay of {' '.join(req.argv)} exited {traced['returncode']}: "
                                   f"{(OUT / f'{tag}-traced.err').read_text()[-2000:]}")
            summary = json.loads(summary_path.read_text(encoding="utf-8"))
            summary["wall_s"] = traced["wall_s"]
            summary["untraced_wall_s"] = rec["wall_s"]
            summaries.append(summary)
            with open(part, "rb") as piece:  # gzip members concatenate
                shutil.copyfileobj(piece, spans)
            part.unlink()
    probe_path = OUT / f"{tag}-probe.json"
    probe = spawn([sys.executable, str(HERE / "probe.py"), str(seed), str(probe_path)]
                  + (["--tiny"] if scale == "tiny" else []), OUT / f"{tag}-probe.txt")
    if probe["returncode"] != 0:
        raise RuntimeError(f"probe failed: {(OUT / f'{tag}-probe.err').read_text()}")
    metrics = json.loads(probe_path.read_text(encoding="utf-8"))
    metrics.update(span_metrics(summaries, setup_s))
    return {"metrics": metrics, "summaries": summaries}


def span_metrics(summaries: list, setup_s: float) -> dict:
    count = len(summaries)
    total = lambda key: sum(s[key] for s in summaries)  # noqa: E731
    per_module = {m: 0 for m in MODULES}
    calls = errors = 0
    for s in summaries:
        for name, entry in s["per_name"].items():
            module = name.partition(".")[0]
            if module in per_module:
                per_module[module] += entry["self_ns"]
            if name == "region_formulas.approx":
                calls += entry["count"]
                errors += entry["errors"]
    root_ns = total("root_ns")
    out = {f"{m}.self_share": per_module[m] / root_ns for m in MODULES}
    built = total("cells_built")
    out["exact_core.cells_built"] = built / count
    out["exact_core.useful_cell_ratio"] = total("cells_read") / built if built else 0.0
    classified = total("classify_calls")
    out["state_space.mirrored_ratio"] = total("classify_mirrored") / classified if classified else 0.0
    for label in wl.LABELS:
        out[f"region_formulas.points.{label}"] = sum(s["labels"].get(label, 0) for s in summaries) / count
    out["region_formulas.fail_ratio"] = errors / calls if calls else 0.0
    # Layer spans are rescaled from traced to untraced time before subtracting.
    out["cli.self_s_est"] = statistics.median(
        (s["untraced_wall_s"] - setup_s) * (1.0 - s["layer_ns"] / s["root_ns"]) for s in summaries)
    out["trace.overhead_ratio"] = statistics.median(
        (s["wall_s"] - s["dump_s"]) / s["untraced_wall_s"] for s in summaries)
    out["trace.spans"] = total("spans") / count
    return out


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, trace: bool, scale: str, units: dict) -> dict:
    tag = f"{workload}-s{seed}" + ("-tiny" if scale == "tiny" else "")
    machine = machine_record()
    setup = measure_setup(tag)
    records = run_requests(workload, seed, seconds, scale, tag)
    e2e = end_to_end(setup, records)
    extra = report_only(records)
    result = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace), "scale": scale,
        "machine": machine, "setup_samples_s": setup,
        "requests": [{k: v for k, v in r.items() if k != "norm_errs"} for _, r in records],
        "end_to_end": {k: {"value": v, "unit": units[k]} for k, v in e2e.items()},
        "report_only": {k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
    }
    if trace:
        spans_path = OUT / f"spans-{tag}.csv.gz"
        traced = traced_pass(records, e2e["setup_s"], seed, scale, tag, spans_path)
        result["per_layer"] = traced["metrics"]
        result["span_summaries"] = traced["summaries"]
        result["spans_file"] = str(spans_path.relative_to(ROOT))
    for name in ("req.txt", "req.err", "setup.txt", "setup.err", "traced.txt", "traced.err",
                 "summary.json", "probe.json", "probe.txt", "probe.err"):
        (OUT / f"{tag}-{name}").unlink(missing_ok=True)
    attempted = len(records)
    failed = sum(bool(r["problems"]) for _, r in records)
    result.update(attempted=attempted, failed=failed)
    (OUT / f"result-{tag}-t{int(trace)}.json").write_text(json.dumps(result, indent=1), encoding="utf-8")
    return result


def report_lines(result: dict, units: dict) -> list:
    m = result["machine"]
    lines = [
        f"# workload={result['workload']} seed={result['seed']} seconds={result['seconds']} "
        f"trace={result['trace']} requests={result['attempted']} failed={result['failed']}",
        f"# machine: python {m['python']}, mpmath {m['mpmath']}, scipy {m['scipy']}, "
        f"nproc {m['nproc']}, cpu {m['cpu_model']}, loadavg {m['loadavg_start']}",
    ]
    for name, entry in {**result["end_to_end"], **result["report_only"]}.items():
        lines.append(f"{name:40s} {entry['value']:>16.6g} {entry['unit']}")
    for name, value in result.get("per_layer", {}).items():
        lines.append(f"{name:40s} {value:>16.6g} {units.get(name, '')}")
    self_ns = {}
    for summary in result.get("span_summaries", []):
        for name, entry in summary["per_name"].items():
            self_ns[name] = self_ns.get(name, 0) + entry["self_ns"]
    count = max(1, len(result.get("span_summaries", [])))
    for name, ns in sorted(self_ns.items(), key=lambda kv: -kv[1])[:15]:
        lines.append(f"# span self time per request {name:32s} {ns / count * 1e-9:10.4f} s")
    for rec in result["requests"]:
        if rec["problems"]:
            lines.append(f"# FAILED {' '.join(rec['argv'])}: {'; '.join(rec['problems'])}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny grids, for the self-test")
    args = parser.parse_args(argv)

    if not (SRC / "krawtchouk_wkb" / "__main__.py").is_file():
        print(f"error: no package source at {SRC / 'krawtchouk_wkb'}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    OUT.mkdir(exist_ok=True)

    chosen = wl.WORKLOADS if args.workload == "all" else (args.workload,)
    scale = "tiny" if args.tiny else "full"
    results = [run_workload(w, args.seed, args.seconds, bool(args.trace), scale, units) for w in chosen]
    metrics = {}
    for result in results:
        print("\n".join(report_lines(result, units)))
        values = {**{k: e["value"] for k, e in result["end_to_end"].items()}, **result.get("per_layer", {})}
        prefix = f"{result['workload']}." if len(results) > 1 else ""
        for m in wanted:
            metrics[prefix + m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    failed = sum(r["failed"] for r in results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
