"""Run one CLI request with a span recorded around every call between modules.

Usage (from the repository root, with ``src`` on PYTHONPATH)::

    python3 perfbench/tracer.py SPANS_CSV_GZ SUMMARY_JSON REQUEST_ID -- CLI_ARGS...

Before the request runs, every function that one package module imports from
another is replaced, in the importing module's namespace, by a wrapper that
records a span: name, start, end, parent span and the request id.  The
package's own code is not edited.  ``cli.main`` is the root span, and
``cli.norm_err`` and ``cli.run_criterion`` get spans too.  The modules are
found by walking the package, so a module added later is traced as well.
Reads of exact table cells are counted (distinct cells per table) rather
than spanned, because there are a dozen per compared point.

Spans are kept in flat arrays in memory and written out once the request has
finished: the raw spans as gzip CSV rows ``request,span,parent,name,start_ns,
end_ns,error`` and a JSON summary with each span name's count, total and self
time (duration minus the time covered by its child spans) and the counters.
The CLI's exit code is passed through.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
import pkgutil
import sys
import time
from array import array
from collections import Counter

from workloads import label_name

CLI_SPANS = ("main", "norm_err", "run_criterion")


def package_modules() -> dict:
    """Every module of the package, imported, by short name."""
    pkg = importlib.import_module("krawtchouk_wkb")
    return {
        info.name: importlib.import_module(f"krawtchouk_wkb.{info.name}")
        for info in pkgutil.iter_modules(pkg.__path__)
        if info.name != "__main__"
    }


class Recorder:
    """The spans and counters of one traced request."""

    def __init__(self) -> None:
        self.names: list = []
        self.name_ids: dict = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.errors = array("i")
        self.stack = [-1]
        self.classify_calls = 0
        self.classify_mirrored = 0
        self.labels: Counter = Counter()
        self.cells_built = 0
        self.cell_maps: dict = {}

    def wrap(self, name: str, fn, observe=None):
        nid = self.name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        clock, stack = time.perf_counter_ns, self.stack
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end

        def wrapper(*args, **kwargs):
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            start.append(0)
            end.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self.errors.append(idx)
                raise
            finally:
                end[idx] = clock()
                start[idx] = t0
                stack.pop()
            if observe is not None:
                observe(out, args)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    # -- observers -----------------------------------------------------------

    def on_classify(self, rid, args) -> None:
        self.classify_calls += 1
        self.classify_mirrored += bool(rid.mirrored)

    def on_approx(self, av, args) -> None:
        self.labels[label_name(av.region)] += 1

    def on_build_table(self, table, args) -> None:
        size = table.params.N + 1
        self.cells_built += size * size
        self.cell_maps[id(table)] = (bytearray(size * size), size)

    def mark(self, table, n: int, x) -> None:
        entry = self.cell_maps.get(id(table))
        if entry is None:
            return
        cells, size = entry
        if x is None:
            cells[n * size:(n + 1) * size] = b"\x01" * size
        else:
            cells[n * size + x] = 1

    def cells_read(self) -> int:
        return sum(cells.count(1) for cells, _ in self.cell_maps.values())

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        mods = package_modules()
        observers = {
            "state_space.classify": self.on_classify,
            "region_formulas.approx": self.on_approx,
            "exact_core.build_table": self.on_build_table,
        }
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if not inspect.isfunction(obj) or attr.startswith("_"):
                    continue
                owner = obj.__module__.rpartition(".")[2]
                if owner == short and not (short == "cli" and attr in CLI_SPANS):
                    continue
                if owner not in mods:
                    continue
                name = f"{owner}.{obj.__name__}"
                setattr(mod, attr, self.wrap(name, obj, observers.get(name)))
        self._count_reads(mods["exact_core"].ExactTable)

    def _count_reads(self, table_cls) -> None:
        mark = self.mark

        def reader(fn, whole_row):
            def method(table, n, *rest):
                mark(table, n, None if whole_row else rest[0])
                return fn(table, n, *rest)
            return method

        for meth, whole_row in (("value", False), ("signed_log", False), ("scaled_row", True)):
            if hasattr(table_cls, meth):
                setattr(table_cls, meth, reader(getattr(table_cls, meth), whole_row))

    # -- output ----------------------------------------------------------------

    def summary(self, request_id: str) -> dict:
        count = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(count)]
        child = [0] * count
        for i in range(count):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        per_name = {name: {"count": 0, "total_ns": 0, "self_ns": 0, "errors": 0} for name in self.names}
        layer_ns = 0
        for i in range(count):
            entry = per_name[self.names[self.name_of[i]]]
            entry["count"] += 1
            entry["total_ns"] += dur[i]
            entry["self_ns"] += dur[i] - child[i]
            p = self.parent[i]
            # Layer spans: calls from the cli module into another module.
            if (p >= 0 and self.names[self.name_of[p]].startswith("cli.")
                    and not self.names[self.name_of[i]].startswith("cli.")):
                layer_ns += dur[i]
        for i in self.errors:
            per_name[self.names[self.name_of[i]]]["errors"] += 1
        root = [dur[i] for i in range(count) if self.parent[i] < 0]
        return {
            "request": request_id,
            "spans": count,
            "root_ns": sum(root),
            "layer_ns": layer_ns,
            "per_name": per_name,
            "classify_calls": self.classify_calls,
            "classify_mirrored": self.classify_mirrored,
            "labels": dict(self.labels),
            "cells_built": self.cells_built,
            "cells_read": self.cells_read(),
        }

    def write_spans(self, path: str, request_id: str) -> None:
        errors = set(self.errors)
        with gzip.open(path, "wt", compresslevel=1, newline="") as out:
            out.writelines(
                f"{request_id},{i},{self.parent[i]},{self.names[self.name_of[i]]},"
                f"{self.start[i]},{self.end[i]},{int(i in errors)}\n"
                for i in range(len(self.start))
            )


def main(argv) -> int:
    spans_path, summary_path, request_id, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS_CSV_GZ SUMMARY_JSON REQUEST_ID -- CLI_ARGS...")
    rec = Recorder()
    rec.install()
    cli = package_modules()["cli"]
    try:
        code = cli.main(cli_args)
    finally:
        sys.stdout.flush()
        t0 = time.perf_counter()
        summary = rec.summary(request_id)
        rec.write_spans(spans_path, request_id)
        summary["dump_s"] = time.perf_counter() - t0
        with open(summary_path, "w", encoding="utf-8") as out:
            json.dump(summary, out)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
