"""The package's module boundaries: no module of ``src/krawtchouk_wkb``
imports an underscore name from a sibling, so each name that crosses a
module boundary is public there (dunders such as ``__version__`` aside); and
each name the package exports has a user outside the tests."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import krawtchouk_wkb

SRC = Path(krawtchouk_wkb.__file__).parent
ROOT = Path(__file__).resolve().parents[1]


def private_imports(source: str, name: str = "<source>"):
    """Each ``from <sibling> import _name`` in source, as 'file:line: name'."""
    for node in ast.walk(ast.parse(source, name)):
        if not isinstance(node, ast.ImportFrom):
            continue
        if not (node.level or (node.module or "").split(".")[0] == "krawtchouk_wkb"):
            continue
        for alias in node.names:
            if alias.name.startswith("_") and not alias.name.endswith("__"):
                yield f"{name}:{node.lineno}: {alias.name}"


def test_the_walk_finds_a_private_import():
    source = "from .region_formulas import ApproxValue, _Row\nfrom . import __version__\n"
    assert list(private_imports(source)) == ["<source>:1: _Row"]
    assert list(private_imports("from krawtchouk_wkb.state_space import _row_tests\n")) != []
    assert list(private_imports("from math import _x\n")) == []


def test_no_module_imports_a_private_name_from_a_sibling():
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) >= 8
    found = [hit for path in paths for hit in private_imports(path.read_text(encoding="utf-8"), path.name)]
    assert found == []


def test_singularity_error_is_one_class():
    # It lives beside DomainError; wkb_core and the package re-export it.
    from krawtchouk_wkb import exact_core, wkb_core

    assert krawtchouk_wkb.SingularityError is wkb_core.SingularityError is exact_core.SingularityError
    assert issubclass(exact_core.SingularityError, ArithmeticError)


def read_names(tree, skip=()):
    """Each name the tree reads, as a bare name or an attribute, outside the
    nodes in skip."""
    found, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if any(node is s for s in skip):
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return found


def top_level_bindings(tree):
    """The module statement that binds each top-level name, ``__all__`` included."""
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in getattr(node, "targets", [getattr(node, "target", None)]):
                if isinstance(target, ast.Name):
                    bound[target.id] = node
    return bound


def package_users(name, trees):
    """The package modules that read name outside its own definition and ``__all__``."""
    return [path for path, tree in trees.items()
            if name in read_names(tree, [top_level_bindings(tree).get(k) for k in (name, "__all__")])]


def test_the_user_walk_skips_the_definition_and_all():
    tree = ast.parse("__all__ = ['f', 'g']\ndef f():\n    return f()\ndef g():\n    return f()\n")
    assert package_users("f", {"m.py": tree}) == ["m.py"]
    assert package_users("g", {"m.py": tree}) == []


def test_every_export_has_a_user_outside_the_tests():
    # Package code other than __init__.py counts, and so do the demos, the
    # benchmark harness (which resolves functions by name) and the README.
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"), path.name)
             for path in SRC.glob("*.py") if path.name != "__init__.py"}
    texts = [path.read_text(encoding="utf-8")
             for path in [*(ROOT / "demos").glob("*.py"), *(ROOT / "perfbench").glob("*.py"), ROOT / "README.md"]]
    assert len(texts) >= 5
    unused = [name for name in krawtchouk_wkb.__all__
              if not package_users(name, trees)
              and not any(re.search(rf"\b{re.escape(name)}\b", text) for text in texts)]
    assert unused == []


def test_the_benchmark_harness_resolves_every_name_it_reads(tmp_path):
    # The harness finds package names at run time (ExactTable, build_table,
    # norm_err's table form, u_pm, k_pm_log, airy_bi, lambda_j, ...), so a
    # removed or renamed one shows only when the harness runs: run its probe
    # and one traced request, each at its smallest size.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for args in (["perfbench/probe.py", "3", str(tmp_path / "probe.json"), "--tiny"],
                 ["perfbench/tracer.py", str(tmp_path / "s.csv.gz"), str(tmp_path / "s.json"), "r",
                  "--", "compare", "--N", "24", "--q", "0.74894783"]):
        done = subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=120)
        assert done.returncode == 0, (args[0], done.stderr[-2000:])


def test_the_cli_imports_no_dataclasses():
    # Every request is a fresh process, so the import path is paid each time:
    # dataclasses alone pulls in inspect, ast, dis and tokenize, about 6 ms.
    probe = ("import sys; before = set(sys.modules); import krawtchouk_wkb.cli; "
             "print(*sorted(set(sys.modules) - before))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60)
    added = set(done.stdout.split())
    assert done.returncode == 0 and "krawtchouk_wkb.cli" in added, done.stderr[-2000:]
    assert added & {"dataclasses", "inspect", "ast", "dis", "tokenize"} == set()
