"""The package's module boundaries: no module of ``src/krawtchouk_wkb``
imports an underscore name from a sibling, so each name that crosses a
module boundary is public there (dunders such as ``__version__`` aside)."""

import ast
from pathlib import Path

import krawtchouk_wkb

SRC = Path(krawtchouk_wkb.__file__).parent


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
