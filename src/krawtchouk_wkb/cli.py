"""Command-line front end for exact evaluation, asymptotic comparison, region
maps, figure-style sweeps, and the acceptance-check suite.

Subcommands
    eval     exact values on an (n, x) grid, rendered as decimal strings
    compare  exact vs. asymptotic values with windowed normalized error
    regions  classifier tag for every grid point (a region map)
    figures  one of the twelve built-in comparison sweeps by id (3..14)
    check    run the acceptance suite; exit 0 only if every criterion passes

All CSV output starts with ``#``-prefixed metadata lines (parameters, config,
tool version) and is deterministic for a fixed invocation: rows are ordered
n-major, x-minor, and no timestamps or environment details are emitted.
Exit codes: 0 success, 1 parse/domain error, 2 acceptance failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import fields, replace
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, get_type_hints

from . import __version__
from .accuracy import CRITERIA, FIGURES, TOLERANCES, norm_err, run_criterion
from .exact_core import DomainError, ExactTable, Params
from .region_formulas import ApproxValue, approx_row, evaluate_region
from .state_space import DEFAULT_CONFIG, REGION_TAGS, ClassifierConfig, classify_row, corner_coords
from .wkb_core import SingularityError

__all__ = ["load_config", "main"]


class CliError(Exception):
    """Invalid arguments, config, or domain inputs (exit code 1)."""


# ---------------------------------------------------------------------------
# Parsing and rendering helpers
# ---------------------------------------------------------------------------


def _int_at_least(lower: int) -> Callable[[str], int]:
    """Argument parser for integers >= lower, which is 1 (positive) or 0."""
    kind = "positive" if lower else "nonnegative"

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise CliError(f"expected an integer, got {text!r}")
        if value < lower:
            raise CliError(f"expected a {kind} integer, got {value}")
        return value

    return parse


_positive_int, _nonneg_int = _int_at_least(1), _int_at_least(0)


def _int_range(text: str) -> Tuple[int, int]:
    parts = text.split(":")
    if len(parts) != 2:
        raise CliError(f"expected a range a:b, got {text!r}")
    lo, hi = (_nonneg_int(part) for part in parts)
    if lo > hi:
        raise CliError(f"empty range {text!r}")
    return lo, hi


def render_fraction(value: Fraction, digits: int) -> str:
    """Decimal string of an exact rational at `digits` significant digits.

    Finite decimals shorter than the budget render exactly (so input decimal
    strings round-trip unchanged); everything else is correctly rounded.
    """
    if value == 0:
        return "0"
    if value.denominator == 1 and len(str(abs(value.numerator))) <= digits:
        return str(value.numerator)
    with localcontext() as ctx:
        ctx.prec = digits
        dec = Decimal(value.numerator) / Decimal(value.denominator)
    text = str(dec)
    if "E" not in text and "." in text:
        text = text.rstrip("0").rstrip(".")
    return text or "0"


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def load_config(path: str) -> Tuple[ClassifierConfig, Dict[str, float]]:
    """Parse a flat key=value config file.

    Keys matching ClassifierConfig fields override the classifier widths;
    the keys of ``accuracy.TOLERANCES`` override check tolerances; anything
    else is an error.
    """
    cfg_types = get_type_hints(ClassifierConfig)  # field name -> int or float
    overrides: Dict[str, object] = {}
    tolerances: Dict[str, float] = {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise CliError(f"cannot read config file {path}: {exc}")
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, text = line.partition("=")
        key, text = key.strip(), text.strip()
        if key in cfg_types:
            try:
                overrides[key] = cfg_types[key](text)
            except ValueError:
                raise CliError(f"{path}:{lineno}: bad value for {key}: {text!r}")
        elif key in TOLERANCES:
            try:
                tolerances[key] = float(text)
            except ValueError:
                raise CliError(f"{path}:{lineno}: bad value for {key}: {text!r}")
        else:
            raise CliError(f"{path}:{lineno}: unknown config key {key!r}")
    try:
        cfg = replace(DEFAULT_CONFIG, **overrides)
    except (TypeError, ValueError) as exc:
        raise CliError(f"invalid classifier config: {exc}")
    return cfg, tolerances


def _config_meta(cfg: ClassifierConfig) -> str:
    return ";".join(f"{f.name}={getattr(cfg, f.name)}" for f in fields(ClassifierConfig))


def _write_csv(
    out_path: Optional[str],
    meta: Sequence[Tuple[str, str]],
    header: Sequence[str],
    rows: Iterable[Sequence[str]],
) -> None:
    lines = [f"# {key}={value}" for key, value in meta]
    lines.append(",".join(header))
    lines.extend(",".join(row) for row in rows)
    text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _resolve_grid(args: argparse.Namespace, N: int) -> Tuple[List[int], List[int]]:
    """n and x lists from --n/--n-range/--x/--x-range, default full grid."""
    if getattr(args, "n", None) is not None:
        ns = [args.n]
    elif getattr(args, "n_range", None) is not None:
        ns = list(range(args.n_range[0], args.n_range[1] + 1))
    else:
        ns = list(range(0, N + 1))
    if getattr(args, "x", None) is not None:
        xs = [args.x]
    elif getattr(args, "x_range", None) is not None:
        xs = list(range(args.x_range[0], args.x_range[1] + 1))
    else:
        xs = list(range(0, N + 1))
    for name, values in (("n", ns), ("x", xs)):
        if values[0] < 0 or values[-1] > N:
            raise CliError(f"{name} range [{values[0]}, {values[-1]}] outside [0, {N}]")
    return ns, xs


def _base_meta(command: str, params: Params, q: str, digits: int) -> List[Tuple[str, str]]:
    return [
        ("tool", "krawtchouk-wkb"),
        ("version", __version__),
        ("command", command),
        ("N", str(params.N)),
        ("q", q),
        ("p", render_fraction(params.p, digits)),
        ("eps", render_fraction(Fraction(1, params.N), digits)),
    ]


# ---------------------------------------------------------------------------
# Subcommands: eval / compare / regions / figures
# ---------------------------------------------------------------------------


def cmd_eval(args: argparse.Namespace) -> int:
    params = Params.from_q(args.N, args.q)
    ns, xs = _resolve_grid(args, params.N)
    table = ExactTable(params)
    rows = []
    for n in ns:
        for x in xs:
            rows.append([str(x), str(n), str(params.N), render_fraction(table.value(n, x), args.digits)])
    meta = _base_meta("eval", params, args.q, args.digits)
    meta.append(("digits", str(args.digits)))
    _write_csv(args.out, meta, ["x", "n", "N", "exact"], rows)
    return 0


_COMPARE_HEADER = [
    "x", "n", "N", "region", "mirrored", "exact_sign", "exact_ln_mag",
    "approx_sign", "approx_ln_mag", "norm_err", "im_residue",
]


def _compare_rows(
    params: Params,
    table: ExactTable,
    ns: Sequence[int],
    xs: Sequence[int],
    cfg: ClassifierConfig,
    force_tag: Optional[str],
) -> List[List[str]]:
    rows: List[List[str]] = []
    # Forced-formula skips per exception class: [count, first x, first n, message].
    skipped: Dict[str, list] = {}
    N, sxs = str(params.N), [str(x) for x in xs]
    for n in ns:
        if force_tag is None:
            avs: List[Optional[ApproxValue]] = approx_row(n, xs, params, cfg)
        else:
            avs = []
            for x in xs:
                try:
                    avs.append(evaluate_region(force_tag, x, n, params))
                except (DomainError, SingularityError) as exc:
                    skipped.setdefault(type(exc).__name__, [0, x, n, str(exc)])[0] += 1
                    avs.append(None)
        sn = str(n)
        for x, sx, av in zip(xs, sxs, avs):
            exact = es, el = table.signed_log(n, x)
            if av is None:
                rows.append([sx, sn, N, force_tag, "0", str(es), _fmt(el), "", "", "", ""])
                continue
            asign = 0 if av.ln_scale == -math.inf else int(math.copysign(1.0, av.value))
            rows.append([
                sx, sn, N, av.region.tag, str(int(av.region.mirrored)), str(es), _fmt(el), str(asign),
                _fmt(av.ln_scale), f"{norm_err(av, table, n, x, exact):.9e}", f"{av.im_residue:.3e}",
            ])
    for name, (count, x, n, message) in skipped.items():
        print(
            f"compare --region {force_tag}: skipped {count} of {len(ns) * len(xs)} points "
            f"on {name}, first at (x, n) = ({x}, {n}): {message}",
            file=sys.stderr,
        )
    return rows


def cmd_compare(args: argparse.Namespace) -> int:
    params = Params.from_q(args.N, args.q)
    ns, xs = _resolve_grid(args, params.N)
    cfg = args.cfg
    table = ExactTable(params)
    rows = _compare_rows(params, table, ns, xs, cfg, args.region)
    meta = _base_meta("compare", params, args.q, args.digits)
    meta.append(("config", _config_meta(cfg)))
    if args.region:
        meta.append(("region_override", args.region))
    _write_csv(args.out, meta, _COMPARE_HEADER, rows)
    return 0


def cmd_regions(args: argparse.Namespace) -> int:
    params = Params.from_q(args.N, args.q)
    cfg = args.cfg
    rows = []
    xs = range(0, params.N + 1)
    for n in xs:
        sn = str(n)
        rows.extend([str(x), sn, rid.label] for x, rid in zip(xs, classify_row(n, xs, params, cfg)))
    meta = _base_meta("regions", params, args.q, 17)
    meta.append(("config", _config_meta(cfg)))
    _write_csv(args.out, meta, ["x", "n", "region"], rows)
    return 0


def cmd_figures(args: argparse.Namespace) -> int:
    spec = FIGURES.get(args.fig_id)
    if spec is None:
        raise CliError(f"unknown figure id {args.fig_id}; expected {min(FIGURES)}..{max(FIGURES)}")
    params = Params.from_q(spec.N, spec.q)
    cfg = args.cfg
    table = ExactTable(params)
    rows = _compare_rows(params, table, [spec.n], list(range(0, spec.N + 1)), cfg, None)
    meta = _base_meta("figures", params, spec.q, args.digits)
    meta.insert(3, ("figure", str(spec.fig_id)))
    meta.append(("n", str(spec.n)))
    meta.append(("region", spec.tag))
    meta.append(("config", _config_meta(cfg)))
    if spec.fig_id == 8:
        u = corner_coords(0, spec.n, params).u
        meta.append(("u", f"{u:.6f}"))
    _write_csv(args.out, meta, _COMPARE_HEADER, rows)
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    wanted = args.criteria if args.criteria else sorted(CRITERIA)
    all_passed = True
    for crit_id in wanted:
        result = run_criterion(crit_id, args.cfg, args.tolerances)
        all_passed &= result.passed
        print(result.line())
    if not all_passed:
        print("acceptance: FAIL")
        return 2
    print("acceptance: PASS")
    return 0


# ---------------------------------------------------------------------------
# Argument parser and entry point
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: D102 - argparse hook
        raise CliError(message)


def _criteria_list(text: str) -> List[int]:
    out = []
    for piece in text.split(","):
        value = _positive_int(piece.strip())
        if value not in CRITERIA:
            raise CliError(f"unknown criterion {value}; expected {min(CRITERIA)}..{max(CRITERIA)}")
        if value in out:
            raise CliError(f"criterion {value} listed twice")
        out.append(value)
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="krawtchouk-wkb", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"krawtchouk-wkb {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_grid_flags(p: argparse.ArgumentParser, with_region: bool) -> None:
        p.add_argument("--N", type=_positive_int, required=True, help="grid size (N >= 1)")
        p.add_argument("--q", required=True, help="success probability as a decimal string")
        ng = p.add_mutually_exclusive_group()
        ng.add_argument("--n", type=_nonneg_int, help="single degree")
        ng.add_argument("--n-range", type=_int_range, metavar="a:b", help="inclusive degree range")
        xg = p.add_mutually_exclusive_group()
        xg.add_argument("--x", type=_nonneg_int, help="single abscissa")
        xg.add_argument("--x-range", type=_int_range, metavar="a:b", help="inclusive abscissa range")
        if with_region:
            p.add_argument("--region", choices=REGION_TAGS,
                           help="force this region's formula at every grid point")
        p.add_argument("--config", help="key=value config file (classifier widths, tolerances)")
        p.add_argument("--out", help="output CSV path (default stdout)")
        p.add_argument("--digits", type=_positive_int, default=30,
                       help="significant digits for exact decimal output (default 30)")

    p_eval = sub.add_parser("eval", help="exact values on a grid")
    add_grid_flags(p_eval, with_region=False)
    p_eval.set_defaults(func=cmd_eval)

    p_cmp = sub.add_parser("compare", help="exact vs asymptotic with windowed error")
    add_grid_flags(p_cmp, with_region=True)
    p_cmp.set_defaults(func=cmd_compare)

    p_reg = sub.add_parser("regions", help="classifier tag for every (x, n)")
    p_reg.add_argument("--N", type=_positive_int, required=True)
    p_reg.add_argument("--q", required=True)
    p_reg.add_argument("--config", help="key=value config file")
    p_reg.add_argument("--out", help="output CSV path (default stdout)")
    p_reg.set_defaults(func=cmd_regions)

    p_fig = sub.add_parser("figures", help="built-in comparison sweep by figure id")
    p_fig.add_argument("fig_id", type=_positive_int, metavar="ID", help="figure id, 3..14")
    p_fig.add_argument("--config", help="key=value config file")
    p_fig.add_argument("--out", help="output CSV path (default stdout)")
    p_fig.add_argument("--digits", type=_positive_int, default=30)
    p_fig.set_defaults(func=cmd_figures)

    p_chk = sub.add_parser("check", help="run the acceptance suite")
    p_chk.add_argument("--config", help="key=value config file")
    p_chk.add_argument("--criteria", type=_criteria_list, metavar="LIST",
                       help="comma-separated subset of criteria to run (default all)")
    p_chk.set_defaults(func=cmd_check)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None):
            args.cfg, args.tolerances = load_config(args.config)
        else:
            args.cfg, args.tolerances = DEFAULT_CONFIG, {}
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DomainError, SingularityError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
