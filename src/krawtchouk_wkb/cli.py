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
Exit codes: 0 success, 1 parse, domain or output error, 2 acceptance failure.
"""

from __future__ import annotations

import argparse
import contextlib
import marshal
import math
import os
import sys
from decimal import Decimal
from typing import (BinaryIO, Callable, Dict, Generator, Iterable, Iterator, List, Optional, Sequence, Tuple,
                    TypeVar)

from . import __version__
from .accuracy import CRITERIA, FIGURES, norm_err_row, run_criterion
from .exact_core import DomainError, ExactRow, Params, SingularityError, exact_row
from .region_formulas import ApproxValue, approx_row, evaluate_region
from .state_space import DEFAULT_CONFIG, REGION_TAGS, ClassifierConfig, Row, region_runs

__all__ = ["load_config", "main"]

_Task = TypeVar("_Task")


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


_LOG10_2 = math.log10(2.0)


def render_ratio(num: int, den: int, digits: int) -> str:
    """Decimal string of the exact rational num/den (den > 0) at `digits`
    significant digits.

    Finite decimals shorter than the budget render exactly (so input decimal
    strings round-trip unchanged); everything else is correctly rounded.
    The fraction need not be in lowest terms: the quotient is the same.
    """
    if num % den == 0 and abs(num // den) < 10**digits:  # str() of it may pass int's digit limit
        return str(num // den)
    # The Decimal that Decimal(num) / Decimal(den) gives at precision
    # `digits`, built from a short coefficient: converting eval's operands,
    # thousands of digits long, to Decimal is quadratic in their length.
    # 10**shift * |num| / den is at least 10**digits, from the bit lengths.
    mag = abs(num)
    shift = digits + 1 - math.floor((mag.bit_length() - den.bit_length() - 1) * _LOG10_2)
    if shift >= 0:
        coeff, rem = divmod(mag * 10**shift, den)
    else:
        coeff, rem = divmod(mag, den * 10**-shift)
    exp = -shift
    if not rem:  # an exact quotient keeps no trailing zero below the units
        while exp < 0 and coeff % 10 == 0:
            coeff //= 10
            exp += 1
    drop = len(str(coeff)) - digits
    if drop > 0:  # round half-even; a nonzero remainder lies past the tie
        coeff, tail = divmod(coeff, 10**drop)
        half = 5 * 10 ** (drop - 1)
        if tail > half or (tail == half and (rem or coeff % 2)):
            coeff += 1
            if coeff == 10**digits:
                coeff //= 10
                exp += 1
        exp += drop
    text = str(Decimal(f"{'-' if num < 0 else ''}{coeff}E{exp}"))
    if "E" not in text and "." in text:
        text = text.rstrip("0").rstrip(".")
    return text or "0"


def load_config(path: str) -> ClassifierConfig:
    """Parse a flat key=value config file of ClassifierConfig fields, each
    set at most once; anything else is an error."""
    cfg_types = {name: type(value) for name, value in DEFAULT_CONFIG._field_defaults.items()}  # int or float
    overrides: Dict[str, object] = {}
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
        if key not in cfg_types:
            raise CliError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in overrides:
            raise CliError(f"{path}:{lineno}: {key} set twice")
        try:
            overrides[key] = cfg_types[key](text)
        except ValueError:
            raise CliError(f"{path}:{lineno}: bad value for {key}: {text!r}")
    try:
        return DEFAULT_CONFIG._replace(**overrides)
    except (TypeError, ValueError) as exc:
        raise CliError(f"invalid classifier config: {exc}")


def _config_meta(cfg: ClassifierConfig) -> str:
    return ";".join(f"{name}={value}" for name, value in zip(cfg._fields, cfg))


def _write_csv(out_path: Optional[str], meta: Sequence[Tuple[str, str]],
               header: Sequence[str], rows: Generator[str, None, None]) -> None:
    """Write the metadata and header, then each row's text as it is produced;
    rows is closed on the way out, on an error too."""
    with open(out_path, "w", encoding="utf-8") if out_path else contextlib.nullcontext(sys.stdout) as out, \
            contextlib.closing(rows):
        out.write("".join(f"# {key}={value}\n" for key, value in meta) + ",".join(header) + "\n")
        for text in rows:
            out.write(text + "\n")


def _resolve_grid(args: argparse.Namespace, N: int) -> Tuple[List[int], List[int]]:
    """n and x lists from --n/--n-range/--x/--x-range, default full grid."""
    grid = []
    for name in ("n", "x"):
        one = getattr(args, name, None)
        lo, hi = (one, one) if one is not None else getattr(args, f"{name}_range", None) or (0, N)
        if lo < 0 or hi > N:
            raise CliError(f"{name} range [{lo}, {hi}] outside [0, {N}]")
        grid.append(list(range(lo, hi + 1)))
    return grid[0], grid[1]


def _base_meta(command: str, params: Params, q: str, digits: int = 30) -> List[Tuple[str, str]]:
    return [
        ("tool", "krawtchouk-wkb"),
        ("version", __version__),
        ("command", command),
        ("N", str(params.N)),
        ("q", q),
        ("p", render_ratio(params.p_num, params.denom, digits)),
        ("eps", render_ratio(1, params.N, digits)),
    ]


# ---------------------------------------------------------------------------
# Subcommands: eval / compare / regions / figures
# ---------------------------------------------------------------------------


def cmd_eval(args: argparse.Namespace) -> int:
    params = Params.from_q(args.N, args.q)
    ns, xs = _resolve_grid(args, params.N)
    meta = _base_meta("eval", params, args.q, args.digits)
    meta.append(("digits", str(args.digits)))
    rows = ("\n".join(f"{x},{n},{params.N},{render_ratio(nums[x], den, args.digits)}" for x in xs)
            for n in ns for nums, den in [(exact_row(n, params), params.denom**n)])
    _write_csv(args.out, meta, ["x", "n", "N", "exact"], rows)
    return 0


_COMPARE_HEADER = [
    "x", "n", "N", "region", "mirrored", "exact_sign", "exact_ln_mag",
    "approx_sign", "approx_ln_mag", "norm_err", "im_residue",
]

#: One data line of compare: a single %-format per line is measurably
#: faster than an f-string, or a join, of the fields.  im_residue is 0.0 as
#: %.3e prints it, since every approximation is real; perfbench's
#: workloads.COMPARE_HEADER requires the column until ROADMAP items 1 and 2.
_COMPARE_LINE = "%d,%d,%d,%s,%d,%d,%.12g,%d,%.12g,%.9e,0.000e+00"


#: Rows per task when compare's rows run in forked children (_in_children).
_BLOCK_ROWS = 16


def _compare_row(params: Params, n: int, xs: Sequence[int], cfg: ClassifierConfig,
                 force_tag: Optional[str]) -> Tuple[str, Dict[str, list]]:
    """Row n's lines as one text, read against the row's one exact record, and
    a forced run's skips on it: [count, first x, n, message] per exception class."""
    skipped: Dict[str, list] = {}
    N = params.N
    if force_tag is None:
        avs: List[Optional[ApproxValue]] = approx_row(n, xs, params, cfg)
    else:
        avs = evaluate_region(force_tag, n, xs, params)
        for i, (x, av) in enumerate(zip(xs, avs)):
            if isinstance(av, Exception):
                skipped.setdefault(type(av).__name__, [0, x, n, str(av)])[0] += 1
                avs[i] = None
    row = ExactRow(n, params)
    live = [(x, av) for x, av in zip(xs, avs) if av is not None]
    errs = iter(norm_err_row([av for _, av in live], row, [x for x, _ in live]))
    signs, logs = row.signs, row.logs
    lines = []
    for x, av in zip(xs, avs):
        es = signs[x]
        if av is None:
            lines.append("%d,%d,%d,%s,0,%d,%.12g,,,," % (x, n, N, force_tag, es, logs[x]))
            continue
        value, rid, ln_scale = av
        asign = 0 if ln_scale == -math.inf else int(math.copysign(1.0, value))
        lines.append(_COMPARE_LINE % (x, n, N, rid.tag, rid.mirrored, es, logs[x], asign,
                                      ln_scale, next(errs)))
    return "\n".join(lines), skipped


def _compare_rows(params: Params, ns: Sequence[int], xs: Sequence[int],
                  cfg: ClassifierConfig, force_tag: Optional[str]) -> Iterator[str]:
    """Each row's lines as one text, in row order; a forced run's skip lines
    go to stderr after the last row.

    The rows run in blocks of _BLOCK_ROWS, on forked children where there
    are several blocks and usable CPUs (_in_children).
    """
    skipped: Dict[str, list] = {}  # the rows' skips merged: each class's count and first point
    blocks = [ns[i:i + _BLOCK_ROWS] for i in range(0, len(ns), _BLOCK_ROWS)]
    records = _in_children(blocks, lambda block: (_compare_row(params, n, xs, cfg, force_tag) for n in block),
                           _usable_cpus(), lambda block: f"rows n = {block[0]}..{block[-1]}")
    with contextlib.closing(records):
        for text, row_skips in records:
            for name, (count, *first) in row_skips.items():
                skipped.setdefault(name, [0, *first])[0] += count
            yield text
    for name, (count, x, n, message) in skipped.items():
        print(
            f"compare --region {force_tag}: skipped {count} of {len(ns) * len(xs)} points "
            f"on {name}, first at (x, n) = ({x}, {n}): {message}",
            file=sys.stderr,
        )


def cmd_compare(args: argparse.Namespace) -> int:
    params = Params.from_q(args.N, args.q)
    ns, xs = _resolve_grid(args, params.N)
    meta = _base_meta("compare", params, args.q)
    meta.append(("config", _config_meta(args.cfg)))
    if args.region:
        meta.append(("region_override", args.region))
    _write_csv(args.out, meta, _COMPARE_HEADER, _compare_rows(params, ns, xs, args.cfg, args.region))
    return 0


def cmd_regions(args: argparse.Namespace) -> int:
    params = Params.from_q(args.N, args.q)
    xs = [str(x) for x in range(params.N + 1)]
    meta = _base_meta("regions", params, args.q, 17)
    meta.append(("config", _config_meta(args.cfg)))

    def rows() -> Iterator[str]:
        for n in range(params.N + 1):
            for start, stop, rid in region_runs(n, params, args.cfg):
                tail = ",%d,%s" % (n, rid.label)  # one string per run: each x text, then the tail
                yield (tail + "\n").join(xs[start:stop]) + tail

    _write_csv(args.out, meta, ["x", "n", "region"], rows())
    return 0


def cmd_figures(args: argparse.Namespace) -> int:
    spec = FIGURES.get(args.fig_id)
    if spec is None:
        raise CliError(f"unknown figure id {args.fig_id}; expected {min(FIGURES)}..{max(FIGURES)}")
    params = Params.from_q(spec.N, spec.q)
    meta = _base_meta("figures", params, spec.q)
    meta.insert(3, ("figure", str(spec.fig_id)))
    meta.append(("n", str(spec.n)))
    meta.append(("region", spec.tag))
    meta.append(("config", _config_meta(args.cfg)))
    if spec.fig_id == 8:
        meta.append(("u", f"{Row.at(spec.n, params).u:.6f}"))
    rows = _compare_rows(params, [spec.n], list(range(0, spec.N + 1)), args.cfg, None)
    _write_csv(args.out, meta, _COMPARE_HEADER, rows)
    return 0


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return os.cpu_count() or 1


def _outcome(crit_id: int, cfg: ClassifierConfig) -> Tuple[bool, str]:
    """A criterion's (passed, line)."""
    result = run_criterion(crit_id, cfg)
    return result.passed, result.line()


def _start_on_own_cpu(index: int) -> None:
    """Move this process to the index-th usable CPU, then let it run on any.

    Left alone, the scheduler can keep a forked child on its parent's CPU
    for the whole of a short run, beside the other children.
    """
    if hasattr(os, "sched_setaffinity"):
        cpus = sorted(os.sched_getaffinity(0))
        with contextlib.suppress(OSError):
            os.sched_setaffinity(0, {cpus[index % len(cpus)]})
            os.sched_setaffinity(0, cpus)


def _send_records(out: BinaryIO, tasks: Sequence[_Task], work: Callable[[_Task], Iterable[object]]) -> None:
    """A child's side: one marshalled (records, raised) per task, where raised
    is None or the pickled exception the task raised after those records.

    Each task's object leaves once the task is done.  A pipe holds far less
    than a block of compare rows, so a child that sent each record at once
    would wait on the parent instead of going on to its next task.
    """
    for task in tasks:
        records: List[object] = []
        try:
            for record in work(task):
                records.append(record)
        except Exception as exc:
            import pickle  # only for an exception, which marshal does not carry

            marshal.dump((records, pickle.dumps(exc)), out)
            return
        marshal.dump((records, None), out)
        out.flush()


def _in_children(tasks: Sequence[_Task], work: Callable[[_Task], Iterable[object]], workers: int,
                 label: Callable[[_Task], str]) -> Iterator[object]:
    """Each record that work(task) yields, task after task in the order given.

    With two or more tasks and workers, W = min(workers, len(tasks))
    processes forked from this one share the tasks: child w runs tasks w,
    w + W, w + 2W, ... and sends each task's records over a pipe of its
    own as one marshalled object, so this process holds one task's records
    at a time.  Otherwise, or where os.fork is missing, the tasks run here
    one after another.  A record is any value marshal carries: here tuples,
    lists and dicts of str, int and bool.  An exception a task raised is
    raised here in its turn, after the records before it, and so is a child
    that ends without finishing a task.  Every child is reaped before this
    generator ends; one whose records are no longer wanted is killed first.
    """
    workers = min(workers, len(tasks))
    if workers < 2 or not hasattr(os, "fork"):
        for task in tasks:
            yield from work(task)
        return
    sys.stdout.flush()  # so no child inherits pending output
    sys.stderr.flush()
    pids: List[int] = []
    readers: List[BinaryIO] = []  # each child's read end, in the order forked
    finished = False
    try:
        for index in range(workers):
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                # The child ends with os._exit, so it never flushes the stdio
                # buffers it inherited and never runs this process's exit hooks.
                try:
                    # With no read end left here, a parent that stops reading
                    # breaks this child's pipe instead of leaving it blocked.
                    for reader in readers:
                        reader.close()
                    os.close(read_fd)
                    _start_on_own_cpu(index)
                    with open(write_fd, "wb") as out:
                        _send_records(out, tasks[index::workers], work)
                finally:
                    os._exit(0)
            # Closed here right after the fork, the child's is the only write
            # end: no later child holds it, and the child's exit is its end.
            os.close(write_fd)
            pids.append(pid)
            readers.append(open(read_fd, "rb"))
        for index, task in enumerate(tasks):
            try:
                records, raised = marshal.load(readers[index % workers])
            except EOFError:
                raise CliError(f"{label(task)}: its worker ended without a result") from None
            yield from records
            if raised is not None:
                import pickle

                raise pickle.loads(raised)
        finished = True
    finally:
        # A child still writing when its read end closes fails and ends; one
        # still computing would finish its task first, so it is killed.
        for reader in readers:
            reader.close()
        if not finished:
            import signal

            for pid in pids:  # not yet reaped, so the pid is still this child's
                os.kill(pid, signal.SIGKILL)
        for pid in pids:
            os.waitpid(pid, 0)


def cmd_check(args: argparse.Namespace) -> int:
    """Print each wanted criterion's line in the order wanted.

    With more than one usable CPU, every criterion starts at once in a
    child of its own (_in_children).
    """
    wanted = args.criteria if args.criteria else sorted(CRITERIA)
    outcomes = _in_children(wanted, lambda crit_id: [_outcome(crit_id, args.cfg)],
                            len(wanted) if _usable_cpus() > 1 else 1, lambda crit_id: f"criterion {crit_id}")
    all_passed = True
    with contextlib.closing(outcomes):
        for passed, line in outcomes:
            all_passed &= passed
            print(line)
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
    with_config = argparse.ArgumentParser(add_help=False)
    with_config.add_argument("--config", help="key=value config file of classifier widths")

    def add_grid_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--N", type=_positive_int, required=True, help="grid size (N >= 1)")
        p.add_argument("--q", required=True, help="success probability as a decimal string")
        ng = p.add_mutually_exclusive_group()
        ng.add_argument("--n", type=_nonneg_int, help="single degree")
        ng.add_argument("--n-range", type=_int_range, metavar="a:b", help="inclusive degree range")
        xg = p.add_mutually_exclusive_group()
        xg.add_argument("--x", type=_nonneg_int, help="single abscissa")
        xg.add_argument("--x-range", type=_int_range, metavar="a:b", help="inclusive abscissa range")
        p.add_argument("--out", help="output CSV path (default stdout)")

    p_eval = sub.add_parser("eval", help="exact values on a grid")
    add_grid_flags(p_eval)
    p_eval.add_argument("--digits", type=_positive_int, default=30,
                        help="significant digits for exact decimal output (default 30)")
    p_eval.set_defaults(func=cmd_eval)

    p_cmp = sub.add_parser("compare", parents=[with_config],
                           help="exact vs asymptotic with windowed error")
    add_grid_flags(p_cmp)
    p_cmp.add_argument("--region", choices=REGION_TAGS, help="force this region's formula at every grid point")
    p_cmp.set_defaults(func=cmd_compare)

    p_reg = sub.add_parser("regions", parents=[with_config], help="classifier tag for every (x, n)")
    p_reg.add_argument("--N", type=_positive_int, required=True)
    p_reg.add_argument("--q", required=True)
    p_reg.add_argument("--out", help="output CSV path (default stdout)")
    p_reg.set_defaults(func=cmd_regions)

    p_fig = sub.add_parser("figures", parents=[with_config],
                           help="built-in comparison sweep by figure id")
    p_fig.add_argument("fig_id", type=_positive_int, metavar="ID", help="figure id, 3..14")
    p_fig.add_argument("--out", help="output CSV path (default stdout)")
    p_fig.set_defaults(func=cmd_figures)

    p_chk = sub.add_parser("check", parents=[with_config], help="run the acceptance suite")
    p_chk.add_argument("--criteria", type=_criteria_list, metavar="LIST",
                       help="comma-separated subset of criteria to run (default all)")
    p_chk.set_defaults(func=cmd_check)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args.cfg = load_config(args.config) if getattr(args, "config", None) else DEFAULT_CONFIG
        return args.func(args)
    except BrokenPipeError:  # the reader left: send the flush at exit to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (CliError, DomainError, SingularityError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
