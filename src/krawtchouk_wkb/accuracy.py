"""Accuracy of the asymptotics against the exact values: the windowed error
metric, the twelve built-in figure sweeps, and the seven acceptance criteria
that the ``check`` subcommand and the test suite run through
:func:`run_criterion`.  Each criterion returns ``(failures, detail)``: its
failure messages in the order found, and the measured detail a passing line
reports.
"""

from __future__ import annotations

import cmath
import math
import time
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from .exact_core import (
    DomainError,
    ExactRow,
    Params,
    check_index,
    check_indices,
    gram_matrix,
    lemma3_value,
    scaled_sum,
    scaled_symmetry_image,
)
from .region_formulas import ApproxValue, approx_row, evaluate_region
from .special_fns import airy_ai, hermite, pcf_d
from .state_space import (
    DEFAULT_CONFIG,
    ClassifierConfig,
    Row,
    branch_roots,
    classify_row,
    region_runs,
)
from .wkb_core import branch_terms, k_pm_logs, plog

__all__ = [
    "norm_err",
    "norm_err_row",
    "formula_gap",
    "FigureSpec",
    "FIGURES",
    "figure_sweep",
    "CheckResult",
    "CRITERIA",
    "run_criterion",
]


# ---------------------------------------------------------------------------
# The windowed error metric
# ---------------------------------------------------------------------------


def norm_err_row(avs: Sequence[ApproxValue], row: ExactRow, xs: Sequence[int]) -> List[float]:
    """|approx - exact| / windowed envelope at each (x, n) of the row, x in
    xs, with avs[i] the value at xs[i], computed overflow-free: both values
    are rescaled by the envelope's log before subtracting, so the metric is
    exact even when |K| is far outside double range.  An approximation too
    large to rescale into double range gives ``inf``, and a window of exact
    zeros ``nan``.  A count of values other than that of xs raises DomainError."""
    if len(avs) != len(xs):
        raise DomainError(f"{len(avs)} approximations for {len(xs)} points")
    check_indices("x", xs, row.params.N)
    signs, logs, env = row.signs, row.logs, row.env
    out = []
    for av, x in zip(avs, xs):
        env_log = env[x]
        if env_log == -math.inf:
            out.append(math.nan)
            continue
        exact_scaled = signs[x] * math.exp(logs[x] - env_log)  # 0.0 at an exact zero
        try:
            approx_scaled = (0.0 if av.ln_scale == -math.inf
                             else math.copysign(1.0, av.value) * math.exp(av.ln_scale - env_log))
        except OverflowError:
            approx_scaled = math.inf  # beyond double range, so the metric is inf
        out.append(abs(approx_scaled - exact_scaled))
    return out


def norm_err(av: ApproxValue, table, n: int, x: int) -> float:
    """The one-point case of :func:`norm_err_row`, with row n read from
    ``table.row(n)``."""
    return norm_err_row([av], table.row(n), [x])[0]


def formula_gap(a: ApproxValue, b: ApproxValue, row: ExactRow, x: int) -> float:
    """|a - b| / windowed exact envelope at (x, n) of the row (the overlap
    metric); inf past double range."""
    check_index("x", x, row.params.N)
    env_log = row.env[x]
    try:
        sa = math.copysign(1.0, a.value) * math.exp(a.ln_scale - env_log)
        sb = math.copysign(1.0, b.value) * math.exp(b.ln_scale - env_log)
    except OverflowError:
        return math.inf
    return abs(sa - sb)


# ---------------------------------------------------------------------------
# Built-in figure sweeps
# ---------------------------------------------------------------------------


class FigureSpec(NamedTuple):
    """Parameters of one built-in comparison sweep."""

    fig_id: int
    N: int
    q: str
    n: int
    tag: str
    #: per-figure error budget on windowed normalized error at in-region x
    bar: float


#: The three success probabilities the figures and criteria use.
_Q34, _Q64, _Q74 = "0.34894783", "0.64894783", "0.74894783"

FIGURES: Dict[int, FigureSpec] = {
    3: FigureSpec(3, 100, _Q64, 2, "I", 0.05),
    4: FigureSpec(4, 100, _Q64, 2, "II", 0.05),
    5: FigureSpec(5, 100, _Q34, 10, "III", 0.05),
    6: FigureSpec(6, 100, _Q34, 10, "IV", 0.05),
    7: FigureSpec(7, 100, _Q74, 80, "V", 0.05),
    8: FigureSpec(8, 100, _Q74, 25, "VI", 0.05),
    9: FigureSpec(9, 40, _Q74, 35, "VII", 0.08),
    10: FigureSpec(10, 100, _Q34, 10, "VIII", 0.08),
    11: FigureSpec(11, 50, _Q74, 40, "IX", 0.08),
    12: FigureSpec(12, 50, _Q74, 40, "X", 0.08),
    13: FigureSpec(13, 20, _Q74, 19, "XI", 0.10),
    14: FigureSpec(14, 20, _Q74, 20, "XII", 0.10),
}


def figure_sweep(spec: FigureSpec, cfg: ClassifierConfig) -> Tuple[float, int, int]:
    """(worst windowed error, its x, in-region point count) for one figure."""
    params = Params.from_q(spec.N, spec.q)
    every_x = range(0, spec.N + 1)
    xs = [x for x, rid in zip(every_x, classify_row(spec.n, every_x, params, cfg)) if rid.tag == spec.tag]
    worst, worst_x = 0.0, -1
    for x, err in zip(xs, norm_err_row(approx_row(spec.n, xs, params, cfg), ExactRow(spec.n, params), xs)):
        if err > worst or math.isnan(err):  # a NaN error stays the worst
            worst, worst_x = err, x
    return worst, worst_x, len(xs)


# ---------------------------------------------------------------------------
# Acceptance criteria (shared by `check` and the test suite)
# ---------------------------------------------------------------------------

#: A failing line names this many failures, then counts the rest.
_SHOWN_FAILURES = 4

_Outcome = Tuple[List[str], str]


class CheckResult(NamedTuple):
    crit_id: int
    name: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        """The one-line report ``check`` prints for this criterion."""
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  criterion-{self.crit_id} {self.name} ({self.seconds:.1f}s): {self.detail}"


def criterion_1(cfg: ClassifierConfig) -> _Outcome:
    """Exact-oracle identities, each an integer equality on denom-scaled values, N in {10, 25, 40}."""
    failures: List[str] = []
    for N in (10, 25, 40):
        params = Params.from_q(N, _Q64)
        ap, aq, b = params.p_num, params.q_num, params.denom
        records = [ExactRow(n, params) for n in range(N + 1)]
        rows = [record.nums for record in records]
        for n, row in enumerate(rows):
            for x in range(N + 1):
                if row[x] != scaled_sum(n, x, params):
                    failures.append(f"N={N}: recurrence!=sum at (n={n},x={x})")
        gram = gram_matrix(records)  # entry (i, j) scaled by denom**(i+j+N)
        for i in range(N + 1):
            for j in range(N + 1):
                expect = math.comb(N, j) * (ap * aq) ** j * b**N if i == j else 0
                if gram[i][j] != expect:
                    failures.append(f"N={N}: orthogonality fails at (i={i},j={j})")
        for n, row in enumerate(rows):
            for x in range(N + 1):
                if row[x] != scaled_symmetry_image(n, x, params):
                    failures.append(f"N={N}: symmetry fails at (n={n},x={x})")
        for n in range(N + 1):
            if rows[n][0] != math.comb(N, n) * (-ap) ** n:
                failures.append(f"N={N}: left boundary fails at n={n}")
            if rows[n][N] != math.comb(N, n) * aq**n:
                failures.append(f"N={N}: right boundary fails at n={n}")
            if rows[0][n] != 1:
                failures.append(f"N={N}: degree-0 row fails at x={n}")
            if rows[N][n] != aq**n * (-ap) ** (N - n):
                failures.append(f"N={N}: degree-N row fails at x={n}")
        for m in (0, 1):
            for n in range(N + 1):
                envelope = lemma3_value(m, n, params)
                if rows[n][m] == 0:
                    if abs(envelope) > 1e-12:
                        failures.append(f"N={N}: envelope m={m} n={n} nonzero at exact zero")
                    continue
                es, el = records[n].signs[m], records[n].logs[m]
                rel = abs(envelope - es * math.exp(el)) / math.exp(el)
                if rel > 1e-9:
                    failures.append(f"N={N}: envelope m={m} n={n} rel={rel:.2e}")
    return failures, (
        "recurrence=sum, orthogonality, symmetry, boundaries, small-x envelope all exact for N in {10,25,40}"
    )


def criterion_2(cfg: ClassifierConfig) -> _Outcome:
    """Figure sweeps: each figure's windowed error within its own ``bar``."""
    failures: List[str] = []
    details: List[str] = []
    for fig_id, spec in sorted(FIGURES.items()):
        worst, worst_x, count = figure_sweep(spec, cfg)
        details.append(f"fig{fig_id:02d}:{worst*100:.2f}%@x={worst_x}")
        if count == 0:
            failures.append(f"fig{fig_id}: no in-region points under config")
        elif not worst <= spec.bar:
            failures.append(f"fig{fig_id}: worst {worst*100:.2f}% > {spec.bar*100:g}% at x={worst_x}")
    params = Params.from_q(FIGURES[8].N, FIGURES[8].q)
    u = Row.at(FIGURES[8].n, params).u
    if abs(u - 0.024265) > 5e-6:
        failures.append(f"fig8 corner variable {u:.6f} != 0.024265 to 5 decimals")
    return failures, " ".join(details)


#: Fixed interior scaled points for the convergence check: (region tag, y, z).
_CONVERGENCE_POINTS = (("III", 0.05, 0.10), ("IV", 0.95, 0.10), ("X", 0.35, 0.50))

#: The largest err(400) / err(100) the convergence check accepts.
_CONVERGENCE_FACTOR = 0.6


def criterion_3(cfg: ClassifierConfig) -> _Outcome:
    """Windowed error at fixed interior points shrinks: err(400) <= factor * err(100)."""
    failures: List[str] = []
    details: List[str] = []
    for tag, y, z in _CONVERGENCE_POINTS:
        errs = {}
        for N in (100, 400):
            params = Params.from_q(N, _Q64)
            x, n = round(y * N), round(z * N)
            av = approx_row(n, [x], params, cfg)[0]
            if av.region.tag != tag:
                failures.append(f"{tag}: point (y={y},z={z}) classified {av.region.label} at N={N}")
            errs[N] = norm_err_row([av], ExactRow(n, params), [x])[0]
        details.append(f"{tag}: {errs[100]*100:.3f}%->{errs[400]*100:.3f}%")
        if not errs[400] <= _CONVERGENCE_FACTOR * errs[100]:
            failures.append(
                f"{tag}: err(400)={errs[400]:.4e} > {_CONVERGENCE_FACTOR} * err(100)={errs[100]:.4e}"
            )
    return failures, " ".join(details)


#: Overlap probes, one line per formula pair: (tag_a, tag_b, q, loci at
#: N=100, loci at N=200), each locus an (n, xs) pair.  Loci were chosen by
#: direct measurement against the exact tables: each pair is probed across a
#: phase-covering window of its shared strip, and corner pairs sit at |u| ~ 2
#: with x = 0 where both forms are individually accurate.  xs of None is the
#: IX/X window (see _beta_window), taken at three z values.  The N=200 loci
#: are measured too, not a rescaling of the N=100 ones: III-VIII spans beta
#: 0.32..1.18 at N=100 but 0.51..1.36 at N=200, and V-VI spans u
#: -2.28..-1.82 against -2.25..-1.92.
_OVERLAPS = (
    ("III", "VIII", _Q34, [(10, range(28, 33))], [(20, range(59, 65))]),
    ("VIII", "X", _Q34, [(10, range(35, 40))], [(20, range(71, 78))]),
    ("IX", "X", _Q74, [(n, None) for n in (75, 80, 85)], [(n, None) for n in (150, 160, 170)]),
    ("VII", "IX", _Q74, [(80, range(22, 30))], [(160, range(49, 59))]),
    ("V", "VI", _Q74, [(n, range(4)) for n in (33, 34, 35)], [(n, range(4)) for n in (62, 63, 64)]),
    ("VI", "III", _Q74, [(16, [0]), (17, [0])], [(37, [0]), (38, [0])]),
    ("X", "XII", _Q64, [(90, range(60, 70))], [(190, range(125, 135))]),
    ("VII", "V", _Q74, [(80, range(7, 11))], [(160, range(7, 11))]),
)

#: The largest windowed gap at N=100 that an overlap pair accepts.
_OVERLAP_BAR = 0.15


def _beta_window(params: Params, n: int) -> range:
    """The x on row n with beta in [-1.35, -0.70], sampling the IX/X oscillation."""
    N = params.N
    row = Row.at(n, params)
    ym_scaled, width = row.curves[0] * N, row.eps23 * N
    return range(math.ceil(ym_scaled + 0.70 * width), math.floor(ym_scaled + 1.35 * width) + 1)


def _raised(av: Union[ApproxValue, Exception]) -> ApproxValue:
    """A forced point's value, or its error raised."""
    if isinstance(av, Exception):
        raise av
    return av


def _worst_gap(tag_a: str, tag_b: str, q: str, N: int,
               loci: Sequence[Tuple[int, Optional[Sequence[int]]]]) -> float:
    params, worst = Params.from_q(N, q), 0.0
    for n, xs in loci:
        row, xs = ExactRow(n, params), _beta_window(params, n) if xs is None else xs
        for x, a, b in zip(xs, evaluate_region(tag_a, n, xs, params), evaluate_region(tag_b, n, xs, params)):
            worst = max(worst, formula_gap(_raised(a), _raised(b), row, x))
    return worst


def criterion_4(cfg: ClassifierConfig) -> _Outcome:
    """Adjacent formulas agree in shared strips and the gap shrinks with eps."""
    failures: List[str] = []
    details: List[str] = []
    reachable: Dict[str, set] = {}
    for tag_a, tag_b, q, loci_full, loci_half in _OVERLAPS:
        name = f"{tag_a}-{tag_b}"
        # A config that removes a region from the N=100 map makes the pair's
        # matching claim vacuous, so the pair fails rather than comparing
        # formulas no point is routed to.
        if q not in reachable:
            params = Params.from_q(100, q)
            reachable[q] = {rid.tag for n in range(101) for _, _, rid in region_runs(n, params, cfg)}
        missing = [tag for tag in (tag_a, tag_b) if tag not in reachable[q]]
        if missing:
            failures.append(f"{name}: region {missing[0]} never assigned by the classifier under this config")
            continue
        gap_full = _worst_gap(tag_a, tag_b, q, 100, loci_full)
        gap_half = _worst_gap(tag_a, tag_b, q, 200, loci_half)
        details.append(f"{name}:{gap_full*100:.2f}%->{gap_half*100:.2f}%")
        if gap_full > _OVERLAP_BAR:
            failures.append(f"{name}: gap {gap_full*100:.2f}% > {_OVERLAP_BAR*100:g}%")
        if not gap_half < gap_full:
            failures.append(
                f"{name}: gap did not shrink ({gap_full*100:.2f}% -> {gap_half*100:.2f}%)"
            )
    return failures, " ".join(details)


def criterion_5(cfg: ClassifierConfig) -> _Outcome:
    """At integer x VII is Re(K+), and ``evaluate_region("VII")`` and ``k_pm_logs("+")``
    read the same log K+: the kernel's real finishing of it (``_from_log``, then
    ``_finalize``) must match Re(exp(log K+)) to 1e-12 relative."""
    failures: List[str] = []
    params = Params.from_q(100, _Q74)
    xs = (10, 14, 19, 23, 26)
    logs = k_pm_logs("+", [x * params.eps for x in xs], Row(80 * params.eps, params))
    for x, k7_val, log_plus in zip(xs, map(_raised, evaluate_region("VII", 80, xs, params)), logs):
        plus = cmath.exp(log_plus).real
        rel = abs(k7_val.value - plus) / abs(plus)
        if rel > 1e-12:
            failures.append(f"VII != Re(K+) at x={x}: rel={rel:.2e}")
    return failures, "VII's real finishing of log K+ = Re(exp(log K+)) to 1e-12"


def criterion_6(cfg: ClassifierConfig) -> _Outcome:
    """Phase/amplitude residuals of the underlying expansion equations."""
    failures: List[str] = []
    params = Params.from_q(100, _Q74)
    p = params.pf
    grid = 200
    mids = [(i + 0.5) / grid for i in range(grid)]
    worst_res = 0.0
    for z in mids:
        row = Row(z, params)
        zqp, c = row.zqp, row.c  # z(q-p) and pq(1-z) > 0
        for y in mids:
            b = p - y + zqp
            for root in branch_roots(y, row):  # u_pm's solver, given the row
                quad, lin = z * root * root, b * root
                worst_res = max(worst_res, abs(quad + lin + c) / max(abs(quad), abs(lin), c))
    if worst_res > 1e-10:
        failures.append(f"branch-root residual {worst_res:.2e} > 1e-10")

    def terms(branch: str, y: float, z: float, params: Params) -> Tuple[complex, complex]:
        return next(branch_terms(branch, (y,), Row(z, params)))

    def branch_root(branch: str, y: float, z: float, params: Params) -> complex:
        # branch_roots returns (minus, plus): the branch sign picks the index.
        return branch_roots(y, Row(z, params))[branch == "+"]

    worst_order = float("inf")
    for branch, y, z in (("-", 0.2, 0.3), ("+", 0.2, 0.75), ("+", 0.45, 0.5)):
        target = plog(branch_root(branch, y, z, params))
        errs = []
        for h in (1e-3, 1e-4):
            dpsi = (terms(branch, y, z + h, params)[0] - terms(branch, y, z - h, params)[0]) / (2.0 * h)
            errs.append(abs(dpsi - target))
        order = math.log(errs[0] / errs[1]) / math.log(10.0)
        worst_order = min(worst_order, order)
    if worst_order < 1.9:
        failures.append(f"phase-gradient FD order {worst_order:.2f} < 1.9")
    worst_transport = 0.0
    transport_pts = (
        ("-", 0.20, 0.75, _Q74),
        ("+", 0.20, 0.75, _Q74),
        ("-", 0.45, 0.50, _Q34),
        ("+", 0.45, 0.50, _Q34),
        ("+", 0.95, 0.10, _Q34),
        ("-", 0.95, 0.10, _Q34),
    )
    h = 1e-5
    for branch, y, z, qs in transport_pts:
        tp = Params.from_q(100, qs)
        tpf, tqf = tp.pf, tp.qf
        root = branch_root(branch, y, z, tp)
        amp_z = (terms(branch, y, z + h, tp)[1] - terms(branch, y, z - h, tp)[1]) / (2.0 * h)
        root_z = (branch_root(branch, y, z + h, tp) - branch_root(branch, y, z - h, tp)) / (2.0 * h)
        amp = terms(branch, y, z, tp)[1]
        t1 = (z * root * root - tpf * tqf * (1.0 - z)) * amp_z
        t2 = (0.5 * (z * root * root + tpf * tqf * (1.0 - z)) * (root_z / root) + root * root + tpf * tqf) * amp
        worst_transport = max(worst_transport, abs(t1 + t2) / max(abs(t1), abs(t2)))
    if worst_transport > 1e-4:
        failures.append(f"amplitude-equation residual {worst_transport:.2e} > 1e-4")
    return failures, (
        f"branch-root residual {worst_res:.1e}; FD order {worst_order:.2f}; "
        f"amplitude residual {worst_transport:.1e}"
    )


def criterion_7(cfg: ClassifierConfig) -> _Outcome:
    """Anchors of the special functions the grid calls: cylinder/Hermite, Airy."""
    failures: List[str] = []
    for n in range(11):
        x = 1.9
        h_sign, ln_h = hermite(n, x / math.sqrt(2))
        d_sign, ln_d = pcf_d(n, x)
        if d_sign != h_sign or abs(ln_d - (ln_h - n / 2 * math.log(2) - x * x / 4)) > 1e-10:
            failures.append(f"cylinder/Hermite identity fails at n={n}")
    x = 8.0
    rhs = x ** (-0.25) * math.exp(-2 / 3 * x**1.5) / (2 * math.sqrt(math.pi))
    if abs(airy_ai(x) / rhs - 1) > 0.01:
        failures.append("Airy decay anchor out of tolerance")
    amp = x ** (-0.25) / math.sqrt(math.pi)
    rhs = amp * math.sin(2 / 3 * x**1.5 + math.pi / 4)
    if abs(airy_ai(-x) - rhs) > 0.02 * amp:
        failures.append("Airy oscillation anchor out of tolerance")
    return failures, "cylinder/Hermite identity and Airy anchors in bounds"


CRITERIA: Dict[int, Tuple[str, Callable[[ClassifierConfig], _Outcome]]] = {
    1: ("exact-oracle identities", criterion_1),
    2: ("figure reproduction", criterion_2),
    3: ("convergence order", criterion_3),
    4: ("matching overlaps", criterion_4),
    5: ("integer-x identities", criterion_5),
    6: ("expansion residuals", criterion_6),
    7: ("special-function anchors", criterion_7),
}


def run_criterion(crit_id: int, cfg: ClassifierConfig = DEFAULT_CONFIG) -> CheckResult:
    """Run one criterion under `cfg`.

    A failing result's detail names the first failures, in the order found,
    and counts the rest.
    """
    name, check = CRITERIA[crit_id]
    start = time.monotonic()
    failures, detail = check(cfg)
    if failures:
        more = len(failures) - _SHOWN_FAILURES
        detail = "; ".join(failures[:_SHOWN_FAILURES]) + (f" (+{more} more)" if more > 0 else "")
    return CheckResult(crit_id, name, not failures, detail, time.monotonic() - start)
