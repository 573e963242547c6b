"""Final asymptotic approximations for each of the twelve regions.

The formulas ``k1`` ... ``k12`` are kernels: each returns the scale-split
pair ``(mantissa, scale)`` for ``mantissa * exp(scale)``, with a real signed
O(1) mantissa and a real scale that absorbs everything growing like N, so
sums of exponentially mismatched terms and values beyond double range are
handled uniformly.  Region IV has no kernel of its own: it is III on the
reflected grid.

Each kernel takes a run of the row it serves: its x values, the integer n
and the :class:`.state_space.Row` at height z = n*eps in the orientation
being evaluated, from which it reads the shared z-only terms and the
stretched coordinates (eta, u, beta, xi), and the list it appends one pair
per x to, in x order.  A point it refuses raises after the pairs before it
are appended, so the list's length names that point.  It solves its own
x-independent terms once, before its loop over the run, and regroups no
sum, so a run has the bits of its points taken one at a time; the branch
kernels (III and IV, VII, X) draw the run from one branch-log loop.  The
paper writes its formulas for continuous x, and the package keeps only what
survives at integer x: V, VII, IX and XII lose a second term (a sin(pi*x) factor, a
winding factor w - 1 or a weight lambda_-) that is exactly 0 there, and
every phase factor is real: those of V, VI, VIII, IX, XI and XII are the
signs (-1)^(x+n), (-1)^n, (-1)^n, (-1)^(x+n), (-1)^x and (-1)^(N-x), taken
from the indices, and each branch kernel takes the cosine of its accumulated
phase.  So the integer-x algebraic identities hold exactly instead of to
rounding, and the branch logarithms of :mod:`.wkb_core` are the only complex
arithmetic on the evaluation path.

One dispatcher calls the kernels, once per run, and turns their values into
:class:`ApproxValue` records: a real approximation to the polynomial value
at one grid point, together with the region it came from and the
log-magnitude for overflow-free reporting.  It applies the mirror symmetry
(evaluate at (N-x, n) with p and q swapped, multiply by (-1)^n) to mirrored
regions, so the classifier's mirrored points and a forced IV take one path.
:func:`approx_row` classifies a row and evaluates it a run of one label at
a time, from one record per orientation; it is total on the grid, z = p
included, and :func:`approx` is its one-point case.  :func:`evaluate_region`
forces one region's formula on a row's whole run, resumes it after each
refused point, and returns each point's value or error.
"""

from __future__ import annotations

import math
from itertools import groupby
from operator import itemgetter
from typing import Iterator, List, NamedTuple, Sequence, Tuple

from .exact_core import DomainError, Params, SingularityError, check_index, check_indices
from .special_fns import airy_ai, hermite, pcf_d
from .state_space import DEFAULT_CONFIG, ClassifierConfig, RegionId, Row
from .wkb_core import k_pm_logs, phi0

__all__ = ["ApproxValue", "approx", "approx_row", "evaluate_region"]

#: exp() arguments beyond these act as overflow/underflow in doubles.
_EXP_MAX = 709.0
_EXP_MIN = -745.0

_Scaled = Tuple[float, float]


class ApproxValue(NamedTuple):
    """One asymptotic evaluation.

    value is the real approximation (may be +-0.0 or +-inf when the true
    magnitude leaves double range; sign and ln_scale stay meaningful).
    region records which formula produced the value, and ln_scale is
    ln|value| (-inf for an exact zero), valid even when value overflows.
    """

    value: float
    region: RegionId
    ln_scale: float


def _sign(k: int) -> float:
    """(-1)^k."""
    return -1.0 if k % 2 else 1.0


def _from_log(lk: complex) -> _Scaled:
    """Split a log-space value into (the real part of its unit phase, real scale)."""
    # cos(pi * t) with t = Im/pi, not cos(Im): the round trip through t is the
    # rounding every pinned output was made with (cos(Im) moves last digits).
    return math.cos(math.pi * (lk.imag / math.pi)), lk.real


def _sum_scaled(terms: List[_Scaled]) -> _Scaled:
    """Add scale-split terms on the largest scale; vastly smaller terms underflow to 0."""
    live = [(m, s) for m, s in terms if m != 0.0]
    if not live:
        return 0.0, 0.0
    smax = max(s for _, s in live)
    total = 0.0
    for m, s in live:
        d = s - smax
        if d > _EXP_MIN:
            total += m * math.exp(d)
    return total, smax


def _signed_exp(sign_carrier: float, ln_mag: float) -> float:
    """sign(sign_carrier) * exp(ln_mag) with saturation instead of OverflowError."""
    if ln_mag > _EXP_MAX:
        return math.copysign(math.inf, sign_carrier)
    return math.copysign(math.exp(ln_mag), sign_carrier)


def _finalize(m: float, s: float, region: RegionId) -> ApproxValue:
    if m == 0.0:
        return ApproxValue(0.0, region, -math.inf)
    ln_scale = s + math.log(abs(m))
    return ApproxValue(_signed_exp(m, ln_scale), region, ln_scale)


# ---------------------------------------------------------------------------
# The twelve formulas
# ---------------------------------------------------------------------------


def k1(xs: Sequence[int], n: int, row: Row, out: List[_Scaled]) -> None:
    """Bottom rows away from the center: (y - p)^n / (n! eps^n)."""
    if n == 0:
        out.extend([(1.0, 0.0)] * len(xs))
        return
    params = row.params
    ln_eps, ln_fact = math.log(params.eps), math.lgamma(n + 1)
    for x in xs:
        d = x * params.eps - params.pf
        out.append((0.0, 0.0) if d == 0.0 else
                   (_sign(n) if d < 0.0 else 1.0, n * (math.log(abs(d)) - ln_eps) - ln_fact))


def k2(xs: Sequence[int], n: int, row: Row, out: List[_Scaled]) -> None:
    """Bottom-center corner: scaled Hermite polynomial in the corner variable."""
    params = row.params
    p, q = params.pf, params.qf
    head = 0.5 * n * (math.log(p * q / 2.0) - math.log(params.eps)) - math.lgamma(n + 1)
    out.extend((sign, head + ln_h) for sign, ln_h in (hermite(n, row.eta(x)) for x in xs))


def _branch_logs(branch: str, xs: Sequence[int], row: Row,
                 lo: float, hi: float, where: str) -> Iterator[_Scaled]:
    """The scale-split branch contribution at each x of xs on ``row``; each
    y = x*eps is refused, before its contribution is solved, unless lo < y < hi."""
    eps = row.params.eps
    logs = k_pm_logs(branch, (x * eps for x in xs), row)
    for y in (x * eps for x in xs):
        if not lo < y < hi:
            raise DomainError(f"point (y={y!r}, z={row.z!r}) is not {where}")
        yield _from_log(next(logs))


def k3(xs: Sequence[int], n: int, row: Row, out: List[_Scaled]) -> None:
    """Lower-left exterior (III): the minus branch alone, alternating like (-1)^n.

    Its reflection is IV, right of the upper curve up to z = q.  Above those
    heights the exterior is the interference wedge: VII on the left, and by
    the mirror VII* on the right.
    """
    if not 0.0 < row.z < row.params.pf:
        raise DomainError(
            "single-branch exterior formula requires 0 < z < p (z < q for IV, "
            f"its reflection), got z={row.z!r}"
        )
    where = "left of the lower turning curve (for IV: right of the upper one, on the reflected grid)"
    out.extend(_branch_logs("-", xs, row, -math.inf, row.curves[0], where))


def k5(xs: Sequence[int], n: int, row: Row, out: List[_Scaled]) -> None:
    """Left edge above the crossover, small x: the cos(pi*x) term of the
    paper's explicit two-term form, whose phase cos(pi*x) exp(i*pi*z/eps) is
    (-1)^(x+n) on the grid.

    The other term carries sin(pi*x), which is exactly 0 at integer x.
    """
    params, z = row.params, row.z
    p, N = params.pf, params.N
    if z == p:
        raise SingularityError("z = p is the corner layer; use the corner formula")
    if not p < z < 1.0:
        raise DomainError(f"left-edge formula requires p < z < 1, got z={z!r}")
    head = (0.5 * math.log(params.eps) - 0.5 * math.log(2.0 * math.pi * z * (1.0 - z))
            + phi0(z, params) * N)
    ln_ratio = math.log((z - p) / p)
    out.extend([(_sign(x + n), head + x * ln_ratio) for x in xs])


def k6(xs: Sequence[int], n: int, row: Row, out: List[_Scaled]) -> None:
    """Left-edge corner at the crossover: parabolic-cylinder profile in u."""
    params, u = row.params, row.u
    p, q, N = params.pf, params.qf, params.N
    root_pqN = math.sqrt(p * q * N)
    head = 0.5 * math.log(params.eps) - 0.5 * math.log(2.0 * math.pi * p * q)
    ln_ratio, quad = math.log(q * params.eps / p), 0.25 * u * u
    tail1, tail2 = q * math.log(q) * N, u * math.log(q) * root_pqN
    # The oscillation factor exp[i*pi*(p/eps - u*sqrt(pq/eps))] is (-1)^n on the grid.
    for x in xs:
        sign, ln_d = pcf_d(x, u)
        out.append((sign * _sign(n), head + 0.5 * x * ln_ratio - quad + ln_d - tail1 - tail2))


def k7(xs: Sequence[int], n: int, row: Row, out: List[_Scaled]) -> None:
    """Upper-left exterior: the plus branch K+ of the paper's interference form.

    The paper's value is Re{ (w + 1)/2 * K+ + (w - 1) * K- } with
    w = exp(2*pi*i*y/eps).  At integer x, w = 1 exactly, so the weight of the
    dominant minus branch is 0 and K+ is all that remains.
    """
    if row.z <= row.params.pf:
        raise DomainError(f"interference formula requires z > p, got z={row.z!r}")
    out.extend(_branch_logs("+", xs, row, -math.inf, row.curves[0], "left of the lower turning curve"))


def k8(xs: Sequence[int], n: int, row: Row, out: List[_Scaled]) -> None:
    """Lower turning strip: Airy profile across the curve (z < p).  The
    paper's phase exp(i*pi*z*N) is the sign (-1)^n, taken from the indices."""
    params, z = row.params, row.z
    p, N = params.pf, params.N
    if z == p:
        raise SingularityError("strip coefficient diverges at z = p")
    if not 0.0 < z < p:
        raise DomainError(f"lower-strip formula requires 0 < z < p, got z={z!r}")
    c = row.strip
    theta23, stretch = c.theta ** (2.0 / 3.0), params.eps ** (-1.0 / 3.0)
    head = math.log(params.eps) / 3.0 + c.psi0 * N
    ln_theta3, ln_zu0 = math.log(c.theta) / 3.0, 0.5 * math.log(z * c.u0)
    for x in xs:
        beta = row.beta(x)
        ai = airy_ai(theta23 * beta)
        out.append((0.0, 0.0) if ai == 0.0 else (math.copysign(1.0, ai) * _sign(n),
                   head + c.slope * beta * stretch + math.log(abs(ai)) - ln_theta3 - ln_zu0))


def k9(xs: Sequence[int], n: int, row: Row, out: List[_Scaled]) -> None:
    """Upper turning strip (z > p): the 2*Ai term of the paper's Airy pair.

    The paper weights Ai by lambda_+ = w + 1 and i*Bi by lambda_- = w - 1,
    with w = exp(2*pi*i*x); at integer x, w = 1, so the weights are (2, 0).
    The paper's phase exp(i*pi*(z + y)*N) is the sign (-1)^(n+x), taken from
    the indices.
    """
    params, z = row.params, row.z
    p, N = params.pf, params.N
    if z == p:
        raise SingularityError("strip coefficient diverges at z = p")
    if not p < z < 1.0:
        raise DomainError(f"upper-strip formula requires p < z < 1, got z={z!r}")
    c = row.strip
    vt = -c.theta
    vt23, stretch = vt ** (2.0 / 3.0), params.eps ** (-1.0 / 3.0)
    head = math.log(params.eps) / 3.0 + c.psi0 * N
    ln_half, ln_vt3, ln_zu0 = math.log(0.5), math.log(vt) / 3.0, 0.5 * math.log(z * c.u0)
    for x in xs:
        beta = row.beta(x)
        bracket = 2.0 * airy_ai(vt23 * beta)
        out.append((0.0, 0.0) if bracket == 0.0 else (_sign(n + x) * bracket,
                   head + c.slope * beta * stretch + ln_half - ln_vt3 - ln_zu0))


def k10(xs: Sequence[int], n: int, row: Row, out: List[_Scaled]) -> None:
    """Oscillatory interior: sum of the two conjugate branches, 2 Re K+.

    Inside the ellipse the branch roots are exact complex conjugates, so
    k_pm_log("-") is the conjugate of k_pm_log("+") to the last bit and the
    sum is formed from the plus branch alone.
    """
    out.extend((2.0 * m, s) for m, s in _branch_logs("+", xs, row, *row.curves, "between the turning curves"))


def k11(xs: Sequence[int], n: int, row: Row, out: List[_Scaled]) -> None:
    """Top rows (n = N - j for small j): two combinatorial terms.  The first
    term's phase cos(pi*y*N) is (-1)^x on the grid.

    The second term has binomial support x >= N - j and vanishes outside it.
    """
    params = row.params
    p, q, N = params.pf, params.qf, params.N
    j = N - n
    head = math.log(math.comb(N, j)) + n * math.log(p)
    ln_qp, ln_q = math.log(q / p), math.log(q)
    for x in xs:
        y = x * params.eps
        if not 0.0 <= y <= 1.0:
            raise DomainError(f"y={y} outside the unit interval")
        if y == q:
            raise SingularityError("y = q is the top corner layer; use the corner formula")
        sign_qy = 1.0 if y < q else -1.0
        s1 = head + y * N * ln_qp + j * (math.log(abs(q - y)) - ln_q)
        m1 = _sign(n + x) * (sign_qy if j % 2 else 1.0)
        terms = [(m1, s1)]
        if x >= n and y < 1.0:
            c2 = math.comb(x, n)
            if c2:
                s2 = math.log(c2) + (j + 1) * (math.log1p(-y) - math.log(abs(q - y)))
                m2 = sign_qy if (j + 1) % 2 else 1.0
                terms.append((m2, s2))
        out.append(_sum_scaled(terms))


def k12(xs: Sequence[int], n: int, row: Row, out: List[_Scaled]) -> None:
    """Top corner: the D_j term of the paper's parabolic-cylinder profile in
    the corner variable xi, whose cos factor is (-1)^(N - x) on the grid.

    The paper's other term is Lambda_j times a sin factor whose argument
    reduces to pi*(N - x) at integer x, so it is exactly 0 on the grid.
    """
    params = row.params
    p, q, N = params.pf, params.qf, params.N
    j = N - n
    root_2pqN, ln_qp = math.sqrt(2.0 * p * q * N), math.log(q / p)
    head = (p * math.log(p) + q * math.log(q)) * N
    half_j_ln, ln_fact = 0.5 * j * math.log(p * q * params.eps), math.lgamma(j + 1)
    for x in xs:
        xi = row.xi(x)
        sign, ln_d = pcf_d(j, math.sqrt(2.0) * xi)
        out.append((sign * _sign(N - x),
                    head + xi * root_2pqN * ln_qp - half_j_ln + 0.5 * xi * xi + ln_d - ln_fact))


# ---------------------------------------------------------------------------
# Dispatcher
# ---------------------------------------------------------------------------


#: Each region's kernel; IV is III on the reflected grid.
_KERNELS = {"I": k1, "II": k2, "III": k3, "IV": k3, "V": k5, "VI": k6, "VII": k7,
            "VIII": k8, "IX": k9, "X": k10, "XI": k11, "XII": k12}

def _evaluate(rid: RegionId, xs: Sequence[int], n: int, row: Row, out: list) -> None:
    """Append to ``out`` region ``rid``'s value, labelled ``rid``, at each
    (x, n), x in xs, of ``row``: the one call of a kernel, once per run, on
    both paths.  The indices are checked already.  A point the kernel
    refuses raises after the values before it are appended, so ``len(out)``
    names it.  A mirrored region (IV always, as III) is evaluated at
    (N - x, n) on the row's mirror, p and q exchanged, with its sign
    multiplied by (-1)^n; its xs come as the N - x, oriented once."""
    pairs: List[_Scaled] = []
    try:
        _KERNELS[rid.tag](xs, n, row.mirror if rid.mirrored else row, pairs)
    finally:
        flip = rid.mirrored and n % 2
        out.extend([_finalize(-m if flip else m, s, rid) for m, s in pairs])


def evaluate_region(tag: str, n: int, xs: Sequence[int], params: Params) -> list:
    """One region's formula at each (x, n), x in xs, bypassing the classifier,
    from one record of the row: its ApproxValue, or the DomainError or
    SingularityError the formula raised there.  The run is evaluated at
    once; after a refused point, the rest of it is.  IV is III on the
    reflected grid; an unknown tag or a bad index raises DomainError."""
    rid = RegionId(tag, mirrored=tag == "IV")
    check_index("n", n, params.N)
    check_indices("x", xs, params.N)
    if rid.mirrored:
        xs = [params.N - x for x in xs]
    row, out = Row.at(n, params), []
    while len(out) < len(xs):
        try:
            _evaluate(rid, xs[len(out):], n, row, out)
        except (DomainError, SingularityError) as exc:
            out.append(exc.with_traceback(None))  # its frames would hold the run
    return out


def approx_row(n: int, xs: Sequence[int], params: Params,
               cfg: ClassifierConfig = DEFAULT_CONFIG) -> List[ApproxValue]:
    """Classify each point (x, n), x in xs, and evaluate the matching formula,
    labelled with the classifier's region.  Each run of points with one label
    is evaluated at once, and the classifier and the formulas read one record
    per orientation.  The first failing point in xs order raises."""
    check_index("n", n, params.N)
    check_indices("x", xs, params.N)
    row, N = Row.at(n, params), params.N
    out: List[ApproxValue] = []
    for rid, run in groupby(zip(xs, row.regions(n, xs, cfg)), itemgetter(1)):
        run_xs = [x for x, _ in run]
        _evaluate(rid, [N - x for x in run_xs] if rid.mirrored else run_xs, n, row, out)
    return out


def approx(x: int, n: int, params: Params,
           cfg: ClassifierConfig = DEFAULT_CONFIG) -> ApproxValue:
    """Classify (x, n) and evaluate the matching regional formula: the
    one-point case of :func:`approx_row`."""
    return approx_row(n, [x], params, cfg)[0]
