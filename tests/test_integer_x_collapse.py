"""The real kernels of III and V to XII against the paper's complex continuous-x forms.

The paper writes four of these formulas with a second term that is exactly
0 at integer x: V's carries sin(pi*x), VII's the winding factor w - 1 of
w = exp(2*pi*i*x), IX's the weight lambda_- = w - 1 of its Bi term, and
XII's a sin factor whose argument is pi*(N - x) on the grid.  The package
evaluates integer indices only, so its kernels keep the surviving term
alone, and every mantissa is a real float: the phases of V, VI, VIII, IX,
XI and XII are the signs (-1)^(x+n), (-1)^n, (-1)^n, (-1)^(x+n), (-1)^x and
(-1)^(N-x) that the indices fix, and the branch kernels III, VII and X take
the cosine of their accumulated phase.  The continuous-x forms are kept
here as complex references, written as the kernels once computed them from
a float x, a float phase argument snapped to the nearest integer by
:func:`_phase_factor`, the stretched coordinates, and (for VIII and IX) the
complex strip phase and slope of :func:`ref_strip_coeffs`:

* at every integer grid point of each formula's domain, in both
  orientations, the dropped term's weight is exactly 0, the reference's
  imaginary part is exactly 0, and the kernel's value equals the real part
  of the reference's by ``repr``;
* at half-integer x the dropped term is non-zero, so the references do
  carry the continuous-x term and the first check is not vacuous.
"""

import cmath
import math
from typing import Callable, NamedTuple, Optional

import pytest

from krawtchouk_wkb.exact_core import DomainError, Params
from krawtchouk_wkb.region_formulas import (
    _finalize, _sum_scaled, k3, k5, k6, k7, k8, k9, k10, k11, k12,
)
from krawtchouk_wkb.special_fns import RangeError, airy_ai, airy_bi, lambda_j, pcf_d
from krawtchouk_wkb.state_space import RegionId, Row, StripCoeffs, u0, y_pm
from krawtchouk_wkb.wkb_core import SingularityError, k_pm_logs, phi0, plog

GRIDS = [(N, q) for N in (20, 100) for q in ("0.34894783", "0.74894783")]
REFUSED = (DomainError, SingularityError, RangeError)
_SNAP = 1e-9

#: Half-integer points checked per orientation; lambda_j takes about 2 ms.
HALF_POINTS = 6


# ---------------------------------------------------------------------------
# The two-term references
# ---------------------------------------------------------------------------


def _sign(k: int) -> float:
    """(-1)^k."""
    return -1.0 if k % 2 else 1.0


# _phase_factor and _from_log are copied verbatim from the region formulas
# as they stood while their mantissas were complex.


def _phase_factor(t: float) -> complex:
    """exp(i*pi*t) snapped to exactly +-1 at integer t."""
    r = round(t)
    if abs(t - r) < _SNAP:
        return complex(_sign(r), 0.0)
    return cmath.exp(complex(0.0, math.pi * t))


def _from_log(lk: complex) -> tuple:
    """Split a log-space value into (unit-phase mantissa, real scale)."""
    return _phase_factor(lk.imag / math.pi), lk.real


def cospi(t):
    """cos(pi*t), exact at integer and half-integer t."""
    r = round(t)
    if abs(t - r) < _SNAP:
        return 1.0 if r % 2 == 0 else -1.0
    k = math.floor(t)
    if abs(t - k - 0.5) < _SNAP:
        return 0.0
    return math.cos(math.pi * t)


def sinpi(t):
    """sin(pi*t), exact at integer and half-integer t."""
    r = round(t)
    if abs(t - r) < _SNAP:
        return 0.0
    k = math.floor(t)
    if abs(t - k - 0.5) < _SNAP:
        return 1.0 if k % 2 == 0 else -1.0
    return math.sin(math.pi * t)


class Full(NamedTuple):
    """A two-term value: the scale-split total, the weight of the term the
    kernel drops, and that term's scale-split value (None at weight 0)."""

    total: tuple
    weight: complex
    dropped: Optional[tuple]


def branch_log(branch, y, params, row):
    """The branch log at (y, row.z), drawn from the row's loop."""
    return next(k_pm_logs(branch, (y,), row))


def ref_strip_coeffs(z, params):
    """The strip coefficients as they stood while psi0 and the slope were
    complex: psi0 carries the phase z*pi*i, plus i*pi*Y^- for z > p, where
    u0 - q is negative, and the slope -i*pi there."""
    p, q = params.pf, params.qf
    r = u0(z, params)
    ym = y_pm(z, params)[0]
    psi = complex(0.0, z * math.pi) + (z - 1.0) * plog(r) + ym * plog(r - q) + (1.0 - ym) * plog(r + p)
    return StripCoeffs(r, math.sqrt(r / z) / ((r + p) * (r - q)), psi, plog(r + p) - plog(r - q))


def ref_k3(y, params, row):
    """III: the minus branch alone; it has no dropped term."""
    return Full(_from_log(branch_log("-", y, params, row)), 0.0, None)


def ref_k5(x, z, params):
    p, q, N, eps = params.pf, params.qf, params.N, params.eps
    ph = _phase_factor(z * N)
    s1 = (0.5 * math.log(eps) - 0.5 * math.log(2.0 * math.pi * z * (1.0 - z))
          + phi0(z, params) * N + x * math.log((z - p) / p))
    terms = [(cospi(x) * ph, s1)]
    sn = sinpi(x)
    dropped = None
    if sn != 0.0:
        s2 = (math.log(eps / math.pi) + math.lgamma(x + 1.0)
              + x * math.log(q * eps / (z - p)) - math.log(z - p)
              + (z - 1.0) * math.log(q) * N)
        dropped = (-sn * ph, s2)
        terms.append(dropped)
    return Full(_sum_scaled(terms), sn, dropped)


def ref_k6(x, u, params):
    """VI with its oscillation factor exp[i*pi*(p/eps - u*sqrt(pq/eps))]
    formed from u; it has no dropped term.  pcf_d takes the integer order
    that x is on the grid."""
    p, q, N = params.pf, params.qf, params.N
    sign, ln_d = pcf_d(int(x), u)
    if sign == 0.0:
        return Full((0j, 0.0), 0.0, None)
    root_pqN = math.sqrt(p * q * N)
    s = (0.5 * math.log(params.eps) - 0.5 * math.log(2.0 * math.pi * p * q)
         + 0.5 * x * math.log(q * params.eps / p) - 0.25 * u * u
         + ln_d
         - q * math.log(q) * N - u * math.log(q) * root_pqN)
    return Full((sign * _phase_factor(p * N - u * root_pqN), s), 0.0, None)


def ref_k7(y, params, row):
    """Re{(w + 1)/2 K+ + (w - 1) K-}, w = exp(2*pi*i*y/eps); K- is drawn only
    at a non-zero weight, as it is singular at y = 0."""
    mp, sp = _from_log(branch_log("+", y, params, row))
    w = _phase_factor(2.0 * y * params.N)
    terms = [(0.5 * (w + 1.0) * mp, sp)]
    cm = w - 1.0
    dropped = None
    if cm != 0.0:
        mm, sm = _from_log(branch_log("-", y, params, row))
        dropped = (cm * mm, sm)
        terms.append(dropped)
    return Full(_sum_scaled(terms), cm, dropped)


def lambda_pm(beta, z, params):
    """(w + 1, w - 1) with w = exp(2*pi*i*winding), the winding snapped to an
    integer within 1e-9."""
    eps = params.eps
    winding = (y_pm(z, params)[0] - beta * eps ** (2.0 / 3.0)) / eps
    if abs(winding - round(winding)) < _SNAP:
        w = complex(1.0, 0.0)
    else:
        w = cmath.exp(complex(0.0, 2.0 * math.pi * winding))
    return w + 1.0, w - 1.0


def ref_k8(beta, z, params):
    """VIII with its phase exp(i*pi*t) formed from t = Im(psi0)*N/pi; it has
    no dropped term."""
    N, c = params.N, ref_strip_coeffs(z, params)
    ai = airy_ai(c.theta ** (2.0 / 3.0) * beta)
    if ai == 0.0:
        return Full((0j, 0.0), 0.0, None)
    s = (math.log(params.eps) / 3.0 + c.psi0.real * N
         + c.slope.real * beta * params.eps ** (-1.0 / 3.0)
         + math.log(abs(ai)) - math.log(c.theta) / 3.0
         - 0.5 * math.log(z * c.u0))
    return Full((math.copysign(1.0, ai) * _phase_factor(c.psi0.imag * N / math.pi), s), 0.0, None)


def ref_k9(beta, z, params):
    N, c = params.N, ref_strip_coeffs(z, params)
    vt = -c.theta
    arg = vt ** (2.0 / 3.0) * beta
    lam_p, lam_m = lambda_pm(beta, z, params)
    bracket = lam_p * airy_ai(arg)
    bi_term = None
    if lam_m != 0.0:
        bi_term = 1j * lam_m * airy_bi(arg)
        bracket += bi_term
    stretch = params.eps ** (-1.0 / 3.0)
    s = (math.log(params.eps) / 3.0 + c.psi0.real * N + c.slope.real * beta * stretch
         + math.log(0.5) - math.log(vt) / 3.0 - 0.5 * math.log(z * c.u0))
    ph = _phase_factor((c.psi0.imag * N + c.slope.imag * beta * stretch) / math.pi)
    total = (0j, 0.0) if bracket == 0.0 else (ph * bracket, s)
    return Full(total, lam_m, None if bi_term is None else (ph * bi_term, s))


def ref_k10(y, params, row):
    """X as the sum K+ + K- of the two branches; it has no dropped term."""
    terms = [_from_log(branch_log(branch, y, params, row)) for branch in ("+", "-")]
    return Full(_sum_scaled(terms), 0.0, None)


def ref_k11(j, y, params):
    """XI with its first term's phase cos(pi*y*N) formed from y; it has no
    dropped term."""
    p, q, N = params.pf, params.qf, params.N
    xf = y * N
    x = round(xf)
    sign_qy = 1.0 if y < q else -1.0
    s1 = (math.log(math.comb(N, j)) + (N - j) * math.log(p)
          + xf * math.log(q / p) + j * (math.log(abs(q - y)) - math.log(q)))
    m1 = (-1.0 if (N - j) % 2 else 1.0) * cospi(xf) * (sign_qy if j % 2 else 1.0)
    terms = [(complex(m1, 0.0), s1)]
    if x >= N - j and y < 1.0:
        c2 = math.comb(x, N - j)
        if c2:
            s2 = math.log(c2) + (j + 1) * (math.log1p(-y) - math.log(abs(q - y)))
            terms.append((complex(sign_qy if (j + 1) % 2 else 1.0, 0.0), s2))
    return Full(_sum_scaled(terms), 0.0, None)


def ref_k12(j, xi, params):
    p, q, N = params.pf, params.qf, params.N
    root = xi * math.sqrt(2.0 * p * q * N)
    t = p * N - root
    s_common = ((p * math.log(p) + q * math.log(q)) * N + root * math.log(q / p)
                - 0.5 * j * math.log(p * q * params.eps) + 0.5 * xi * xi)
    terms = []
    cs = cospi(t)
    if cs != 0.0:
        sign, ln_d = pcf_d(j, math.sqrt(2.0) * xi)
        if sign != 0.0:
            terms.append((complex(sign * cs, 0.0), s_common + ln_d - math.lgamma(j + 1)))
    sn = sinpi(t)
    dropped = None
    if sn != 0.0:
        dropped = (0j, 0.0)
        lam = lambda_j(j, xi)
        if lam != 0.0:
            dropped = (complex(-math.copysign(1.0, lam) * sn, 0.0),
                       s_common + math.log(abs(lam)) - 0.5 * math.log(2.0 * math.pi))
            terms.append(dropped)
    return Full(_sum_scaled(terms), sn, dropped)


# ---------------------------------------------------------------------------
# The kernel and the reference at one point
# ---------------------------------------------------------------------------


class Case(NamedTuple):
    kernel: Callable
    reference: Callable


def strip_beta(x, z, params):
    """beta = (Y^-(z) - y) / eps^(2/3) at a real x; the kernel's beta at integer x."""
    return (y_pm(z, params)[0] - x * params.eps) / params.eps ** (2.0 / 3.0)


def corner_xi(x, params):
    """xi = (y - q) / sqrt(2 p q eps) at a real x; the kernel's xi at integer x."""
    return (x * params.eps - params.qf) / math.sqrt(2.0 * params.pf * params.qf * params.eps)


def run(kernel, xs, n, row):
    """The pairs a kernel appends for the points of xs on ``row``; a refused
    point raises."""
    out = []
    kernel(xs, n, row, out)
    return out


def case(tag, x, n, params, row):
    """The tag's (kernel, reference) at (x, n); x may be a half-integer, and
    then only the reference may be called."""
    z = row.z
    if tag == "III":
        return Case(lambda: run(k3, [x], n, row)[0], lambda: ref_k3(x * params.eps, params, row))
    if tag == "V":
        return Case(lambda: run(k5, [x], n, row)[0], lambda: ref_k5(float(x), z, params))
    if tag == "VI":
        u = (params.pf - z) / math.sqrt(params.pf * params.qf * params.eps)
        return Case(lambda: run(k6, [x], n, row)[0], lambda: ref_k6(float(x), u, params))
    if tag == "VII":
        return Case(lambda: run(k7, [x], n, row)[0], lambda: ref_k7(x * params.eps, params, row))
    if tag in ("VIII", "IX"):
        # Y^-(z) needs z > 0: on row 0 the kernel refuses the point first.
        if tag == "VIII":
            return Case(lambda: run(k8, [x], n, row)[0], lambda: ref_k8(strip_beta(x, z, params), z, params))
        return Case(lambda: run(k9, [x], n, row)[0], lambda: ref_k9(strip_beta(x, z, params), z, params))
    if tag == "X":
        return Case(lambda: run(k10, [x], n, row)[0], lambda: ref_k10(x * params.eps, params, row))
    if tag == "XI":
        return Case(lambda: run(k11, [x], n, row)[0], lambda: ref_k11(params.N - n, x * params.eps, params))
    return Case(lambda: run(k12, [x], n, row)[0], lambda: ref_k12(params.N - n, corner_xi(x, params), params))


def orientations(N, q):
    params = Params.from_q(N, q)
    return (params, params.swapped())


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("N, q", GRIDS)
@pytest.mark.parametrize("tag", ["III", "V", "VI", "VII", "VIII", "IX", "X", "XI", "XII"])
def test_dropped_term_is_zero_and_kernel_equals_reference_on_grid(tag, N, q):
    rid = RegionId(tag)
    evaluated = 0
    for params in orientations(N, q):
        for n in range(N + 1):
            row = Row(n * params.eps, params)
            for x in range(N + 1):
                kr = case(tag, x, n, params, row)
                try:
                    got = kr.kernel()
                except REFUSED:
                    continue
                ref = kr.reference()
                assert ref.weight == 0.0 and ref.dropped is None, (x, n)
                m, s = ref.total
                assert type(got[0]) is float and m.imag == 0.0, (x, n)
                assert repr(_finalize(*got, rid)) == repr(_finalize(m.real, s, rid)), (x, n)
                evaluated += 1
    assert evaluated > 0


@pytest.mark.parametrize("N, q", GRIDS)
@pytest.mark.parametrize("tag", ["V", "VII", "IX", "XII"])
def test_dropped_term_is_nonzero_at_half_integer_x(tag, N, q):
    # Midway between two grid points the kernel accepts, where the
    # reference's special functions are in range (airy_bi and lambda_j
    # refuse large arguments and orders).
    for params in orientations(N, q):
        checked = 0
        for n in range(N + 1):
            row = Row(n * params.eps, params)
            for x in range(N):
                if checked == HALF_POINTS:
                    break
                try:
                    for end in (x, x + 1):
                        case(tag, end, n, params, row).kernel()
                    ref = case(tag, x + 0.5, n, params, row).reference()
                except REFUSED:
                    continue
                assert ref.weight != 0.0, (x, n)
                assert ref.dropped is not None and ref.dropped[0] != 0.0, (x, n)
                checked += 1
        assert checked > 0
