"""Special functions needed by the asymptotic region formulas.

Everything that ``approx`` evaluates on the integer grid runs in machine
floats:

* ``hermite`` and ``pcf_d`` (an ``int`` order and a real argument only, the
  corner layers' uses at integer x) return ``(sign, ln|value|)``, and
  ``(0.0, -inf)`` at an exact zero such as D_2(1), so no order or finite
  argument leaves their range.  Each runs its three-term recurrence in
  floats, divided by a power of two whenever it grows past 2^500.
* ``airy_ai`` sums a Taylor series re-centred at the nearest integer node
  for |x| <= 8.5, seeded with tabulated Ai and Ai' at the node, and the
  standard asymptotic expansions (DLMF 9.7.5, 9.7.9) beyond.

mpmath (30-40 decimal digits, returned as machine floats) remains for
``airy_bi`` and ``lambda_j``, which no command calls: their terms are
exactly 0 at integer x, and the checks anchor neither.  It is imported
inside those two functions, so no command ever loads it.  Everything here
is pure and reentrant.
"""

from __future__ import annotations

import decimal
import math
import sys
from typing import Tuple

from .exact_core import DomainError

__all__ = [
    "RangeError",
    "NonConvergenceError",
    "ResidueError",
    "hermite",
    "airy_ai",
    "airy_bi",
    "pcf_d",
    "lambda_j",
]

_AIRY_DPS = 30
_PCF_DPS = 40

_LAMBDA_J_MAX = 30
_LAMBDA_XI_MAX = 8.0

#: (Ai(c), Ai'(c)) at the Taylor nodes c = -8, -7, ..., 8, each rounded to
#: the nearest double; printed by tests/_oracle_gen/gen_airy_nodes.py.
_AI_NODES = (
    (-0.0527050503563862, 0.9355609381983065),
    (0.18428083525050565, -0.7710081684101265),
    (-0.3291451736298231, 0.3459354872813429),
    (0.35076100902411433, 0.32719281855444315),
    (-0.07026553294928951, -0.7906285753685813),
    (-0.37881429367765806, 0.3145837692165988),
    (0.22740742820168558, 0.618259020741691),
    (0.5355608832923521, -0.01016056711664521),
    (0.3550280538878172, -0.2588194037928068),
    (0.13529241631288141, -0.1591474412967932),
    (0.03492413042327438, -0.05309038443365363),
    (0.006591139357460719, -0.011912976705951319),
    (0.0009515638512048018, -0.001958640950204179),
    (0.00010834442813607442, -0.0002474138908684625),
    (9.947694360252889e-06, -2.4765200397034955e-05),
    (7.492128863997167e-07, -2.008150894738792e-06),
    (4.6922076160992316e-08, -1.3414392979067865e-07),
)

#: |x| up to which airy_ai uses the Taylor series (|x - c| <= 1/2).  Beyond
#: it zeta = (2/3)|x|^{3/2} > 16.5, where the smallest term of the
#: asymptotic series is below 4e-16.
_AI_TAYLOR_MAX = 8.5

#: Taylor terms per evaluation; 20 already reach rounding level at
#: |x - c| = 1/2, |c| = 8 (19 leave 2e-14 of the envelope).
_AI_TERMS = 22

#: The asymptotic sums stop once a term drops below this.
_AI_ASYM_TOL = 1e-17

_SQRT_PI = math.sqrt(math.pi)
_SQRT_2PI = math.sqrt(2.0 * math.pi)

#: The recurrences divide their terms by 2^500 once the newest passes it;
#: past |x| = 2^400 their leading term is their value to double precision.
_SCALE, _LN_SCALE, _ARG_LEADING = 2.0**500, 500 * math.log(2.0), 2.0**400


class RangeError(DomainError):
    """Argument outside the range this implementation supports."""


class NonConvergenceError(ArithmeticError):
    """The underlying series evaluation failed to converge."""


class ResidueError(ArithmeticError):
    """A value that should be real came back with too much imaginary part."""


def _recurrence(n: int, c: int, x: float) -> Tuple[float, float]:
    """y_n = m * e^s of y_0 = 1, y_{k+1} = c*x*y_k - c*k*y_{k-1} in floats as
    (m, s); s = 0.0 if no power of two was divided out, and m is then y_n."""
    if abs(x) > _ARG_LEADING:
        return (-1.0 if x < 0 and n % 2 else 1.0), n * (math.log(c) + math.log(abs(x)))
    cx, y_prev, y, scaled = c * x, 0.0, 1.0, 0
    for ck in range(0, c * n, c):
        y_prev, y = y, cx * y - ck * y_prev
        if abs(y) > _SCALE:
            y_prev, y, scaled = y_prev / _SCALE, y / _SCALE, scaled + 1
    return y, scaled * _LN_SCALE


def _signed_log(m: float, s: float) -> Tuple[float, float]:
    """(sign, ln|m * e^s|) of a float m, (0.0, -inf) if m is zero."""
    return (math.copysign(1.0, m), math.log(abs(m)) + s) if m else (0.0, -math.inf)


def hermite(n: int, eta: float) -> Tuple[float, float]:
    """Hermite polynomial H_n(eta) as (sign, ln|H_n(eta)|), by the recurrence
    H_{n+1} = 2*eta*H_n - 2*n*H_{n-1}.  A bool for either argument raises
    DomainError, a non-finite or non-real argument RangeError."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise DomainError(f"hermite degree must be a nonnegative integer, got {n!r}")
    if isinstance(eta, bool):
        raise DomainError(f"hermite argument must be a number, not a bool, got {eta!r}")
    if not (isinstance(eta, (int, float)) and abs(eta) <= sys.float_info.max):
        raise RangeError(f"hermite argument must be a finite real, got H_{n}({eta!r})")
    return _signed_log(*_recurrence(n, 2, eta))


def airy_ai(x: float) -> float:
    """Airy function Ai(x) in floating point, any finite real x.

    Within 1e-13 of max(|Ai|, |Ai'|/sqrt(1+|x|)) on |x| <= 1e12 (below the
    smallest normal double the error is absolute).  Further out on the
    negative axis the double phase zeta loses digits; where zeta itself
    overflows (|x| > 4e205, |Ai| < 1e-51) the result is 0.0.
    """
    if not math.isfinite(x):
        raise DomainError(f"airy argument must be finite, got {x!r}")
    x = float(x)
    if abs(x) <= _AI_TAYLOR_MAX:
        return _airy_ai_taylor(x)
    return _airy_ai_asymptotic(x)


def _airy_ai_taylor(x: float) -> float:
    """Ai(c + h) = sum a_k h^k about the nearest node c, |h| <= 1/2.

    Ai'' = x Ai gives a_{k+2} = (c a_k + a_{k-1}) / ((k+1)(k+2)), seeded with
    a_0 = Ai(c), a_1 = Ai'(c) and a_{-1} = 0.
    """
    c = round(x)
    h = x - c
    a_prev = 0.0
    a, a_next = _AI_NODES[c + 8]
    total = a + a_next * h
    hk = h
    for k in range(_AI_TERMS - 2):
        a_prev, a, a_next = a, a_next, (c * a + a_prev) / ((k + 1) * (k + 2))
        hk *= h
        total += a_next * hk
    return total


def _airy_ai_asymptotic(x: float) -> float:
    """DLMF 9.7.5 (x > 0) and 9.7.9 (x < 0), truncated at the smallest term."""
    ax = abs(x)
    # zeta's absolute rounding error, up to half an ulp of zeta (6e-14 at
    # |x| = 100, 6e-5 at |x| = 1e8), enters exp(-zeta) and cos(zeta) as a
    # relative error, so zeta is carried as zeta + zeta_lo from a 40-digit
    # decimal evaluation at the exact double |x|.
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        d = decimal.Decimal(ax)
        zeta_d = 2 * d * d.sqrt() / 3
        zeta = float(zeta_d)
        if math.isinf(zeta):
            return 0.0
        zeta_lo = float(zeta_d - decimal.Decimal(zeta))
    # t_k = u_k / zeta^k with u_k = u_{k-1} (6k-5)(6k-3)(6k-1) / ((2k-1) 216 k)
    alternating = 1.0          # sum (-1)^k t_k                      (9.7.5)
    even_odd = [1.0, 0.0]      # sum (-1)^m t_2m, sum (-1)^m t_2m+1  (9.7.9)
    t = 1.0
    k = 0
    while True:
        k += 1
        t_next = t * (6 * k - 5) * (6 * k - 3) * (6 * k - 1) / ((2 * k - 1) * 216 * k * zeta)
        if t_next < _AI_ASYM_TOL or t_next >= t:
            break
        t = t_next
        alternating += -t if k % 2 else t
        even_odd[k % 2] += -t if (k // 2) % 2 else t
    root4 = math.sqrt(math.sqrt(ax))
    if x > 0.0:
        return math.exp(-zeta) * math.exp(-zeta_lo) * alternating / (2.0 * _SQRT_PI * root4)
    cos_hi, sin_hi = math.cos(zeta), math.sin(zeta)
    cos_lo, sin_lo = math.cos(zeta_lo), math.sin(zeta_lo)
    cz = cos_hi * cos_lo - sin_hi * sin_lo
    sz = sin_hi * cos_lo + cos_hi * sin_lo
    # sqrt(2) cos(zeta - pi/4) = cz + sz and sqrt(2) sin(zeta - pi/4) = sz - cz
    return ((cz + sz) * even_odd[0] + (sz - cz) * even_odd[1]) / (_SQRT_2PI * root4)


def airy_bi(x: float) -> float:
    """Airy function Bi(x) from mpmath; overflows to a RangeError for x beyond ~100."""
    if not math.isfinite(x):
        raise DomainError(f"airy argument must be finite, got {x!r}")
    import mpmath as mp

    with mp.workdps(_AIRY_DPS):
        try:
            value = mp.airybi(x)
        except mp.libmp.NoConvergence as exc:  # pragma: no cover - defensive
            raise NonConvergenceError(f"airy series did not converge at {x}") from exc
    out = float(value)
    if math.isinf(out):
        raise RangeError(f"airy value at {x} overflows a double")
    return out


def pcf_d(n: int, z: float) -> Tuple[float, float]:
    """Parabolic cylinder function D_n(z) as (sign, ln|D_n(z)|), for an integer
    order n >= 0 and a finite real z: e^{-z^2/4} He_n(z), He_n from the
    recurrence He_{k+1} = z He_k - k He_{k-1} in z itself, so exact zeros
    such as D_2(1) = 0 stay exact.  Where e^{-z^2/4} and the product are
    normal doubles, the log is of the product.  Any other order or argument,
    a float order, a complex argument or a bool for either, raises RangeError.
    """
    if (not (isinstance(n, int) and isinstance(z, (int, float))) or bool in (type(n), type(z))
            or n < 0 or not abs(z) <= sys.float_info.max):
        raise RangeError(f"pcf_d needs an integer order and a real argument, n >= 0, z finite: D_{n}({z})")
    he, s = _recurrence(n, 1, z)
    gauss = math.exp(-0.25 * z * z)
    if s == 0.0 and min(gauss, abs(gauss * he)) >= sys.float_info.min:
        return _signed_log(gauss * he, 0.0)
    return _signed_log(he, s - 0.25 * z * z)


def lambda_j(j: int, xi: float) -> float:
    """The real combination of rotated parabolic cylinder functions

        Lambda_j(xi) = i^(j+1) [ D_{-j-1}(sqrt(2) i xi) + (-1)^(j+1) D_{-j-1}(-sqrt(2) i xi) ]

    The two terms are complex conjugates, so the result is real; we verify
    that numerically and raise if the imaginary residue survives.
    """
    if not isinstance(j, int) or isinstance(j, bool) or j < 0 or j > _LAMBDA_J_MAX:
        raise RangeError(f"lambda_j degree must be an integer in [0, {_LAMBDA_J_MAX}], got {j!r}")
    if abs(xi) > _LAMBDA_XI_MAX:
        raise RangeError(f"lambda_j argument |{xi}| > {_LAMBDA_XI_MAX}")
    import mpmath as mp

    with mp.workdps(_PCF_DPS):
        arg = mp.mpc(0, 1) * mp.sqrt(2) * xi
        a = mp.pcfd(-j - 1, arg)
        b = mp.pcfd(-j - 1, -arg)
        value = mp.mpc(0, 1) ** (j + 1) * (a + (-1) ** (j + 1) * b)
        re = float(value.real)
        im = float(value.imag)
    if abs(im) > 1e-8 * (abs(re) + 1e-300):
        raise ResidueError(f"lambda_j({j}, {xi}) imaginary residue {im} vs value {re}")
    return re
