"""Special functions needed by the asymptotic region formulas.

Hermite polynomials run on their exact integer-coefficient recurrence; the
Gamma function comes from the standard library; Airy and parabolic-cylinder
values are evaluated with mpmath's arbitrary-precision hypergeometric series
(30+ decimal digits internally) and returned as machine floats.  Everything
here is pure and reentrant.
"""

from __future__ import annotations

import math
from typing import Union

import mpmath as mp

from .exact_core import DomainError

__all__ = [
    "RangeError",
    "NonConvergenceError",
    "ResidueError",
    "hermite",
    "gamma_real",
    "airy_ai",
    "airy_bi",
    "pcf_d",
    "lambda_j",
]

_AIRY_DPS = 30
_PCF_DPS = 40

# order/argument bounds for the parabolic cylinder function; generous for
# every in-package use (degrees up to x_small and the corner variables),
# and wide enough that lambda_j can reach order -(30+1)
_PCF_NU_MAX = 32.0
_PCF_Z_MAX = 15.0
_LAMBDA_J_MAX = 30
_LAMBDA_XI_MAX = 8.0


class RangeError(DomainError):
    """Argument outside the range this implementation supports."""


class NonConvergenceError(ArithmeticError):
    """The underlying series evaluation failed to converge."""


class ResidueError(ArithmeticError):
    """A value that should be real came back with too much imaginary part."""


def hermite(n: int, eta):
    """Hermite polynomial H_n(eta) by the three-term recurrence.

    H_0 = 1, H_1 = 2*eta, H_{n+1} = 2*eta*H_n - 2*n*H_{n-1}.  The arithmetic
    follows the type of ``eta``: pass a Fraction and the result is exact,
    pass a float and it is ordinary floating point.
    """
    if not isinstance(n, int) or n < 0:
        raise DomainError(f"hermite degree must be a nonnegative integer, got {n!r}")
    if n == 0:
        return eta - eta + 1  # a 1 of eta's type
    h_prev = 1
    h = 2 * eta
    for k in range(1, n):
        h_prev, h = h, 2 * eta * h - 2 * k * h_prev
    return h


def gamma_real(x: float) -> float:
    """Gamma(x) for x > 0."""
    if not x > 0:
        raise DomainError(f"gamma_real needs x > 0, got {x!r}")
    try:
        return math.gamma(x)
    except OverflowError as exc:
        raise RangeError(f"gamma_real({x}) overflows a double") from exc


def airy_ai(x: float) -> float:
    """Airy function Ai(x), any finite real x, good to well over 10 digits."""
    return _airy(mp.airyai, x)


def airy_bi(x: float) -> float:
    """Airy function Bi(x); overflows to a RangeError for x beyond ~100."""
    return _airy(mp.airybi, x)


def _airy(fn, x: float) -> float:
    if not math.isfinite(x):
        raise DomainError(f"airy argument must be finite, got {x!r}")
    with mp.workdps(_AIRY_DPS):
        try:
            value = fn(x)
        except mp.libmp.NoConvergence as exc:  # pragma: no cover - defensive
            raise NonConvergenceError(f"airy series did not converge at {x}") from exc
    out = float(value)
    if math.isinf(out):
        raise RangeError(f"airy value at {x} overflows a double")
    return out


def pcf_d(nu: float, z: Union[float, complex]) -> complex:
    """Parabolic cylinder function D_nu(z) via its confluent series.

    Supports real order |nu| <= 32 and real or complex |z| <= 15, which
    covers every corner-layer use in the package.  Real input gives a result
    with a vanishing imaginary component (within 1e-12 relative).  At an
    exact zero of D_nu (D_2(1), say) the series cancels completely; zeroprec
    lets mpmath return 0 there instead of raising.
    """
    if not -_PCF_NU_MAX <= nu <= _PCF_NU_MAX:
        raise RangeError(f"pcf_d order {nu} outside [-{_PCF_NU_MAX}, {_PCF_NU_MAX}]")
    if abs(z) > _PCF_Z_MAX:
        raise RangeError(f"pcf_d argument |{z}| > {_PCF_Z_MAX}")
    with mp.workdps(_PCF_DPS):
        try:
            value = mp.pcfd(mp.mpf(nu), mp.mpmathify(z), zeroprec=4 * mp.mp.prec)
        except mp.libmp.NoConvergence as exc:  # pragma: no cover - defensive
            raise NonConvergenceError(f"pcf_d series did not converge at {z}") from exc
        return complex(value)


def lambda_j(j: int, xi: float) -> float:
    """The real combination of rotated parabolic cylinder functions

        Lambda_j(xi) = i^(j+1) [ D_{-j-1}(sqrt(2) i xi) + (-1)^(j+1) D_{-j-1}(-sqrt(2) i xi) ]

    The two terms are complex conjugates, so the result is real; we verify
    that numerically and raise if the imaginary residue survives.
    """
    if not isinstance(j, int) or j < 0 or j > _LAMBDA_J_MAX:
        raise RangeError(f"lambda_j degree must be an integer in [0, {_LAMBDA_J_MAX}], got {j!r}")
    if abs(xi) > _LAMBDA_XI_MAX:
        raise RangeError(f"lambda_j argument |{xi}| > {_LAMBDA_XI_MAX}")
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
