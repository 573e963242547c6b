"""Phase and amplitude building blocks for the two asymptotic branches.

Each branch contributes K = sqrt(eps/(2*pi)) * exp(psi/eps) * L, where the
phase psi and the amplitude L are algebraic functions of the branch root U.
All logarithms and square roots take principal branches with negative reals
mapped to +i*pi, which fixes every sign convention downstream; exp(psi/eps)
is only ever formed in log-space (``k_pm_log``, and ``k_pm_logs`` for the
points of a row) because its real part grows like N.

The z-only terms a branch needs, the quadratic's coefficients and u0(z)^2,
are read from the row's record :class:`.state_space.Row`, which also holds
the turning-strip coefficients; the one-point ``k_pm_log`` builds the record
of its point's row.  The remaining operation is the left-edge phase ``phi0``.
"""

from __future__ import annotations

import cmath
import math
from typing import Iterable, Iterator, Tuple

from .exact_core import DomainError, Params, SingularityError
from .state_space import Row, branch_roots, check_scaled

__all__ = [
    "SingularityError",
    "plog",
    "psqrt",
    "branch_terms",
    "k_pm_log",
    "k_pm_logs",
    "phi0",
]

#: Relative half-width of the coalescence guard around the turning curves.
_COALESCENCE_RTOL = 1e-10


def plog(w: complex) -> complex:
    """Principal-branch complex logarithm with negative reals mapped to +i*pi.

    ``cmath.log`` sends a negative real carrying a -0.0 imaginary part to the
    lower branch cut (-i*pi); this wrapper normalizes the signed zero first.
    """
    w = complex(w)
    if w.imag == 0.0:
        w = complex(w.real, 0.0)
    if w == 0.0:
        raise SingularityError("logarithm of a vanishing branch factor")
    return cmath.log(w)


def psqrt(w: complex) -> complex:
    """Principal-branch square root with negative reals mapped to +i*sqrt."""
    w = complex(w)
    if w.imag == 0.0:
        w = complex(w.real, 0.0)
    return cmath.sqrt(w)


def branch_terms(branch: str, ys: Iterable[float], row: Row) -> Iterator[Tuple[complex, complex]]:
    """The phase psi = ln[U^{z-1} (U-p)^{1-y} (U+q)^y] and the amplitude
    L = sqrt[(U-p)(U+q) / (z * (U^2 - u0^2))] of one branch, principal
    branches, at each y of ys on ``row``, lazily: the loop of
    :func:`k_pm_logs`, whose contract it keeps."""
    z = row.z
    if not 0.0 < z < 1.0:
        raise SingularityError(f"branch quantities are singular at z={z!r}")
    if branch not in ("+", "-"):
        raise DomainError(f"branch must be '+' or '-', got {branch!r}")
    plus, p, q, r2 = branch == "+", row.params.pf, row.params.qf, row.r2
    for y in ys:
        U = branch_roots(y, row)[plus]
        gap = U * U - r2
        if abs(gap) < _COALESCENCE_RTOL * r2:
            raise SingularityError(f"branches coalesce near (y={y!r}, z={z!r}); "
                                   "use the turning-strip formulas there")
        Ump, Upq = U - p, U + q
        yield (z - 1.0) * plog(U) + (1.0 - y) * plog(Ump) + y * plog(Upq), psqrt(Ump * Upq / (z * gap))


def k_pm_logs(branch: str, ys: Iterable[float], row: Row) -> Iterator[complex]:
    """:func:`k_pm_log` at each y of ys on ``row``, lazily and in order.

    The row is checked when the first value is drawn, and each point's root
    is solved and guarded when its value is, so a caller that tests each
    point before drawing its value sees the errors in point order.
    """
    half_log_pref = 0.5 * (math.log(row.params.eps) - math.log(2.0 * math.pi))
    N = row.params.N
    return (half_log_pref + psi * N + plog(amp) for psi, amp in branch_terms(branch, ys, row))


def k_pm_log(branch: str, y: float, z: float, params: Params) -> complex:
    """log of the branch contribution K = sqrt(eps/(2*pi)) e^{psi/eps} L.

    The real part is ln|K| and the imaginary part the accumulated phase (not
    reduced mod 2*pi).  psi/eps is computed as psi*N, which is exact in the
    scaling.  The one-point case of :func:`k_pm_logs`, after
    :func:`.state_space.check_scaled`.
    """
    check_scaled(y, z)
    return next(k_pm_logs(branch, (y,), Row(z, params)))


def phi0(z: float, params: Params) -> float:
    """Left-edge phase (z-1) ln(1-z) - z ln z + z ln p, the real part of the
    paper's; its imaginary part z*pi only ever enters as exp(i*pi*n) = (-1)^n."""
    if not 0.0 < z < 1.0:
        raise SingularityError(f"phi0 is singular at z={z!r}")
    return (z - 1.0) * math.log1p(-z) - z * math.log(z) + z * math.log(params.pf)
