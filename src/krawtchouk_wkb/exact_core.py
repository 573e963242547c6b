"""Exact rational evaluation of Krawtchouk polynomials.

Everything in this module is exact: parameters are :class:`fractions.Fraction`
values, tables are integer-scaled, and the identity checks used elsewhere in
the package really are equality tests.  These values are the ground truth
against which every asymptotic approximation is measured.
"""

from __future__ import annotations

import math
from functools import cached_property
from fractions import Fraction
from operator import mul
from typing import NamedTuple, Sequence, Union

RationalLike = Union[int, str, Fraction]

__all__ = [
    "DomainError",
    "SingularityError",
    "check_index",
    "check_indices",
    "Params",
    "ExactRow",
    "ExactTable",
    "krawtchouk_sum",
    "scaled_sum",
    "build_table",
    "exact_row",
    "gram_matrix",
    "symmetry_image",
    "scaled_symmetry_image",
    "lemma3_value",
]


class DomainError(ValueError):
    """An argument lies outside the domain an operation supports."""


class SingularityError(ArithmeticError):
    """A branch quantity was requested on or too close to one of its poles."""


def _as_fraction(value: RationalLike, what: str) -> Fraction:
    # Floats are refused on purpose: Fraction(0.64894783) is the nearest
    # binary double, not the decimal the caller meant.  Strings stay exact.
    if isinstance(value, float):
        raise DomainError(
            f"{what} must be exact; pass {value!r} as a string or Fraction "
            f"so it parses to the intended rational"
        )
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"cannot parse {what}={value!r} as a rational") from exc


def check_index(name: str, value: int, upper: int) -> None:
    """Reject anything but an integer (bools included) in [0, upper]."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if not 0 <= value <= upper:
        raise DomainError(f"{name}={value} outside [0, {upper}]")


def check_indices(name: str, values, upper: int) -> None:
    """:func:`check_index` for each value: a non-integer first, then the range."""
    bad = [v for v in values if not isinstance(v, int) or isinstance(v, bool)]
    for v in bad[:1] or ([min(values), max(values)] if values else []):
        check_index(name, v, upper)


class _ParamsFields(NamedTuple):
    N: int
    p: Fraction
    q: Fraction


class Params(_ParamsFields):
    """A problem instance: size N and success probability p, with q = 1 - p."""

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, N: int, p: Fraction, q: Fraction) -> "Params":
        if not isinstance(N, int) or isinstance(N, bool) or N < 1:
            raise DomainError(f"N must be a positive integer, got {N!r}")
        if not isinstance(p, Fraction) or not isinstance(q, Fraction):
            raise DomainError("p and q must be Fractions; use Params.from_p/from_q")
        if not Fraction(0) < p < Fraction(1):
            raise DomainError(f"p must lie strictly inside (0, 1), got {p}")
        if p + q != 1:
            raise DomainError(f"p + q must equal 1 exactly (p={p}, q={q})")
        return super().__new__(cls, N, p, q)

    @classmethod
    def from_p(cls, N: int, p: RationalLike) -> "Params":
        pv = _as_fraction(p, "p")
        return cls(N=N, p=pv, q=1 - pv)

    @classmethod
    def from_q(cls, N: int, q: RationalLike) -> "Params":
        qv = _as_fraction(q, "q")
        return cls(N=N, p=1 - qv, q=qv)

    def swapped(self) -> "Params":
        """The p <-> q mirror instance used by the symmetry identity."""
        return self._mirror

    # -- derived once per instance ------------------------------------------
    # cached_property stores into the instance __dict__, which this subclass
    # has; the fields, and so equality and hashing, are untouched.

    @cached_property
    def _mirror(self) -> "Params":
        return Params(N=self.N, p=self.q, q=self.p)

    @cached_property
    def eps(self) -> float:
        return 1.0 / self.N

    @cached_property
    def pf(self) -> float:
        return float(self.p)

    @cached_property
    def qf(self) -> float:
        return float(self.q)

    # -- integer scaling ----------------------------------------------------
    # q = 1 - p shares p's denominator b (gcd(b - a, b) = gcd(a, b) = 1), so
    # b**n * K_n(x) is an integer for integer x.  All table arithmetic runs
    # on those integers.

    @property
    def denom(self) -> int:
        return self.p.denominator

    @property
    def p_num(self) -> int:
        return self.p.numerator

    @property
    def q_num(self) -> int:
        return self.q.numerator


class ExactRow:
    """Row ``n`` of the exact ``K_n(x)``, x = 0..N, as the windowed error
    metric reads it, each field computed once for the row: ``nums``, the
    integers ``denom**n * K_n(x)`` (:func:`exact_row`), and their ``signs``;
    then, on first read, ``logs``, each ``ln|K_n(x)|`` as a float, ``-inf``
    at an exact zero, and ``env``, the largest of logs over the window
    |x' - x| <= 5 clipped to the row: the log of the envelope at x.
    """

    def __init__(self, n: int, params: Params) -> None:
        self.n, self.params = n, params
        self.nums = exact_row(n, params)  # validates n
        self.signs = tuple((num > 0) - (num < 0) for num in self.nums)

    @cached_property
    def logs(self) -> tuple:
        ln_scale = self.n * math.log(self.params.denom)
        return tuple(_ln_abs_int(num) - ln_scale for num in self.nums)

    @cached_property
    def env(self) -> tuple:
        logs = self.logs
        return tuple(max(logs[max(0, x - 5):x + 6]) for x in range(self.params.N + 1))


class ExactTable:
    """Exact ``K_n(x)`` on the (N+1) x (N+1) grid: row ``n`` is an
    :class:`ExactRow`, made on its first read and kept, so memory grows with
    the rows read, never past N+1 rows.  :meth:`value` undoes the row's
    scaling.
    """

    __slots__ = ("params", "_rows")

    def __init__(self, params: Params) -> None:
        self.params = params
        self._rows = [None] * (params.N + 1)

    def row(self, n: int) -> ExactRow:
        """Row ``n``'s record."""
        check_index("n", n, self.params.N)
        row = self._rows[n]
        if row is None:
            row = self._rows[n] = ExactRow(n, self.params)
        return row

    def value(self, n: int, x: int) -> Fraction:
        """Exact ``K_n(x)``."""
        row = self.row(n)
        check_index("x", x, self.params.N)
        return Fraction(row.nums[x], self.params.denom**n)

    def signed_log(self, n: int, x: int):
        """``(sign, ln|K_n(x)|)`` without building a huge float."""
        row = self.row(n)
        check_index("x", x, self.params.N)
        return row.signs[x], row.logs[x]


def _ln_abs_int(value: int) -> float:
    """log(|value|) for integers far beyond float range."""
    value = abs(value)
    if value == 0:
        return float("-inf")
    bits = value.bit_length()
    if bits <= 900:
        return math.log(value)
    shift = bits - 64
    return math.log(value >> shift) + shift * math.log(2)


def krawtchouk_sum(n: int, x: int, params: Params) -> Fraction:
    """Evaluate ``K_n(x)`` by its terminating binomial sum, exactly (:func:`scaled_sum`)."""
    return Fraction(scaled_sum(n, x, params), params.denom**n)


def scaled_sum(n: int, x: int, params: Params) -> int:
    """``denom**n * K_n(x)`` by the terminating binomial sum, as one integer.

    K_n(x) = sum_k C(x,k) C(N-x, n-k) q^k (-p)^(n-k).  Only the terms with
    n+x-N <= k <= min(n,x) have nonzero binomials.  q^k is multiplied up and
    (-p)^(n-k) divided down exactly from term to term.
    """
    check_index("n", n, params.N)
    check_index("x", x, params.N)
    N, mp, aq = params.N, -params.p_num, params.q_num
    lo = max(0, n + x - N)
    total, qk, pk = 0, aq**lo, mp ** (n - lo)
    for k in range(lo, min(n, x) + 1):
        total += math.comb(x, k) * math.comb(N - x, n - k) * qk * pk
        qk, pk = qk * aq, pk // mp  # exact while k < n; the last quotient is unused
    return total


def exact_row(n: int, params: Params) -> tuple:
    """Row ``n`` as the integers ``denom**n * K_n(x)``, x = 0..N, in O(N) steps.

    Self-duality (K_n(x)/K_n(0) is symmetric in n and x) turns the degree
    recurrence into one that runs along x:

        p(N-x) K_n(x+1) = [p(N-x) + xq - n] K_n(x) - xq K_n(x-1),

    seeded with K_n(0) = C(N,n)(-p)^n; its x = 0 step is the seed
    K_n(1) = K_n(0)(1 - n/(pN)).  Every step is checked for exact
    divisibility, and as a final self-check the x = N equation
    Nq K_n(N-1) = (Nq - n) K_n(N) must hold.
    """
    check_index("n", n, params.N)
    N, b = params.N, params.denom
    ap, aq = params.p_num, params.q_num
    row = [math.comb(N, n) * (-ap) ** n]
    for x in range(N):
        rhs = (ap * (N - x) + x * aq - n * b) * row[x] - x * aq * row[x - 1]
        quot, rem = divmod(rhs, ap * (N - x))
        if rem:
            raise ArithmeticError(f"row recurrence step n={n}, x={x} not exact (internal bug)")
        row.append(quot)
    if N * aq * row[N - 1] != (N * aq - n * b) * row[N]:
        raise ArithmeticError(f"row self-check failed: x = N equation broken for n={n}")
    return tuple(row)


def build_table(params: Params) -> ExactTable:
    """The exact table with every row read (see :func:`exact_row`)."""
    table = ExactTable(params)
    for n in range(params.N + 1):
        table.row(n)
    return table


def scaled_weight(x: int, params: Params) -> int:
    """Binomial weight C(N,x) p^x q^(N-x) as an integer scaled by denom**N."""
    check_index("x", x, params.N)
    return math.comb(params.N, x) * params.p_num**x * params.q_num ** (params.N - x)


def gram_matrix(rows: Sequence[ExactRow]) -> tuple:
    """sum_k K_i(k) K_j(k) weight(k) for each pair (rows[a], rows[b]) of one
    or more rows of one instance, i and j their degrees, as an integer scaled by
    denom**(i+j+N): over rows 0..N, C(N,j) (a_p a_q)^j denom**N if i == j,
    else 0, with a_p, a_q the numerators of p, q.  Each sum with b >= a is
    formed once and mirrored to (b, a), where it is the same integer sum."""
    params = rows[0].params
    weights = [scaled_weight(k, params) for k in range(params.N + 1)]
    nums = [row.nums for row in rows]
    gram = [[0] * len(nums) for _ in nums]
    for a, row in enumerate(nums):
        wi = list(map(mul, weights, row))
        for b in range(a, len(nums)):
            gram[a][b] = gram[b][a] = sum(map(mul, wi, nums[b]))
    return tuple(map(tuple, gram))


def symmetry_image(n: int, x: int, params: Params) -> Fraction:
    """(-1)^n K_n(N-x) with p and q swapped; equals K_n(x) exactly (:func:`scaled_symmetry_image`)."""
    return Fraction(scaled_symmetry_image(n, x, params), params.denom**n)


def scaled_symmetry_image(n: int, x: int, params: Params) -> int:
    """``denom**n`` times :func:`symmetry_image`; the swapped instance has the same denom."""
    check_index("n", n, params.N)
    check_index("x", x, params.N)
    value = scaled_sum(n, params.N - x, params.swapped())
    return -value if n % 2 else value


def lemma3_value(m: int, n: int, params: Params) -> float:
    """Envelope value (-p)^n C(N,n) (1 - n/(pN))^m as a float.

    Exact (up to rounding) for m in {0, 1}; for larger fixed m it is the
    small-x asymptotic of K_n(m).  Log-gamma keeps the binomial finite far
    past the point where C(N,n) overflows a double.  The base 1 - n/(pN)
    is negative for n > pN, which is fine: its sign is tracked separately.
    A magnitude beyond double range saturates to +-inf with that sign.
    """
    if not isinstance(m, int) or isinstance(m, bool) or m < 0:
        raise DomainError(f"m must be a nonnegative integer, got {m!r}")
    check_index("n", n, params.N)
    N = params.N
    ln_mag = math.lgamma(N + 1) - math.lgamma(n + 1) - math.lgamma(N - n + 1) + n * math.log(params.pf)
    sign = -1 if n % 2 else 1
    if m > 0:
        t_num = params.p_num * N - n * params.denom  # 1 - n/(pN) = t_num / (a_p N)
        if t_num == 0:
            return 0.0
        if t_num < 0 and m % 2:
            sign = -sign
        ln_mag += m * math.log(abs(t_num) / (params.p_num * N))
    try:
        return sign * math.exp(ln_mag)
    except OverflowError:
        return sign * math.inf
