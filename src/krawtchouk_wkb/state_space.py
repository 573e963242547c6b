"""Scaled coordinates, branch roots, the oscillation ellipse, and the region classifier.

An index pair (x, n) on the integer grid [0, N]^2 maps to scaled coordinates
(y, z) = (x*eps, n*eps) with eps = 1/N (on the rows z = p and z = q, z is
the float p or q; see :meth:`Row.at`).  The quadratic governing the two
asymptotic branches has roots U^- <= U^+ that are real outside an ellipse E
inscribed in the unit square and complex conjugates inside it; the curves
y = Y^-(z) and y = Y^+(z), where the roots coalesce, bound the oscillatory
zone.  ``classify_row`` assigns each point of a row to one of twelve regions:

* bulk zones III, IV (exponential, below/above the ellipse), VII
  (oscillatory-exponential wedge) and X (oscillatory interior),
* turning-curve strips VIII (z < p) and IX (z > p) of width O(eps^{2/3}),
* edge layers I (small n), V (small x, z > p) and XI (n near N),
* corner layers II (small n, y near p), VI (small x, z near p) and
  XII (n near N, y near q) of width O(sqrt(eps)).

Points to the right of the upper turning curve, and top-row points right of
the XII corner, are classified by reflecting (x, n) -> (N - x, n) with p and
q exchanged (the symmetry of the polynomial family); such results carry
``mirrored=True``, and a reflected lower-zone tag III is reported as IV.

Every term of a row that depends on z alone is a field of one record,
:class:`Row`, which the classifier and the region formulas both read, so
each is solved once per row and orientation.
"""

from __future__ import annotations

import cmath
import math
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

from .exact_core import DomainError, Params, SingularityError, check_index, check_indices

__all__ = [
    "RegionId",
    "ClassifierConfig",
    "DEFAULT_CONFIG",
    "REGION_TAGS",
    "u0",
    "y_pm",
    "Row",
    "StripCoeffs",
    "check_scaled",
    "u_pm",
    "branch_roots",
    "classify",
    "classify_row",
    "region_runs",
]

#: The twelve region tags in canonical order.
REGION_TAGS = ("I", "II", "III", "IV", "V", "VI", "VII", "VIII", "IX", "X", "XI", "XII")

_TAG_SET = frozenset(REGION_TAGS)


class _RegionFields(NamedTuple):
    tag: str
    mirrored: bool = False


class RegionId(_RegionFields):
    """A region tag, plus whether the point was classified via reflection."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, tag: str, mirrored: bool = False) -> "RegionId":
        if tag not in _TAG_SET:
            raise DomainError(f"unknown region tag {tag!r}")
        return super().__new__(cls, tag, mirrored)

    @property
    def label(self) -> str:
        """Compact display form; reflected classifications get a ``*``."""
        return self.tag + ("*" if self.mirrored else "")


class _ConfigFields(NamedTuple):
    n_small: int = 4
    x_small: int = 8
    j_small: int = 4
    corner_width: float = 3.0
    beta_max: float = 0.9


class ClassifierConfig(_ConfigFields):
    """Layer widths for the classifier.

    The analysis fixes only the *order* of each layer's width (sqrt(eps) for
    corners, eps^{2/3} for the turning strips); the multipliers here are
    tunable so overlap studies can widen or shrink the strips.  Each width is
    a finite number >= 0 (the three counts integers); zero disables a layer.

    The default strip multiplier is 0.9: measured against the exact values at
    eps = 0.01, the Airy strip forms stay inside the figure error budget only
    for |beta| <~ 0.95 and degrade to 15-60% windowed error by |beta| ~ 1.8,
    while the branch forms on either side remain accurate right up to the
    strip edge, so a narrow strip hands each point to the better formula.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, *args, **kwargs) -> "ClassifierConfig":
        self = super().__new__(cls, *args, **kwargs)
        for name, default in self._field_defaults.items():  # a field's kind is its default's
            v = getattr(self, name)
            if type(default) is int:
                if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                    raise DomainError(f"{name} must be a nonnegative integer, got {v!r}")
            elif isinstance(v, bool) or not (isinstance(v, (int, float)) and math.isfinite(v) and v >= 0):
                raise DomainError(f"{name} must be finite and >= 0, got {v!r}")
        return self


DEFAULT_CONFIG = ClassifierConfig()

#: Every region the classifier reports, built once: _RIDS[tag, mirrored].
_RIDS = {(tag, m): RegionId(tag, m) for tag in REGION_TAGS for m in (False, True)}


def u0(z: float, params: Params) -> float:
    """The positive root magnitude sqrt(p*q*(1-z)/z) at the branch-coalescence point.

    Singular as z -> 0; equals q at z = p and vanishes at z = 1.
    """
    if not 0.0 < z <= 1.0:
        raise DomainError(f"u0 requires 0 < z <= 1, got z={z!r}")
    p, q = params.pf, params.qf
    return math.sqrt(p * q * (1.0 - z) / z)


def y_pm(z: float, params: Params) -> Tuple[float, float]:
    """The turning curves (Y^-(z), Y^+(z)) where the two branch roots coalesce.

    Both tend to p as z -> 0 and meet at q when z = 1.
    """
    if not 0.0 < z <= 1.0:
        raise DomainError(f"y_pm requires 0 < z <= 1, got z={z!r}")
    p, q = params.pf, params.qf
    mid = p + (q - p) * z
    half = 2.0 * math.sqrt(p * q * z * (1.0 - z))
    return mid - half, mid + half


class StripCoeffs(NamedTuple):
    """The z-only coefficients of the Airy expansion across the lower curve Y^-(z).

    u0 is the coalescence root u0(z).  theta = sqrt(u0/z) / ((u0+p)(u0-q)) is
    the curvature coefficient, positive for z < p (region VIII) and negative
    for z > p (IX, which uses -theta).  psi0 = (z-1) ln u0 + Y^-(z) ln|u0 - q|
    + (1 - Y^-(z)) ln(u0 + p) is the strip phase and slope = ln(u0 + p)
    - ln|u0 - q| its rate across the curve: the real parts of the paper's.
    """

    u0: float
    theta: float
    psi0: float
    slope: float


def _ln(a: float) -> float:
    """ln|a| rounded as the pinned outputs were: by ``cmath.log``, which takes
    log1p((a-1)(a+1))/2 on [0.71, 1.73], so ``math.log`` differs from it in
    the last bit for about a fifth of the arguments in [0.5, 2]."""
    return cmath.log(a).real


class _lazy:
    """A field solved on its first read and kept on the instance, where later
    reads find it: ``cached_property`` without the lock it takes before 3.12."""

    def __init__(self, solve: Callable) -> None:
        self.solve = solve

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, row: "Row", owner: type = None) -> object:
        return self if row is None else row.__dict__.setdefault(self.name, self.solve(row))


class Row:
    """Row z of the grid in one orientation (p and q as ``params`` has them).
    A term that can fail, or builds an object, is solved on first read and
    kept, so a formula's own domain checks come first: curves (Y^-(z),
    Y^+(z)); u0 and r2 = u0^2; strip, the turning-strip coefficients; mirror,
    the row with p and q exchanged.  Plain arithmetic is set on construction:
    zqp = z(q-p), c = pq(1-z) and disc_c = 4z*c of the branch quadratic, the
    layer scales sqrt_2pq_eps, sqrt_pq_eps and eps23, and u.  The stretched
    coordinates, with y = x*eps:

    eta:  (y - p)/sqrt(2pq*eps)   -- corner layer at (p, 0)
    u:    (p - z)/sqrt(pq*eps)    -- corner layer at (0, p)
    beta: (Y^-(z) - y)/eps^{2/3}  -- turning strip (positive outside E)
    xi:   (y - q)/sqrt(2pq*eps)   -- corner layer at (q, 1)
    """

    def __init__(self, z: float, params: Params) -> None:
        self.z, self.params = z, params
        p, q, eps = params.pf, params.qf, params.eps
        self.zqp = z * (q - p)
        self.c = p * q * (1.0 - z)
        self.disc_c = 4.0 * z * self.c
        self.sqrt_2pq_eps = math.sqrt(2.0 * p * q * eps)
        self.sqrt_pq_eps = math.sqrt(p * q * eps)
        self.eps23 = eps ** (2.0 / 3.0)
        self.u = (p - z) / self.sqrt_pq_eps

    @classmethod
    def at(cls, n: int, params: Params) -> "Row":
        """Row n of the grid, at z = n*eps; but on the rows z = p and z = q,
        decided from the integers (n*denom = N*p_num or N*q_num), z is the
        float p or q, which n*eps can miss by an ulp, so the row (or its
        mirror) meets the tests of z = p."""
        k, N = n * params.denom, params.N
        z = (params.pf if k == N * params.p_num
             else params.qf if k == N * params.q_num else n * params.eps)
        return cls(z, params)

    mirror = _lazy(lambda self: Row(self.z, self.params.swapped()))
    curves = _lazy(lambda self: y_pm(self.z, self.params))
    u0 = _lazy(lambda self: u0(self.z, self.params))  # the module's u0, not this field
    r2 = _lazy(lambda self: self.u0 ** 2)

    def eta(self, x: int) -> float:
        return (x * self.params.eps - self.params.pf) / self.sqrt_2pq_eps

    def beta(self, x: int) -> float:
        return (self.curves[0] - x * self.params.eps) / self.eps23

    def xi(self, x: int) -> float:
        return (x * self.params.eps - self.params.qf) / self.sqrt_2pq_eps

    @_lazy
    def strip(self) -> StripCoeffs:
        """Singular at the ends of (0, 1) and at z = p, where u0 = q."""
        z = self.z
        if not 0.0 < z < 1.0:
            raise SingularityError(f"strip coefficients are singular at z={z!r}")
        p, q = self.params.pf, self.params.qf
        r = self.u0
        if r == q:
            raise SingularityError("strip coefficients diverge where u0 = q (z = p)")
        ym = self.curves[0]
        ln_rp, ln_rq = _ln(r + p), _ln(r - q)
        psi = (z - 1.0) * _ln(r) + ym * ln_rq + (1.0 - ym) * ln_rp
        th = math.sqrt(r / z) / ((r + p) * (r - q))
        return StripCoeffs(r, th, psi, ln_rp - ln_rq)

    def regions(self, n: int, xs: Sequence[int], cfg: ClassifierConfig) -> List[RegionId]:
        """The region of each point (x, n), x in xs, of this row, n*eps = z, for
        :func:`classify_row` and ``approx_row``, which check the indices."""
        return _classify(xs, self.params.N, _row_tests(n, self, cfg)[0],
                         lambda: _row_tests(n, self.mirror, cfg)[0])


def check_scaled(y: float, z: float) -> None:
    """Refuse a scaled point (y, z) that is not finite or lies outside the unit
    square (to 1e-12); the one-point :func:`u_pm` and ``k_pm_log`` run it first."""
    if not (math.isfinite(y) and math.isfinite(z)):
        raise DomainError("scaled coordinates must be finite")
    if not (-1e-12 <= y <= 1.0 + 1e-12):
        raise DomainError(f"y={y!r} outside the unit interval")
    if not (-1e-12 <= z <= 1.0 + 1e-12):
        raise DomainError(f"z={z!r} outside the unit interval")


def u_pm(y: float, z: float, params: Params) -> Tuple[complex, complex]:
    """The two branch roots (U^-, U^+) of z*U^2 + [p - y + z(q-p)]*U + pq(1-z) = 0.

    Real with U^- <= U^+ outside the ellipse, complex conjugates (U^+ in the
    upper half plane) inside it, and both equal to ±u0(z) on the turning
    curves y = Y^±(z).  Requires 0 < z <= 1, which :func:`y_pm` checks.
    """
    check_scaled(y, z)
    row = Row(z, params)
    row.curves  # y_pm's check, before branch_roots divides by z
    return branch_roots(y, row)


def branch_roots(y: float, row: Row) -> Tuple[complex, complex]:
    """:func:`u_pm` at (y, z) on row z, unchecked (the row path); the
    smaller-magnitude root comes from the root product pq(1-z)/z."""
    z = row.z
    b, c = row.params.pf - y + row.zqp, row.c
    disc = b * b - row.disc_c
    # A discriminant at rounding level means the point sits on a turning
    # curve to within double precision; split roots there would carry a
    # spurious sqrt(ulp) ~ 1e-8 separation, so collapse to the double root.
    if abs(disc) <= 1e-14 * (b * b + abs(row.disc_c)):
        r = -b / (2.0 * z)
        return complex(r, 0.0), complex(r, 0.0)
    if disc < 0.0:
        re, im = -b / (2.0 * z), math.sqrt(-disc) / (2.0 * z)
        return complex(re, -im), complex(re, im)
    s = math.sqrt(disc)
    if b >= 0.0:
        um = (-b - s) / (2.0 * z)
        up = c / (z * um) if um != 0.0 else (-b + s) / (2.0 * z)
    else:
        up = (-b + s) / (2.0 * z)
        um = c / (z * up) if up != 0.0 else (-b - s) / (2.0 * z)
    return complex(um, 0.0), complex(up, 0.0)


def _first(holds: Callable[[int], bool], guess: float, N: int) -> int:
    """The first x in 0..N where holds, false then true along a row, is true
    (N + 1 if none): guess, moved by evaluating holds at its neighbours."""
    x = min(max(math.floor(guess), 0), N + 1)
    while x > 0 and holds(x - 1):
        x -= 1
    while x <= N and not holds(x):
        x += 1
    return x


def _band_flips(c: float, w: float, eps: float, N: int) -> Tuple[int, int]:
    """Where abs(x*eps - c) <= w turns on (x*eps - c >= -w) and off (x*eps - c > w)."""
    return (_first(lambda x: x * eps - c >= -w, (c - w) * N, N),
            _first(lambda x: x * eps - c > w, (c + w) * N, N))


#: A row's classifier test: x to the tag in one orientation, or None.
_Tag = Callable[[int], Optional[str]]


def _row_tests(n: int, row: Row, cfg: ClassifierConfig) -> Tuple[_Tag, Callable[[], Tuple[int, ...]]]:
    """The region tests of row n, read from its record: a map from x to the
    tag in this orientation, or None when the point belongs to the reflected
    half (on or beyond the upper turning strip); and a function giving the x
    at which each test first flips (y = x*eps and y - c never decrease with x)."""
    params, z = row.params, row.z
    N, eps, p, q = params.N, params.eps, params.pf, params.qf
    corner_y = cfg.corner_width * row.sqrt_2pq_eps
    if n <= cfg.n_small:
        tag = lambda x: "II" if abs(x * eps - p) <= corner_y else "I"
        return tag, lambda: _band_flips(p, corner_y, eps, N)
    if N - n <= cfg.j_small:
        # Right of the corner the top rows are XI of the mirror.  The cut
        # x <= qN is exact, so a point and its reflection never both defer.
        xi_cut = math.floor(N * params.q)
        tag = lambda x: "XII" if abs(x * eps - q) <= corner_y else "XI" if x <= xi_cut else None
        return tag, lambda: (xi_cut + 1, *_band_flips(q, corner_y, eps, N))
    # Small x with z below the corner falls through to the bulk tests: the
    # left edge there belongs to the exponential zone III (or its turning
    # strip VIII), not to a separate layer.
    if abs(z - p) <= cfg.corner_width * row.sqrt_pq_eps:
        x_small, left = cfg.x_small, "VI"
    else:
        x_small, left = (cfg.x_small, "V") if z > p else (-1, None)
    ym, yp = row.curves
    strip = cfg.beta_max * row.eps23
    # The strip coefficients diverge at z = p, where Y^-(z) meets the left
    # edge; the row there (pN an integer, z = p by Row.at) is served by VI,
    # whose u is 0.
    strip_tag = "VI" if z == p else "VIII" if z < p else "IX"
    below = "VII" if z > p else "III"

    def tag(x: int) -> Optional[str]:
        y = x * eps
        if x <= x_small:
            return left
        if abs(y - ym) <= strip:
            return strip_tag
        if abs(y - yp) <= strip:
            return None
        if y < ym:
            return below
        return "X" if y < yp else None

    # y < ym and y < yp flip only inside their curves' strips, where an earlier test decides.
    return tag, lambda: (x_small + 1, *_band_flips(ym, strip, eps, N), *_band_flips(yp, strip, eps, N))


def _classify(xs: Sequence[int], N: int, tag_of: _Tag, mirror_of: Callable[[], _Tag]) -> List[RegionId]:
    """The classify loop: each x of xs to ``tag_of(x)``, or where that defers,
    to the mirror's tag at N - x, from the map ``mirror_of()`` built on first
    need; a reflected III is reported as IV."""
    out, mirror_tag = [], None
    for x in xs:
        tag = tag_of(x)
        if tag is not None:
            out.append(_RIDS[tag, False])
            continue
        if mirror_tag is None:
            mirror_tag = mirror_of()
        tag = mirror_tag(N - x)
        if tag is None:  # pragma: no cover - excluded by the strip geometry
            raise AssertionError("classifier fell through both orientations")
        out.append(_RIDS["IV" if tag == "III" else tag, True])
    return out


def classify_row(n: int, xs: Sequence[int], params: Params,
                 cfg: ClassifierConfig = DEFAULT_CONFIG) -> List[RegionId]:
    """Assign each grid point (x, n), x in xs, to one of the twelve regions.

    Layer tests run in priority order -- corners beat edges beat strips beat
    bulk zones -- so membership is total and deterministic.  Points on or
    beyond the upper turning strip, and top-row points right of the XII
    corner, are reflected to (N - x, n) with p and q exchanged and
    re-classified; a reflected III is reported as IV, any other
    reflected tag keeps its name, and both carry ``mirrored=True``.  The
    tests read the row's :class:`Row`, the mirror's on first need.
    """
    check_index("n", n, params.N)
    check_indices("x", xs, params.N)
    return Row.at(n, params).regions(n, xs, cfg)


def region_runs(n: int, params: Params,
                cfg: ClassifierConfig = DEFAULT_CONFIG) -> List[Tuple[int, int, RegionId]]:
    """Row n of the map as maximal runs (start, stop, region) covering 0..N in
    order.  Each test of :func:`classify_row` flips at most once along the row;
    cut at those flips (and the mirror's where it defers), every test is constant
    on each stretch, so its first point's region is that of all its points."""
    check_index("n", n, params.N)
    N, row = params.N, Row.at(n, params)
    tag_of, flips = _row_tests(n, row, cfg)
    mirror_of, mirror_flips = _row_tests(n, row.mirror, cfg)
    cuts = {0, *flips()}
    if any(tag_of(x) is None for x in cuts if x <= N):
        cuts.update(N + 1 - x for x in mirror_flips())
    starts = sorted(x for x in cuts if 0 <= x <= N)
    rids = _classify(starts, N, tag_of, lambda: mirror_of)
    runs: List[Tuple[int, int, RegionId]] = []
    for start, stop, rid in zip(starts, [*starts[1:], N + 1], rids):
        if runs and runs[-1][2] is rid:
            start = runs.pop()[0]
        runs.append((start, stop, rid))
    return runs


def classify(x: int, n: int, params: Params, cfg: ClassifierConfig = DEFAULT_CONFIG) -> RegionId:
    """Assign the grid point (x, n) to a region: the one-point :func:`classify_row`."""
    return classify_row(n, [x], params, cfg)[0]
