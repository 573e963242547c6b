"""The row path against the per-point code it replaced.

``classify_row``, ``approx_row`` and ``norm_err_row`` work a row at a time:
the classifier solves each row's x-independent terms once, the branch
regions draw each run of points from one ``k_pm_logs`` loop, and the metric
reads the row's envelope, logs and integers once.  The references below are
the per-point versions they replaced, kept verbatim: the classifier test
that solved every z-only term at each point, the plus/minus branch log that
re-solved the branch quadratic's z-only terms, u0(z)^2 and the log
prefactor at each point, and the metric that sliced each point's envelope
from the row's logs and read its exact value on its own.  Both sides must
agree to the last bit, and a failing row must fail at the same point with
the same message.
"""

import math
from fractions import Fraction
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from krawtchouk_wkb import region_formulas
from krawtchouk_wkb.accuracy import norm_err_row
from krawtchouk_wkb.exact_core import ExactRow, Params, check_index
from krawtchouk_wkb.region_formulas import approx, approx_row
from krawtchouk_wkb.state_space import (
    DEFAULT_CONFIG,
    ClassifierConfig,
    RegionId,
    Row,
    classify_row,
    u0,
    y_pm,
)
from krawtchouk_wkb.wkb_core import SingularityError, plog, psqrt

# the p values of the exact-core property tests
P_POOL = [Fraction(1, 2), Fraction(1, 3), Fraction(2, 7), Fraction("0.64894783")]


def ref_direct_tag(x, n, params, cfg):
    """Per-point classifier test: tag for the unreflected orientation, or None
    when the point belongs to the reflected half."""
    N = params.N
    eps, p, q = params.eps, params.pf, params.qf
    # The rows z = p and z = q are decided from the integers, and sit at the
    # float p or q, which n*eps can miss by an ulp.
    k = n * params.denom
    z = p if k == N * params.p.numerator else q if k == N * params.q.numerator else n * eps
    y = x * eps
    corner_y = cfg.corner_width * math.sqrt(2.0 * p * q * eps)
    if n <= cfg.n_small:
        return "II" if abs(y - p) <= corner_y else "I"
    if N - n <= cfg.j_small:
        if abs(y - q) <= corner_y:
            return "XII"
        return "XI" if x <= N * params.q else None
    if x <= cfg.x_small:
        if abs(z - p) <= cfg.corner_width * math.sqrt(p * q * eps):
            return "VI"
        if z > p:
            return "V"
    ym, yp = y_pm(z, params)
    strip = cfg.beta_max * eps ** (2.0 / 3.0)
    if abs(y - ym) <= strip:
        if z == p:
            return "VI"
        return "VIII" if z < p else "IX"
    if abs(y - yp) <= strip:
        return None
    if y < ym:
        return "VII" if z > p else "III"
    if y < yp:
        return "X"
    return None


def ref_classify(x, n, params, cfg):
    check_index("x", x, params.N)
    check_index("n", n, params.N)
    tag = ref_direct_tag(x, n, params, cfg)
    if tag is not None:
        return RegionId(tag, mirrored=False)
    mtag = ref_direct_tag(params.N - x, n, params.swapped(), cfg)
    return RegionId("IV" if mtag == "III" else mtag, mirrored=True)


def ref_classify_row(n, xs, params, cfg):
    return [ref_classify(x, n, params, cfg) for x in xs]


def ref_k_pm_log(branch, y, z, params):
    """Per-point branch log: the quadratic's z-only terms, u0(z)^2 and the
    prefactor solved at the point."""
    if not 0.0 < z < 1.0:
        raise SingularityError(f"branch quantities are singular at z={z!r}")
    p, q = params.pf, params.qf
    b = p - y + z * (q - p)
    c = p * q * (1.0 - z)
    disc = b * b - 4.0 * z * c
    if abs(disc) <= 1e-14 * (b * b + abs(4.0 * z * c)):
        um = up = complex(-b / (2.0 * z), 0.0)
    elif disc < 0.0:
        re, im = -b / (2.0 * z), math.sqrt(-disc) / (2.0 * z)
        um, up = complex(re, -im), complex(re, im)
    else:
        s = math.sqrt(disc)
        if b >= 0.0:
            m = (-b - s) / (2.0 * z)
            um, up = complex(m, 0.0), complex(c / (z * m) if m != 0.0 else (-b + s) / (2.0 * z), 0.0)
        else:
            u = (-b + s) / (2.0 * z)
            um, up = complex(c / (z * u) if u != 0.0 else (-b - s) / (2.0 * z), 0.0), complex(u, 0.0)
    U = up if branch == "+" else um
    r2 = u0(z, params) ** 2
    if abs(U * U - r2) < 1e-10 * r2:
        raise SingularityError(f"branches coalesce near (y={y!r}, z={z!r}); use the turning-strip formulas there")
    half_log_pref = 0.5 * (math.log(params.eps) - math.log(2.0 * math.pi))
    psi = (z - 1.0) * plog(U) + (1.0 - y) * plog(U - p) + y * plog(U + q)
    amp = psqrt((U - p) * (U + q) / (z * (U * U - r2)))
    return half_log_pref + psi * params.N + plog(amp)


def ref_k_pm_logs(branch, ys, row):
    """The row form driven by the per-point reference, one point per draw."""
    return (ref_k_pm_log(branch, y, row.z, row.params) for y in ys)


def ref_regions(row, n, xs, cfg):
    """The record's classify loop driven by the per-point reference."""
    return ref_classify_row(n, xs, row.params, cfg)


def ref_window_env_log(row, x):
    """Per-point envelope: the clipped window sliced from the row's logs."""
    N = row.params.N
    check_index("x", x, N)
    lo, hi = max(0, x - 5), min(N, x + 5)
    return max(row.logs[lo:hi + 1])


def ref_norm_err(av, row, x):
    """Per-point metric: the envelope and the exact value read at the point."""
    env_log = ref_window_env_log(row, x)
    if env_log == -math.inf:
        return math.nan
    es, el = row.signs[x], row.logs[x]
    exact_scaled = es * math.exp(el - env_log) if el > -math.inf else 0.0
    if av.ln_scale == -math.inf:
        approx_scaled = 0.0
    else:
        try:
            approx_scaled = math.copysign(1.0, av.value) * math.exp(av.ln_scale - env_log)
        except OverflowError:
            return math.inf
    return abs(approx_scaled - exact_scaled)


def outcome(thunk):
    """thunk()'s value, or the text of what it raised."""
    try:
        return thunk()
    except (ArithmeticError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


@st.composite
def row_cases(draw):
    N = draw(st.integers(min_value=1, max_value=300))
    n = draw(st.integers(min_value=0, max_value=N))
    point = st.integers(min_value=0, max_value=N)
    kind = draw(st.sampled_from(["contiguous", "single", "scattered"]))
    if kind == "contiguous":
        lo, hi = sorted((draw(point), draw(point)))
        xs = list(range(lo, hi + 1))
    elif kind == "single":
        xs = [draw(point)]
    else:
        xs = draw(st.lists(point, min_size=2, max_size=25))
    cfg = ClassifierConfig(
        n_small=draw(st.sampled_from([0, 1, 4])),
        x_small=draw(st.sampled_from([0, 3, 8])),
        j_small=draw(st.sampled_from([0, 4])),
        corner_width=draw(st.sampled_from([0.0, 1.5, 3.0])),
        beta_max=draw(st.sampled_from([0.0, 0.9])),
    )
    return N, draw(st.sampled_from(P_POOL)), n, xs, cfg


FULL_200 = list(range(201))
ZERO_WIDTHS = ClassifierConfig(0, 0, 0, 0.0, 0.0)
NO_LEFT_EDGE = ClassifierConfig(x_small=0)
P_HALF = Fraction(1, 2)


@given(case=row_cases())
@example(case=(200, Fraction("0.35105217"), 100, FULL_200, DEFAULT_CONFIG))  # X, X*, IV*, IX* ...
@example(case=(200, Fraction("0.35105217"), 197, FULL_200, DEFAULT_CONFIG))  # top row: XI, XI*, XII
@example(case=(100, P_HALF, 50, list(range(101)), DEFAULT_CONFIG))  # the row z = p
# The rows z = p and z = q where n*eps misses p or q by an ulp; with no
# left-edge layer the strip, not the corner, meets the left edge.
@example(case=(33, Fraction(1, 3), 11, list(range(34)), NO_LEFT_EDGE))
@example(case=(75, Fraction(1, 3), 50, list(range(76)), NO_LEFT_EDGE))
@example(case=(120, Fraction(2, 7), 90, [119, 3, 60, 60, 0], ZERO_WIDTHS))
# Real negative roots: U, U - p and U + q are negative reals, whose logs
# lie on the cut that plog puts at +i*pi; III and IV* (minus branch), VII
# and VII* (plus branch).
@example(case=(200, Fraction("0.35105217"), 7, FULL_200, DEFAULT_CONFIG))
@example(case=(200, Fraction("0.35105217"), 182, FULL_200, DEFAULT_CONFIG))
# Grid points exactly on a turning curve at p = 1/2: the discriminant
# collapses to rounding level, the roots to the double root, and the
# coalescence guard refuses the point.  With zero widths the classifier
# routes them to X (x = 1 of row 2 at N = 10), III (x = 1 of row 18 at
# N = 50) and VII (x = 1 of row 32), so each row fails there.
@example(case=(10, P_HALF, 2, list(range(11)), ZERO_WIDTHS))
@example(case=(50, P_HALF, 18, list(range(51)), ZERO_WIDTHS))
@example(case=(50, P_HALF, 32, list(range(51)), ZERO_WIDTHS))
@settings(max_examples=60, deadline=None)
def test_row_path_matches_per_point_references(case):
    N, p, n, xs, cfg = case
    params = Params.from_p(N, p)
    assert classify_row(n, xs, params, cfg) == ref_classify_row(n, xs, params, cfg)

    got = outcome(lambda: approx_row(n, xs, params, cfg))
    if isinstance(got, list):  # the metric read a row at a time, as compare reads it
        got = list(zip(got, norm_err_row(got, ExactRow(n, params), xs)))

    with mock.patch.object(Row, "regions", ref_regions), \
            mock.patch.object(region_formulas, "k_pm_logs", ref_k_pm_logs):
        want = [outcome(lambda: approx(x, n, params, cfg)) for x in xs]
    failures = [w for w in want if isinstance(w, str)]
    if failures:
        want = failures[0]  # the row path stops at the first failing point
    else:
        ref_row = ExactRow(n, params)
        want = [(av, ref_norm_err(av, ref_row, x)) for x, av in zip(xs, want)]
    # repr is exact for floats and tells nan, inf and -0.0 apart
    assert repr(got) == repr(want)
