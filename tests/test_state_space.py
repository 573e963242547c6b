"""Tests for scaled coordinates, branch roots, the ellipse, and the classifier."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from krawtchouk_wkb import accuracy
from krawtchouk_wkb.exact_core import DomainError, Params
from krawtchouk_wkb.state_space import (
    DEFAULT_CONFIG,
    REGION_TAGS,
    ClassifierConfig,
    RegionId,
    Row,
    branch_roots,
    check_scaled,
    classify,
    classify_row,
    region_runs,
    u0,
    u_pm,
    y_pm,
)

from test_row_path import ref_classify_row

Q_POOL = [Fraction(1, 2), Fraction(1, 3), Fraction("0.64894783"), Fraction("0.74894783")]

q_strategy = st.sampled_from(Q_POOL)


def ellipse_residual(y, z, params):
    """Signed residual of the oscillation ellipse E at (y, z): negative inside,
    positive outside.  Algebraically the discriminant of the branch quadratic,
    so its sign also decides whether the roots are real or complex conjugates."""
    p, q = params.pf, params.qf
    w, v = y - 0.5, z - 0.5
    return w * w + v * v + 2.0 * (p - q) * w * v - p * q


def expand_runs(runs):
    labels = []
    for lo, hi, label in runs:
        labels.extend([label] * (hi - lo + 1))
    return labels


# Classification of the full row n for each figure-caption parameter set,
# frozen as run-length encodings (start, end, label); '*' marks mirrored.
FROZEN_ROWS = [
    # (N, q-string, n, runs)
    (100, "0.64894783", 2, [(0, 14, "I"), (15, 55, "II"), (56, 100, "I")]),
    (100, "0.34894783", 10,
     [(0, 29, "III"), (30, 37, "VIII"), (38, 86, "X"), (87, 94, "VIII*"), (95, 100, "IV*")]),
    (100, "0.74894783", 80,
     [(0, 8, "V"), (9, 26, "VII"), (27, 34, "IX"), (35, 95, "X"), (96, 100, "VI*")]),
    (100, "0.74894783", 25,
     [(0, 8, "VI"), (9, 70, "X"), (71, 79, "VIII*"), (80, 100, "IV*")]),
    (40, "0.74894783", 35,
     [(0, 8, "V"), (9, 12, "VII"), (13, 19, "IX"), (20, 35, "X"), (36, 40, "VI*")]),
    (50, "0.74894783", 40,
     [(0, 8, "V"), (9, 11, "VII"), (12, 18, "IX"), (19, 46, "X"), (47, 50, "VI*")]),
    (20, "0.74894783", 19, [(0, 6, "XI"), (7, 20, "XII")]),
    (20, "0.74894783", 20, [(0, 6, "XI"), (7, 20, "XII")]),
]


def params_for(N, qs):
    return Params.from_q(N, Fraction(qs))


# ---------------------------------------------------------------------------
# u0 and the turning curves
# ---------------------------------------------------------------------------


class TestU0:
    def test_vanishes_at_one(self):
        P = params_for(50, "0.64894783")
        assert u0(1.0, P) == 0.0

    def test_equals_q_at_p(self):
        P = params_for(50, "0.64894783")
        assert u0(P.pf, P) == pytest.approx(P.qf, rel=1e-14)

    def test_symmetric_point(self):
        P = Params.from_q(10, Fraction(1, 2))
        assert u0(0.5, P) == pytest.approx(0.5, rel=1e-15)

    @pytest.mark.parametrize("z", [0.0, -0.1, 1.0 + 1e-9])
    def test_domain(self, z):
        P = Params.from_q(10, Fraction(1, 2))
        with pytest.raises(DomainError):
            u0(z, P)

    @given(q=q_strategy, z1=st.floats(0.01, 0.99), z2=st.floats(0.01, 0.99))
    def test_decreasing(self, q, z1, z2):
        P = Params.from_q(30, q)
        lo, hi = sorted((z1, z2))
        if hi - lo > 1e-9:
            assert u0(lo, P) > u0(hi, P)


class TestYpm:
    def test_meet_at_q_when_z_is_one(self):
        P = params_for(50, "0.64894783")
        ym, yp = y_pm(1.0, P)
        assert ym == pytest.approx(P.qf, abs=1e-14)
        assert yp == pytest.approx(P.qf, abs=1e-14)

    def test_small_z_limit_is_p(self):
        P = params_for(50, "0.64894783")
        ym, yp = y_pm(1e-12, P)
        assert ym == pytest.approx(P.pf, abs=1e-5)
        assert yp == pytest.approx(P.pf, abs=1e-5)

    def test_turning_curves_lie_on_ellipse(self):
        P = params_for(50, "0.34894783")
        for i in range(1, 99):
            z = i / 100.0
            ym, yp = y_pm(z, P)
            assert abs(ellipse_residual(ym, z, P)) < 1e-10
            assert abs(ellipse_residual(yp, z, P)) < 1e-10

    @given(q=q_strategy, z=st.floats(1e-6, 1.0))
    def test_ordering(self, q, z):
        P = Params.from_q(30, q)
        ym, yp = y_pm(z, P)
        assert ym <= yp

    def test_domain(self):
        P = Params.from_q(10, Fraction(1, 2))
        with pytest.raises(DomainError):
            y_pm(0.0, P)


class TestEllipseResidual:
    def test_boundary_point_p_zero(self):
        P = params_for(50, "0.64894783")
        assert abs(ellipse_residual(P.pf, 0.0, P)) < 1e-12

    def test_other_known_boundary_points(self):
        P = params_for(50, "0.64894783")
        for y, z in [(0.0, P.pf), (P.qf, 1.0), (1.0, P.qf)]:
            assert abs(ellipse_residual(y, z, P)) < 1e-12

    def test_center_value(self):
        P = params_for(50, "0.64894783")
        assert ellipse_residual(0.5, 0.5, P) == pytest.approx(
            -P.pf * P.qf, rel=1e-14
        )

    def test_origin_positive_for_third(self):
        P = Params.from_q(30, Fraction(2, 3))  # p = 1/3
        val = ellipse_residual(0.0, 0.0, P)
        assert val == pytest.approx(1.0 / 9.0, rel=1e-12)
        assert val > 0


# ---------------------------------------------------------------------------
# Branch roots
# ---------------------------------------------------------------------------


class TestUpm:
    def test_coalescence_on_turning_curves(self):
        P = params_for(50, "0.34894783")
        for z in (0.1, 0.3, 0.6, 0.9):
            ym, yp = y_pm(z, P)
            r = u0(z, P)
            um, up = u_pm(ym, z, P)
            assert abs(um - (-r)) < 1e-10 and abs(up - (-r)) < 1e-10
            um, up = u_pm(yp, z, P)
            assert abs(um - r) < 1e-10 and abs(up - r) < 1e-10

    def test_region_iii_roots_frozen(self):
        # Exponential-zone point y=0.2, z=0.1 for q=0.34894783: both roots
        # real and negative, the larger one between -u0 and 0.
        P = params_for(100, "0.34894783")
        um, up = u_pm(0.2, 0.1, P)
        assert um.imag == 0.0 and up.imag == 0.0
        assert um.real == pytest.approx(-3.6479, abs=2e-4)
        assert up.real == pytest.approx(-0.5605, abs=2e-4)
        r = u0(0.1, P)
        assert um.real < -r < up.real < 0.0

    def test_conjugate_pair_inside(self):
        P = params_for(50, "0.64894783")
        assert ellipse_residual(0.5, 0.5, P) < 0
        um, up = u_pm(0.5, 0.5, P)
        assert up.imag > 0
        assert um == up.conjugate()

    @given(q=q_strategy, y=st.floats(0.0, 1.0), z=st.floats(1e-6, 1.0))
    def test_root_product_and_residual(self, q, y, z):
        P = Params.from_q(30, q)
        um, up = u_pm(y, z, P)
        target = u0(z, P) ** 2
        assert abs(um * up - target) <= 1e-12 * (abs(target) + 1.0)
        b = P.pf - y + z * (P.qf - P.pf)
        c = P.pf * P.qf * (1.0 - z)
        for root in (um, up):
            scale = abs(z * root * root) + abs(b * root) + abs(c) + 1e-30
            assert abs(z * root * root + b * root + c) <= 1e-12 * scale

    def test_discriminant_sign_matches_residual(self):
        P = params_for(50, "0.64894783")
        for i in range(60):
            for k in range(1, 60):
                y, z = i / 59.0, k / 59.0
                res = ellipse_residual(y, z, P)
                if abs(res) < 1e-12:
                    continue
                um, up = u_pm(y, z, P)
                inside = up.imag != 0.0
                assert inside == (res < 0)

    def test_degenerate_top_edge(self):
        P = params_for(50, "0.64894783")
        um, up = u_pm(0.2, 1.0, P)
        assert um.real == pytest.approx(0.2 - P.qf, rel=1e-14)
        assert abs(up) <= 1e-15

    def test_domain(self):
        # The record solves the turning curves before the quadratic's terms,
        # so z = 0 fails in y_pm, not by a division in branch_roots.
        P = Params.from_q(10, Fraction(1, 2))
        with pytest.raises(DomainError, match=r"y_pm requires 0 < z <= 1"):
            u_pm(0.5, 0.0, P)


# ---------------------------------------------------------------------------
# Classifier
# ---------------------------------------------------------------------------


class TestClassify:
    @pytest.mark.parametrize("N,qs,n,runs", FROZEN_ROWS)
    def test_frozen_rows(self, N, qs, n, runs):
        P = params_for(N, qs)
        expected = expand_runs(runs)
        got = [classify(x, n, P).label for x in range(N + 1)]
        assert got == expected

    def test_small_n_is_region_i(self):
        P = params_for(100, "0.64894783")
        assert classify(0, 2, P) == RegionId("I", mirrored=False)

    def test_bottom_row_edge_and_corner_only(self):
        P = params_for(60, "0.64894783")
        tags = {classify(x, 0, P).tag for x in range(61)}
        assert tags == {"I", "II"}

    def test_interior_bulk_is_x(self):
        P = params_for(100, "0.64894783")
        rid = classify(45, 50, P)
        assert rid == RegionId("X", mirrored=False)

    def test_deterministic(self):
        P = params_for(40, "0.74894783")
        for x in range(41):
            for n in range(41):
                assert classify(x, n, P) == classify(x, n, P)

    @pytest.mark.parametrize("x,n", [(-1, 3), (3, -1), (101, 0), (0, 101)])
    def test_range_errors(self, x, n):
        P = params_for(100, "0.64894783")
        with pytest.raises(DomainError):
            classify(x, n, P)

    def test_non_integer_rejected(self):
        P = params_for(100, "0.64894783")
        with pytest.raises(DomainError):
            classify(2.5, 3, P)

    @pytest.mark.parametrize("xs", [[1, 2.5, 3], [0, True], [3, 101, 7], [5, -1], ["a", 4]])
    def test_row_refuses_any_bad_abscissa(self, xs):
        # the row's range is tested once, so a bad entry inside it must still be caught
        P = params_for(100, "0.64894783")
        with pytest.raises(DomainError):
            classify_row(3, xs, P)

    @settings(max_examples=300)
    @given(
        q=q_strategy,
        N=st.integers(64, 150),
        data=st.data(),
    )
    def test_mirror_pairing_wide_strip(self, q, N, data):
        # Re-classifying the reflected point with exchanged p, q must give the
        # same tag, except that the lower exponential zone tags III and IV
        # trade places.  The small-x layer exists only on the left edge, so
        # the pairing needs that layer to sit inside the reflected turning
        # strip: x_small*eps <= beta_max*eps^{2/3}, i.e. N >= (x_small/beta_max)^3
        # = 64 at beta_max = 2.
        cfg = ClassifierConfig(beta_max=2.0)
        P = Params.from_q(N, q)
        x = data.draw(st.integers(0, N))
        n = data.draw(st.integers(0, N))
        t1 = classify(x, n, P, cfg).tag
        t2 = classify(N - x, n, P.swapped(), cfg).tag
        if {t1, t2} != {"III", "IV"}:
            assert t1 == t2

    @settings(max_examples=150)
    @given(
        q=q_strategy,
        N=st.integers(703, 1100),
        data=st.data(),
    )
    def test_mirror_pairing_default_strip(self, q, N, data):
        # Same pairing at the default strip width, which needs
        # N >= (x_small/beta_max)^3 = (8/0.9)^3 ~ 703.
        P = Params.from_q(N, q)
        x = data.draw(st.integers(0, N))
        n = data.draw(st.integers(0, N))
        t1 = classify(x, n, P).tag
        t2 = classify(N - x, n, P.swapped()).tag
        if {t1, t2} != {"III", "IV"}:
            assert t1 == t2

    def test_wide_strip_config_changes_membership(self):
        P = params_for(100, "0.34894783")
        wide = ClassifierConfig(beta_max=4.0)
        assert classify(24, 10, P).tag == "III"
        assert classify(24, 10, P, wide).tag == "VIII"

    def test_zero_corner_width_top_rows_at_x_equal_qn(self):
        # q = 7/10 at N = 10: 7 * 0.1 > 0.7 and 3 * 0.1 > 0.3 in doubles, so
        # only an exact test keeps (7, n) and its mirror from both deferring.
        P = Params.from_q(10, "0.7")
        off = ClassifierConfig(corner_width=0.0)
        labels = {classify(x, n, P, off).label for n in range(6, 11) for x in range(11)}
        assert labels == {"XI", "XI*"}

    def test_zero_width_disables_strip(self):
        P = params_for(100, "0.34894783")
        off = ClassifierConfig(beta_max=0.0)
        tags = {classify(x, 10, P, off).tag for x in range(25, 43)}
        assert "VIII" not in tags


@st.composite
def map_rows(draw):
    """(N, n, q): a row of a map with N in [1, 500] and q a rational string."""
    N = draw(st.integers(1, 500))
    den = draw(st.integers(2, 1000))
    return N, draw(st.integers(0, N)), f"{draw(st.integers(1, den - 1))}/{den}"


layer_configs = st.builds(
    ClassifierConfig,
    n_small=st.integers(0, 6),
    x_small=st.integers(0, 12),
    j_small=st.integers(0, 6),
    corner_width=st.floats(0.0, 6.0),
    beta_max=st.floats(0.0, 12.0),
)

ZERO_WIDTHS = ClassifierConfig(n_small=0, x_small=0, j_small=0, corner_width=0.0, beta_max=0.0)


class TestRegionRuns:
    @settings(max_examples=200, deadline=None)
    @given(row=map_rows(), cfg=layer_configs)
    # z == p: the strip points of the row are VI, and x_small = 0 exposes them
    @example(row=(400, 200, "1/2"), cfg=DEFAULT_CONFIG)
    @example(row=(400, 200, "1/2"), cfg=ClassifierConfig(x_small=0))
    @example(row=(100, 50, "0.74894783"), cfg=ZERO_WIDTHS)
    @example(row=(100, 100, "1/2"), cfg=ZERO_WIDTHS)
    # strips wider than the gap between the turning curves: IX runs into V*
    @example(row=(100, 95, "0.64894783"), cfg=ClassifierConfig(beta_max=12.0))
    # a mirror whose left layer is wider than the whole grid
    @example(row=(3, 1, "1/10"), cfg=ClassifierConfig(n_small=0, x_small=12, j_small=0))
    # bottom rows: I on both sides of the II corner
    @example(row=(100, 2, "0.64894783"), cfg=DEFAULT_CONFIG)
    # top rows: XI, then the XII corner, then XI of the mirror
    @example(row=(100, 100, "0.54894783"), cfg=DEFAULT_CONFIG)
    @example(row=(100, 97, "0.54894783"), cfg=DEFAULT_CONFIG)
    # no XII corner: only the exact cut x <= qN separates XI from XI*
    @example(row=(10, 8, "7/10"), cfg=ClassifierConfig(corner_width=0.0))
    # widths wider than the grid: the first-flip guesses are infinite
    @example(row=(100, 0, "1/2"), cfg=ClassifierConfig(corner_width=1e308))
    @example(row=(100, 98, "1/2"), cfg=ClassifierConfig(corner_width=1e308))
    @example(row=(100, 30, "1/3"), cfg=ClassifierConfig(beta_max=1e308))
    def test_runs_expand_to_the_row(self, row, cfg):
        # classify_row reads the runs, so the runs are held to the per-point
        # classifier of the row-path tests.
        N, n, q = row
        P = Params.from_q(N, q)
        runs = region_runs(n, P, cfg)
        assert [rid for start, stop, rid in runs for _ in range(start, stop)] == \
            ref_classify_row(n, range(N + 1), P, cfg)
        assert runs[0][0] == 0 and runs[-1][1] == N + 1
        assert all(start < stop for start, stop, _ in runs)
        for (_, stop, rid), (start, _, next_rid) in zip(runs, runs[1:]):
            assert stop == start and rid != next_rid

    @pytest.mark.parametrize("n", [-1, 101, 2.0, True])
    def test_bad_row_refused(self, n):
        with pytest.raises(DomainError):
            region_runs(n, params_for(100, "0.64894783"))


class TestRowRecord:
    def test_lazy_fields_read_on_the_class_are_the_fields(self):
        # As with functools.cached_property, a lazy field read on the class
        # is the field itself, whose solver a row's first read runs.
        P = params_for(100, "0.64894783")
        for name in ("mirror", "curves", "u0", "r2", "strip"):
            assert getattr(Row, name) is Row.__dict__[name]
        assert Row.curves.solve(Row(0.5, P)) == y_pm(0.5, P) == Row(0.5, P).curves


class TestConfigTypes:
    def test_defaults(self):
        cfg = DEFAULT_CONFIG
        assert (cfg.n_small, cfg.x_small, cfg.j_small) == (4, 8, 4)
        assert cfg.corner_width == 3.0
        assert cfg.beta_max == 0.9
        with pytest.raises(AttributeError):
            cfg.beta_max = 1.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_small": -1},
            {"x_small": -2},
            {"j_small": -1},
            {"corner_width": -0.5},
            {"corner_width": True},
            {"beta_max": float("nan")},
            {"n_small": 2.5},
        ],
    )
    def test_invalid_config(self, kwargs):
        with pytest.raises(DomainError):
            ClassifierConfig(**kwargs)
        with pytest.raises(DomainError):
            DEFAULT_CONFIG._replace(**kwargs)

    def test_region_id_validation(self):
        with pytest.raises(DomainError):
            RegionId("XIII")
        with pytest.raises(DomainError):
            RegionId("IV")._replace(tag="XIII")
        assert RegionId("IV", mirrored=True).label == "IV*"
        assert RegionId("X").label == "X"
        assert repr(RegionId("IV", mirrored=True)) == "RegionId(tag='IV', mirrored=True)"
        with pytest.raises(AttributeError):
            RegionId("X").mirrored = True
        assert len(REGION_TAGS) == 12

    def test_check_scaled(self):
        with pytest.raises(DomainError):
            check_scaled(1.5, 0.5)
        with pytest.raises(DomainError):
            check_scaled(0.5, float("nan"))
        # u_pm checks its point before the row's turning curves.
        with pytest.raises(DomainError, match=r"y=1\.5 outside the unit interval"):
            u_pm(1.5, 0.0, Params.from_q(10, Fraction(1, 2)))


# --- criterion 6's branch-root residual -------------------------------------


def all_complex_residual(y, row):
    """The reference for criterion 6's residual at (y, z): the larger of
    |z u^2 + b u + c| / max(|z u^2|, |b u|, c) over both roots, each in
    complex arithmetic, with max() for both maxima."""
    z, b, c = row.z, row.params.pf - y + row.zqp, row.c
    worst = 0.0
    for root in branch_roots(y, row):
        quad, lin = z * root * root, b * root
        worst = max(worst, abs(quad + lin + c) / max(abs(quad), abs(lin), c))
    return worst


def root_kind(y, row):
    um, up = branch_roots(y, row)
    if up.imag:
        assert um == up.conjugate()  # the exact test that lets a pair be evaluated once
        return "complex"
    return "double" if um == up else "real"


@pytest.mark.parametrize("q", ["0.34894783", "0.74894783"])
def test_root_residual_is_the_all_complex_residual_bit_for_bit(q):
    # On a 50 x 50 grid of cell midpoints, plus each row's two turning
    # curves, where the roots collapse to a double root, and two rows by
    # z = 0 and z = 1 whose band of complex roots is narrower than a cell:
    # real roots as floats and a conjugate pair once give the all-complex
    # residual to the bit.
    params = Params.from_q(100, q)
    mids = [(i + 0.5) / 50 for i in range(50)]
    row_kinds, curve_kinds = [], set()
    for z in [1e-7, *mids, 1.0 - 1e-7]:
        row = Row(z, params)
        for y in [*mids, *row.curves]:
            got, want = accuracy._root_residual([y], row), all_complex_residual(y, row)
            assert got.hex() == want.hex(), (z, y)
        row_kinds.append({root_kind(y, row) for y in mids})
        curve_kinds |= {root_kind(y, row) for y in row.curves}
    assert {"real", "complex"} <= row_kinds[1] and {"real", "complex"} <= row_kinds[-2]  # both
    assert row_kinds[0] == row_kinds[-1] == {"real"}
    assert "double" in curve_kinds


def test_criterion_6_worst_root_residual_is_pinned():
    # The worst residual over criterion 6's 200 x 200 grid, to the bit.
    params = Params.from_q(100, "0.74894783")
    mids = [(i + 0.5) / 200 for i in range(200)]
    assert max(accuracy._root_residual(mids, Row(z, params)) for z in mids) == 6.308394358428778e-16
