"""Tests for the twelve closed-form regional evaluators and the dispatcher.

Accuracy bounds in this file are oracle-pinned: each numeric interval was
measured against the exact rational tables at the stated (N, q, n, x) before
being frozen here, so a change that moves a value outside its interval is a
real behavioral change, not tolerance noise.
"""

import cmath
import csv
import math
from fractions import Fraction
from pathlib import Path
from unittest import mock

import mpmath
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from krawtchouk_wkb.accuracy import FIGURES, figure_sweep, formula_gap, norm_err_row
from krawtchouk_wkb.exact_core import DomainError, ExactRow, Params, krawtchouk_sum
from krawtchouk_wkb.region_formulas import (
    _finalize,
    _from_log,
    _sum_scaled,
    approx,
    approx_row,
    evaluate_region,
    k1,
    k2,
    k5,
    k8,
    k9,
    k10,
    k11,
    k12,
)
from krawtchouk_wkb.special_fns import hermite
from krawtchouk_wkb.state_space import (
    DEFAULT_CONFIG,
    ClassifierConfig,
    RegionId,
    Row,
    classify,
    y_pm,
)
from krawtchouk_wkb.wkb_core import SingularityError, k_pm_log

P100_74 = Params.from_q(100, "0.74894783")
P200_74 = Params.from_q(200, "0.74894783")
P100_34 = Params.from_q(100, "0.34894783")
P200_34 = Params.from_q(200, "0.34894783")
P100_64 = Params.from_q(100, "0.64894783")
P200_64 = Params.from_q(200, "0.64894783")
P20_74 = Params.from_q(20, "0.74894783")
# p = 1/4 on a grid of exact binary steps: y = p at x = 4 and z = p at n = 4
P16_25 = Params.from_q(16, "3/4")

ALL_TAGS = ("I", "II", "III", "IV", "V", "VI", "VII", "VIII", "IX", "X", "XI", "XII")

# the p values of the exact-core property tests
P_POOL = [Fraction(1, 2), Fraction(1, 3), Fraction(2, 7), Fraction("0.64894783")]


def forced(tag: str, x: int, n: int, params: Params):
    """One point of :func:`evaluate_region`: its value, or its error raised."""
    av = evaluate_region(tag, n, [x], params)[0]
    if isinstance(av, Exception):
        raise av
    return av


def region_gap(tag_a: str, tag_b: str, x: int, n: int, params: Params) -> float:
    """Envelope-normalized disagreement of two formulas at one grid point."""
    a = forced(tag_a, x, n, params)
    b = forced(tag_b, x, n, params)
    return formula_gap(a, b, ExactRow(n, params), x)


def finalized(pair, tag: str):
    """A kernel's (mantissa, scale) pair as the dispatcher reports it."""
    return _finalize(*pair, RegionId(tag))


def row_of(n: int, params: Params) -> Row:
    """Row n in the unreflected orientation, as the dispatcher builds it."""
    return Row.at(n, params)


def run(kernel, xs, n: int, row: Row) -> list:
    """The (mantissa, scale) pairs a kernel appends for the points of xs on
    ``row``; a refused point raises."""
    out = []
    kernel(xs, n, row, out)
    return out


def point_err(tag: str, x: int, n: int, params: Params) -> float:
    return norm_err_row([forced(tag, x, n, params)], ExactRow(n, params), [x])[0]


# ---------------------------------------------------------------------------
# Stretched layer coordinates on the row
# ---------------------------------------------------------------------------


class TestRowCoords:
    # p = 1/4 on a grid of steps 1/100: y = p at x = 25, z = p at n = 25, y = q at x = 75
    P_QUARTER = Params.from_q(100, Fraction(3, 4))

    def test_u_matches_six_decimals(self):
        assert round(row_of(25, P100_74).u, 6) == pytest.approx(0.024265, abs=5e-7)

    def test_eta_zero_at_exact_mean(self):
        assert row_of(10, self.P_QUARTER).eta(25) == 0.0

    def test_beta_zero_on_turning_curve_start(self):
        # At z = p the lower turning curve passes through y = 0.
        assert abs(row_of(25, self.P_QUARTER).beta(0)) < 1e-12

    def test_xi_zero_at_q(self):
        assert row_of(98, self.P_QUARTER).xi(75) == 0.0

    def test_total_on_boundary_rows(self):
        # beta needs Y^-(z), which starts at z > 0; no kernel reads it on row 0.
        P = Params.from_q(30, "0.64894783")
        for n in (0, 30):
            row = row_of(n, P)
            assert all(math.isfinite(v) for v in (row.eta(5), row.u, row.xi(5)))
        assert math.isfinite(row_of(30, P).beta(5))

    def test_beta_sign_outside_below(self):
        # y below the lower turning curve means beta > 0.
        row = row_of(10, P100_34)
        assert row.beta(10) > 0
        assert row.beta(40) < 0


# ---------------------------------------------------------------------------
# Whole-row sweeps: every in-region point of each reference row stays under
# the per-formula budget (5% rows 3-8, 8% rows 9-12, 10% rows 13-14).
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("fig_id", sorted(FIGURES))
def test_reference_row_within_budget(fig_id):
    spec = FIGURES[fig_id]
    worst, worst_x, in_region = figure_sweep(spec, DEFAULT_CONFIG)
    assert in_region > 0, "no point of the row was assigned the expected region"
    assert worst <= spec.bar, f"x={worst_x}: windowed error {worst:.4f} > {spec.bar}"


# ---------------------------------------------------------------------------
# Bottom rows (small n)
# ---------------------------------------------------------------------------


class TestBottomRows:
    def test_degree_zero_is_one(self):
        pair = run(k1, [37], 0, row_of(0, P100_74))[0]
        av = finalized(pair, "I")
        assert av.value == 1.0
        assert av.ln_scale == 0.0
        assert type(pair[0]) is float

    def test_degree_one_is_linear(self):
        x = 30
        av = finalized(run(k1, [x], 1, row_of(1, P100_74))[0], "I")
        expected = x - 100 * P100_74.pf
        assert av.value == pytest.approx(expected, rel=1e-12)

    def test_exact_zero_on_the_node(self):
        assert 4 * P16_25.eps == P16_25.pf
        av = finalized(run(k1, [4], 3, row_of(3, P16_25))[0], "I")
        assert av.value == 0.0
        assert av.ln_scale == -math.inf

    def test_corner_profile_zero_at_odd_node(self):
        assert row_of(1, P16_25).eta(4) == 0.0
        av = finalized(run(k2, [4], 1, row_of(1, P16_25))[0], "II")
        assert av.value == 0.0
        assert av.ln_scale == -math.inf

    def test_corner_profile_matches_exact_row(self):
        # degree-2 row at the grid point nearest the corner center
        x = round(100 * P100_74.pf)
        assert point_err("II", x, 2, P100_74) <= 0.01


# ---------------------------------------------------------------------------
# Single-branch exterior (below-left / above-right of the oscillatory zone)
# ---------------------------------------------------------------------------


class TestSingleBranchExterior:
    def test_rejects_upper_rows(self):
        with pytest.raises(DomainError):
            forced("III", 10, 30, P100_74)  # z = 0.30 >= p

    def test_rejects_oscillatory_interior(self):
        with pytest.raises(DomainError):
            forced("III", 30, 10, P100_74)  # between the curves

    @pytest.mark.parametrize("x, n", [(157, 51), (185, 60), (197, 91)])
    def test_plus_branch_reaches_z_up_to_q(self, x, n):
        # With q > 1/2 the classifier labels IV* up to z = q, above p; forced
        # IV, the mirrored III, evaluates there and agrees with the routed value.
        assert n * P200_74.eps >= P200_74.pf
        assert classify(x, n, P200_74).tag == "IV"
        value = forced("IV", x, n, P200_74)
        routed = approx(x, n, P200_74)
        assert value.ln_scale == pytest.approx(routed.ln_scale, abs=1e-12)
        assert math.copysign(1.0, value.value) == math.copysign(1.0, routed.value)

    @pytest.mark.parametrize("q", ["0.34894783", "0.64894783", "0.74894783"])
    def test_forced_iv_is_routed_iv_and_each_side_refuses_the_other(self, q):
        # IV is III on the reflected grid, so forcing it reproduces the routed
        # value to the bit; III never evaluates right of the upper curve and
        # IV never left of the lower one.
        params = Params.from_q(60, q)
        iv_points = 0
        for n in range(1, 61):
            ym, yp = y_pm(n * params.eps, params)
            for x in range(61):
                y = x * params.eps
                if classify(x, n, params).tag == "IV":
                    iv_points += 1
                    value, routed = forced("IV", x, n, params), approx(x, n, params)
                    for field in ("value", "ln_scale"):
                        assert repr(getattr(value, field)) == repr(getattr(routed, field))
                if y > yp:
                    with pytest.raises(DomainError):
                        forced("III", x, n, params)
                if y < ym:
                    with pytest.raises(DomainError):
                        forced("IV", x, n, params)
        assert iv_points > 0

    def test_plus_branch_rejects_z_from_q(self):
        # With q < 1/2, right of the upper curve at q <= z < p is VII*.
        x, n = 190, 130
        assert P200_34.qf <= n * P200_34.eps < P200_34.pf
        assert classify(x, n, P200_34).label == "VII*"
        with pytest.raises(DomainError, match="z < q"):
            forced("IV", x, n, P200_34)

    def test_branch_selection_and_signs(self):
        exact = ExactRow(10, P100_34)
        left = forced("III", 20, 10, P100_34)
        assert left.region.tag == "III"
        right = forced("IV", 95, 10, P100_34)
        assert right.region.tag == "IV"
        for x, av in ((20, left), (95, right)):
            assert math.copysign(1.0, av.value) == exact.signs[x]
            assert norm_err_row([av], exact, [x])[0] <= 0.02


# ---------------------------------------------------------------------------
# Left edge: explicit two-term form (V) and its crossover profile (VI)
# ---------------------------------------------------------------------------


class TestLeftEdge:
    def test_edge_domain_errors(self):
        with pytest.raises(SingularityError):
            run(k5, [0], 4, row_of(4, P16_25))  # z = p
        with pytest.raises(DomainError, match="left-edge formula requires"):
            run(k5, [0], 10, row_of(10, P100_74))  # below the crossover

    def test_edge_accuracy_at_column_zero(self):
        # measured 0.13% windowed at (x=0, n=90, N=200)
        assert point_err("V", 0, 90, P200_74) <= 0.02

    def test_edge_value_is_real_at_integer_x(self):
        m, _ = run(k5, [5], 50, row_of(50, P100_74))[0]
        assert type(m) is float and m in (1.0, -1.0)

    def test_crossover_profile_small_u(self):
        # the built-in row through the crossover has |u| ~ 0.02 at x = 0
        assert point_err("VI", 0, 25, P100_74) <= 0.02

    def test_crossover_matches_branch_form_at_moderate_u(self):
        # junction at u ~ +2: oracle-measured 5.9% (n=16) and 1.1% (n=17)
        worst = max(region_gap("VI", "III", 0, n, P100_74) for n in (16, 17))
        assert worst <= 0.065

    def test_crossover_gap_at_large_u_is_pinned(self):
        # at u ~ +3 the neglected cubic exponent dominates; the gap decays
        # with N like exp(c/sqrt(N)) and is pinned at both grid sizes
        gap_100 = region_gap("VI", "III", 0, 12, P100_74)
        gap_200 = region_gap("VI", "III", 0, 32, P200_74)
        assert 0.55 <= gap_100 <= 0.68
        assert 0.28 <= gap_200 <= 0.40
        assert gap_200 < gap_100


# ---------------------------------------------------------------------------
# Upper-left exterior: two-branch interference form (VII)
# ---------------------------------------------------------------------------


class TestInterferenceExterior:
    def test_reduces_to_plus_branch_on_grid(self):
        for x in (10, 14, 19, 23, 26):
            av = forced("VII", x, 80, P100_74)
            plus = cmath.exp(k_pm_log("+", x * P100_74.eps, 80 * P100_74.eps, P100_74))
            assert av.value == pytest.approx(plus.real, rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            forced("VII", 10, 10, P100_74)  # z < p
        with pytest.raises(DomainError):
            forced("VII", 50, 80, P100_74)  # not left of the curve

    def test_matches_left_edge_where_domains_meet(self):
        worst = max(
            region_gap("VII", "V", x, 80, P100_74) for x in (8, 9, 10)
        )
        assert worst <= 0.015


# ---------------------------------------------------------------------------
# Turning-curve strips (VIII below the crossover, IX above)
# ---------------------------------------------------------------------------


class TestLowerStrip:
    def test_domain_errors(self):
        with pytest.raises(SingularityError):
            run(k8, [2], 4, row_of(4, P16_25))  # z = p
        with pytest.raises(DomainError, match="lower-strip formula requires"):
            run(k8, [90], 99, row_of(99, P100_34))
        with pytest.raises(DomainError, match="lower-strip formula requires"):
            run(k8, [5], 0, row_of(0, P100_34))  # the kernel's check comes before Y^-(0)

    def test_matches_branch_form_inside_strip(self):
        # |beta| ~ 1.2: the stated 10% agreement holds (measured 9.7%)
        assert region_gap("VIII", "III", 28, 10, P100_34) <= 0.105

    def test_strip_edge_gap_is_pinned(self):
        # |beta| ~ 2: leading-order envelopes have detuned; the normalized
        # gap is pinned at N=100 and must shrink at N=200 (measured 18% -> 11%)
        gap_100 = region_gap("VIII", "III", 24, 10, P100_34)
        gap_200 = region_gap("VIII", "III", 56, 20, P200_34)
        assert 0.14 <= gap_100 <= 0.22
        assert gap_200 < gap_100


class TestUpperStrip:
    def test_domain_errors(self):
        with pytest.raises(SingularityError):
            run(k9, [2], 4, row_of(4, P16_25))  # z = p
        with pytest.raises(DomainError, match="upper-strip formula requires"):
            run(k9, [5], 10, row_of(10, P100_74))
        with pytest.raises(DomainError, match="upper-strip formula requires"):
            run(k9, [5], 0, row_of(0, P100_74))

    def test_matches_interference_form_outward(self):
        worst = max(
            region_gap("IX", "VII", x, 80, P100_74) for x in (21, 22)
        )
        assert worst <= 0.06

    def test_gap_to_interior_form_at_inner_edge_is_pinned(self):
        # the worst point tracks the first zero of the oscillatory profile
        # (measured 11.6% at N=100); pinned rather than forced under 10%
        worst = max(
            region_gap("IX", "X", x, 80, P100_74) for x in (39, 40)
        )
        assert 0.07 <= worst <= 0.13

    def test_real_on_grid(self):
        m, s = run(k9, [30], 80, row_of(80, P100_74))[0]
        assert type(m) is float and type(s) is float


# ---------------------------------------------------------------------------
# Oscillatory interior (X) and its corner matching
# ---------------------------------------------------------------------------


class TestOscillatoryInterior:
    def test_rejects_exterior_points(self):
        with pytest.raises(DomainError, match="between the turning curves"):
            run(k10, [1], 10, row_of(10, P100_74))

    @staticmethod
    def _two_branch_sum(y: float, z: float, params: Params):
        """The interior form as the explicit complex sum of both branches, each
        phase formed as exp(i*pi*t) from t = Im(log K)/pi."""
        terms = [(cmath.exp(complex(0.0, math.pi * (lk.imag / math.pi))), lk.real)
                 for lk in (k_pm_log(branch, y, z, params) for branch in ("+", "-"))]
        return _sum_scaled(terms)

    @classmethod
    def _two_branch_k10(cls, y: float, z: float, params: Params):
        """The real part of :meth:`_two_branch_sum`, as the dispatcher reports it."""
        m, s = cls._two_branch_sum(y, z, params)
        return finalized((m.real, s), "X")

    @settings(max_examples=150, deadline=None)
    @given(
        data=st.data(),
        N=st.integers(min_value=20, max_value=300),
        p=st.sampled_from(P_POOL),
    )
    def test_plus_branch_alone_equals_two_branch_sum(self, data, N, p):
        # Inside the ellipse the minus branch is the exact conjugate of the
        # plus branch, so 2 Re K+ reproduces the two-branch sum bit for bit.
        params = Params.from_p(N, p)
        x = data.draw(st.integers(min_value=0, max_value=N))
        n = data.draw(st.integers(min_value=0, max_value=N))
        rid = classify(x, n, params)
        assume(rid.tag == "X")
        if rid.mirrored:
            x, params = N - x, params.swapped()
        row = row_of(n, params)
        got = finalized(run(k10, [x], n, row)[0], "X")
        old = self._two_branch_k10(x * params.eps, row.z, params)
        assert (repr(got.value), repr(got.ln_scale)) == (repr(old.value), repr(old.ln_scale))

    def test_plus_branch_alone_off_the_grid(self):
        # The conjugate symmetry that k10 rests on also holds off the grid,
        # where the branch logs still take a continuous y.
        for y, z in ((0.347, 0.503), (0.61, 0.42), (0.2, 0.35)):
            m, s = _from_log(k_pm_log("+", y, z, P100_64))
            got = finalized((2.0 * m, s), "X")
            old = self._two_branch_k10(y, z, P100_64)
            assert got == old

    def test_conjugate_branches_cancel_imaginary_part(self):
        # The imaginary parts that 2 Re K+ leaves out cancel in the two-branch
        # sum: exactly on the grid, to rounding off it.
        for x, n in ((35, 50), (40, 60), (30, 40), (45, 30)):
            m, _ = self._two_branch_sum(x * P100_64.eps, n * P100_64.eps, P100_64)
            assert m.imag == 0.0 and m.real != 0.0
        m, _ = self._two_branch_sum(0.347, 0.503, P100_64)
        assert abs(m.imag) <= 1e-8 * abs(m.real)

    @staticmethod
    def _corner_form(n: int, eta: float, params: Params) -> float:
        """The bottom-corner form H_n(eta) (pq/(2 eps))^(n/2) / n! at a
        continuous eta; k2 is this form at the grid points."""
        p, q = params.pf, params.qf
        sign, ln_h = hermite(n, eta)
        return (sign * math.exp(ln_h) * math.exp(0.5 * n * (math.log(p * q / 2.0) - math.log(params.eps))
                                                 - math.lgamma(n + 1)))

    def test_corner_form_is_the_corner_kernel_on_the_grid(self):
        p, q, eps = P100_74.pf, P100_74.qf, P100_74.eps
        for n in (2, 4, 10, 20):
            for x in range(20, 31):
                eta = (x * eps - p) / math.sqrt(2.0 * p * q * eps)
                av = finalized(run(k2, [x], n, row_of(n, P100_74))[0], "II")
                assert av.value == pytest.approx(self._corner_form(n, eta, P100_74), rel=1e-12)

    @staticmethod
    def _cosine_profile(n: int, eta: float, params: Params) -> float:
        """Large-degree cosine profile of the bottom-corner comparison form."""
        s = eta * eta / 2.0 + (n / 2.0) * (
            1.0 + math.log(params.pf * params.qf / (params.eps * n))
        )
        return math.exp(s) * math.cos(math.sqrt(2.0 * n) * eta - n * math.pi / 2.0) / math.sqrt(n * math.pi)

    def test_cosine_profile_converges_to_corner_form(self):
        # the comparison profile itself carries a 1/n error against the
        # corner evaluator; pinned at n = 4, 10, 20 on a fixed eta grid
        def worst(n):
            return max(
                abs(self._cosine_profile(n, eta, P100_74)
                    / self._corner_form(n, eta, P100_74) - 1.0)
                for eta in (-0.9, -0.45, 0.0, 0.45, 0.9)
            )

        w4, w10, w20 = worst(4), worst(10), worst(20)
        assert 0.30 <= w4 <= 0.45
        assert 0.08 <= w10 <= 0.15
        assert w20 <= 0.05
        assert w20 < w10 < w4

    @staticmethod
    def _interior_vs_profile(N: int) -> float:
        """Worst windowed gap between the interior form and the cosine profile
        over the corner window |eta| <= 0.9 at degree 10."""
        params = Params.from_q(N, "0.74894783")
        n = 10
        half = math.sqrt(2.0 * params.pf * params.qf * N)
        center = N * params.pf
        worst = 0.0
        for x in range(math.ceil(center - 0.9 * half), math.floor(center + 0.9 * half) + 1):
            av = finalized(run(k10, [x], n, row_of(n, params))[0], "X")
            eta = (x - center) / half
            profile = TestOscillatoryInterior._cosine_profile(n, eta, params)
            env = max(
                abs(float(krawtchouk_sum(n, xx, params)))
                for xx in range(max(0, x - 5), min(N, x + 5) + 1)
            )
            worst = max(worst, abs(av.value - profile) / env)
        return worst

    def test_interior_form_approaches_profile_near_corner(self):
        # two stacked limits (degree and grid size) keep the gap large at
        # moderate N; it is pinned and must fall monotonically in N
        g100 = self._interior_vs_profile(100)
        g500 = self._interior_vs_profile(500)
        g1000 = self._interior_vs_profile(1000)
        g2000 = self._interior_vs_profile(2000)
        assert 0.70 <= g100 <= 0.95
        assert 0.40 <= g500 <= 0.55
        assert 0.33 <= g1000 <= 0.48
        assert 0.30 <= g2000 <= 0.45
        assert g2000 < g1000 < g500 < g100


# ---------------------------------------------------------------------------
# Top rows (XI) and top corner (XII)
# ---------------------------------------------------------------------------


class TestTopRows:
    def test_domain_errors(self):
        with pytest.raises(DomainError, match="outside the unit interval"):
            run(k11, [150], 99, row_of(99, P100_74))  # y = 1.5
        with pytest.raises(SingularityError):
            run(k11, [12], 15, row_of(15, P16_25))  # y = q

    def test_top_row_is_exact(self):
        exact = ExactRow(20, P20_74)
        for x in (3, 10, 19):
            av = finalized(run(k11, [x], 20, row_of(20, P20_74))[0], "XI")
            assert av.value == pytest.approx(exact.signs[x] * math.exp(exact.logs[x]), rel=1e-12)


    @pytest.mark.parametrize("N", [100, 200])
    @pytest.mark.parametrize("q", ["0.34894783", "0.64894783", "0.74894783"])
    def test_top_rows_right_of_the_corner_are_mirrored(self, N, q):
        # Right of the XII corner the top rows are XI of the mirror; the
        # unreflected formula was off by up to 7e82 there (measured max
        # after the fix: 0.108 at N=100, q=0.64894783).
        params = Params.from_q(N, q)
        labels = set()
        for n in range(N - 4, N + 1):
            exact = ExactRow(n, params)
            for x in range(N + 1):
                av = approx(x, n, params)
                if av.region.tag == "XI":
                    labels.add(av.region.label)
                    assert norm_err_row([av], exact, [x])[0] <= 0.15, (x, n)
        assert "XI*" in labels


class TestTopCorner:
    def test_top_corner_profile_exact_at_order_zero(self):
        exact = ExactRow(20, P20_74)
        for x in (4, 9, 15):
            av = finalized(run(k12, [x], 20, row_of(20, P20_74))[0], "XII")
            assert av.value == pytest.approx(exact.signs[x] * math.exp(exact.logs[x]), rel=1e-12)

    def test_corner_value_is_real_at_integer_x(self):
        for x, n in ((15, 18), (16, 19), (17, 20)):
            m, _ = run(k12, [x], n, row_of(n, P20_74))[0]
            assert type(m) is float

    def test_matches_interior_form_at_moderate_order(self):
        worst_100 = max(
            region_gap("XII", "X", x, 90, P100_64) for x in range(60, 70)
        )
        worst_200 = max(
            region_gap("XII", "X", x, 190, P200_64) for x in range(125, 135)
        )
        assert worst_100 <= 0.10
        assert worst_200 < worst_100


# ---------------------------------------------------------------------------
# Dispatcher: forced evaluation, mirroring, totality
# ---------------------------------------------------------------------------


#: q values for the totality property: 1/2 and 1/10 (where the cylinder
#: function has exact zeros on the grid) and values near 0 and 1.
Q_TOTALITY = [Fraction(1, 2), Fraction(1, 10), Fraction(1, 1000), Fraction(1, 100),
              Fraction(99, 100), Fraction(999, 1000), Fraction(1, 4), Fraction(7, 10)]


@st.composite
def grid_points(draw):
    N = draw(st.integers(min_value=1, max_value=40))
    q = draw(st.sampled_from(Q_TOTALITY))
    x = draw(st.integers(min_value=0, max_value=N))
    n = draw(st.integers(min_value=0, max_value=N))
    return N, q, x, n


@st.composite
def wide_configs(draw):
    """(N, p, widths, rows): n_small, x_small, j_small up to N <= 60 and
    corner_width up to 30, and a few rows of the grid."""
    N = draw(st.integers(min_value=1, max_value=60))
    counts = st.integers(min_value=0, max_value=N)
    widths = (draw(counts), draw(counts), draw(counts), draw(st.floats(min_value=0.0, max_value=30.0)))
    rows = draw(st.lists(st.integers(min_value=0, max_value=N), min_size=3, max_size=5))
    return N, draw(st.sampled_from(P_POOL)), widths, rows


class TestDispatcher:
    def test_unknown_tag_rejected(self):
        with pytest.raises(DomainError):
            forced("Q", 10, 10, P100_74)
        with pytest.raises(DomainError):
            forced("iii", 10, 10, P100_74)

    @pytest.mark.parametrize("tag", ALL_TAGS)
    def test_forced_row_holds_each_points_value_or_error(self, tag):
        # Each formula forced on every row of the N=16 grid with p = 1/4 and
        # on row 50 at N=100: rows its row check refuses (z = 0 for most),
        # the row z = p (n = 4), and the top rows, where XI refuses y = q at
        # x = 12 in the middle of its run; X on row 50 refuses the points
        # outside the turning curves and evaluates those between them.  Each
        # entry is what its point gives alone, so a refused point stops no
        # later one.
        for params, n in [*((P16_25, n) for n in range(17)), (P100_74, 50)]:
            xs = list(range(params.N + 1))
            got = evaluate_region(tag, n, xs, params)
            assert len(got) == len(xs)
            for x, av in zip(xs, got):
                alone = evaluate_region(tag, n, [x], params)[0]
                assert (type(av), repr(av)) == (type(alone), repr(alone)), (n, x)
        if tag == "X":
            assert {type(av).__name__ for av in got} == {"ApproxValue", "DomainError"}
            assert isinstance(got[0], DomainError) and not isinstance(got[50], Exception)
        if tag == "XI":
            top = evaluate_region(tag, 16, range(17), P16_25)
            kinds = [type(av).__name__ for av in top[11:14]]
            assert kinds == ["ApproxValue", "SingularityError", "ApproxValue"]

    @pytest.mark.parametrize("tag, x, n", [("X", 30.5, 50), ("I", -0.0, 2), ("I", True, 2)])
    def test_forced_evaluation_rejects_non_integer_indices(self, tag, x, n):
        with pytest.raises(DomainError, match="x must be an integer"):
            forced(tag, x, n, P100_74)

    @pytest.mark.parametrize("tag, x, n, match", [
        ("I", 30, 101, "n=101 outside"), ("I", 30, -1, "n=-1 outside"),
        ("V", -1, 60, "x=-1 outside"), ("XI", 25.25, 99, "x must be an integer"),
    ])
    def test_forced_evaluation_refuses_bad_indices_before_any_kernel(self, tag, x, n, match):
        # The kernels take checked grid points; the dispatcher refuses the rest.
        with pytest.raises(DomainError, match=match):
            forced(tag, x, n, P100_74)
        with pytest.raises(DomainError, match=match):
            approx_row(n, [x], P100_74)

    @pytest.mark.parametrize("N, q, x, n", [
        (1000, "0.5", 9, 500), (1200, "0.75", 9, 300), (1200, "0.75", 1191, 900),
        (2000, "0.25", 10, 1500),
    ])
    def test_strip_point_at_z_equal_p_is_served_by_the_corner(self, N, q, x, n):
        # With pN an integer the row z = p crosses the lower strip, whose
        # coefficients diverge there; VI (u = 0) serves it (measured <= 8.8e-6).
        params = Params.from_q(N, q)
        av = approx(x, n, params)
        assert av.region.tag == "VI"
        assert norm_err_row([av], ExactRow(n, params), [x])[0] <= 1e-5

    @pytest.mark.parametrize("N, q", [
        (1000, "0.77"), (1000, "0.6"), (1040, "0.7"), (1040, "0.3"),
        (3000, "0.77"), (3000, "0.23"), (3000, "0.9"),
    ])
    def test_rows_z_equal_p_and_q_are_total(self, N, q):
        # pN is an integer, and n*eps can miss the float p or q by an ulp
        # (N=1040, q=0.7, n=312 and N=3000, q=0.77, n=690 do).  Decided from
        # the integers, the row z = p takes VI, never a strip formula, at the
        # lower curve, and so does the mirror of the row z = q.
        params = Params.from_q(N, q)
        for n, mirrored in ((int(N * params.p), False), (int(N * params.q), True)):
            avs = approx_row(n, range(N + 1), params)
            assert not any(math.isnan(av.ln_scale) or av.ln_scale == math.inf for av in avs)
            tags = {av.region.tag for av in avs if av.region.mirrored == mirrored}
            assert "VI" in tags and not tags & {"VIII", "IX"}, (n, tags)

    def test_mirrored_strip_point(self):
        av = approx(94, 10, P100_34)
        assert av.region.tag == "VIII"
        assert av.region.mirrored
        base = forced("VIII", 6, 10, P100_34.swapped())
        assert av.value == base.value  # even degree: mirror sign is +1
        assert av.ln_scale == base.ln_scale
        assert norm_err_row([av], ExactRow(10, P100_34), [94])[0] <= 0.08

    def test_mirrored_exterior_point_with_odd_sign(self):
        av = approx(99, 17, P100_74)
        assert av.region.mirrored
        base = forced("III", 1, 17, P100_74.swapped())
        assert av.value == -base.value  # odd degree flips the sign
        assert av.ln_scale == base.ln_scale

    # The examples sit on exact zeros D_2(1) = 0: region VI at N=16, q=1/2,
    # (x, n) = (2, 6), and region XII at N=25, q=1/10, (x, n) = (4, 23).
    @settings(max_examples=150, deadline=None)
    @given(point=grid_points())
    @example(point=(16, Fraction(1, 2), 2, 6))
    @example(point=(25, Fraction(1, 10), 4, 23))
    def test_approx_is_total_for_small_N(self, point):
        N, q, x, n = point
        av = approx(x, n, Params.from_q(N, q))
        assert not math.isnan(av.ln_scale)
        assert av.ln_scale != math.inf

    # The widest config that wide_configs draws: before the special functions
    # returned logs, its x_small and j_small were refused.
    @settings(max_examples=60, deadline=None)
    @given(case=wide_configs())
    @example(case=(60, Fraction(1, 2), (60, 60, 60, 30.0), range(61)))
    def test_approx_is_total_under_wide_configs(self, case):
        N, p, (n_small, x_small, j_small, corner_width), rows = case
        cfg = ClassifierConfig(n_small, x_small, j_small, corner_width)
        params = Params.from_p(N, p)
        for n in rows:
            for av in approx_row(n, range(N + 1), params, cfg):
                assert not math.isnan(av.ln_scale) and av.ln_scale != math.inf, (n, av)
                assert not math.isnan(av.value)

    def test_grid_makes_no_mpmath_call(self):
        # Ai and integer-order D_n are evaluated in floats; Bi and Lambda_j
        # carry weights that vanish at integer x and are never called.
        fail = {"side_effect": AssertionError("mpmath called on the grid path")}
        tags = set()
        with mock.patch.object(mpmath, "airyai", **fail), mock.patch.object(
            mpmath, "airybi", **fail
        ), mock.patch.object(mpmath, "pcfd", **fail):
            for q in ("0.5", "0.34894783", "0.64894783"):
                params = Params.from_q(60, q)
                for n in range(61):
                    for x in range(61):
                        tags.add(approx(x, n, params).region.tag)
        assert {"VI", "VIII", "IX", "X", "XII"} <= tags

    @settings(max_examples=120, deadline=None)
    @given(
        data=st.data(),
        N=st.integers(min_value=4, max_value=80),
        q=st.sampled_from(
            ["0.1", "0.25", "0.34894783", "0.5", "0.64894783", "0.74894783", "0.9"]
        ),
    )
    def test_dispatch_is_total_on_the_grid(self, data, N, q):
        params = Params.from_q(N, q)
        x = data.draw(st.integers(min_value=0, max_value=N))
        n = data.draw(st.integers(min_value=0, max_value=N))
        av = approx(x, n, params)
        assert av.region.tag in ALL_TAGS
        assert type(av.value) is float
        assert not math.isnan(av.value)
        assert not math.isnan(av.ln_scale)
        if av.ln_scale == -math.inf:
            assert av.value == 0.0
        else:
            assert av.value != 0.0


# ---------------------------------------------------------------------------
# Full grids: the windowed error of every region, pinned per label
# ---------------------------------------------------------------------------


def _grid_pins():
    """Per-label pins of each full grid in data/full_grid_errors.csv: point
    count, p50, p99 and max windowed error (3 significant digits) and the
    count of points above 10%, measured against the exact tables."""
    path = Path(__file__).parent / "data" / "full_grid_errors.csv"
    grids = {}
    with path.open(encoding="utf-8") as handle:
        for row in csv.DictReader(handle):
            grids.setdefault((int(row["N"]), row["q"]), {})[row["label"]] = row
    return [pytest.param(grid, pins, id=f"N{grid[0]}-q{grid[1]}") for grid, pins in sorted(grids.items())]


@pytest.mark.parametrize("grid, pins", _grid_pins())
def test_full_grid_error_per_region_is_pinned(grid, pins):
    # A change that moves any region's error distribution on these grids,
    # for better or worse, shows up here and re-measures its pins.
    N, q = grid
    params = Params.from_q(N, q)
    xs = range(N + 1)
    errs = {}
    for n in xs:
        avs = approx_row(n, xs, params)
        for av, err in zip(avs, norm_err_row(avs, ExactRow(n, params), xs)):
            errs.setdefault(av.region.label, []).append(err)
    assert sorted(errs) == sorted(pins)
    for label, values in errs.items():
        assert not any(math.isnan(e) for e in values), label
        values.sort()
        pin, k = pins[label], len(values)
        assert k == int(pin["points"]), label
        assert sum(e > 0.10 for e in values) == int(pin["above_10pct"]), label
        for stat, share in (("p50", 0.5), ("p99", 0.99), ("max", 1.0)):
            got, want = values[round(share * (k - 1))], float(pin[stat])
            assert 0.99 * want <= got <= 1.01 * want, (label, stat, got)
