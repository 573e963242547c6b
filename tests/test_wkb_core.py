"""Tests for branch phases/amplitudes and turning-strip ingredients.

The checks here are differential rather than tabulated: the phase must
exponentiate back to the branch root, the amplitude must satisfy its first-order
transport equation, and the strip coefficients must match an independent
finite-difference form built from the turning-curve geometry.  A handful of
comparisons against exact rational evaluations pin the overall normalization.
"""

import cmath
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from krawtchouk_wkb.exact_core import DomainError, Params, build_table
from krawtchouk_wkb.state_space import Row, StripCoeffs, u0, u_pm, y_pm
from krawtchouk_wkb.wkb_core import (
    SingularityError,
    branch_terms,
    k_pm_log,
    k_pm_logs,
    phi0,
    plog,
    psqrt,
)

Q_POOL = [Fraction(1, 2), Fraction(1, 3), Fraction("0.64894783"), Fraction("0.74894783")]

q_strategy = st.sampled_from(Q_POOL)


def params_for(N, qs):
    return Params.from_q(N, Fraction(qs))


def branch_root(branch, y, z, params):
    um, up = u_pm(y, z, params)
    return up if branch == "+" else um


def psi(branch, y, z, params):
    """Branch phase psi = ln[U^{z-1} (U-p)^{1-y} (U+q)^y] at (y, z), from row z."""
    return next(branch_terms(branch, (y,), Row(z, params)))[0]


def amp(branch, y, z, params):
    """Branch amplitude L = sqrt[(U-p)(U+q) / (z * (U^2 - u0^2))] at (y, z), from row z."""
    return next(branch_terms(branch, (y,), Row(z, params)))[1]


def k_exp(branch, y, z, params):
    """The branch contribution K itself, exp of its log."""
    return cmath.exp(k_pm_log(branch, y, z, params))


# Interior sample points (label, branch, y, z, q-string), chosen away from the
# turning curves for N-free differential checks.
INTERIOR_POINTS = [
    ("low-left minus", "-", 0.10, 0.15, "0.34894783"),
    ("low-left plus", "+", 0.10, 0.15, "0.34894783"),
    ("mid-left minus", "-", 0.20, 0.30, "0.34894783"),
    ("mid-left plus", "+", 0.20, 0.30, "0.34894783"),
    ("high-left minus", "-", 0.20, 0.75, "0.74894783"),
    ("high-left plus", "+", 0.20, 0.75, "0.74894783"),
    ("oscillatory minus", "-", 0.45, 0.50, "0.34894783"),
    ("oscillatory plus", "+", 0.45, 0.50, "0.34894783"),
    ("low-right plus", "+", 0.95, 0.10, "0.34894783"),
    ("low-right minus", "-", 0.95, 0.10, "0.34894783"),
]


# ---------------------------------------------------------------------------
# Principal-branch helpers
# ---------------------------------------------------------------------------


class TestPrincipalBranch:
    def test_negative_real_goes_to_upper_cut(self):
        assert plog(-1.0) == pytest.approx(complex(0.0, math.pi))

    def test_negative_zero_imag_is_normalized(self):
        # cmath.log alone would return -i*pi for (-1) - 0j.
        assert plog(complex(-1.0, -0.0)).imag == pytest.approx(math.pi)
        assert psqrt(complex(-4.0, -0.0)) == pytest.approx(2j)

    def test_matches_cmath_off_the_cut(self):
        for w in (2.0, 1 + 2j, -3 + 1e-8j, -0.5 - 1e-8j):
            assert plog(w) == cmath.log(w)

    def test_log_of_zero_is_singular(self):
        with pytest.raises(SingularityError):
            plog(0.0)

    def test_sqrt_of_negative(self):
        assert psqrt(-9.0) == pytest.approx(3j)
        assert psqrt(4.0) == pytest.approx(2.0 + 0j)


# ---------------------------------------------------------------------------
# Phase: gradient and sign disposition
# ---------------------------------------------------------------------------


class TestPhaseGradient:
    @pytest.mark.parametrize(
        "branch,y,z,qs",
        [("-", 0.2, 0.3, "0.34894783"), ("+", 0.2, 0.75, "0.74894783"),
         ("+", 0.45, 0.5, "0.34894783")],
    )
    def test_exp_dpsi_dz_recovers_root(self, branch, y, z, qs):
        # Centered differences of the phase must converge to ln(U) at
        # second order in the step.
        P = params_for(100, qs)
        target = plog(branch_root(branch, y, z, P))
        errs = []
        for h in (1e-3, 1e-4):
            dpsi = (psi(branch, y, z + h, P)
                    - psi(branch, y, z - h, P)) / (2.0 * h)
            errs.append(abs(dpsi - target))
        order = math.log(errs[0] / errs[1]) / math.log(10.0)
        assert order > 1.9
        assert errs[1] < 1e-6

    def test_exp_gradient_equals_root_directly(self):
        P = params_for(100, "0.34894783")
        y, z, h = 0.15, 0.2, 1e-5
        dpsi = (psi("-", y, z + h, P)
                - psi("-", y, z - h, P)) / (2.0 * h)
        U = branch_root("-", y, z, P)
        assert cmath.exp(dpsi) == pytest.approx(U, rel=1e-8)


class TestPhaseDisposition:
    def test_left_of_curve_below_imag_is_pi_z(self):
        # y < Y^-(z), z < p: both branch phases carry Im(psi) = pi*z, so
        # exp(psi*N) alternates as (-1)^n.
        P = params_for(100, "0.34894783")
        for z in (0.05, 0.15, 0.25, 0.35):
            for y in (0.01, 0.05, min(0.1, 0.8 * y_pm(z, P)[0])):
                for branch in ("+", "-"):
                    im = psi(branch, y, z, P).imag
                    assert im == pytest.approx(math.pi * z, abs=1e-12)

    def test_left_of_curve_above_imag_is_pi_z_minus_y(self):
        # y < Y^-(z), z > p: Im(psi) = pi*(z - y) gives the (-1)^(n+x) parity.
        P = params_for(100, "0.74894783")
        for z in (0.6, 0.75, 0.9):
            ym = y_pm(z, P)[0]
            for y in (0.05, 0.5 * ym, 0.8 * ym):
                for branch in ("+", "-"):
                    im = psi(branch, y, z, P).imag
                    assert im == pytest.approx(math.pi * (z - y), abs=1e-12)

    def test_right_of_curve_phases_are_real(self):
        # y > Y^+(z): both roots are positive so the phases are purely real.
        P = params_for(100, "0.34894783")
        for z in (0.05, 0.1):
            yp = y_pm(z, P)[1]
            y = 0.5 * (yp + 1.0)
            for branch in ("+", "-"):
                assert psi(branch, y, z, P).imag == 0.0

    def test_oscillatory_phases_are_conjugate(self):
        P = params_for(100, "0.64894783")
        y, z = 0.5, 0.45
        a = psi("+", y, z, P)
        b = psi("-", y, z, P)
        assert a == pytest.approx(b.conjugate(), rel=1e-14)

    def test_imag_continuous_in_z(self):
        # No 2*pi jumps along vertical lines that stay inside one region.
        P = params_for(100, "0.74894783")
        zs = [0.55 + 0.01 * i for i in range(41)]  # left exterior throughout
        assert all(y_pm(z, P)[0] > 0.02 for z in zs)
        vals = [psi("-", 0.02, z, P).imag for z in zs]
        for a, b in zip(vals, vals[1:]):
            assert abs(b - a) < 0.1
        P2 = params_for(100, "0.64894783")
        zs = [0.30 + 0.01 * i for i in range(41)]  # oscillatory throughout
        vals = [psi("-", 0.45, z, P2).imag for z in zs]
        for a, b in zip(vals, vals[1:]):
            assert abs(b - a) < 0.2


# ---------------------------------------------------------------------------
# Amplitude: transport equation and sign structure
# ---------------------------------------------------------------------------


class TestTransport:
    @pytest.mark.parametrize("label,branch,y,z,qs", INTERIOR_POINTS)
    def test_transport_residual(self, label, branch, y, z, qs):
        # [z U^2 - pq(1-z)] L_z + {(1/2)[z U^2 + pq(1-z)] U_z/U + U^2 + pq} L = 0
        # with the z-derivatives taken by centered differences.
        P = params_for(100, qs)
        p, q = P.pf, P.qf
        h = 1e-5
        U = branch_root(branch, y, z, P)
        Lz = (amp(branch, y, z + h, P)
              - amp(branch, y, z - h, P)) / (2.0 * h)
        Uz = (branch_root(branch, y, z + h, P)
              - branch_root(branch, y, z - h, P)) / (2.0 * h)
        L = amp(branch, y, z, P)
        t1 = (z * U * U - p * q * (1.0 - z)) * Lz
        t2 = (0.5 * (z * U * U + p * q * (1.0 - z)) * (Uz / U) + U * U + p * q) * L
        assert abs(t1 + t2) / max(abs(t1), abs(t2)) < 1e-4


class TestAmplitudeSigns:
    def test_left_below_minus_real_plus_imaginary(self):
        P = params_for(100, "0.34894783")
        y, z = 0.1, 0.2
        Lm = amp("-", y, z, P)
        Lp = amp("+", y, z, P)
        assert Lm.imag == 0.0 and Lm.real > 0.0
        assert Lp.real == 0.0 and Lp.imag > 0.0

    def test_left_above_minus_imaginary_plus_real(self):
        P = params_for(100, "0.74894783")
        y, z = 0.1, 0.8
        Lm = amp("-", y, z, P)
        Lp = amp("+", y, z, P)
        assert Lm.real == 0.0 and Lm.imag > 0.0
        assert Lp.imag == 0.0 and Lp.real > 0.0

    def test_oscillatory_amplitudes_conjugate(self):
        P = params_for(100, "0.64894783")
        y, z = 0.5, 0.45
        assert amp("+", y, z, P) == pytest.approx(amp("-", y, z, P).conjugate(), rel=1e-14)

    def test_growth_rate_toward_turning_curve(self):
        # |L| grows like (distance)^(-1/4); quartic-root law checked by a
        # factor-of-four separation ratio at small scale.
        P = params_for(1_000_000, "0.34894783")
        z = 0.3
        ym = y_pm(z, P)[0]
        s = P.eps ** (2.0 / 3.0)
        r1 = abs(amp("-", ym - 1.0 * s, z, P))
        r4 = abs(amp("-", ym - 4.0 * s, z, P))
        assert r1 / r4 == pytest.approx(4.0 ** 0.25, rel=0.02)


class TestSmallZLimits:
    def test_phase_limit_below(self):
        # psi^- ~ z*[1 - ln z + ln(y - p)] as z -> 0 for y < p, where the
        # log of the negative argument contributes +i*pi.
        P = params_for(100, "0.34894783")
        y, z = 0.2, 1e-4
        val = psi("-", y, z, P)
        lim = z * (1.0 - math.log(z)) + z * complex(math.log(P.pf - y), math.pi)
        assert abs(val - lim) < 5e-7

    def test_amplitude_limit_below(self):
        P = params_for(100, "0.34894783")
        val = amp("-", 0.2, 1e-4, P)
        assert val * math.sqrt(1e-4) == pytest.approx(1.0 + 0j, rel=1e-3)

    def test_amplitude_limit_above(self):
        # For y > p the limit is i*sqrt(y(1-y))/(y - p).
        P = params_for(100, "0.34894783")
        y = 0.8
        val = amp("-", y, 1e-5, P)
        lim = complex(0.0, math.sqrt(y * (1.0 - y)) / (y - P.pf))
        assert val == pytest.approx(lim, rel=1e-3)


# ---------------------------------------------------------------------------
# Branch contributions K
# ---------------------------------------------------------------------------


class TestBranchContribution:
    def test_minus_branch_tracks_exact_left_below(self):
        # N = 100, n = 10, left exterior: the minus branch alone approximates
        # the exact value to a few percent with negligible imaginary residue.
        P = params_for(100, "0.34894783")
        table = build_table(P)
        n = 10
        for x in (0, 5, 10, 15, 20):
            K = k_exp("-", x * P.eps, n * P.eps, P)
            exact = float(table.value(n, x))
            assert abs(K.real - exact) / abs(exact) < 0.05
            assert abs(K.imag) < 1e-12 * abs(K.real)

    def test_left_edge_value(self):
        # At y = 0 the minus branch reproduces (-p)^n * C(N, n).
        P = params_for(100, "0.34894783")
        n = 10
        exact = float(Fraction(math.comb(100, n)) * (-P.p) ** n)
        K = k_exp("-", 0.0, n * P.eps, P)
        assert K.real == pytest.approx(exact, rel=0.05)

    def test_mirror_transformation(self):
        # Swapping y -> 1-y, p <-> q maps the plus branch onto the minus
        # branch of the mirrored problem times (-1)^n, exactly in floats.
        P = params_for(100, "0.34894783")
        n = 10
        direct = k_exp("+", 95 * P.eps, n * P.eps, P)
        mirrored = k_exp("-", 5 * P.eps, n * P.eps, P.swapped())
        assert (-1) ** n * mirrored == pytest.approx(direct, rel=1e-10)

    def test_mirror_phase_shift(self):
        # The underlying phase identity: psi^-(1-y, z; q, p) = psi^+(y, z) + i*pi*z.
        P = params_for(100, "0.34894783")
        y, z = 0.95, 0.1
        lhs = psi("-", 1.0 - y, z, P.swapped())
        rhs = psi("+", y, z, P) + complex(0.0, math.pi * z)
        assert lhs == pytest.approx(rhs, abs=1e-12)
        assert amp("-", 1.0 - y, z, P.swapped()) == pytest.approx(
            amp("+", y, z, P), rel=1e-12)

    def test_log_form_matches_exp_form(self):
        # K = sqrt(eps/(2*pi)) e^{psi/eps} L, formed from the branch terms.
        P = params_for(100, "0.74894783")
        y, z = 3 * P.eps, 80 * P.eps
        lk = k_pm_log("-", y, z, P)
        K = math.sqrt(P.eps / (2.0 * math.pi)) * cmath.exp(psi("-", y, z, P) * P.N) * amp("-", y, z, P)
        assert cmath.exp(lk) == pytest.approx(K, rel=1e-12)

    def test_log_form_finite_beyond_double_range(self):
        # ln|K| ~ 1600 at this point, past exp's range; the log form stays finite.
        P = params_for(3000, "0.74894783")
        y, z = 2970 * P.eps, 1500 * P.eps
        lk = k_pm_log("+", y, z, P)
        assert math.isfinite(lk.real) and lk.real > 700.0

    def test_one_point_log_is_the_row_log(self):
        # k_pm_log is k_pm_logs on its point's row, to the bit, and the row
        # form is branch_terms' loop: one (psi, L) per y, in order.
        P = params_for(100, "0.64894783")
        row = Row(0.45, P)
        ys = (0.02, 0.3, 0.5, 0.97)
        for branch in ("+", "-"):
            logs = list(k_pm_logs(branch, ys, row))
            assert logs == [k_pm_log(branch, y, 0.45, P) for y in ys]
            terms = list(branch_terms(branch, ys, row))
            assert terms == [(psi(branch, y, 0.45, P), amp(branch, y, 0.45, P)) for y in ys]

    def test_one_point_log_checks_its_point_first(self):
        # The scaled-point checks, then the row's z, then the branch label.
        P = params_for(100, "0.34894783")
        with pytest.raises(DomainError, match="scaled coordinates must be finite"):
            k_pm_log("x", 0.1, float("nan"), P)
        with pytest.raises(DomainError, match=r"y=1\.5 outside the unit interval"):
            k_pm_log("x", 1.5, 0.0, P)
        with pytest.raises(DomainError, match=r"z=-0\.5 outside the unit interval"):
            k_pm_log("x", 0.1, -0.5, P)
        with pytest.raises(SingularityError, match="singular at z=0.0"):
            k_pm_log("x", 0.1, 0.0, P)
        with pytest.raises(DomainError, match="branch must be"):
            k_pm_log("x", 0.1, 0.2, P)

    def test_branch_terms_checks_on_first_draw(self):
        # The generator checks its row when the first value is drawn.
        P = params_for(100, "0.34894783")
        terms = branch_terms("x", (0.1,), Row(0.2, P))
        with pytest.raises(DomainError):
            next(terms)
        empty = branch_terms("+", (), Row(0.0, P))
        with pytest.raises(SingularityError):
            next(empty)

    def test_bad_branch_label(self):
        P = params_for(100, "0.34894783")
        with pytest.raises(DomainError):
            psi("x", 0.1, 0.2, P)


class TestSingularities:
    def test_coalescence_guard(self):
        P = params_for(100, "0.74894783")
        ym, yp = y_pm(0.1, P)
        for y in (ym, yp):
            with pytest.raises(SingularityError):
                psi("-", y, 0.1, P)
            with pytest.raises(SingularityError):
                amp("+", y, 0.1, P)

    def test_z_edges(self):
        P = params_for(100, "0.74894783")
        for z in (0.0, 1.0):
            with pytest.raises(SingularityError):
                psi("-", 0.3, z, P)
            with pytest.raises(SingularityError):
                amp("-", 0.3, z, P)

    def test_root_at_p_is_singular_in_the_branch_phase(self):
        # At these points a branch root is exactly p, so ln(U - p) diverges:
        # the branch terms take plog, which refuses the vanishing factor with
        # SingularityError where cmath.log raises a bare ValueError.
        P = params_for(100, "0.64894783")
        for branch, y, z in (("-", 1.0, 0.5), ("+", 1.0, 0.8)):
            assert branch_root(branch, y, z, P) == P.pf
            for fn in (psi, amp):
                with pytest.raises(SingularityError):
                    fn(branch, y, z, P)

    def test_interior_is_clean_between_curves_and_edges(self):
        P = params_for(100, "0.64894783")
        for z in (0.01, 0.5, 0.99):
            psi("-", 0.001, z, P)  # must not raise


# ---------------------------------------------------------------------------
# Turning-strip ingredients
# ---------------------------------------------------------------------------


class TestStripPhase:
    # psi0 is the real part of the paper's complex phase.  Its imaginary part,
    # kept in the complex reference below, is what the kernels take from the
    # grid indices as a sign.

    def test_imag_below_crossover(self):
        # For z < p: Im(psi0) = pi*z.
        P = params_for(100, "0.74894783")
        z = P.pf - 0.05
        ref = _reference_strip_coeffs(z, P).psi0
        assert ref.imag == pytest.approx(math.pi * z, abs=1e-12)
        assert Row(z, P).strip.psi0 == ref.real

    def test_imag_above_crossover(self):
        # For z > p the factor u0 - q goes negative: Im(psi0) = pi*(z + Y^-).
        P = params_for(100, "0.74894783")
        z = P.pf + 0.05
        ref = _reference_strip_coeffs(z, P).psi0
        expected = math.pi * (z + y_pm(z, P)[0])
        assert ref.imag == pytest.approx(expected, abs=1e-12)
        assert Row(z, P).strip.psi0 == ref.real

    def test_singular_at_crossover_and_edges(self):
        P = params_for(100, "0.74894783")
        with pytest.raises(SingularityError, match=r"diverge where u0 = q \(z = p\)"):
            Row(P.pf, P).strip
        for z in (0.0, 1.0):
            with pytest.raises(SingularityError, match="strip coefficients are singular at z="):
                Row(z, P).strip

    def test_finite_on_both_sides(self):
        P = params_for(100, "0.74894783")
        for dz in (0.01, -0.01):
            v = Row(P.pf + dz, P).strip.psi0
            assert type(v) is float and math.isfinite(v)


class TestStripSlope:
    def test_real_below_crossover(self):
        P = params_for(100, "0.74894783")
        v = Row(0.1, P).strip.slope
        assert type(v) is float
        r = u0(0.1, P)
        assert v == pytest.approx(math.log((r + P.pf) / (r - P.qf)))

    def test_imag_above_crossover(self):
        # The complex slope's imaginary part is -pi; the float is its real part.
        P = params_for(100, "0.74894783")
        ref = _reference_strip_coeffs(0.5, P).slope
        assert ref.imag == pytest.approx(-math.pi)
        assert Row(0.5, P).strip.slope == ref.real

    @pytest.mark.parametrize("N,x,n", [(100, 17, 20), (100, 60, 70), (101, 52, 61)])
    def test_dropped_phase_is_the_index_sign(self, N, x, n):
        # N Im(psi0) + Im(slope) * beta * eps^(-1/3) is pi*n below the
        # crossover and pi*(n + x) above it: the signs k8 and k9 take from
        # the indices.
        P = params_for(N, "0.74894783")
        z = n * P.eps
        ref = _reference_strip_coeffs(z, P)
        beta = (y_pm(z, P)[0] - x * P.eps) / P.eps ** (2.0 / 3.0)
        phase = N * ref.psi0.imag + ref.slope.imag * beta * P.eps ** (-1.0 / 3.0)
        turns = n if z < P.pf else n + x
        assert phase == pytest.approx(math.pi * turns, abs=1e-9)

    def test_modulus_above_crossover(self):
        # For z > p the factor u0 - q is negative and enters through |u0 - q|.
        P = params_for(100, "0.74894783")
        v = Row(0.5, P).strip.slope
        r = u0(0.5, P)
        assert v == pytest.approx(math.log((r + P.pf) / (P.qf - r)))

    def test_singular_at_crossover(self):
        P = params_for(100, "0.74894783")
        with pytest.raises(SingularityError):
            Row(P.pf, P).strip


class TestCurvatureCoefficient:
    def test_symmetric_closed_form(self):
        # For p = q = 1/2 at z = 1/4: u0 = sqrt(3)/2, (u0+p)(u0-q) = 1/2,
        # so theta = 2*sqrt(2*sqrt(3)).
        P = params_for(16, "1/2")
        theta = Row(0.25, P).strip.theta
        assert theta == pytest.approx(2.0 * math.sqrt(2.0 * math.sqrt(3.0)), rel=1e-14)

    @pytest.mark.parametrize("qs,z", [("1/2", 0.25), ("0.74894783", 0.1), ("0.74894783", 0.6)])
    def test_matches_turning_curve_curvature(self, qs, z):
        # Independent route: theta^2 = -2 / ([Y^-']^2 * [(p-q) z + Y^- - p])
        # with the turning-curve slope taken by centered differences.
        P = params_for(16, qs)
        h = 1e-6
        dym = (y_pm(z + h, P)[0] - y_pm(z - h, P)[0]) / (2.0 * h)
        ym = y_pm(z, P)[0]
        rhs = -2.0 / (dym ** 2 * ((P.pf - P.qf) * z + ym - P.pf))
        assert Row(z, P).strip.theta ** 2 == pytest.approx(rhs, rel=1e-8)

    def test_signs_either_side(self):
        # IX scales its Airy argument by -theta, positive for z > p.
        P = params_for(100, "0.74894783")
        assert Row(0.1, P).strip.theta > 0.0
        assert Row(0.5, P).strip.theta < 0.0
        assert -Row(0.5, P).strip.theta > 0.0

    def test_divergence_at_crossover(self):
        P = params_for(100, "0.74894783")
        with pytest.raises(SingularityError, match="strip coefficients diverge where u0 = q"):
            Row(P.pf, P).strip
        # Detectable divergence when approaching the crossover.
        near = Row(P.pf - 1e-6, P).strip.theta
        assert abs(near) > 1e4 * abs(Row(P.pf - 0.1, P).strip.theta)


def _reference_strip_coeffs(z, P):
    """The separate coefficient formulas that the record's strip replaced, each
    solving u0 for itself, in their original operation order (the fourth,
    vartheta, was -theta), with psi0 and the slope complex as they were."""
    p, q = P.pf, P.qf

    def psi0():
        r = u0(z, P)
        ym = y_pm(z, P)[0]
        return (
            complex(0.0, z * math.pi)
            + (z - 1.0) * plog(r)
            + ym * plog(r - q)
            + (1.0 - ym) * plog(r + p)
        )

    def theta():
        r = u0(z, P)
        den = (r + p) * (r - q)
        return math.sqrt(r / z) / den

    def u0_log_ratio():
        r = u0(z, P)
        return plog(r + p) - plog(r - q)

    return StripCoeffs(u0(z, P), theta(), psi0(), u0_log_ratio())


class TestStripCoeffsReference:
    @given(q=q_strategy, side=st.sampled_from((-1.0, 1.0)), frac=st.floats(1e-12, 0.999))
    @settings(max_examples=200, deadline=None)
    # math.log would round psi0 (both) and the slope (the first) differently.
    @example(q=Fraction("0.74894783"), side=1.0, frac=0.115)
    @example(q=Fraction(1, 2), side=-1.0, frac=0.521)
    def test_fields_match_the_separate_formulas(self, q, side, frac):
        # z on either side of p: a fraction of the way from p to 0 or to 1.
        # Every field is a float equal, to the bit, to the real part of the
        # complex reference.
        P = Params.from_q(100, q)
        z = P.pf - frac * P.pf if side < 0 else P.pf + frac * (1.0 - P.pf)
        if z == P.pf:
            return
        got = Row(z, P).strip
        ref = _reference_strip_coeffs(z, P)
        for field in StripCoeffs._fields:
            assert type(getattr(got, field)) is float, field
            assert repr(getattr(got, field)) == repr(getattr(ref, field).real), field


class TestLeftEdgePhase:
    def test_magnitude_matches_binomial(self):
        # sqrt(eps) e^{phi0/eps} / sqrt(2 pi z (1-z)) ~ C(N, n) p^n at N = 200.
        P = params_for(200, "0.64894783")
        n = 24
        z = n * P.eps
        v = phi0(z, P)
        assert type(v) is float
        approx_ln = (0.5 * math.log(P.eps) + v * P.N
                     - 0.5 * math.log(2.0 * math.pi * z * (1.0 - z)))
        target_ln = (math.lgamma(201) - math.lgamma(n + 1) - math.lgamma(201 - n)
                     + n * math.log(P.pf))
        assert abs(approx_ln - target_ln) < math.log(1.02)

    def test_swap_consistency(self):
        # phi0(z; p) N - n ln p == phi0(1-z; q) N - (N-n) ln q,
        # both being ln C(N, n) at leading order with identical corrections.
        P = params_for(200, "0.64894783")
        n = 60
        z = n * P.eps
        a = phi0(z, P) * P.N - n * math.log(P.pf)
        b = phi0(1.0 - z, P.swapped()) * P.N - (P.N - n) * math.log(P.qf)
        assert a == pytest.approx(b, rel=1e-12)

    def test_singular_at_edges(self):
        P = params_for(100, "0.64894783")
        for z in (0.0, 1.0):
            with pytest.raises(SingularityError):
                phi0(z, P)


# ---------------------------------------------------------------------------
# Eikonal residual (branch roots satisfy the phase ODE's characteristic)
# ---------------------------------------------------------------------------


class TestEikonal:
    def test_residual_on_grid(self):
        P = params_for(100, "0.64894783")
        p, q = P.pf, P.qf
        for i in range(1, 41):
            for j in range(1, 41):
                y, z = i / 41.0, j / 41.0
                um, up = u_pm(y, z, P)
                b = p - y + z * (q - p)
                c = p * q * (1.0 - z)
                for U in (um, up):
                    res = z * U * U + b * U + c
                    scale = abs(z * U * U) + abs(b * U) + abs(c)
                    assert abs(res) <= 1e-10 * scale

    @given(q=q_strategy, y=st.floats(0.01, 0.99), z=st.floats(0.01, 0.99))
    @settings(max_examples=80, deadline=None)
    def test_residual_property(self, q, y, z):
        P = Params.from_q(100, q)
        p, qf = P.pf, P.qf
        um, up = u_pm(y, z, P)
        b = p - y + z * (qf - p)
        c = p * qf * (1.0 - z)
        for U in (um, up):
            res = z * U * U + b * U + c
            scale = abs(z * U * U) + abs(b * U) + abs(c)
            assert abs(res) <= 1e-10 * scale
