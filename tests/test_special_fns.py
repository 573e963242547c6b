import math
import random
import sys
from fractions import Fraction
from unittest import mock

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from krawtchouk_wkb import special_fns
from krawtchouk_wkb.exact_core import DomainError
from krawtchouk_wkb.special_fns import (
    RangeError,
    airy_ai,
    airy_bi,
    hermite,
    lambda_j,
    pcf_d,
)

# Frozen oracle values from tests/_oracle_gen/gen_special_literals.py:
# Airy from an own-series Maclaurin evaluation at 60 digits, D_nu from the
# confluent (Kummer M) representation validated against the D_0, D_1, D_{-1}
# closed forms.  The package itself uses different routes: Taylor series and
# asymptotic expansions for Ai, the Hermite recurrence for integer-order D_n,
# mpmath for Bi.  pcf_d refuses every other order and argument; lambda_j
# evaluates D_nu there on mpmath, so those literals and the cylinder anchors
# are checked on mpmath.pcfd as lambda_j calls it.
AIRY = {  # x: (Ai, Bi, Ai', Bi')
    -8.0: ("-0.0527050503563862026220826757939", "-0.331251580751137859969876239276",
           "0.935560938198306551025522462133", "-0.15945049781298138934993573365"),
    -5.0: ("0.350761009024114319788016327697", "-0.138369134901600576850029175603",
           "0.327192818554443136794878677427", "0.778411773001899246094423209904"),
    -2.0: ("0.227407428201685575991924436038", "-0.412302587956398488083234054611",
           "0.618259020741691041406264291332", "0.278795166921169522685097569411"),
    0.0: ("0.355028053887817239260063186004", "0.614926627446000735150922369094",
          "-0.258819403792806798405183560189", "0.448288357353826357914823710399"),
    2.0: ("0.0349241304232743791353220807918", "3.29809499997821471028060442522",
          "-0.0530903844336536317039991858787", "4.10068204993288988938203407918"),
    5.0: ("0.000108344428136074417349865025033", "657.792044171171182441080578874",
          "-0.000247413890868462476000236172063", "1435.819080217982518671721238"),
    8.0: ("0.0000000469220761609923162564908170349", "1199586.0041244599308816544996",
          "-0.000000134143929790678657429115370793", "3354342.31274453887650774649653"),
    11.5: ("7.81429018396285434613029758793e-13", "60065680158.8960365604649436394",
           "-2.66667996750453140590106962216e-12", "202365072766.383857449200149526"),
}

PCF = {  # (nu, z): D_nu(z)
    (2, 1.7 + 0j): 0.9176647318412101 + 0j,
    (3.5, 9 + 0j): 3.3214544537381445e-06 + 0j,
    (1.5, -9 + 0j): 2878528.3359117485 + 0j,
    (-4, 2.2 + 0j): 0.003978184193445251 + 0j,
    (8, -3.1 + 0j): -77.68253135160045 + 0j,
    (0.5, 0j): 0.5813683170191186 + 0j,
    (-26, 4.242640687119285j): -4.660359495939569e-14 - 1.243237918821415e-13j,
    (-9, -1.7677669529663689j): 0.001197662595164721 - 0.003120820085113211j,
}

H10_COEFFS = {10: 1024, 8: -23040, 6: 161280, 4: -403200, 2: 302400, 0: -30240}


# --- Hermite -----------------------------------------------------------------


def hermite_exact(n, eta):
    """H_n(eta) on its integer-coefficient recurrence in exact rationals; an
    oracle for hermite, which runs the same recurrence in floats."""
    eta = Fraction(eta)
    h_prev, h = Fraction(0), Fraction(1)
    for k in range(n):
        h_prev, h = h, 2 * eta * h - 2 * k * h_prev
    return h


def value(signed_log):
    """sign * exp(ln|.|) of a (sign, log) pair."""
    sign, ln_mag = signed_log
    return sign * math.exp(ln_mag)


def log_error(signed_log, ref):
    """Error of a (sign, ln|.|) pair against an mpmath value, relative to the
    log where |ln| > 1: the log is itself a double, so that is its
    rounding.  Where |ln| <= 1 it is the relative error of the value."""
    sign, ln_mag = signed_log
    assert sign == mp.sign(ref), (sign, ref)
    with mp.workdps(60):
        ln_ref = float(mp.log(abs(ref)))
    return abs(ln_mag - ln_ref) / max(1.0, abs(ln_ref))


def test_hermite_low_orders():
    assert hermite(0, 3.7) == (1.0, 0.0)
    assert hermite(1, 2.0) == (1.0, math.log(4.0))
    eta = 1.25
    assert value(hermite(2, eta)) == pytest.approx(4 * eta * eta - 2, rel=1e-15)


def test_hermite_against_coefficient_oracle():
    eta = Fraction(3, 2)
    expected = sum(c * eta**k for k, c in H10_COEFFS.items())
    assert hermite_exact(10, eta) == expected  # exact rational arithmetic
    assert value(hermite(10, 1.5)) == pytest.approx(float(expected), rel=1e-13)


@given(st.integers(min_value=0, max_value=30), st.integers(min_value=-4, max_value=4))
@settings(max_examples=60, deadline=None)
def test_hermite_exact_integer_recurrence(n, k):
    # run in exact arithmetic and compare with the explicit sum formula; the
    # float recurrence then matches it at the same double, to its rounding,
    # which the recurrence with all signs positive bounds
    eta = Fraction(k, 3)
    expected = sum(
        math.factorial(n)
        * (-1) ** m
        * (2 * eta) ** (n - 2 * m)
        / (math.factorial(m) * math.factorial(n - 2 * m))
        for m in range(n // 2 + 1)
    )
    assert hermite_exact(n, eta) == expected
    bound_prev, bound = 0.0, 1.0
    for m in range(n):
        bound_prev, bound = bound, 2 * abs(k / 3) * bound + 2 * m * bound_prev
    assert abs(value(hermite(n, k / 3)) - float(hermite_exact(n, k / 3))) <= 1e-13 * bound


def test_hermite_rejects_negative_degree():
    with pytest.raises(DomainError):
        hermite(-1, 0.0)


def test_hermite_takes_any_degree_and_finite_argument():
    # H_999(-22.36) overflowed a double partway, and H_200(1e200) at once;
    # in log form both evaluate, exactly as the rational recurrence at the
    # same double says, and as mpmath does.  Non-finite arguments are refused.
    with mp.workdps(60):
        for n, eta in ((999, -22.360679774997898), (200, 1e200), (150, 20.0)):
            exact = hermite_exact(n, eta)
            assert log_error(hermite(n, eta), mp.mpf(exact.numerator) / exact.denominator) <= 1e-12
            assert log_error(hermite(n, eta), mp.hermite(n, eta)) <= 1e-12
    with pytest.raises(RangeError):
        hermite(0, math.inf)
    with pytest.raises(RangeError):
        hermite(3, math.nan)


# --- Airy --------------------------------------------------------------------


@pytest.mark.parametrize("x", sorted(AIRY))
def test_airy_against_series_oracle(x):
    ai, bi, _, _ = AIRY[x]
    assert airy_ai(x) == pytest.approx(float(ai), rel=1e-13)
    assert airy_bi(x) == pytest.approx(float(bi), rel=1e-13)


@pytest.mark.parametrize("x", [-2.0, 0.0, 2.0])
def test_airy_wronskian(x):
    # Ai(x) Bi'(x) - Ai'(x) Bi(x) = 1/pi, with derivatives taken from the
    # series oracle
    _, _, aip, bip = AIRY[x]
    w = airy_ai(x) * float(bip) - float(aip) * airy_bi(x)
    assert w == pytest.approx(1 / math.pi, abs=1e-9)


def test_airy_derivative_consistency_order():
    # centered differences of Ai must converge to the series-computed Ai'
    # at second order
    x = 2.0
    aip = float(AIRY[x][2])
    errs = []
    for h in (1e-2, 1e-3):
        fd = (airy_ai(x + h) - airy_ai(x - h)) / (2 * h)
        errs.append(abs(fd - aip))
    order = math.log10(errs[0] / errs[1])
    assert order > 1.9


def test_airy_decay_anchor():
    # Ai(x) ~ x^(-1/4) exp(-2/3 x^(3/2)) / (2 sqrt(pi)); gap at x=8 is ~0.45%
    x = 8.0
    rhs = x ** (-0.25) * math.exp(-2 / 3 * x**1.5) / (2 * math.sqrt(math.pi))
    assert abs(airy_ai(x) / rhs - 1) < 0.01


def test_airy_oscillation_anchor():
    # Ai(-x) ~ x^(-1/4) sin(2/3 x^(3/2) + pi/4) / sqrt(pi) within 2% of the
    # local amplitude
    x = 8.0
    amp = x ** (-0.25) / math.sqrt(math.pi)
    rhs = amp * math.sin(2 / 3 * x**1.5 + math.pi / 4)
    assert abs(airy_ai(-x) - rhs) < 0.02 * amp


def test_airy_large_negative_argument_supported():
    # transition-strip evaluations can push the argument far negative; the
    # backend must stay accurate there (oracle: same series idea, higher dps)
    v = airy_ai(-186.0)
    assert math.isfinite(v) and abs(v) < 1.0


def test_airy_domain_and_overflow():
    with pytest.raises(DomainError):
        airy_ai(float("nan"))
    with pytest.raises(DomainError):
        airy_ai(-math.inf)
    with pytest.raises(RangeError):
        airy_bi(1e4)


def test_airy_node_table_matches_mpmath():
    # the Taylor seeds are mpmath's Ai(c), Ai'(c) at 50 digits rounded to
    # the nearest double (tests/_oracle_gen/gen_airy_nodes.py prints them)
    with mp.workdps(50):
        expected = tuple(
            (float(mp.airyai(c)), float(mp.airyai(c, derivative=1))) for c in range(-8, 9)
        )
    assert special_fns._AI_NODES == expected


def _airy_sweep_points():
    dense = [k / 32 for k in range(-12 * 32, 12 * 32 + 1)]
    edges = [math.nextafter(v, w) for v in (-8.5, 8.5) for w in (-math.inf, math.inf)]
    return dense + edges + [-186.0, -50.0, 30.0, 100.0, 106.0, 110.0, -1e6, -1e10, -1e12]


def test_airy_against_mpmath():
    # error relative to the local envelope max(|Ai|, |Ai'|/sqrt(1+|x|)), so
    # zeros of Ai on the negative axis are judged on the oscillation scale;
    # below the smallest normal double the comparison is absolute
    worst = []
    with mp.workdps(40):
        for x in _airy_sweep_points():
            ref = mp.airyai(x)
            env = max(abs(ref), abs(mp.airyai(x, derivative=1)) / mp.sqrt(1 + abs(x)))
            err = abs(airy_ai(x) - ref)
            if env < sys.float_info.min:
                assert err <= 1e-13 * sys.float_info.min, x
            else:
                worst.append((float(err / env), x))
    assert max(worst) <= (1e-13, math.inf)


def test_airy_total_on_finite_reals():
    for x in (sys.float_info.max, 1e206, 1e15, 5e-324, -5e-324, -1e15, -1e206, -sys.float_info.max):
        v = airy_ai(x)
        assert math.isfinite(v)
        assert abs(v) <= abs(x) ** -0.25 / math.sqrt(math.pi) or abs(x) < 1
    assert airy_ai(-0.0) == airy_ai(0.0) == special_fns._AI_NODES[8][0]


# --- parabolic cylinder --------------------------------------------------------


def mp_pcfd(nu, z):
    """D_nu(z) from mpmath at the 40 digits lambda_j works in."""
    with mp.workdps(40):
        return complex(mp.pcfd(mp.mpf(nu), mp.mpmathify(z), zeroprec=4 * mp.mp.prec))


@pytest.mark.parametrize("key", sorted(PCF, key=repr))
def test_pcf_against_series_oracle(key):
    nu, z = key
    expected = PCF[key]
    if nu >= 0 and float(nu).is_integer() and z.imag == 0.0:
        got = value(pcf_d(int(nu), z.real))
    else:
        with pytest.raises(RangeError):
            pcf_d(nu, z)
        got = mp_pcfd(nu, z)
    assert abs(got - expected) <= 1e-13 * abs(expected)


@pytest.mark.parametrize("key", [(2, 1.7 + 0j), (8, -3.1 + 0j)])
def test_pcf_integer_order_oracle_literals_take_the_float_path(key):
    nu, z = key
    with mock.patch.object(mp, "pcfd", side_effect=AssertionError("mpmath.pcfd called")):
        sign, ln_mag = pcf_d(nu, z.real)
    assert type(sign) is type(ln_mag) is float
    assert abs(sign * math.exp(ln_mag) - PCF[key]) <= 1e-13 * abs(PCF[key])


def test_pcf_integer_order_against_mpmath():
    # The float path evaluates He_n by its recurrence; its rounding error is
    # bounded by that of the same recurrence in |z| with all signs positive,
    # sum_k |He_n coefficient_k| |z|^k, which scales the tolerance.
    with mp.workdps(40):
        for n in range(9):
            for k in range(-60, 61):
                z = k / 4
                sign, ln_mag = pcf_d(n, z)
                got = sign * math.exp(ln_mag)
                ref = mp.pcfd(n, z, zeroprec=4 * mp.mp.prec)
                bound_prev, bound = 0.0, 1.0
                for m in range(n):
                    bound_prev, bound = bound, abs(z) * bound + m * bound_prev
                assert type(sign) is type(ln_mag) is float
                assert abs(got - ref) <= 1e-13 * math.exp(-z * z / 4) * bound, (n, z)


def test_pcf_integer_order_exact_zeros():
    assert pcf_d(2, 1.0) == (0.0, -math.inf)
    assert pcf_d(2, -1.0) == (0.0, -math.inf)
    for n in (1, 3, 5, 7, 33, 1001):
        assert pcf_d(n, 0.0) == (0.0, -math.inf)
    assert pcf_d(0, 0.0) == (1.0, 0.0)


def test_pcf_refuses_non_integer_order_or_complex_argument():
    for nu, z in [(2.5, 1.0), (-2, 1.0), (2, 1.0 + 0.5j), (2, -0.5j), (math.nan, 1.0)]:
        with pytest.raises(RangeError):
            pcf_d(nu, z)


def test_pcf_refuses_float_order_and_complex_argument():
    # Integer-valued as they are, a float order and a complex argument on the
    # real axis are refused.
    for nu, z in [(4.0, 2.5), (4, 2.5 + 0j), (0.0, 0.0), (2, 1.0 + 0j)]:
        with pytest.raises(RangeError, match="needs an integer order and a real argument"):
            pcf_d(nu, z)


@pytest.mark.parametrize("n", range(11))
def test_pcf_hermite_identity(n):
    # D_n(x) = 2^(-n/2) e^(-x^2/4) H_n(x / sqrt 2)
    x = 1.9
    expected = 2 ** (-n / 2) * math.exp(-x * x / 4) * value(hermite(n, x / math.sqrt(2)))
    sign, ln_mag = pcf_d(n, x)
    assert type(sign) is type(ln_mag) is float
    assert sign * math.exp(ln_mag) == pytest.approx(expected, rel=1e-10)


def test_pcf_real_input_real_output():
    for nu, z in [(0, 2.3), (5, -1.1), (6, 0.4)]:
        sign, ln_mag = pcf_d(nu, z)
        assert type(sign) is type(ln_mag) is float and sign != 0.0


def test_pcf_growing_anchor():
    # D_x(u) ~ e^(-u^2/4) u^x as u -> +inf.  At u=9, nu=3.5 the first
    # correction term nu(nu-1)/(2u^2) = 5.40% dominates the gap, so we pin
    # the gap on both sides rather than pretend the leading form is better
    # than it is.
    d = mp_pcfd(3.5, 9.0).real
    rhs = math.exp(-81 / 4) * 9**3.5
    gap = abs(d / rhs - 1)
    assert 0.04 < gap < 0.065


def test_pcf_two_term_anchor():
    # D_x(-u) ~ e^(-u^2/4) u^x cos(pi x)
    #           - sqrt(2/pi) x Gamma(x) sin(pi x) u^(-x-1) e^(u^2/4)
    # for u -> +inf; again the genuine gap at u=9 is ~5.9% of the dominant
    # term (first correction (nu+1)(nu+2)/(2u^2) = 5.40%), bounded two-sided.
    x, u = 1.5, 9.0
    t1 = math.exp(-u * u / 4) * u**x * math.cos(math.pi * x)
    t2 = (
        -math.sqrt(2 / math.pi)
        * x
        * math.gamma(x)
        * math.sin(math.pi * x)
        * u ** (-x - 1)
        * math.exp(u * u / 4)
    )
    d = mp_pcfd(x, -u).real
    gap = abs(d - (t1 + t2)) / max(abs(t1), abs(t2))
    assert 0.04 < gap < 0.065


def test_pcf_recurrence_property():
    # D_{nu+1}(z) - z D_nu(z) + nu D_{nu-1}(z) = 0
    for nu in (1, 2, 5, 12, 31):
        for z in (-6.0, -2.0, 0.7, 3.0, 9.0):
            a = value(pcf_d(nu + 1, z))
            b = value(pcf_d(nu, z))
            c = value(pcf_d(nu - 1, z))
            resid = a - z * b + nu * c
            scale = max(abs(a), abs(z * b), abs(nu * c), 1e-300)
            assert abs(resid) <= 1e-8 * scale


def test_pcf_takes_any_order_and_finite_argument():
    # Orders above 32 and arguments beyond 15 were refused while the value
    # was a double; in log form they evaluate, as mpmath does.  A negative
    # or float order, a complex argument and a non-finite one are refused.
    with mp.workdps(60):
        for nu, z in [(33, 1.0), (34, 0.5), (2, -15.5), (2, 16.0)]:
            assert log_error(pcf_d(nu, z), mp.pcfd(nu, z)) <= 1e-12
    for nu, z in [(-1, 1.0), (1, math.inf), (3, math.nan)]:
        with pytest.raises(RangeError, match="n >= 0, z finite"):
            pcf_d(nu, z)
    for nu, z in [(1.0, 16.0), (1.0, 12 + 12j), (2, 15.5 + 0j)]:
        with pytest.raises(RangeError, match="needs an integer order and a real argument"):
            pcf_d(nu, z)


#: Orders of the log-form pin: 32, the largest that pcf_d took as a double,
#: the first past it, the corner-II degree that overflowed at N = 400, and
#: far beyond.
PIN_ORDERS = (0, 1, 32, 33, 100, 268, 400, 1000)


def test_log_forms_against_mpmath():
    # Seeded points with |z| <= 60 (|eta| <= 30 for H_n), where D_n runs from
    # e^-900 to e^+3000: every sign matches mpmath at 60 digits and every log
    # is within 1e-12 of its own size (1e-12 of the value where |ln| <= 1).
    rng = random.Random(20051)
    with mp.workdps(60):
        for n in PIN_ORDERS:
            for _ in range(25):
                z, eta = rng.uniform(-60.0, 60.0), rng.uniform(-30.0, 30.0)
                assert log_error(pcf_d(n, z), mp.pcfd(n, z)) <= 1e-12, (n, z)
                assert log_error(hermite(n, eta), mp.hermite(n, eta)) <= 1e-12, (n, eta)
        # The two corner-II points that overflowed a double (compare --N 400
        # with n_small = 400, and forced II at N = 1000, n = 999).
        for n, eta in ((268, -2.994124938726181), (999, -22.360679774997898)):
            assert log_error(hermite(n, eta), mp.hermite(n, eta)) <= 1e-12, (n, eta)
    # The exact zeros stay exact: D_2(+-1), and D_n(0) and H_n(0) at odd n.
    for n, z in [(2, 1.0), (2, -1.0)] + [(n, 0.0) for n in PIN_ORDERS + (999,) if n % 2]:
        assert pcf_d(n, z) == (0.0, -math.inf)
        assert z != 0.0 or hermite(n, z) == (0.0, -math.inf)


# --- lambda_j ------------------------------------------------------------------


def test_lambda_realness_grid():
    for j in range(7):
        for xi in range(-3, 4):
            lambda_j(j, float(xi))  # raises ResidueError if not real
    # Orders up to the largest accepted, at top-corner arguments.
    for j in (1, 4, 10, 25, 30):
        for xi in (-1.1, -0.4, 0.0, 0.5, 1.2):
            assert math.isfinite(lambda_j(j, xi)), (j, xi)


def test_lambda_even_j_vanishes_at_zero():
    for j in (0, 2, 4, 6):
        assert lambda_j(j, 0.0) == 0.0


def test_lambda_parity():
    for j in range(7):
        for xi in (0.4, 1.3, 2.6):
            left = lambda_j(j, -xi)
            right = (-1) ** (j + 1) * lambda_j(j, xi)
            assert left == pytest.approx(right, rel=1e-12, abs=1e-300)


def test_lambda_large_j_asymptotic():
    # Lambda_j(xi) ~ sqrt(2/j) exp((j/2)(1 - ln j)) sin(sqrt(2 j) xi - j pi/2)
    # for large j; compare against the envelope at j=25
    j = 25
    amp = math.sqrt(2 / j) * math.exp((j / 2) * (1 - math.log(j)))
    for xi in (-1.2, -0.9, -0.3, 0.3, 0.7, 1.1):
        asym = amp * math.sin(math.sqrt(2 * j) * xi - j * math.pi / 2)
        assert abs(lambda_j(j, xi) - asym) <= 0.05 * amp


def test_lambda_range_errors():
    with pytest.raises(RangeError):
        lambda_j(31, 0.0)
    with pytest.raises(RangeError):
        lambda_j(2, 9.0)
    with pytest.raises(RangeError):
        lambda_j(-1, 0.0)


# Bools are ints in Python; an order or degree of True would silently read as 1.


def test_hermite_refuses_bool_degree():
    with pytest.raises(DomainError, match="hermite degree"):
        hermite(True, 0.5)


def test_hermite_refuses_bool_argument():
    with pytest.raises(DomainError, match="not a bool"):
        hermite(2, True)
    with pytest.raises(DomainError, match="not a bool"):
        hermite(0, False)


def test_pcf_refuses_bool_order():
    with pytest.raises(RangeError, match="integer order"):
        pcf_d(True, 0.5)
    with pytest.raises(RangeError, match="integer order"):
        pcf_d(True, 16.0)


def test_pcf_refuses_bool_argument():
    # pcf_d(2, True) returned D_2(1) = 0.0.
    for z in (True, False):
        with pytest.raises(RangeError, match="integer order and a real argument"):
            pcf_d(2, z)
    with pytest.raises(RangeError, match="integer order and a real argument"):
        pcf_d(33, True)


def test_lambda_refuses_bool_degree():
    with pytest.raises(RangeError, match="lambda_j degree"):
        lambda_j(False, 0.5)
