"""Generate frozen literals for the special-function tests.

Independent routes, deliberately different from the package implementation
(float Ai and integer-order D_n, mpmath's airybi and pcfd for Bi and
Lambda_j) and from mpmath, which the tests compare the other D_nu with:

* Airy Ai/Bi and their derivatives from the Maclaurin pair

      f(x) = 1 + x^3/(2*3) + x^6/(2*3*5*6) + ...
      g(x) = x + x^4/(3*4) + x^7/(3*4*6*7) + ...

  with Ai = a*f - b*g, Bi = sqrt(3)(a*f + b*g), a = Ai(0), b = -Ai'(0),
  summed term-recursively at 60 digits.

* D_nu(z) from the confluent (Kummer M) representation

      D_nu(z) = 2^(nu/2) sqrt(pi) e^(-z^2/4) [ M(-nu/2, 1/2, z^2/2)/Gamma((1-nu)/2)
                - sqrt(2) z M((1-nu)/2, 3/2, z^2/2)/Gamma(-nu/2) ]

  with M summed directly; the representation is validated here against the
  closed forms D_0, D_1 and D_{-1} before anything is frozen.

* Hermite H_10 coefficients from the explicit sum
  H_n(x) = n! * sum_m (-1)^m (2x)^(n-2m) / (m! (n-2m)!).

Run and paste the output into tests/test_special_fns.py.
"""

import math

import mpmath as mp

mp.mp.dps = 60


def airy_pair(x):
    x = mp.mpf(x)
    # f series: t_{k+1} = t_k * x^3 / ((3k+2)(3k+3))
    f = t = mp.mpf(1)
    k = 0
    while True:
        t = t * x**3 / ((3 * k + 2) * (3 * k + 3))
        f += t
        k += 1
        if abs(t) < mp.mpf(10) ** (-70) * (abs(f) + 1):
            break
    # g series: t_{k+1} = t_k * x^3 / ((3k+3)(3k+4))
    g = t = x
    k = 0
    while True:
        t = t * x**3 / ((3 * k + 3) * (3 * k + 4))
        g += t
        k += 1
        if abs(t) < mp.mpf(10) ** (-70) * (abs(g) + 1):
            break
    # fp = f', gp = g' by term-wise differentiation
    fp = mp.mpf(0)
    t = mp.mpf(1)
    k = 0
    # f = sum t_k x^{3k}; f' = sum 3k t_k x^{3k-1}; rebuild with powers
    term = mp.mpf(1)
    terms_f = [term]
    while True:
        term = term * x**3 / ((3 * k + 2) * (3 * k + 3))
        terms_f.append(term)
        k += 1
        if abs(term) < mp.mpf(10) ** (-70) * (abs(f) + 1):
            break
    if x != 0:
        fp = sum(3 * k * t / x for k, t in enumerate(terms_f))
    else:
        fp = mp.mpf(0)
    terms_g = [x]
    term = x
    k = 0
    while True:
        term = term * x**3 / ((3 * k + 3) * (3 * k + 4))
        terms_g.append(term)
        k += 1
        if abs(term) < mp.mpf(10) ** (-70) * (abs(g) + 1):
            break
    if x != 0:
        gp = sum((3 * k + 1) * t / x for k, t in enumerate(terms_g))
    else:
        gp = mp.mpf(1)
    a = mp.mpf(3) ** mp.mpf("-2/3") / mp.gamma(mp.mpf(2) / 3)
    b = mp.mpf(3) ** mp.mpf("-1/3") / mp.gamma(mp.mpf(1) / 3)
    ai = a * f - b * g
    bi = mp.sqrt(3) * (a * f + b * g)
    aip = a * fp - b * gp
    bip = mp.sqrt(3) * (a * fp + b * gp)
    return ai, bi, aip, bip


def kummer_m(a, b, z):
    a, b, z = mp.mpmathify(a), mp.mpmathify(b), mp.mpmathify(z)
    total = term = mp.mpf(1)
    k = 0
    while True:
        term = term * (a + k) / (b + k) * z / (k + 1)
        total += term
        k += 1
        if abs(term) < mp.mpf(10) ** (-70) * (abs(total) + 1) and k > 8:
            return total


def pcf_series(nu, z):
    nu, z = mp.mpmathify(nu), mp.mpmathify(z)
    pref = mp.mpf(2) ** (nu / 2) * mp.sqrt(mp.pi) * mp.exp(-(z**2) / 4)
    t1 = kummer_m(-nu / 2, mp.mpf(1) / 2, z**2 / 2)  * mp.rgamma((1 - nu) / 2)
    t2 = mp.sqrt(2) * z * kummer_m((1 - nu) / 2, mp.mpf(3) / 2, z**2 / 2)  * mp.rgamma(-nu / 2)
    return pref * (t1 - t2)


def validate_pcf():
    for z in (mp.mpf("0.3"), mp.mpf("-2.5"), mp.mpf("7")):
        d0 = pcf_series(0, z)
        assert abs(d0 - mp.exp(-(z**2) / 4)) < mp.mpf(10) ** (-50), d0
        d1 = pcf_series(1, z)
        assert abs(d1 - z * mp.exp(-(z**2) / 4)) < mp.mpf(10) ** (-48), d1
        dm1 = pcf_series(-1, z)
        ref = mp.exp(z**2 / 4) * mp.sqrt(mp.pi / 2) * mp.erfc(z / mp.sqrt(2))
        assert abs(dm1 - ref) < abs(ref) * mp.mpf(10) ** (-45), (dm1, ref)
    print("# pcf_series validated against D_0, D_1, D_{-1} closed forms")


def hermite_coeffs(n):
    coeffs = {}
    for m in range(n // 2 + 1):
        c = (
            math.factorial(n)
            * (-1) ** m
            * 2 ** (n - 2 * m)
            // (math.factorial(m) * math.factorial(n - 2 * m))
        )
        coeffs[n - 2 * m] = c
    return coeffs


if __name__ == "__main__":
    validate_pcf()
    print("AIRY = {  # x: (Ai, Bi, Ai', Bi'), 30 digits, own-series oracle")
    for x in ("-8", "-5", "-2", "0", "2", "5", "8", "11.5"):
        ai, bi, aip, bip = airy_pair(mp.mpf(x))
        print(
            f"    {float(mp.mpf(x))}: ("
            f"'{mp.nstr(ai, 30)}', '{mp.nstr(bi, 30)}', "
            f"'{mp.nstr(aip, 30)}', '{mp.nstr(bip, 30)}'),"
        )
    print("}")
    print("PCF = {  # (nu, z): D_nu(z), 30 digits, confluent-series oracle")
    for nu, z in [
        (2, mp.mpf("1.7")),
        (3.5, mp.mpf("9")),
        (1.5, mp.mpf("-9")),
        (-4, mp.mpf("2.2")),
        (8, mp.mpf("-3.1")),
        (0.5, mp.mpf("0.0")),
        (-26, mp.mpc(0, 3) * mp.sqrt(2)),
        (-9, mp.mpc(0, -1.25) * mp.sqrt(2)),
    ]:
        v = pcf_series(nu, z)
        vv = complex(v)
        print(f"    ({nu}, {complex(z)!r}): {vv!r},")
    print("}")
    print("H10_COEFFS =", hermite_coeffs(10), " # explicit-sum oracle")
