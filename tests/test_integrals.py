import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

import hyhe.matrices
from hyhe.basis import enumerate_basis
from hyhe.integrals import (IntegralDomainError, moment_ratio,
                            polynomial_moments, raw_moment)
from support.integrals import (QuadratureError, base_integral,
                               base_integral_real, k_scaling_exponent,
                               log_base_integral, log_integral_quad_mp,
                               quad_base_integral, quad_base_integral_mp,
                               quad_integral)


def mpf_of(fr):
    return mp.mpf(fr.numerator) / fr.denominator


def test_base_integral_reference_values():
    assert base_integral(0, 0, 0) == Fraction(1, 2)
    assert base_integral(1, 0, 0) == Fraction(3, 2)
    assert base_integral(0, 0, 1) == Fraction(35, 32)


def test_volume_normalization_is_pi_squared():
    # 2*pi^2 * int e^{-2s} u (s^2 - t^2) = <e^{-s}|e^{-s}> = pi^2
    with mp.workdps(30):
        total = 2 * mp.pi ** 2 * mpf_of(base_integral(0, 0, 0))
        assert abs(total - mp.pi ** 2) < mp.mpf("1e-28")


def test_domain_guards():
    with pytest.raises(IntegralDomainError):
        raw_moment(0, -1, 0)
    with pytest.raises(IntegralDomainError):
        raw_moment(0, 0, -2)  # b + c + 1 < 0 diverges at u -> 0
    with pytest.raises(IntegralDomainError, match="s-integral diverges"):
        raw_moment(-2, 0, -1)  # a + b + c + 2 < 0 diverges at s -> 0
    # c = -1 is fine: b + c + 1 = 0 absorbs into the u integral
    assert raw_moment(0, 0, -1) == Fraction(1, 4)


def test_polynomial_moments_are_moment_ratio(monkeypatch):
    # every key the N = 95 assembly reads, and the c = -1 keys over the same
    # a and b, where b + 1 = b + c + 2 and n!/(b+1)^2 need not be an
    # integer, as one table over one D, against moment_ratio key by key; a
    # key with b < 0 (no pair reads it with a nonzero coefficient) reads 0
    read = []

    def spy(keys):
        read.append(keys)
        return polynomial_moments(keys)

    monkeypatch.setattr(hyhe.matrices, "polynomial_moments", spy)
    hyhe.matrices.build_operator_matrices(enumerate_basis(95))
    (keys,) = read
    keys = sorted(set(map(tuple, keys))
                  | {(x, y, -1) for x in range(max(k[0] for k in keys) + 1)
                     for y in range(max(k[1] for k in keys) + 1)})
    assert any(b < 0 for _, b, _ in keys)
    assert any(math.factorial(x + y + 1) % (y + 1) ** 2
               for x, y, z in keys if z == -1)
    values, D = polynomial_moments(keys)
    for key, v in zip(keys, values):
        want = Fraction(*moment_ratio(*key)) if key[1] >= 0 else 0
        assert Fraction(v, D) == want, key


@pytest.mark.parametrize("a,b,c", [(0, 0, 0), (1, 2, 3), (4, 0, 2), (2, 2, 2)])
def test_monotonic_in_a(a, b, c):
    assert base_integral(a + 1, b, c) > base_integral(a, b, c) > 0


def test_memoization_bit_identical():
    first = raw_moment(5, 2, 3)
    second = raw_moment(5, 2, 3)
    assert first is second  # lru_cache returns the same immutable Fraction


def test_k_scaling_exponent():
    assert k_scaling_exponent(0, 0, 0) == 6
    assert k_scaling_exponent(1, 2, 3) == 12
    assert k_scaling_exponent(1, 2, 3, with_volume=False) == 9


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4),
       st.floats(0.8, 3.0))
def test_scaling_law_against_quadrature(a, b, c, k):
    # int e^{-2ks} s^a t^b u^c dV = k^-(a+b+c+6) * base(a,b,c)
    def f(s, t, u):
        return np.exp(-2 * (k - 1) * s) * s**a * t**b * u**c * u * (s**2 - t**2)
    val = quad_integral(f, target=1e-12)
    expected = float(base_integral(a, b, c)) * k ** (-k_scaling_exponent(a, b, c))
    assert val == pytest.approx(expected, rel=1e-10)


def test_quad_reference_integrands():
    # volume element alone integrates to base(0,0,0) = 1/2
    assert quad_integral(lambda s, t, u: u * (s * s - t * t)) == pytest.approx(0.5, abs=1e-13)
    # nuclear attraction weight 4su: exact value 1
    assert quad_integral(lambda s, t, u: 4 * s * u) == pytest.approx(1.0, abs=1e-13)
    # repulsion weight s^2 - t^2: exact value 5/16
    assert quad_integral(lambda s, t, u: s * s - t * t) == pytest.approx(5 / 16, abs=1e-13)


def test_quad_matches_closed_form():
    for key in [(0, 0, 0), (2, 1, 3), (1, 2, 0), (3, 0, 4)]:
        assert quad_base_integral(*key) == pytest.approx(float(base_integral(*key)), rel=1e-12)


def test_quad_failure_carries_best_estimate():
    with pytest.raises(QuadratureError) as err:
        quad_integral(lambda s, t, u: u * (s * s - t * t), target=1e-30)
    assert err.value.best_estimate == pytest.approx(0.5, rel=1e-10)
    assert err.value.achieved > 1e-30


def test_closed_form_battery_mp():
    # every exponent triple through total degree 8, to well below float64
    with mp.workdps(40):
        worst = mp.mpf(0)
        for a in range(9):
            for b in range(9 - a):
                for c in range(9 - a - b):
                    exact = mpf_of(base_integral(a, b, c))
                    quad = quad_base_integral_mp(a, b, c)
                    worst = max(worst, abs(quad - exact) / exact)
        assert worst < mp.mpf("1e-18")


def test_log_moment_closed_vs_tanh_sinh():
    with mp.workdps(40):
        for key in [(0, 0, 0), (2, 0, 1), (1, 2, 3)]:
            closed = log_base_integral(*key)
            quad = log_integral_quad_mp(*key)
            assert abs(closed - quad) < mp.mpf("1e-20") * max(1, abs(closed))


def test_log_moment_is_c_derivative():
    # d/dc base(a,b,c) adds a ln(u) weight under the integral
    with mp.workdps(40):
        h = mp.mpf("1e-12")
        for key in [(0, 0, 0), (1, 1, 2)]:
            a, b, c = key
            fd = (base_integral_real(a, b, c + h) - base_integral_real(a, b, c - h)) / (2 * h)
            assert abs(fd - log_base_integral(a, b, c)) < mp.mpf("1e-8")


def test_log_moment_scaling_law():
    # J(k) = (J(1) - ln k * I(1)) k^-p: rescaling pulls ln u -> ln u - ln k
    with mp.workdps(30):
        a, b, c = 1, 0, 2
        k = mp.mpf(3) / 2
        p = k_scaling_exponent(a, b, c)
        expected = (log_base_integral(a, b, c)
                    - mp.log(k) * mpf_of(base_integral(a, b, c))) * k ** (-p)
        # direct separable quadrature with the scaled weight e^{-2ks}:
        # under u = y s, t = z u the box-mapped integrand factorizes and
        # ln u = ln s + ln y
        P = a + b + c + 5

        def yz(extra):
            inner = lambda y, z: y ** (b + c + 2) * z ** b * (1 - y * y * z * z) * extra(y)
            return mp.quad(lambda y: mp.quad(lambda z: inner(y, z), [0, 1]), [0, 1])

        s_plain = mp.quad(lambda x: mp.exp(-2 * k * x) * x ** P, [0, mp.inf])
        s_log = mp.quad(lambda x: mp.exp(-2 * k * x) * x ** P * mp.log(x), [0, mp.inf])
        direct = s_log * yz(lambda y: 1) + s_plain * yz(mp.log)
        assert abs(direct - expected) < mp.mpf("1e-20") * abs(expected)


def test_quad_log_weight_route():
    # the ln(u) corner slows Gauss convergence; this route is for sanity
    # checks, the digamma closed form is pinned by the tanh-sinh test above
    val = quad_base_integral(0, 0, 0, log_u=True, target=1e-8)
    with mp.workdps(30):
        assert val == pytest.approx(float(log_base_integral(0, 0, 0)), rel=1e-7)
