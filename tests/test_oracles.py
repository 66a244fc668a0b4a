import math

import numpy as np
import pytest
from mpmath import mp

from hyhe.basis import enumerate_basis
from support.basis import basis_expression
from support.matrices import (derivative_symbols, evaluate_poly,
                              reduced_laplacian)
from support.oracles import (CartesianProbe, attraction_identity_residual,
                             direction_cosines, duffy_quad_mp,
                             gauss_tensor_value, hydrogenic_reference,
                             random_configurations, stu_of)


@pytest.fixture(scope="module")
def probe():
    # an arbitrary correlated 5-term state; nothing about these checks
    # depends on it being optimized
    basis = enumerate_basis(5)
    coeffs = [1.0, -0.3, 0.2, 0.05, -0.04]
    return basis, coeffs, CartesianProbe(basis, coeffs, k=1.3)


def test_random_configurations_reproducible():
    a = random_configurations(10, seed=42)
    b = random_configurations(10, seed=42)
    assert len(a) == 10
    for ca, cb in zip(a, b):
        assert np.array_equal(ca.r1, cb.r1) and np.array_equal(ca.r2, cb.r2)
        assert np.linalg.norm(ca.r1 - ca.r2) >= 0.3


def test_attraction_identity_pointwise():
    # (1/r1 + 1/r2) u (s^2 - t^2) = 4 s u, the cancellation that makes the
    # nuclear attraction integrand polynomial
    worst = max(attraction_identity_residual(cfg)
                for cfg in random_configurations(100, seed=7))
    assert worst < 1e-12


def test_direction_cosines_closed_form():
    for cfg in random_configurations(50, seed=11):
        s, t, u = stu_of(cfg.r1, cfg.r2)
        c1, c2 = direction_cosines(cfg)
        assert c1 == pytest.approx((u * u - s * t) / ((s - t) * u), abs=1e-13)
        assert c2 == pytest.approx(-(u * u + s * t) / ((s + t) * u), abs=1e-13)


def test_probe_value_consistency(probe):
    basis, coeffs, p = probe
    for cfg in random_configurations(10, seed=5):
        s, t, u = stu_of(cfg.r1, cfg.r2)
        direct = sum(c * basis_expression(term).evaluate(1.3 * s, 1.3 * t, 1.3 * u)
                     for term, c in zip(basis, coeffs))
        assert p.value(cfg) == pytest.approx(direct, rel=1e-12)


def test_laplacian_fd_matches_reduced_form(probe):
    # Lap_1 (P e^{-s}) = T e^{-s}/((s-t)u) at k = 1, and k^2 X(ks,kt,ku)
    # after dressing; electron 1 owns the (s - t) channel
    basis, coeffs, p = probe
    k = 1.3
    state = {}
    for term, c in zip(basis, coeffs):
        key = (term.l, 2 * term.m, term.n)
        state[key] = state.get(key, 0) + c
    T = {key: float(v) for key, v in
         reduced_laplacian({key: mp.mpf(v) for key, v in state.items()}).items()}
    for cfg in random_configurations(20, seed=13):
        s, t, u = stu_of(cfg.r1, cfg.r2)
        S, Tc, U = k * s, k * t, k * u
        exact = (k * k * evaluate_poly(T, S, Tc, U) / ((S - Tc) * U)
                 * math.exp(-S))
        fd = p.laplacian_fd(cfg, electron=1)
        assert fd == pytest.approx(exact, rel=1e-6, abs=1e-6)


def test_grad12_fd_matches_symbols(probe):
    # n.(grad_1 - grad_2)/2 = (c1 k a - c2 k b + 2 k p_u) e^{-ks} / 2 with the
    # a/b/c derivative symbols evaluated at the scaled coordinates
    basis, coeffs, p = probe
    k = 1.3
    for cfg in random_configurations(20, seed=17):
        s, t, u = stu_of(cfg.r1, cfg.r2)
        c1, c2 = direction_cosines(cfg)
        S, Tc, U = k * s, k * t, k * u
        total = 0.0
        for term, c in zip(basis, coeffs):
            poly, a, b, pu = derivative_symbols(term)
            total += c * (c1 * evaluate_poly(a, S, Tc, U)
                          - c2 * evaluate_poly(b, S, Tc, U)
                          + 2 * evaluate_poly(pu, S, Tc, U))
        exact = 0.5 * k * total * math.exp(-S)
        fd = p.grad12_dot_n_fd(cfg)
        assert fd == pytest.approx(exact, rel=1e-8, abs=1e-8)


def test_hydrogenic_reference_values():
    with mp.workdps(30):
        ref = hydrogenic_reference(mp.mpf(2))
        assert abs(ref.k_star - mp.mpf(27) / 16) < mp.mpf("1e-28")
        assert abs(ref.energy - (4 - 2 * mp.mpf(27) / 8)) < mp.mpf("1e-28")
        assert abs(ref.delta_r1 - 8 / mp.pi) < mp.mpf("1e-28")
        assert abs(ref.delta_r12 - 1 / mp.pi) < mp.mpf("1e-28")
        assert abs(ref.p4 - 80) < mp.mpf("1e-28")
        # Q(k) = k^3 (ln2/4 - 1/3 + ln(k)/4); the ln k piece comes from
        # ln r12 -> ln u - ln k under coordinate rescaling
        assert abs(ref.log_momentum - (4 * mp.ln(2) - mp.mpf(8) / 3)) < mp.mpf("1e-28")
        hydrogen = hydrogenic_reference(1, Z=1)
        assert abs(hydrogen.k_star - mp.mpf(11) / 16) < mp.mpf("1e-28")
        assert abs(hydrogen.log_momentum - (mp.ln(2) / 4 - mp.mpf(1) / 3)) < mp.mpf("1e-28")


def test_gauss_tensor_volume():
    val = gauss_tensor_value(lambda s, t, u: u * (s * s - t * t), n=48)
    assert val == pytest.approx(0.5, abs=1e-12)


def test_duffy_volume_spot():
    with mp.workdps(15):
        val = duffy_quad_mp(lambda s, t, u: u * (s * s - t * t))
        assert abs(val - mp.mpf(1) / 2) < mp.mpf("1e-12")
