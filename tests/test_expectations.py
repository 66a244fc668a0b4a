import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from mpmath import mp

import hyhe
from hyhe import exact, matrices
from hyhe.basis import enumerate_basis
from hyhe.constants import default_constants
from hyhe.eigen import build_systems, optimize_k
from hyhe.exact import to_mpf
from hyhe.forms import build_expectation_forms
from hyhe.matrices import (NormalizationError, build_operator_matrices,
                           check_normalized, delta_expectations,
                           expectation_set, log_momentum_expectation,
                           p4_expectation)
from hyhe.report import build_row_stage
from support import fixed_state, fraction_matrix, members
from support.integrals import quad_integral
from support.matrices import (angle_logmom_numerator,
                              log_momentum_integrands, logmom_numerator,
                              p4_expectation_quad, p4_integrand,
                              polynomial_log_momentum_expectation,
                              polynomial_p4_expectation, state_poly)
from support.oracles import (duffy_p4_channels, gauss_tensor_value,
                             hydrogenic_reference, mp_delta_expectations,
                             mp_log_momentum_expectation, mp_p4_expectation)


@pytest.fixture(scope="module")
def seed_state():
    basis = enumerate_basis(1)
    mats = build_operator_matrices(basis)
    return basis, mats, build_expectation_forms(basis, mats.W)


def normalized_state(n, alternating=False):
    """A fixed, unoptimized (but exactly normalized) n-term state: (basis,
    mats, mpf coefficients, the same state as fixed_state's (ints, F))."""
    basis = enumerate_basis(n)
    mats = build_operator_matrices(basis)
    W = fraction_matrix(mats.W)
    sign = -1 if alternating else 1
    raw = [mp.mpf(sign) ** i / (i + 2) for i in range(n)]
    wq = mp.mpf(0)
    for i in range(n):
        for j in range(n):
            wij = W[i][j]
            wq += raw[i] * raw[j] * mp.mpf(wij.numerator) / wij.denominator
    coeffs = [c / mp.sqrt(wq) for c in raw]
    return basis, mats, coeffs, fixed_state(coeffs)


@pytest.mark.parametrize("k", ["2.0", "1.6875"])
def test_hydrogenic_closed_forms(seed_state, k):
    basis, mats, forms = seed_state
    with mp.workdps(40):
        km = mp.mpf(k)
        exps = expectation_set(basis, *fixed_state([mp.sqrt(2)]), km, forms)
        ref = hydrogenic_reference(km)
        tol = mp.mpf("1e-30")
        assert abs(exps.delta_r1 - km ** 3 / mp.pi) < tol
        assert abs(exps.delta_r12 - km ** 3 / (8 * mp.pi)) < tol
        assert abs(exps.p4 - 5 * km ** 4) < 5 * km ** 4 * mp.mpf("1e-25")
        q = km ** 3 * (mp.ln(2) / 4 - mp.mpf(1) / 3 + mp.ln(km) / 4)
        assert abs(exps.log_momentum - q) < mp.mpf("1e-25")
        for mine, theirs in [(exps.delta_r1, ref.delta_r1),
                             (exps.delta_r12, ref.delta_r12),
                             (exps.p4, ref.p4),
                             (exps.log_momentum, ref.log_momentum)]:
            assert abs(mine - mp.mpf(theirs)) < mp.mpf("1e-12")


def test_electron_density_symmetry():
    # every basis monomial carries t to an even power, so the state is
    # invariant under t -> -t (electron exchange): <delta(r1)> = <delta(r2)>
    for term in enumerate_basis(50):
        assert (2 * term.m) % 2 == 0


def test_delta_needs_a_normalization_route(seed_state):
    basis, mats, _ = seed_state
    state = fixed_state([mp.sqrt(2)])
    wq = check_normalized(mats.W, *state)
    d1, dee = delta_expectations(basis, *state, 2, wq)
    assert d1 > dee > 0


def test_expectation_set_rejects_unnormalized(seed_state):
    basis, mats, forms = seed_state
    with pytest.raises(NormalizationError):
        expectation_set(basis, *fixed_state([mp.mpf(1)]), 2, forms)


def test_p4_series_vs_quadrature_seed(seed_state):
    basis, mats, forms = seed_state
    with mp.workdps(30):
        state = fixed_state([mp.sqrt(2)])
        wq = check_normalized(mats.W, *state)
        series, _ = p4_expectation(forms, *state, 1, wq)
        assert abs(series - 10) < mp.mpf("1e-25")  # pair value: 2 * 5k^4
        quad = p4_expectation_quad(basis, [mp.sqrt(2)], 1, wq, quad_integral)
        assert abs(quad - series) < mp.mpf("1e-3") * series


def test_p4_series_vs_quadrature_correlated():
    # correlated terms put log-type corners at u -> 0, so a fixed 96-node
    # rule only certifies ~1%; the tight Duffy-split checks live below
    with mp.workdps(30):
        basis, mats, coeffs, state = normalized_state(5)
        wq = check_normalized(mats.W, *state)
        k = mp.mpf("1.8")
        series, _ = p4_expectation(build_expectation_forms(basis, mats.W),
                                   *state, k, wq)
        f1 = p4_integrand(basis, coeffs)
        quad = k ** 4 * (gauss_tensor_value(f1, n=96)
                         + gauss_tensor_value(lambda s, t, u: f1(s, -t, u),
                                              n=96)) / wq
        assert abs(quad - series) < mp.mpf("2e-2") * abs(series)


def test_p4_channels_vs_duffy_gauss(seed_state):
    # tight version of the quadrature cross-check: the Duffy split of the
    # s = t corner resolves the 1/(s-t) edge that plain Gauss cannot
    with mp.workdps(15):
        i_minus, i_plus = duffy_p4_channels(enumerate_basis(1), [mp.sqrt(2)])
        # wq = 1, k = 1: the channel sum is the full pair expectation
        assert abs(i_minus + i_plus - 10) < mp.mpf("1e-12")
        assert abs(i_plus - mp.mpf(1) / 2) < mp.mpf("1e-12")


@pytest.mark.xfail(strict=True, reason=(
    "p4_expectation leaves out the (-1)^B of the confluent (C = 0) "
    "1/((s+t)u) channel moment, (-1)^B (zeta(2)/2 - sum_{j<=B} "
    "(-1)^{j+1}/j^2), so every odd-B, C = 0 monomial of T^2 (s+t) enters "
    "with the wrong sign; see README.md, Known deviations, 'delta E^(2)'"))
@pytest.mark.parametrize("alternating", [False, True])
@pytest.mark.parametrize("n", [3, 7])
def test_p4_correlated_vs_duffy_gauss(n, alternating):
    # the odd-B, C = 0 monomials appear once a basis term carries u, so the
    # one-term checks above cannot see them; 14 nodes resolve these states
    # to ~1e-18 relative
    with mp.workdps(30):
        basis, mats, coeffs, state = normalized_state(n,
                                                      alternating=alternating)
        wq = check_normalized(mats.W, *state)
        k = mp.mpf("1.8")
        i_minus, i_plus = duffy_p4_channels(basis, coeffs, nodes=14)
        quad = k ** 4 * (i_minus + i_plus) / wq
        series, _ = p4_expectation(build_expectation_forms(basis, mats.W),
                                   *state, k, wq)
        assert abs(series - quad) < mp.mpf("1e-15") * quad, (
            mp.nstr(series, 20), mp.nstr(quad, 20))


def test_log_momentum_series_vs_quadrature():
    with mp.workdps(30):
        basis, mats, coeffs, state = normalized_state(4)
        wq = check_normalized(mats.W, *state)
        k = mp.mpf("1.7")
        closed, _ = log_momentum_expectation(
            build_expectation_forms(basis, mats.W), *state, k, wq)
        plain, logu = log_momentum_integrands(basis, coeffs)
        # the plain moment converges to machine precision, the ln(u) corner
        # limits the log moment to ~5 digits on a fixed 96-node rule
        i_plain = quad_integral(plain, target=1e-10)
        i_log = gauss_tensor_value(logu, n=96)
        quad = k ** 3 * (i_log + (mp.euler - mp.ln(k)) * i_plain) / wq
        assert abs(quad - closed) < mp.mpf("5e-4") * max(1, abs(closed))


def test_log_momentum_gamma_hook(seed_state):
    # the (gamma - ln k) piece rides on the plain moment:
    # Q = k^3 (I_log + (gamma - ln k) I_plain) / wq, so on one state
    # Q(2)/8 - Q(1) = -ln 2 I_plain / wq exactly
    basis, mats, forms = seed_state
    with mp.workdps(30):
        state = fixed_state([mp.sqrt(2)])
        wq = check_normalized(mats.W, *state)
        q1, _ = log_momentum_expectation(forms, *state, 1, wq)
        q2, _ = log_momentum_expectation(forms, *state, 2, wq)
        plain, _ = log_momentum_integrands(basis, [mp.sqrt(2)])
        i_plain = quad_integral(plain, target=1e-12)
        assert abs((q2 / 8 - q1) + mp.ln(2) * i_plain / wq) < mp.mpf("1e-10")


def test_p4_scaling_in_k():
    # the series carries k^4 explicitly; doubling k multiplies by 16
    with mp.workdps(30):
        basis, mats, _, state = normalized_state(3)
        forms = build_expectation_forms(basis, mats.W)
        wq = check_normalized(mats.W, *state)
        p4_at_2, _ = p4_expectation(forms, *state, 2, wq)
        p4_at_1, _ = p4_expectation(forms, *state, 1, wq)
        assert abs(p4_at_2 - 16 * p4_at_1) < mp.mpf("1e-20")


def optimized_state(n):
    """The nuclear-motion ground state at its optimal k, at the working dps:
    (basis, mats, mpf coefficients, the solve's (ints, F), k_opt)."""
    basis = enumerate_basis(n)
    mats = build_operator_matrices(basis)
    system = build_systems(mats,
                           mass_ratio=default_constants().mass_ratio_M)["0"]
    res = optimize_k(system)
    coeffs = [to_mpf(c, res.frac_bits) for c in res.coeffs]
    return basis, mats, coeffs, (res.coeffs, res.frac_bits), res.k_opt


def plain_quadratic(c, stack, terms):
    """exact.quadratics' (c'Mc, max|c| ||Mc||_1) of one group on plain
    Python ints: each member's leading block from its ints, over the lcm of
    the denominators."""
    pairs = [members(stack)[f] for _, f in terms]
    n, D = len(c), math.lcm(*(D_f for _, D_f in pairs))
    Mc = [0] * n
    for (w, _), (ints, D_f) in zip(terms, pairs):
        w *= D // D_f
        for i in range(n):
            Mc[i] += w * sum(ints[i * stack.n + j] * c[j] for j in range(n))
    return (sum(x * y for x, y in zip(c, Mc)) // D,
            max(map(abs, c)) * sum(map(abs, Mc)) // D)


@pytest.fixture(scope="module")
def stage_50():
    return build_row_stage(50, default_constants())


def test_one_product_per_row_is_the_separate_forms(stage_50):
    # on the forms of a 50-term row stage, the row's one product of the six
    # forms gives exactly the (total, size) ints of the norm, <p^4> and
    # log-momentum forms taken alone, and of the same sums on plain ints;
    # expectation_set equals the separate routes bit for bit, with the norm
    # read off the assembly's W
    basis, systems, forms = stage_50
    W = build_operator_matrices(basis, mass_polarization=False).W
    pairs = members(forms)
    with mp.workdps(30):
        for n in (1, 7, 22, 40, 50):
            res = optimize_k(systems["0"].leading(n))
            c, F, k = res.coeffs, res.frac_bits, res.k_opt
            groups = [((1, 0),), matrices._p4_terms(F),
                      matrices._log_momentum_terms(F, mp.mpf(k))]
            fused = exact.quadratics(c, forms, groups)
            # each group alone, its forms in a stack of their own
            assert fused == [exact.quadratics(
                c, exact.Stack.of([pairs[f] for _, f in terms],
                                  exact.STATE_LIMB),
                [[(w, i) for i, (w, _) in enumerate(terms)]])[0]
                for terms in groups]
            assert fused == [plain_quadratic(c, forms, terms)
                             for terms in groups]
            wq = check_normalized(W, c, F)
            d1, dee = delta_expectations(basis[:n], c, F, k, wq)
            p4, p4_lost = p4_expectation(forms, c, F, k, wq)
            q, q_lost = log_momentum_expectation(forms, c, F, k, wq)
            exps = expectation_set(basis[:n], c, F, k, forms, res.k_err)
            assert (exps.delta_r1, exps.delta_r12, exps.p4,
                    exps.log_momentum) == (d1, dee, p4 / 2, q), n
            assert exps.rel_err == 2 ** (max(p4_lost, q_lost) + 1) * (
                mp.eps / 2 + res.k_err / mp.mpf(k)) + 2 * mp.eps
            # a state off its norm by ~2e-9 is refused, as check_normalized
            # refuses it
            off = [x + x // 10 ** 9 for x in c]
            for check in (lambda: expectation_set(basis[:n], off, F, k, forms),
                          lambda: check_normalized(W, off, F)):
                with pytest.raises(NormalizationError,
                                   match="state is not normalized"):
                    check()


@pytest.mark.parametrize("N", [1, 7, 34, 50, 70, 95])
def test_prefix_bounds_are_the_row_scans(N):
    # each stack of a row stage holds, for every prefix n, the largest row
    # sum of |limbs| over its members' leading n x n blocks: the bound a row
    # scanned for itself, member by member; and each member is the
    # assembly's pair: W, P and K, or K_0 = ((M + 1) K + M_pol) / M, with W
    # member 0 of the forms stack.  At N = 70 W takes two limbs at the
    # pencil's width, and at N = 95 an expectation form passes int64
    constants = default_constants()
    basis, systems, forms = build_row_stage(N, constants)
    for stack in (forms, systems["inf"].stack, systems["0"].stack):
        assert len(stack.bounds) == N
        ends = np.cumsum(stack.counts)
        for n in range(1, N + 1):
            scan = max(max(int(np.abs(stack.limbs[end - m:end, :n, :n])
                               .sum(2).max())
                           for m, end in zip(stack.counts, ends)), 1)
            assert stack.bounds[n - 1] == stack.leading(n).bounds[-1] == \
                scan, (N, n)
    mats = build_operator_matrices(basis)
    W, P, K, M_pol = ((list(map(int, ints)), D)
                      for ints, D in (mats.W, mats.P, mats.K, mats.M_pol))
    assert members(systems["inf"].stack) == [W, P, K]
    assert members(systems["0"].stack)[:2] == [W, P]
    (ints, D), = members(systems["0"].stack)[2:]
    M = Fraction(constants.mass_ratio_M)
    assert [Fraction(v, D) for v in ints] == [
        (M + 1) / M * Fraction(k, K[1]) + Fraction(m, M_pol[1]) / M
        for k, m in zip(K[0], M_pol[0])]
    assert members(forms)[0] == W
    assert (systems["inf"].stack.counts[0] == 2) == (N >= 70)
    assert (max(abs(v) for ints, _ in members(forms)
                for v in ints).bit_length() > 63) == (N == 95)


def test_expectation_constants_never_go_stale(stage_50):
    # one solved state, its ints at one scale F, read at 30, then 60, then
    # 30 digits: every expectation value equals its value computed with the
    # constants' cache emptied first, bit for bit
    basis, systems, forms = stage_50
    with mp.workdps(30):
        res = optimize_k(systems["0"].leading(22))

    def values(digits):
        with mp.workdps(digits):
            return expectation_set(basis[:22], res.coeffs, res.frac_bits,
                                   res.k_opt, forms, res.k_err)

    runs = (30, 60, 30)
    matrices._factors.cache_clear()
    warm = [values(digits) for digits in runs]
    fresh = []
    for digits in runs:
        matrices._factors.cache_clear()
        fresh.append(values(digits))
    assert warm == fresh
    assert warm[0] == warm[2] != warm[1]


def test_expectation_set_guards_the_state_scale():
    # the solve's ints read one bit off their scale F make c'Wc 4 or 1/4,
    # so the normalization check refuses them
    with mp.workdps(50):
        basis, mats, _, (c, F), k = optimized_state(22)
        forms = build_expectation_forms(basis, mats.W)
        expectation_set(basis, c, F, k, forms)
        for wrong in (F - 1, F + 1):
            with pytest.raises(NormalizationError):
                expectation_set(basis, c, wrong, k, forms)


@pytest.mark.parametrize("n", [7, 40, 70])
def test_logmom_closed_numerator_is_half_the_angle_route(n):
    # N = poly (p_u vol + (p_s - p) S_ANGLE + p_t T_ANGLE) against the
    # doubled, t-projected a/b/c route, key for key on random int states;
    # the closed form has no odd-t key to project away
    basis = enumerate_basis(n)
    rng = random.Random(n)
    for _ in range(5):
        poly = state_poly(basis, [rng.randint(-2 ** 200, 2 ** 200)
                                  for _ in basis])
        closed = logmom_numerator(poly)
        assert all(key[1] % 2 == 0 for key in closed)
        assert {key: 2 * v for key, v in closed.items()} \
            == angle_logmom_numerator(poly)


@pytest.mark.parametrize("state", ["optimized", "alternating"])
@pytest.mark.parametrize("dps", [50, 100])
@pytest.mark.parametrize("n", [1, 7, 22, 50])
def test_fixed_point_routes_match_mp_oracles(n, dps, state):
    # the int sums against the mpf channel series and the digamma closed form
    with mp.workdps(dps):
        if state == "optimized":
            basis, mats, coeffs, ints, k = optimized_state(n)
        else:
            basis, mats, coeffs, ints = normalized_state(n, alternating=True)
            k = mp.mpf("1.85")
        wq = check_normalized(mats.W, *ints)
        forms = build_expectation_forms(basis, mats.W)
        tol = mp.mpf(10) ** (5 - dps)
        for route, first, oracle in (
                (delta_expectations, basis, mp_delta_expectations),
                (p4_expectation, forms, mp_p4_expectation),
                (log_momentum_expectation, forms,
                 mp_log_momentum_expectation)):
            mine = route(first, *ints, k, wq)
            ref = oracle(basis, coeffs, k, wq)
            # delta gives two values; p4 and log-momentum (value, lost bits)
            pairs = (zip(mine, ref) if isinstance(ref, tuple)
                     else [(mine[0], ref)])
            for a, b in pairs:
                assert abs(a - b) <= tol * abs(b), (
                    route.__name__, mp.nstr(a, dps), mp.nstr(b, dps))


_P4_AT_PRECISIONS = """
import sys
from mpmath import mp
from hyhe.basis import enumerate_basis
from hyhe.constants import default_constants
from hyhe.eigen import build_systems, optimize_k
from hyhe.forms import build_expectation_forms
from hyhe.matrices import (build_operator_matrices, check_normalized,
                           p4_expectation)

basis = enumerate_basis(20)
mats = build_operator_matrices(basis)
forms = build_expectation_forms(basis, mats.W)
for dps in map(int, sys.argv[1:]):
    with mp.workdps(dps):
        system = build_systems(
            mats, mass_ratio=default_constants().mass_ratio_M)["0"]
        res = optimize_k(system)
        wq = check_normalized(mats.W, res.coeffs, res.frac_bits)
        print(mp.nstr(p4_expectation(forms, res.coeffs, res.frac_bits,
                                     res.k_opt, wq)[0], dps))
"""


def test_p4_precision_does_not_leak_between_calls():
    # a 15-digit <p^4> must leave nothing behind that a later 50-digit one
    # reads: after it, the 50-digit value equals a fresh process's to the
    # last digit
    src = os.path.dirname(os.path.dirname(hyhe.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))

    def run(*digits):
        proc = subprocess.run(
            [sys.executable, "-c", _P4_AT_PRECISIONS, *map(str, digits)],
            capture_output=True, text=True, timeout=300,
            env=dict(os.environ, PYTHONPATH=path))
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.split()

    after_15, at_50 = run(15, 50)
    (fresh_50,) = run(50)
    assert at_50 == fresh_50


def test_forms_match_the_polynomial_routes():
    # the exact forms of one 50-term row stage against the polynomial routes
    # they replaced (support.matrices), equal at the working precision: on
    # random integer states, read at norm 1, and on the solved
    # nuclear-motion states of N = 1 ... 50, each its stage's leading block;
    # and on one random 95-term state, whose forms are partly two limbs wide
    # (past N = 50)
    basis, systems, forms = build_row_stage(50, default_constants())
    W = build_operator_matrices(basis, mass_polarization=False).W
    rng = random.Random(50)
    with mp.workdps(30):
        F = mp.prec + 32
        states = [(forms, n, [rng.randint(-2 ** F, 2 ** F) for _ in range(n)],
                   F, mp.mpf("1.85"), mp.mpf(1)) for n in (1, 2, 7, 22, 50)]
        for n in range(1, 51):
            res = optimize_k(systems["0"].leading(n))
            wq = check_normalized(W, res.coeffs, res.frac_bits)
            states.append((forms, n, res.coeffs, res.frac_bits, res.k_opt,
                           wq))
        basis_95 = enumerate_basis(95)
        W_95 = build_operator_matrices(basis_95, mass_polarization=False).W
        states.append((build_expectation_forms(basis_95, W_95), 95,
                       [rng.randint(-2 ** F, 2 ** F) for _ in range(95)], F,
                       mp.mpf("2.4"), mp.mpf(1)))
        for forms, n, c, F, k, wq in states:
            for route, referee in (
                    (p4_expectation, polynomial_p4_expectation),
                    (log_momentum_expectation,
                     polynomial_log_momentum_expectation)):
                mine, ref = route(forms, c, F, k, wq)[0], \
                    referee(enumerate_basis(n), c, F, k, wq)[0]
                assert mine == ref, (route.__name__, n, mp.nstr(mine - ref, 3))
