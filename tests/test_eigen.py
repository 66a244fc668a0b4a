import dataclasses
import functools
import math
import random
import sys
from fractions import Fraction
from operator import mul
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from hyhe import eigen, exact
from hyhe.basis import enumerate_basis
from hyhe.eigen import (AssemblyError, ConvergenceError, PencilSystem,
                        build_systems, ground_state_pair, optimize_k,
                        solve_fixed_k)
from hyhe.matrices import build_operator_matrices, check_normalized
from support import integer_matrix, members
from support.oracles import (mp_reduce_pencil, mp_solve_fixed_k,
                             plain_optimize_k)

M_HELIUM = "7294.299508"


def systems_n(n, mass_ratio=M_HELIUM):
    mats = build_operator_matrices(enumerate_basis(n))
    return mats, build_systems(mats, mass_ratio=mass_ratio)


def fixed_system(K, P):
    """The clamped system of a W = I pencil from small exact matrices."""
    n = len(K)

    def exact(rows):
        return integer_matrix([[Fraction(v) for v in row] for row in rows])

    eye = exact([[int(i == j) for j in range(n)] for i in range(n)])
    mats = SimpleNamespace(W=eye, K=exact(K), P=exact(P))
    return build_systems(mats)["inf"]


def test_seed_energies_exact():
    with mp.workdps(40):
        _, systems = systems_n(1)
        E, x, K_q, P_q, residual = solve_fixed_k(systems["inf"], mp.mpf(27) / 16)
        assert abs(E - mp.mpf(-729) / 256) < mp.mpf("1e-35")
        assert abs(K_q - 1) < mp.mpf("1e-35")
        assert abs(P_q + mp.mpf(27) / 8) < mp.mpf("1e-35")
        assert residual < mp.mpf("1e-30")
        E1, *_ = solve_fixed_k(systems["inf"], 1)
        assert abs(E1 + mp.mpf("2.375")) < mp.mpf("1e-35")


def test_seed_optimum_and_virial():
    with mp.workdps(40):
        _, systems = systems_n(1)
        res = optimize_k(systems["inf"])
        assert abs(res.k_opt - mp.mpf(27) / 16) < mp.mpf("1e-12")
        assert abs(res.energy - mp.mpf("-2.84765625")) < mp.mpf("1e-24")
        # at the stationary exponent E = -K_q k^2 (the scaled virial theorem)
        E, x, K_q, P_q, residual = solve_fixed_k(systems["inf"], res.k_opt)
        assert abs(E + K_q * res.k_opt ** 2) < mp.mpf("1e-24")


def test_one_term_lands_on_27_16():
    # at N = 1, g(k) = 27/16 for every k and, with no other mode, h' = -1:
    # the first float64 Newton step lands within an ulp of it, and the
    # first k step of the correction loop lands there exactly, so h and the
    # last Newton step are 0 and k_err is the grid's 2**-F k alone
    with mp.workdps(40):
        _, systems = systems_n(1)
        assert eigen._float_root(systems["inf"], 2.0)[0] == \
            1.6874999999999998
        res = optimize_k(systems["inf"])
        assert res.k_opt == mp.mpf(27) / 16
        assert res.iterations == len(res.trace) == 1
        assert res.k_err == mp.ldexp(res.k_opt, -res.frac_bits)


def test_seed_nuclear_motion_shift():
    with mp.workdps(40):
        _, systems = systems_n(1)
        res = optimize_k(systems["0"])
        assert abs(res.k_opt - mp.mpf("1.6872686866730900502")) < mp.mpf("1e-15")
        assert abs(res.energy - mp.mpf("-2.8472659087608394597")) < mp.mpf("1e-18")


@pytest.mark.parametrize("n", [20, 50])
def test_nuclear_motion_without_mass_polarization_scales_the_clamped(n):
    # with M_pol zeroed, K_0 = (1 + 1/M) K = K / mu, mu = M / (M + 1), and
    # k = mu k' turns E_0(k) into mu E_inf(k'): the "0" optimum is mu E_inf
    # at k = mu k_inf, which pins K_0's (M + 1) / M and the "0" search
    with mp.workdps(50):
        mats = build_operator_matrices(enumerate_basis(n))
        zeros = integer_matrix([[0] * n for _ in range(n)])
        systems = build_systems(dataclasses.replace(mats, M_pol=zeros),
                                mass_ratio=M_HELIUM)
        res_inf, res_0 = ground_state_pair(systems)
        mu = mp.mpf(M_HELIUM) / (mp.mpf(M_HELIUM) + 1)
        assert abs(res_0.energy - mu * res_inf.energy) <= mp.mpf("1e-45")
        assert abs(res_0.k_opt - mu * res_inf.k_opt) <= mp.mpf("1e-45")
        # so the seed mu k_inf of the "0" search is already its float64
        # root, to the float forms' 1e-10 k: one Newton step lands, and the
        # search takes one eigh more, for the loop's one eigenbasis
        system = systems["0"]
        k_f, steps = eigen._float_root(system,
                                       system.mu * float(res_inf.k_opt))
        assert steps == 1 and abs(k_f - float(res_0.k_opt)) < 1e-10 * k_f
        assert res_0.eighs == 2


@pytest.mark.parametrize("n", [20, 40])
@pytest.mark.parametrize("dps", [30, 50])
def test_seeded_moving_nucleus_search_matches_the_start_at_k2(n, dps):
    # ground_state_pair starts the "0" search at mu k_opt(inf), within
    # 4e-5 k of its root, and takes 2 float64 eighs there instead of 4 to 6
    # from k = 2; both land on the same 20 digits of E0 and k_opt
    _, systems = systems_n(n)
    with mp.workdps(dps):
        res_inf, seeded = ground_state_pair(systems)
        plain = optimize_k(systems["0"])
        for v in ("energy", "k_opt"):
            assert mp.nstr(getattr(seeded, v), 20) == \
                mp.nstr(getattr(plain, v), 20), v
        assert abs(seeded.k_opt - plain.k_opt) <= seeded.k_err
        system = systems["0"]
        seed = system.mu * float(res_inf.k_opt)
        assert abs(seed - float(seeded.k_opt)) < 4e-5 * seed
        assert eigen._float_root(system, seed)[1] == 2
        assert seeded.eighs < plain.eighs


def test_failed_seeded_root_starts_the_loop_at_the_seed(monkeypatch):
    with mp.workdps(50):
        _, systems = systems_n(20)
        res_inf, seeded = ground_state_pair(systems)
        starts, refine = [], eigen._refine
        monkeypatch.setattr(eigen, "_float_root", lambda system, k: (None, 0))
        monkeypatch.setattr(
            eigen, "_refine", lambda system, k, trace=None:
            starts.append((system.label, k)) or refine(system, k, trace))
        _, fallback = ground_state_pair(systems)
        mu = systems["0"].mu
        assert starts == [("inf", eigen._K_INIT),
                          ("0", mu * float(res_inf.k_opt))]
        assert mp.nstr(fallback.k_opt, 20) == mp.nstr(seeded.k_opt, 20)
        assert abs(fallback.energy - seeded.energy) < mp.mpf("1e-40")


def test_fixed_point_consistency():
    with mp.workdps(40):
        _, systems = systems_n(6)
        res = optimize_k(systems["inf"])
        E, x, K_q, P_q, _ = solve_fixed_k(systems["inf"], res.k_opt)
        assert abs(-P_q / (2 * K_q) - res.k_opt) < mp.mpf("1e-12")


def test_optimum_is_a_minimum():
    with mp.workdps(40):
        _, systems = systems_n(6)
        res = optimize_k(systems["inf"])
        for dk in (mp.mpf("1e-3"), mp.mpf("-1e-3")):
            E_off, *_ = solve_fixed_k(systems["inf"], res.k_opt + dk)
            assert E_off > res.energy


def test_energy_monotone_in_basis_size():
    with mp.workdps(40):
        energies = []
        for n in range(1, 8):
            _, systems = systems_n(n)
            energies.append(optimize_k(systems["inf"]).energy)
        for lo, hi in zip(energies[1:], energies[:-1]):
            assert lo <= hi + mp.mpf("1e-30")
        assert energies[-1] < energies[0] - mp.mpf("0.02")


def test_optimum_independent_of_seed(monkeypatch):
    with mp.workdps(40):
        _, systems = systems_n(6)
        monkeypatch.setattr(eigen, "_K_INIT", 1.5)
        a = optimize_k(systems["inf"])
        monkeypatch.setattr(eigen, "_K_INIT", 2.5)
        b = optimize_k(systems["inf"])
        assert abs(a.k_opt - b.k_opt) < mp.mpf("1e-10")
        assert abs(a.energy - b.energy) < mp.mpf("1e-20")


def test_plain_map_on_constant_target():
    # at one term g(k) = 27/16 independent of k: the literal map lands in one
    # step, damped in a few more; optimize_k lands on the same k
    with mp.workdps(40):
        _, systems = systems_n(1)
        res = plain_optimize_k(systems["inf"])
        assert abs(res.k_opt - mp.mpf(27) / 16) < mp.mpf("1e-12")
        search = optimize_k(systems["inf"])
        assert abs(search.k_opt - res.k_opt) < mp.mpf("1e-12")
        damped = plain_optimize_k(systems["inf"], damping=0.5,
                                  max_outer_iters=80)
        assert abs(damped.k_opt - mp.mpf(27) / 16) < mp.mpf("1e-11")


def test_plain_map_starves_and_reports():
    with mp.workdps(40):
        _, systems = systems_n(6)
        with pytest.raises(ConvergenceError) as err:
            plain_optimize_k(systems["inf"], k_tol=1e-13, max_outer_iters=5)
        assert len(err.value.trace) == 5
        ks = [k for k, _ in err.value.trace]
        assert ks == sorted(set(ks), key=ks.index)  # no cycling


def test_newton_converges_where_plain_map_crawls():
    # Newton on (c, k) needs a few correction steps where the plain map
    # starves after five solves; the trace ends on the result
    with mp.workdps(40):
        _, systems = systems_n(6)
        res = optimize_k(systems["inf"])
        assert res.iterations == len(res.trace) <= 15
        assert res.trace[-1][1] == res.energy


def test_assembly_guard_on_nonpositive_kinetic():
    with mp.workdps(30):
        bad = fixed_system([[-1]], [[1]])
        with pytest.raises(AssemblyError):
            solve_fixed_k(bad, 2)


def test_degenerate_spectrum_guard():
    with mp.workdps(30):
        flat = fixed_system([[1, 0], [0, 1]], [[0, 0], [0, 0]])
        with pytest.raises(ConvergenceError, match="degenerate"):
            solve_fixed_k(flat, 2)


def test_near_degenerate_gap_guard():
    # A = diag(1, 1 + 1e-13): a float64 shift cannot separate the pair
    with mp.workdps(30):
        close = fixed_system([[1, 0], [0, 1]], [[0, 0], [0, 1e-13]])
        with pytest.raises(ConvergenceError, match="degenerate") as err:
            solve_fixed_k(close, 1)
        assert "gap 1e-13" in str(err.value)


def test_inverse_iteration_step_cap():
    # a correction that does not shrink the one before it 16-fold stops the
    # solve at once, naming the conditioning; here the float eigenbasis is
    # spoiled, so each step gains only a few bits
    with mp.workdps(40):
        _, systems = systems_n(6)
        system = systems["inf"]
        assert solve_fixed_k(system, 2)[0] < 0
        noisy = PencilSystem(system.stack, system.T, system.K_float * 1.05,
                             system.P_float, system.W_diag, label="inf")
        with pytest.raises(ConvergenceError,
                           match=r"k=2\.0 did not converge: step 2 shrank "
                                 r"it less than 16-fold, with cond_bits=\d+"):
            solve_fixed_k(noisy, 2)


def test_nonpositive_overlap_rejected():
    # an indefinite W fails its float64 Cholesky, and a W with a diagonal
    # entry <= 0 is refused before it
    for W, match in (([[1, 2], [2, 1]], "not positive definite in float64"),
                     ([[0, 1], [1, 1]], r"not positive definite \(diagonal")):
        mats = SimpleNamespace(W=integer_matrix(W),
                               K=integer_matrix([[1, 0], [0, 1]]),
                               P=integer_matrix([[0] * 2] * 2),
                               M_pol=integer_matrix([[0] * 2] * 2))
        with mp.workdps(30):
            with pytest.raises(ValueError, match=match):
                build_systems(mats)


def signed_mpf(c, F):
    """A solve's fixed-point c at scale 2**F as mpf, signed so that
    c[0] >= 0 as the mp oracle signs its coefficients."""
    sign = -1 if c[0] < 0 else 1
    return [exact.to_mpf(sign * v, F) for v in c]


def assert_matches_oracle(system, oracle, k, tol):
    """E, K_q, P_q and the coefficients of a solve at k within tol of the
    mp oracle's, oracle = mp_reduce_pencil(...)."""
    E, c, K_q, P_q, _ = solve_fixed_k(system, k)
    E_ref, K_ref, P_ref, c_ref = mp_solve_fixed_k(*oracle, k)
    for got, ref in ((E, E_ref), (K_q, K_ref), (P_q, P_ref)):
        assert abs(got - ref) < tol, (system.label, got - ref)
    coeffs = signed_mpf(c, system.frac_bits)
    assert max(abs(a - b) for a, b in zip(coeffs, c_ref)) < tol, system.label


def test_reduction_matches_mp_oracle():
    # both Hamiltonians solve on the exact pencil to the mp route's
    # Cholesky reduction and Rayleigh-quotient iteration
    with mp.workdps(50):
        tol = mp.mpf(10) ** (-mp.dps + 10)
        k = mp.mpf("2.0451487")
        for n in (13, 30):
            mats, systems = systems_n(n)
            for label, mass_ratio in (("inf", None), ("0", M_HELIUM)):
                assert_matches_oracle(systems[label],
                                      mp_reduce_pencil(mats, mass_ratio),
                                      k, tol)


def odd_pencil():
    """A 3-term pencil whose entries have denominators 3, 5, 7 and 11: W
    and K over 105, P over 165."""
    f = Fraction
    W = [[f(1), f(1, 3), f(1, 5)], [f(1, 3), f(2), f(1, 7)],
         [f(1, 5), f(1, 7), f(3)]]
    K = [[f(2, 3), f(1, 5), f(0)], [f(1, 5), f(5, 7), f(1, 3)],
         [f(0), f(1, 3), f(9, 5)]]
    P = [[f(-7, 3), f(2, 5), f(1, 11)], [f(2, 5), f(-11, 5), f(-1, 3)],
         [f(1, 11), f(-1, 3), f(-17, 11)]]
    M_pol = [[f(1, 7), f(-1, 3), f(0)], [f(-1, 3), f(2, 5), f(1, 5)],
             [f(0), f(1, 5), f(-3, 7)]]
    return SimpleNamespace(W=integer_matrix(W),
                           K=integer_matrix(K), P=integer_matrix(P),
                           M_pol=integer_matrix(M_pol))


with mp.workdps(320):
    # 7294.299508 in 1066 bits: num(M), and so K_0's denominator and
    # numerators, are far beyond float64 range
    M_HELIUM_320 = mp.mpf(M_HELIUM)


@pytest.mark.parametrize("mass_ratio, dps", [
    (M_HELIUM, 50), (mp.mpf(M_HELIUM), 50), (M_HELIUM_320, 320)],
    ids=["str", "mpf", "mpf-320"])
def test_reduction_over_odd_denominators(mass_ratio, dps):
    # each form keeps its own denominator (105 for W and K, 165 for P and
    # num(M) 105 for K_0) through the floor divisions of the solve, which
    # stays within the mp oracle's tolerance, and M is read exactly
    mats = odd_pencil()
    with mp.workdps(dps):
        tol = mp.mpf(10) ** (-mp.dps + 10)
        systems = build_systems(mats, mass_ratio=mass_ratio)
        for label, M in (("inf", None), ("0", mass_ratio)):
            assert_matches_oracle(systems[label], mp_reduce_pencil(mats, M),
                                  mp.mpf("1.5"), tol)


def assert_float_forms_divide_entrywise(mats, mass_ratio):
    # every float form is bit for bit each int divided by D, whether its
    # ints are made floats and scaled (W, P and K over 256) or divided
    K_0 = eigen._moving_nucleus_form(mats.K, mats.M_pol,
                                     exact.rational(mass_ratio))
    for ints, D in (mats.W, mats.P, mats.K, mats.M_pol, K_0):
        n = math.isqrt(len(ints))
        plain = np.array([int(v) / D for v in ints]).reshape(n, n)
        assert eigen._float_form((ints, D)).tobytes() == plain.tobytes()


@pytest.mark.parametrize("n", [1, 7, 40, 50, 70])
def test_float_forms_of_the_stage(n):
    assert_float_forms_divide_entrywise(
        build_operator_matrices(enumerate_basis(n)), M_HELIUM)


@pytest.mark.parametrize("mass_ratio", [
    M_HELIUM, mp.mpf(M_HELIUM), M_HELIUM_320], ids=["str", "mpf", "mpf-320"])
def test_float_forms_over_odd_denominators(mass_ratio):
    assert_float_forms_divide_entrywise(odd_pencil(), mass_ratio)


def test_matvecs_take_narrow_vectors(monkeypatch):
    # the search multiplies the exact forms only by float64-sized chunks:
    # no vector entry of a matvec is wider than the 54 bits the limb
    # stack's int64 sums allow, at F = 215 and F = 1112; it takes one
    # matvec for the seed and one per step
    widths = []
    matvecs = exact.Stack.matvecs

    def counted(stack, v):
        widths.append(int(np.abs(v).max()).bit_length())
        return matvecs(stack, v)

    monkeypatch.setattr(exact.Stack, "matvecs", counted)
    for dps in (50, 320):
        with mp.workdps(dps):
            _, systems = systems_n(13)
            start = len(widths)
            res = optimize_k(systems["0"])
        assert len(widths) - start == res.iterations + 1, dps
    assert max(widths) <= exact.CHUNK_BITS


@pytest.mark.parametrize("n, dps", [(22, 100), (50, 50), (13, 50), (13, 320)])
def test_fixed_k_solve_matches_mp_oracle(n, dps):
    # N = 50 is the worst-conditioned W the program solves (cond ~ 4e13);
    # at 320 digits F = 1111 bits, so theta and r overflow a plain float()
    with mp.workdps(dps):
        tol = mp.mpf(10) ** (-dps + 10)
        k = mp.mpf("2.0451487")
        mats = build_operator_matrices(enumerate_basis(n))
        system = build_systems(mats)["inf"]
        E, x, K_q, P_q, _ = solve_fixed_k(system, k)
        E_ref, K_ref, P_ref, c_ref = mp_solve_fixed_k(*mp_reduce_pencil(mats), k)
        assert abs(E - E_ref) < tol
        assert abs(K_q - K_ref) < tol
        assert abs(P_q - P_ref) < tol
        coeffs = signed_mpf(x, system.frac_bits)
        assert max(abs(a - b) for a, b in zip(coeffs, c_ref)) < tol


def test_no_mass_ratio_no_nuclear_motion_system():
    # without a mass ratio the stage holds the clamped system alone
    with mp.workdps(30):
        mats = build_operator_matrices(enumerate_basis(1))
        assert set(build_systems(mats)) == {"inf"}
        assert set(build_systems(mats, mass_ratio=M_HELIUM)) == {"inf", "0"}


def test_ground_state_pair_contract():
    with mp.workdps(40):
        mats, systems = systems_n(6)
        res_inf, res_0 = ground_state_pair(systems)
        shift = res_0.energy - res_inf.energy
        assert mp.mpf("2e-4") < shift < mp.mpf("8e-4")
        assert res_0.k_opt < res_inf.k_opt  # lighter reduced mass, softer pull
        for res in (res_inf, res_0):
            assert len(res.coeffs) == 6
            assert res.coeffs[0] > 0
            check_normalized(mats.W, res.coeffs, res.frac_bits)
            assert res.residual < mp.mpf("1e-25")


@pytest.mark.parametrize("q, F", [
    (Fraction(-3, 4), 4), (Fraction(3, 4), 4), (Fraction(0), 4),
    (Fraction(-12345, 2 ** 20), 8),               # rounds: below 2**-F
    (Fraction(5, 2 ** 7), 6),                     # tie at scale 2**F
    (Fraction(-5, 2 ** 7), 6),
    (Fraction(-884279719003555, 2 ** 48), 200),  # a float of -pi, exact
])
def test_fixed_mpf_keeps_sign(q, F):
    # the mpf mantissa is unsigned; the converter must match the Fraction one
    with mp.workdps(30):
        v = mp.mpf(q.numerator) / q.denominator
        assert exact.fixed_mpf(v, F) == exact.fixed(
            (q.numerator, q.denominator), F)


# decimal literals as constants carry them, with an optional exponent
DECIMAL = r"[+-]?(\d{1,12}\.?\d{0,9}|\.\d{1,9})([eE][+-]?\d{1,2})?"
finite = st.floats(allow_nan=False, allow_infinity=False)


@given(st.one_of(st.integers(), st.fractions(), finite,
                 st.from_regex(DECIMAL, fullmatch=True),
                 st.sampled_from(["7294.299508", "-7.294299508E3", "1e3",
                                  " 2.5 ", "-.5", "5."])))
def test_exact_pairs_read_what_fraction_reads(v):
    p, q = exact.rational(v)
    assert q > 0 and math.gcd(p, q) == 1
    assert Fraction(p, q) == Fraction(v)


@given(st.integers(-2 ** 60, 2 ** 60), st.integers(-400, 400))
def test_exact_pairs_of_mpf(m, e):
    with mp.workprec(64):
        v = mp.ldexp(mp.mpf(m), e)
    p, q = exact.rational(v)
    assert q > 0 and math.gcd(p, q) == 1
    assert Fraction(p, q) == m * Fraction(2) ** e


@pytest.mark.parametrize("v", ["", "e5", "1.2.3", "abc", "inf", "nan",
                               "0x10", "1e5e5", "1.5 e3", "1.5\te3", "1.5e"])
def test_exact_rejects_what_is_no_decimal(v):
    with pytest.raises(ValueError):
        Fraction(v)
    with pytest.raises(ValueError):
        exact.rational(v)


def test_exact_refuses_an_exponent_past_the_digit_limit():
    # 10**|e| for any exponent would take unbounded time; the limit is the
    # one int() puts on a literal's digits
    limit = sys.get_int_max_str_digits()
    assert exact.rational(f"1e{limit}") == (10 ** limit, 1)
    assert exact.rational(f"1e-{limit}") == (1, 10 ** limit)
    for v in (f"1e{limit + 1}", f"1e-{limit + 1}", "1e5000", "1e-5000"):
        with pytest.raises(ValueError, match="exponent"):
            exact.rational(v)


@given(st.integers(), st.integers(1, 2 ** 80), st.integers(0, 300))
def test_fixed_rounds_as_the_fraction_formula(p, q, F):
    ref = math.floor(Fraction(p, q) * 2 ** F + Fraction(1, 2))
    assert exact.fixed((p, q), F) == ref


@given(finite, st.integers(-1200, 400), st.integers(-2 ** 400, 2 ** 400),
       finite.filter(bool))
def test_fixed_quotient_is_within_half_a_unit(a, t, h, b):
    # the loop's k step at scale 2**F, (a 2**t - h) / b, rounded on ints
    ref = (Fraction(a) * Fraction(2) ** t - h) / Fraction(b)
    assert abs(exact.fixed_quotient(a, t, h, b) - ref) <= Fraction(1, 2)


@settings(max_examples=200)
@given(st.data(), st.integers(1, 300), st.integers(1, 40),
       st.sampled_from((1, 7, 50 << exact.CHUNK_LIMB, 2 ** 40, 2 ** 53)))
def test_split_is_the_same_for_lists_and_arrays(data, width, count, bound):
    # a list of ints of 1 to 300 bits, either sign, split on its Python ints
    # past int64, and the same ints as an int64 array where they fit, split
    # into the same limbs: as many as the widest int needs, each below
    # 2**bits but the signed top one, which join back to the ints
    top = (1 << width) - 1
    values = data.draw(st.lists(
        st.one_of(st.sampled_from((top, -top, 0)), st.integers(-top, top)),
        min_size=count, max_size=count))
    L, bits = exact.split(values, bound)
    assert bits == 63 - bound.bit_length() and L.dtype == np.int64
    assert exact.join(L.tolist(), bits) == values
    assert len(L) == max(1, -(-max(map(abs, values)).bit_length() // bits))
    assert ((L[:-1] >= 0) & (L[:-1] < 1 << bits)).all()
    assert (np.abs(L[-1]) <= 1 << bits).all()
    if width < 64:
        L_array, bits_array = exact.split(np.array(values, np.int64), bound)
        assert bits_array == bits and L_array.dtype == np.int64
        assert np.array_equal(L_array, L)


@functools.lru_cache(maxsize=None)
def search_and_reference(n, dps, label):
    """optimize_k on the n-term system at dps digits, and again at dps + 20
    as the reference (shared by the tests that read both)."""
    mats = build_operator_matrices(enumerate_basis(n))
    results = []
    for digits in (dps + 20, dps):
        with mp.workdps(digits):
            system = build_systems(mats, mass_ratio=M_HELIUM)[label]
            results.append(optimize_k(system))
    ref, res = results
    return system, res, ref


@pytest.mark.parametrize("n, dps, labels", [
    (20, 50, ("inf", "0")), (40, 50, ("inf", "0")), (40, 100, ("inf",)),
    *((n, 30, ("inf", "0")) for n in [*range(1, 15), 20, 22, 30, 34, 40, 50])])
def test_k_err_bounds_the_k_search(n, dps, labels):
    # k_err = |h / h'| + |dk| + 2**-F k of the final state bounds the
    # distance of k_opt (the loop's k, exactly) to a search at dps + 20, and
    # is itself at the working precision.  |h / h'| alone is 0 at N = 1 and
    # 2 and falls short at 30 digits and N = 3, 4, 6 and 9
    for label in labels:
        _, res, ref = search_and_reference(n, dps, label)
        with mp.workdps(dps + 20):
            dist = abs(res.k_opt - ref.k_opt)
        with mp.workdps(dps):
            assert dist <= res.k_err, (label, dist, res.k_err)
            assert res.k_err <= res.k_opt * mp.mpf(2) ** -(mp.prec - 12)


@pytest.mark.parametrize("n, dps, label", [
    (20, 50, "inf"), (20, 50, "0"), (40, 50, "inf"), (40, 50, "0"),
    (40, 100, "inf"), (95, 50, "inf")])
def test_k_converges_to_working_precision(n, dps, label):
    # k moves with c in every correction step, so k_opt and E both reach
    # the working precision against a search at dps + 20, also at N = 95
    # (cond_bits 43), where a k tolerance of 1e-12 shows in k_opt's 20th
    # digit; and the search costs at most 3 steps more than one fixed-k
    # solve at k_opt
    system, res, ref = search_and_reference(n, dps, label)
    with mp.workdps(dps + 20):
        dist, dE = abs(res.k_opt - ref.k_opt), abs(res.energy - ref.energy)
    with mp.workdps(dps):
        prec = mp.prec
        assert dist <= res.k_opt * mp.mpf(2) ** -(prec - 12), dist
        assert dE <= mp.mpf(2) ** -(prec - 8), dE
        assert dist <= res.k_err
        assert mp.nstr(res.k_opt, 20) == mp.nstr(ref.k_opt, 20)
        if n <= 40:
            steps = eigen._refine(system, res.k_opt)[5]
            assert res.iterations <= steps + 3, (res.iterations, steps)


def test_float_seed_fallback_keeps_k_opt(monkeypatch):
    with mp.workdps(50):
        _, systems = systems_n(20)
        seeded = optimize_k(systems["0"])
        monkeypatch.setattr(eigen, "_float_root", lambda system, k: (None, 0))
        unseeded = optimize_k(systems["0"])
        assert len(unseeded.trace) > len(seeded.trace)
        assert mp.nstr(unseeded.k_opt, 20) == mp.nstr(seeded.k_opt, 20)
        assert abs(unseeded.energy - seeded.energy) < mp.mpf("1e-40")


def test_float_seed_failures(monkeypatch):
    with mp.workdps(40):
        _, systems = systems_n(6)
        system = systems["inf"]
        assert abs(eigen._float_root(system, 2.0)[0] - 1.8179450639885) \
            < 1e-9
        # the root 1.818 lies outside [k/3, 3k] for k = 0.5
        assert eigen._float_root(system, 0.5)[0] is None
        # the search then starts at _K_INIT and still lands on the root
        seeded = optimize_k(system)
        monkeypatch.setattr(eigen, "_K_INIT", 0.5)
        fallback = optimize_k(system)
        assert abs(fallback.k_opt - seeded.k_opt) < mp.mpf("1e-20")
        bad = PencilSystem(system.stack, system.T, system.K_float.copy(),
                           system.P_float, system.W_diag)
        bad.K_float[0, 0] = float("nan")
        assert eigen._float_root(bad, 2.0)[0] is None


def test_float_seed_step_cap(monkeypatch):
    monkeypatch.setattr(eigen, "_FLOAT_MAX_STEPS", 1)
    with mp.workdps(40):
        _, systems = systems_n(6)
        assert eigen._float_root(systems["inf"], 2.0) == (None, 1)
        res = optimize_k(systems["inf"])
        assert abs(res.k_opt - mp.mpf("1.817945063988518952281646")) < \
            mp.mpf("1e-20")


def test_fixed_k_energy_is_k_theta():
    # E = k theta_B and P_q = theta_B - k K_q on the ints, so the energy
    # read back from the two forms agrees to a few ulps
    with mp.workdps(50):
        _, systems = systems_n(13)
        k = mp.mpf("2.0451487")
        for label in ("inf", "0"):
            E, x, K_q, P_q, _ = solve_fixed_k(systems[label], k)
            ulps = mp.mpf(2) ** -(mp.prec - 8)
            assert abs(E - (k * k * K_q + k * P_q)) <= ulps, label


def h_mp(system, k):
    E, x, K_q, P_q, _ = solve_fixed_k(system, k)
    return -P_q / (2 * K_q) - k


@pytest.mark.parametrize("n", [20, 40])
def test_float_slope_matches_mp_difference(n):
    # h' (5e-4 at N = 20, 5e-5 at N = 40) is g' - 1 with g' near 1, so
    # float64 keeps it to about 1e-10 relative; h carries the float forms'
    # error (1e-14 at N = 40), which moves the root about 1e-10 k, well
    # within the _FLOAT_ACCEPT distance the seed needs
    with mp.workdps(50):
        _, systems = systems_n(n)
        for label in ("inf", "0"):
            system = systems[label]
            k_f, _ = eigen._float_root(system, 2.0)
            h, slope = eigen._float_step(system, k_f)
            k, dk = mp.mpf(k_f), mp.mpf("1e-8")
            ref = (h_mp(system, k + dk) - h_mp(system, k - dk)) / (2 * dk)
            assert abs(slope - ref) <= mp.mpf("1e-8") * abs(ref), (label, ref)
            err = abs(h - h_mp(system, k))
            assert err <= eigen._FLOAT_ACCEPT * k * abs(ref), (label, err)


def test_k_search_takes_one_eigh_per_newton_step(monkeypatch):
    # the float64 seed takes h and h' from one eigh per step (6 from k = 2
    # at N = 40), and the correction loop one more for its eigenbasis at k_f
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda A: calls.append(A) or eigh(A))
    with mp.workdps(50):
        _, systems = systems_n(40)
        for label in ("inf", "0"):
            calls.clear()
            res = optimize_k(systems[label])
            assert len(calls) <= 7 and res.iterations == 6, (label, len(calls))
            assert res.eighs == len(calls)


def test_float_seed_past_n70(monkeypatch):
    # at N = 80 float noise leaves the float64 root about 6e-9 k from the
    # true one; the Newton seed still saves the search steps
    with mp.workdps(50):
        mats = build_operator_matrices(enumerate_basis(80))
        system = build_systems(mats, mass_ratio=M_HELIUM)["0"]
        seeded = optimize_k(system)
        monkeypatch.setattr(eigen, "_float_root", lambda system, k: (None, 0))
        unseeded = optimize_k(system)
        assert seeded.iterations < unseeded.iterations
        assert mp.nstr(seeded.k_opt, 20) == mp.nstr(unseeded.k_opt, 20) \
            == "2.3427513163141567228"


def exact_forms(stack):
    """The exact numerators of the members of an exact.Stack, row by row."""
    n = stack.n
    return [[flat[i * n:(i + 1) * n] for i in range(n)]
            for flat, _ in members(stack)]


def fields(system):
    """The exact W, P and K of a system's stack, as Fractions."""
    return [[[Fraction(v, D) for v in row] for row in A]
            for A, D in zip(exact_forms(system.stack),
                            system.stack.denominators)]


def test_leading_block_is_the_prefix_reduction():
    # the leading 7 x 7 blocks of the 13-term stage's limbs hold the 7-term
    # stage's exact forms, and its float factor solves to the same E; a
    # prefix's system, and the whole stage's, reads the stage's stack, T
    # and float forms through views
    with mp.workdps(50):
        _, big = systems_n(13)
        mats7 = build_operator_matrices(enumerate_basis(7))
        k = mp.mpf("2.0451487")
        for label in ("inf", "0"):
            lead = big[label].leading(7)
            alone = build_systems(mats7, mass_ratio=M_HELIUM)[label]
            assert lead.n == 7 and lead.label == label
            assert lead.frac_bits == alone.frac_bits
            assert lead.cond_bits == alone.cond_bits
            assert fields(lead) == fields(alone)
            E, *_ = solve_fixed_k(lead, k)
            E_alone, *_ = solve_fixed_k(alone, k)
            assert abs(E - E_alone) <= mp.mpf(2) ** -(mp.prec - 8), label
            for n in (1, 7, 13):
                lead, stage = big[label].leading(n), big[label]
                assert lead.stack.limbs.shape == (len(stage.stack.limbs), n,
                                                  n)
                for name in ("T", "K_float", "P_float"):
                    assert getattr(lead, name).shape == (n, n)
                    assert np.shares_memory(getattr(lead, name),
                                            getattr(stage, name)), (n, name)
                assert np.shares_memory(lead.stack.limbs, stage.stack.limbs)
            for n in (0, 14):
                with pytest.raises(ValueError, match="need 1 <= n <= 13"):
                    big[label].leading(n)


def plain_matvecs(stack, v):
    """Stack.matvecs' reference: each form's exact matvec on Python ints."""
    v = [int(x) for x in v]
    return [[sum(map(mul, row, v)) for row in A] for A in exact_forms(stack)]


@settings(max_examples=40, deadline=None)
@given(data=st.data(), n=st.integers(1, 64))
def test_limb_matvecs_are_three_exact_matvecs(data, n):
    # W and P one or two limbs wide and a K field as wide as K_0 at a
    # 320-digit mpf mass ratio (1110 bits), with entries at the full width
    # of their limbs, times 54-bit chunks of either sign: every int64 sum
    # of the limb matmul stays exact, up to N = 64.  The same kernel serves
    # the expectation forms: a form as wide as its entries need, up to past
    # 2**53 per row, times a state of 135 to 400 bits of either sign, on
    # the form, a leading block, and two forms stacked, alone and as the
    # leading blocks of a larger stack.  The entries come from one drawn
    # seed, since 3 n^2 drawn entries overrun hypothesis' buffer
    rng = random.Random(data.draw(st.integers(0, 2 ** 64 - 1)))
    bits = 63 - (n << exact.CHUNK_LIMB).bit_length()
    widths = (data.draw(st.sampled_from((bits, 2 * bits))),
              data.draw(st.sampled_from((bits, 2 * bits))),
              data.draw(st.integers(1, 1110)))
    chunk = (1 << exact.CHUNK_BITS) - 1

    def plain(A, v):
        return [sum(map(mul, row, v)) for row in A]

    def flat(A):
        return [x for row in A for x in row]

    def product(A, c):
        """A c by the kernel, on the matrix A's leading len(c) block, as
        exact.quadratics reads a form."""
        return exact.Stack.of([(A, 1)], exact.STATE_LIMB).leading(
            len(c)).matvecs(c)[0]

    def check(forms, v):
        stack = exact.Stack.of([(flat(A), 1) for A in forms],
                               exact.CHUNK_LIMB)
        assert stack.bits == bits
        assert stack.matvecs(np.array(v, np.int64)) == \
            plain_matvecs(stack, v) == [plain(A, v) for A in forms]

    def entry(width):
        top = (1 << width) - 1
        return rng.choice((top, -top, rng.randint(-top, top)))

    check([[[entry(w) for _ in range(n)] for _ in range(n)] for w in widths],
          [rng.choice((chunk, -chunk, rng.randint(-chunk, chunk)))
           for _ in range(n)])
    # the extreme sums: every entry, limb and chunk at full width, one sign
    for sign in (1, -1):
        for sv in (1, -1):
            check([[[sign * ((1 << w) - 1)] * n] * n for w in widths],
                  [sv * chunk] * n)

    # expectation forms, their row sums past 2**53 from width 54 - bitlen(n),
    # alone, on a leading block, and stacked as exact.quadratics stacks them
    form_widths = (data.draw(st.integers(1, 80)),
                   data.draw(st.integers(1, 80)))
    A, B = ([[entry(w) for _ in range(n)] for _ in range(n)]
            for w in form_widths)
    c = [entry(data.draw(st.integers(135, 400))) for _ in range(n)]
    m = rng.randint(1, n)
    assert product(flat(A), c) == plain(A, c)
    assert product(flat(A), c[:m]) == plain([row[:m] for row in A[:m]],
                                            c[:m])
    # the larger stack's extra rows and columns are as wide as the forms'
    extra = rng.randint(1, 8)
    larger = ((flat([row + [entry(w) for _ in range(extra)] for row in M]
                    + [[entry(w) for _ in range(n + extra)]
                       for _ in range(extra)]), 1)
              for M, w in zip((A, B), form_widths))
    for stack in (exact.Stack.of([(flat(A), 1), (flat(B), 1)],
                                 exact.STATE_LIMB),
                  exact.Stack.of(larger, exact.STATE_LIMB).leading(n)):
        assert stack.matvecs(c) == [plain(A, c), plain(B, c)]
        assert exact.quadratics(c, stack, [((1, 0), (3, 1))])[0][0] == sum(
            map(mul, c, plain(A, c))) + 3 * sum(map(mul, c, plain(B, c)))
    for sign in (1, -1):
        top = (1 << form_widths[0]) - 1
        full = [sign * top] * (n * n)
        c = [sign * ((1 << 400) - 1)] * n
        assert product(full, c) == [n * top * ((1 << 400) - 1)] * n


@pytest.mark.parametrize("n, dps", [(13, 320), (50, 30)])
def test_limb_kernel_matches_plain_matvecs(monkeypatch, n, dps):
    # the k-search on the limb kernel and on plain exact matvecs agree in
    # every field, bit for bit
    with mp.workdps(dps):
        _, systems = systems_n(n)
        for label in ("inf", "0"):
            limb = optimize_k(systems[label])
            with monkeypatch.context() as patch:
                patch.setattr(exact.Stack, "matvecs", plain_matvecs)
                plain = optimize_k(systems[label])
            for name in ("coeffs", "k_opt", "energy", "iterations",
                         "residual", "k_err", "energy_err"):
                assert getattr(limb, name) == getattr(plain, name), \
                    (label, name)


def test_precision_holds_at_n95():
    # at N = 95 (cond_bits 43) the 100-digit solve confirms the 50-digit one
    mats = build_operator_matrices(enumerate_basis(95))
    k = mp.mpf("2.45")
    energies = []
    for dps in (50, 100):
        with mp.workdps(dps):
            system = build_systems(mats)["inf"]
            energies.append(solve_fixed_k(system, k)[0])
    with mp.workdps(100):
        assert abs(energies[0] - energies[1]) < mp.mpf("1e-45")
