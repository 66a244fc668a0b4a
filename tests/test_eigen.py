from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from hyhe import eigen
from hyhe.basis import enumerate_basis
from hyhe.eigen import (AssemblyError, ConvergenceError, PencilSystem,
                        build_systems, ground_state_pair, optimize_k,
                        solve_fixed_k)
from hyhe.matrices import build_operator_matrices, check_normalized
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
        return [[Fraction(v) for v in row] for row in rows]

    eye = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    mats = SimpleNamespace(n_basis=n, W=eye, K=exact(K), P=exact(P))
    return build_systems(mats, include=("inf",))["inf"]


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
    # at N = 1, g(k) = 27/16 for every k: the float64 secant lands within an
    # ulp of it, and the mp secant lands there exactly in three solves
    with mp.workdps(40):
        _, systems = systems_n(1)
        assert eigen._float_root(systems["inf"], 2.0) == 1.6874999999999998
        res = optimize_k(systems["inf"])
        assert res.k_opt == mp.mpf(27) / 16
        assert len(res.trace) == 3 and res.k_err == 0


def test_seed_nuclear_motion_shift():
    with mp.workdps(40):
        _, systems = systems_n(1)
        res = optimize_k(systems["0"])
        assert abs(res.k_opt - mp.mpf("1.6872686866730900502")) < mp.mpf("1e-15")
        assert abs(res.energy - mp.mpf("-2.8472659087608394597")) < mp.mpf("1e-18")


def test_fixed_point_consistency():
    with mp.workdps(40):
        _, systems = systems_n(6)
        res = optimize_k(systems["inf"], k_tol=1e-13)
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


def test_optimum_independent_of_seed():
    with mp.workdps(40):
        _, systems = systems_n(6)
        a = optimize_k(systems["inf"], k_init=1.5)
        b = optimize_k(systems["inf"], k_init=2.5)
        assert abs(a.k_opt - b.k_opt) < mp.mpf("1e-10")
        assert abs(a.energy - b.energy) < mp.mpf("1e-20")


def test_plain_map_on_constant_target():
    # at one term g(k) = 27/16 independent of k: the literal map lands in one
    # step, damped in a few more; the secant search lands on the same k
    with mp.workdps(40):
        _, systems = systems_n(1)
        res = plain_optimize_k(systems["inf"])
        assert abs(res.k_opt - mp.mpf(27) / 16) < mp.mpf("1e-12")
        secant = optimize_k(systems["inf"])
        assert abs(secant.k_opt - res.k_opt) < mp.mpf("1e-12")
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


def test_secant_converges_where_plain_map_crawls():
    with mp.workdps(40):
        _, systems = systems_n(6)
        res = optimize_k(systems["inf"], k_tol=1e-13)
        assert res.iterations <= 15
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
        noisy = PencilSystem(system.Z, system.width, system.denominators,
                             system.T, system.K_float * 1.05,
                             system.P_float, label="inf")
        with pytest.raises(ConvergenceError,
                           match=r"k=2\.0 did not converge: step 2 shrank "
                                 r"it less than 16-fold, with cond_bits=\d+"):
            solve_fixed_k(noisy, 2)


def test_nonpositive_overlap_rejected():
    one = Fraction(1)
    mats = SimpleNamespace(n_basis=2, W=[[one, 2 * one], [2 * one, one]],
                           K=[[one, 0 * one], [0 * one, one]],
                           P=[[0 * one] * 2] * 2, M_pol=[[0 * one] * 2] * 2)
    with mp.workdps(30):
        with pytest.raises(ValueError, match="not positive definite"):
            build_systems(mats, include=("inf",))


def signed_mpf(c, F):
    """A solve's fixed-point c at scale 2**F as mpf, signed so that
    c[0] >= 0 as the mp oracle signs its coefficients."""
    sign = -1 if c[0] < 0 else 1
    return [eigen.to_mpf(sign * v, F) for v in c]


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
    return SimpleNamespace(n_basis=3, W=W, K=K, P=P, M_pol=M_pol)


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


def test_matvecs_take_narrow_vectors(monkeypatch):
    # the solve multiplies the F-bit forms only by float64-sized chunks:
    # no vector entry of a matvec is wider than 64 bits, at F = 215 and
    # F = 1112
    widths = []
    matvec = eigen._matvec

    def counted(A, v):
        widths.append(max(abs(a).bit_length() for a in v))
        return matvec(A, v)

    monkeypatch.setattr(eigen, "_matvec", counted)
    for dps in (50, 320):
        with mp.workdps(dps):
            _, systems = systems_n(13)
            res = optimize_k(systems["0"])
        assert len(widths) >= 4 * len(res.trace), dps
    assert max(widths) <= 64


@pytest.mark.parametrize("n, dps", [(22, 100), (50, 50), (13, 50), (13, 320)])
def test_fixed_k_solve_matches_mp_oracle(n, dps):
    # N = 50 is the worst-conditioned W the program solves (cond ~ 4e13);
    # at 320 digits F = 1111 bits, so theta and r overflow a plain float()
    with mp.workdps(dps):
        tol = mp.mpf(10) ** (-dps + 10)
        k = mp.mpf("2.0451487")
        mats = build_operator_matrices(enumerate_basis(n))
        system = build_systems(mats, include=("inf",))["inf"]
        E, x, K_q, P_q, _ = solve_fixed_k(system, k)
        E_ref, K_ref, P_ref, c_ref = mp_solve_fixed_k(*mp_reduce_pencil(mats), k)
        assert abs(E - E_ref) < tol
        assert abs(K_q - K_ref) < tol
        assert abs(P_q - P_ref) < tol
        coeffs = signed_mpf(x, system.frac_bits)
        assert max(abs(a - b) for a, b in zip(coeffs, c_ref)) < tol


def test_nuclear_motion_needs_mass_ratio():
    mats = build_operator_matrices(enumerate_basis(1))
    with pytest.raises(ValueError):
        build_systems(mats, include=("0",))


def test_ground_state_pair_contract():
    with mp.workdps(40):
        mats, systems = systems_n(6)
        res_inf, res_0 = ground_state_pair(systems)
        shift = res_0.energy - res_inf.energy
        assert mp.mpf("2e-4") < shift < mp.mpf("8e-4")
        assert res_0.k_opt < res_inf.k_opt  # lighter reduced mass, softer pull
        for res in (res_inf, res_0):
            assert res.n_basis == 6
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
        assert eigen.fixed_mpf(v, F) == eigen.fixed(q, F)


@pytest.mark.parametrize("n, dps, labels", [
    (20, 50, ("inf", "0")), (40, 50, ("inf", "0")), (40, 100, ("inf",))])
def test_k_err_bounds_the_k_search(n, dps, labels):
    # k_err = |h(k_opt) / s| is the secant's own estimate of the distance to
    # the root; its relative error is O(|k1 - k0| h''/h'), with k1 - k0 the
    # Newton step of ~1e-11, so it bounds the distance to a 1e-40 search
    # within a factor 2
    with mp.workdps(dps):
        _, systems = systems_n(n)
        for label in labels:
            res = optimize_k(systems[label])
            ref = optimize_k(systems[label], k_tol=1e-40)
            dist = abs(res.k_opt - ref.k_opt)
            assert res.k_err < mp.mpf("1e-20")
            assert res.k_err / 2 <= dist <= 2 * res.k_err, (label, dist)
            # the float64 seed and its Newton point held: k_f, k_1, k_opt
            assert len(res.trace) == 3, label


def test_float_seed_fallback_keeps_k_opt(monkeypatch):
    with mp.workdps(50):
        _, systems = systems_n(20)
        seeded = optimize_k(systems["0"])
        monkeypatch.setattr(eigen, "_float_root", lambda system, k: None)
        unseeded = optimize_k(systems["0"])
        assert len(unseeded.trace) > len(seeded.trace)
        assert mp.nstr(unseeded.k_opt, 20) == mp.nstr(seeded.k_opt, 20)
        assert abs(unseeded.energy - seeded.energy) < mp.mpf("1e-40")


def test_float_seed_failures():
    with mp.workdps(40):
        _, systems = systems_n(6)
        system = systems["inf"]
        assert abs(eigen._float_root(system, 2.0) - 1.8179450639885) < 1e-9
        # the root 1.818 lies outside [k/3, 3k] for k = 0.5
        assert eigen._float_root(system, 0.5) is None
        # the mp secant then starts at k_init and still lands on the root
        fallback = optimize_k(system, k_init=0.5)
        assert abs(fallback.k_opt - optimize_k(system).k_opt) < mp.mpf("1e-20")
        bad = PencilSystem(system.Z, system.width, system.denominators,
                           system.T, system.K_float.copy(), system.P_float)
        bad.K_float[0, 0] = float("nan")
        assert eigen._float_root(bad, 2.0) is None


def test_float_seed_step_cap(monkeypatch):
    monkeypatch.setattr(eigen, "_FLOAT_MAX_STEPS", 1)
    with mp.workdps(40):
        _, systems = systems_n(6)
        assert eigen._float_root(systems["inf"], 2.0) is None
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
    # float64 keeps it to about 1e-10 relative
    with mp.workdps(50):
        _, systems = systems_n(n)
        for label in ("inf", "0"):
            system = systems[label]
            k_f = eigen._float_root(system, 2.0)
            slope = eigen._float_slope(system, k_f)
            k, dk = mp.mpf(k_f), mp.mpf("1e-8")
            ref = (h_mp(system, k + dk) - h_mp(system, k - dk)) / (2 * dk)
            assert abs(slope - ref) <= mp.mpf("1e-8") * abs(ref), (label, ref)


@pytest.mark.parametrize("bad_slope", [float("nan"), 0.0])
def test_unusable_slope_takes_the_fixed_step(monkeypatch, bad_slope):
    with mp.workdps(50):
        _, systems = systems_n(20)
        seeded = optimize_k(systems["0"])
        monkeypatch.setattr(eigen, "_float_slope", lambda system, k: bad_slope)
        fallback = optimize_k(systems["0"])
        (k0, _), (k1, _) = fallback.trace[:2]
        assert k1 == k0 + mp.mpf("1e-8")
        assert len(fallback.trace) == 4
        assert mp.nstr(fallback.k_opt, 20) == mp.nstr(seeded.k_opt, 20)


def test_float_seed_past_n70(monkeypatch):
    # at N = 80 the nuclear-motion float64 secant stalls in float noise
    # without meeting _FLOAT_K_TOL; its best iterate still seeds the search
    with mp.workdps(50):
        mats = build_operator_matrices(enumerate_basis(80))
        system = build_systems(mats, mass_ratio=M_HELIUM, include=("0",))["0"]
        seeded = optimize_k(system)
        assert len(seeded.trace) == 3
        monkeypatch.setattr(eigen, "_float_root", lambda system, k: None)
        unseeded = optimize_k(system)
        assert len(unseeded.trace) > 3
        assert mp.nstr(seeded.k_opt, 20) == mp.nstr(unseeded.k_opt, 20) \
            == "2.3427513163141567228"


def fields(system):
    """The exact W, P and K of a system's packed Z, as Fractions."""
    rows = [eigen._unpack(row, system.width) for row in system.Z]
    return [[[Fraction(v, D) for v in row[f]] for row in rows]
            for f, D in enumerate(system.denominators)]


def test_leading_block_is_the_prefix_reduction():
    # the leading 7 x 7 block of the 13-term stage packs the 7-term stage's
    # exact forms, and its float factor solves to the same E
    with mp.workdps(50):
        _, big = systems_n(13)
        mats7 = build_operator_matrices(enumerate_basis(7))
        k = mp.mpf("2.0451487")
        for label in ("inf", "0"):
            lead = big[label].leading(7)
            alone = build_systems(mats7, M_HELIUM, (label,))[label]
            assert lead.n == 7 and lead.label == label
            assert lead.frac_bits == alone.frac_bits
            assert lead.cond_bits == alone.cond_bits
            assert fields(lead) == fields(alone)
            E, *_ = solve_fixed_k(lead, k)
            E_alone, *_ = solve_fixed_k(alone, k)
            assert abs(E - E_alone) <= mp.mpf(2) ** -(mp.prec - 8), label
            assert big[label].leading(13) is big[label]


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(1, 9), b=st.integers(1, 80))
def test_packed_matvec_is_three_matvecs(data, n, b):
    # W and P entries at the full width b of their field, chunks of 54
    # bits and a K field wider than a: one packed matvec unpacks to the
    # three exact products
    a = b + eigen._CHUNK_BITS + n.bit_length() + 2

    def ints(bits):
        lim = (1 << bits) - 1
        return st.lists(st.integers(-lim, lim), min_size=n, max_size=n)

    def check(W, P, K, v):
        assert eigen._packed_matvec(eigen._pack(W, P, K, a), a, v) == \
            tuple(eigen._matvec(A, v) for A in (W, P, K))

    W, P, K = ([data.draw(ints(bits)) for _ in range(n)]
               for bits in (b, b, a + 40))
    check(W, P, K, data.draw(ints(eigen._CHUNK_BITS)))
    # the extreme sums, n (2**b - 1)(2**54 - 1) of either sign
    top, lim = (1 << b) - 1, (1 << eigen._CHUNK_BITS) - 1
    for sw, sp in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        check([[sw * top] * n] * n, [[sp * top] * n] * n, K, [lim] * n)


def test_precision_holds_at_n95():
    # at N = 95 (cond_bits 43) the 100-digit solve confirms the 50-digit one
    mats = build_operator_matrices(enumerate_basis(95))
    k = mp.mpf("2.45")
    energies = []
    for dps in (50, 100):
        with mp.workdps(dps):
            system = build_systems(mats, include=("inf",))["inf"]
            energies.append(solve_fixed_k(system, k)[0])
    with mp.workdps(100):
        assert abs(energies[0] - energies[1]) < mp.mpf("1e-45")
