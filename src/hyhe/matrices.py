"""Operator matrices and expectation values over the correlated basis.

Every trial function is phi_i = s^l t^{2m} u^n e^{-s} (k = 1 scale; the
exponent enters only through the k-scaling tags).  Matrix elements are exact
rationals in "volume units", stored as ints over one denominator per form:
the physical element is 2 pi^2 times the stored ratio, and the constant
cancels in every Rayleigh quotient.

Derivative bookkeeping (all polynomials fold out e^{-s}), for p = s^l t^q u^n
with q = 2m:

  X = phi_s e^{s} -> p_s - p = (l/s - 1) p
  Y = phi_t e^{s} -> p_t     = (q/t) p
  c = phi_u e^{s} -> p_u     = (n/u) p

The radial derivatives of electrons 1 and 2 are a = X - Y and b = X + Y,
and the kinetic energy after integration by parts is

  2 K_ij = int vol (a_i a_j + b_i b_j + 2 c_i c_j)
         + (a_i c_j + a_j c_i)(s+t)(u^2 - st)
         + (b_i c_j + b_j c_i)(s-t)(st + u^2)

with vol = u(s^2 - t^2).  Mass polarization grad_1 . grad_2 puts the
weights cos = u(s^2 + t^2 - 2u^2), -(s+t)(u^2 - st), -(s-t)(st + u^2) and
-vol on a_x b_y, a_x c_y, c_x b_y and c_x c_y, summed over both orders of
(i, j), for 2 M_ij.  Since a_i a_j + b_i b_j = 2(X_i X_j + Y_i Y_j),
a_i b_j + a_j b_i = 2(X_i X_j - Y_i Y_j), and the two angular weights sum
to 2s(u^2 - t^2) and differ (second minus first) by 2t(s^2 - u^2), both are
closed forms (E. A. Hylleraas, Z. Phys. 54, 347 (1929)):

  K_ij = int vol (X_i X_j + Y_i Y_j + c_i c_j)
           + s(u^2 - t^2)(X_i c_j + X_j c_i) + t(s^2 - u^2)(Y_i c_j + Y_j c_i)
  M_ij = int cos (X_i X_j - Y_i Y_j) - vol c_i c_j
           - s(u^2 - t^2)(X_i c_j + X_j c_i) - t(s^2 - u^2)(Y_i c_j + Y_j c_i)

Every term is even in t, and each is a raw moment at the pair's exponent
sum plus a fixed offset, times a small integer built from the two terms'
l, q and n.

The integrands are integrated over the half domain 0 <= t <= u <= s with
even powers of t only; physical integrands are even under t -> -t (electron
exchange), so this equals half the full-t integral in the same units
throughout.

The expectation values read a solved state as the solve leaves it, ints
at scale 2**F: the norm c'Wc, <p^4> and the log-momentum element as exact
quadratic forms, members of the stage's one Stack
(forms.build_expectation_forms), in one exact product per row of its
leading blocks (exact.quadratics), the delta densities from the sums of
each grade's coefficients.  Each value becomes
one mpf at the end; the constants they read (2/pi, zeta(2) and ln 2) are
computed once per precision (_factors).
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from mpmath import mp

from . import debug
from .basis import padd, pscale, pshift
from .exact import (STATE_LIMB, Stack, code_table, fixed_mpf, lost_bits,
                    quadratics, reduced, split, to_mpf)
from .integrals import polynomial_moments

# geometric weight polynomials (coordinates s, t, u; keys are exponents)
VOLUME = {(2, 0, 1): 1, (0, 2, 1): -1}                        # u(s^2 - t^2)
COS_VOLUME = {(2, 0, 1): 1, (0, 2, 1): 1, (0, 0, 3): -2}      # u(s^2+t^2-2u^2)
S_ANGLE = {(1, 0, 2): 1, (1, 2, 0): -1}                       # s(u^2 - t^2)
T_ANGLE = {(2, 1, 0): 1, (0, 1, 2): -1}                       # t(s^2 - u^2)
ATTRACTION_VOLUME = {(1, 0, 1): -4}        # -(1/r1 + 1/r2) * vol = -4su
REPULSION_VOLUME = {(2, 0, 0): 1, (0, 2, 0): -1}              # (1/u) * vol


def _opposite(poly, da=0, db=0, dc=0):
    """A piece that K and M_pol carry with opposite signs."""
    shifted = pshift(poly, da, db, dc)
    return shifted, pscale(shifted, -1)


# The closed forms of the module docstring, one piece per pair coefficient:
# (K weight, M_pol weight) against s^L t^Q u^N, (L, Q, N) the exponent sum.
# build_operator_matrices lists the coefficients (right) in the same order.
_PIECES = (
    (VOLUME, COS_VOLUME),                                   # 1
    (pshift(VOLUME, -1), pshift(COS_VOLUME, -1)),           # -L
    (pshift(VOLUME, -2), pshift(COS_VOLUME, -2)),           # l_i l_j
    (pshift(VOLUME, 0, -2),
     pshift(pscale(COS_VOLUME, -1), 0, -2)),                # q_i q_j
    _opposite(VOLUME, 0, 0, -2),                            # n_i n_j
    _opposite(S_ANGLE, -1, 0, -1),                          # l_i n_j + l_j n_i
    _opposite(S_ANGLE, 0, 0, -1),                           # -N
    _opposite(T_ANGLE, 0, -1, -1),                          # q_i n_j + q_j n_i
)


class NormalizationError(ValueError):
    """Expectation values require a state normalized to <U|U> = 1."""


@dataclass(frozen=True)
class OperatorMatrices:
    """Exact operator matrices in volume units, each an (ints, D) pair
    (hyhe.exact): its n^2 ints row by row over its minimal denominator.

    P is Z times the nuclear attraction plus the electron repulsion.  When
    the trial exponent k is restored the Rayleigh quotient is
    E(k) = (k^2 Kq + k Pq) / Wq, and the mass-polarization form rides with
    the kinetic one; M_pol is None when it was not assembled.
    """

    W: tuple
    K: tuple
    P: tuple
    M_pol: tuple


def build_operator_matrices(basis, Z=2, mass_polarization=True):
    """Assemble the overlap, kinetic, potential and mass-polarization forms.

    K and M_pol are the closed forms of the module docstring: for a pair
    with exponent sum e = (L, Q, N) each element is

      sum_k coefficient_k(i, j) * int weight_k s^L t^Q u^N e^{-2s}

    over the eight _PIECES; W integrates vol and P the one polynomial
    Z attraction + repulsion.  Every weight is a sum over fixed offsets o,
    so each integral combines the moments at e + o with small ints.

    The pairs j <= i are whole index arrays, and the distinct e and e + o
    come from one code table each (exact.code_table).  Each moment is read
    once, off one factorial table (integrals.polynomial_moments), as an int
    over D, their least common denominator, and split into int64 limbs
    (exact.split) narrow enough for every sum below.  One int64 matmul of every limb with the weights
    gives every integral at each distinct e, and a pair's K and M_pol
    values are its coefficients dotted with those.  Each matrix's n x n
    entries are gathered, limb by limb, from the pairs through one
    symmetric pair index, then joined and divided to its minimal
    denominator D / gcd(D, values), an (ints, D) pair (exact.reduced).
    A moment with a negative t power (Q = 0 under the q_i q_j piece, whose
    coefficient is then 0) is read as 0.  Without mass_polarization the
    M_pol pieces are not integrated and M_pol is None.
    """
    n = len(basis)
    exps = np.array([(term.l, 2 * term.m, term.n) for term in basis], np.int64)
    # the pairs j <= i in turn
    ar = np.arange(n)
    i = np.repeat(ar, ar + 1)
    j = np.arange(len(i)) - i * (i + 1) // 2
    # exponent sums and _PIECES coefficients of the pairs: X_i X_j =
    # (l_i l_j / s^2 - L / s + 1) p_i p_j, Y_i Y_j = q_i q_j / t^2, c_i c_j =
    # n_i n_j / u^2, X_i c_j + X_j c_i = ((l_i n_j + l_j n_i) / s - N) / u
    # and Y_i c_j + Y_j c_i = (q_i n_j + q_j n_i) / (t u), times p_i p_j
    (li, qi, ni), (lj, qj, nj) = exps[i].T, exps[j].T
    sums, L, N = exps[i] + exps[j], li + lj, ni + nj
    coeffs = np.array((np.ones_like(L), -L, li * lj, qi * qj, ni * nj,
                       li * nj + lj * ni, -N, qi * nj + qj * ni)).T

    forms = (0, 1) if mass_polarization else (0,)   # K, then M_pol
    columns = [VOLUME, padd(REPULSION_VOLUME, ATTRACTION_VOLUME, Z)]
    columns += [piece[f] for f in forms for piece in _PIECES]
    offsets = sorted({o for poly in columns for o in poly})
    weights = np.array([[poly.get(o, 0) for poly in columns]
                        for o in offsets], np.int64)
    # (a, b, c) + 2 as one code: a, b and c of an e + o lie in [-2, r - 3]
    r = 2 * int(exps.max()) + 6
    radix = np.array([r * r, r, 1])
    codes = (sums + 2) @ radix
    sums, index = code_table([codes], r ** 3)
    where = index[codes]
    codes = sums[:, None] + np.array(offsets) @ radix
    keys, index = code_table([codes], r ** 3)
    at = index[codes]
    del index       # r**3 ints: more than every pair array, at the peak
    keys = keys[:, None] // radix % r - 2
    values, D = polynomial_moments(keys.tolist())
    bound = int(abs(coeffs).sum(1).max()) * int(abs(weights).sum(0).max())
    limbs, bits = split(values, bound)

    # every weight's integral at each pair, limb by limb
    integrals = (limbs[:, at] @ weights)[:, where]
    parts = [integrals[..., 0], integrals[..., 1]] + [
        (coeffs * integrals[..., 2 + 8 * f:10 + 8 * f]).sum(axis=2)
        for f in forms]

    # the pair of each entry, row by row
    hi = np.maximum.outer(ar, ar)
    sym = (hi * (hi + 1) // 2 + np.minimum.outer(ar, ar)).ravel()

    W, P, K, *M_pol = (reduced(part[:, sym], bits, D) for part in parts)
    return OperatorMatrices(W=W, K=K, P=P,
                            M_pol=M_pol[0] if mass_polarization else None)


# ---------------------------------------------------------------------------
# expectation values on a solved state
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExpectationSet:
    """Expectation values on the normalized ground state.

    delta_r1      <delta^3(r_1)>  (= <delta^3(r_2)> by exchange symmetry)
    delta_r12     <delta^3(r_12)>
    p4            <p_1^4> for a single electron (half the two-electron sum)
    log_momentum  Q = <ln(kappa) n.grad_12> -type matrix element entering the
                  alpha^3 term; carries its Euler-gamma and ln k pieces
    rel_err       a bound on the relative error of each (expectation_set)
    """

    delta_r1: object
    delta_r12: object
    p4: object
    log_momentum: object
    rel_err: object = 0


# check_normalized accepts |c'Wc - 1| up to this.
_NORM_TOL = 1e-10


@lru_cache(maxsize=64)
def _factors(prec, F):
    """(2/pi at precision prec, round(zeta(2) 2**F), round(ln 2 2**F)): the
    constants of the expectation routes, computed once per precision."""
    with mp.workprec(prec):
        two_over_pi = 2 / mp.pi
    with mp.workprec(F):
        return two_over_pi, fixed_mpf(mp.zeta(2), F), fixed_mpf(mp.ln(2), F)


def check_normalized(W, coeffs, F):
    """Return the overlap quadratic form; raise unless it is 1 within _NORM_TOL.

    The state is the ints coeffs at scale 2**F, as a solve leaves it
    (VariationalResult.frac_bits), and c'Wc is summed exactly on them
    (exact.quadratics, on a Stack of W alone at a state's room) with W the
    overlap's (ints, D) pair, so W may be a larger stage's.  The sum is cut
    to scale 2**F and made one mpf, exact below 2, so |c'Wc - 1| keeps the
    bits below the working precision.  A state read at the wrong scale fails
    here, so the check also guards F.
    """
    ((total, _),) = quadratics(coeffs, Stack.of([W], STATE_LIMB), [((1, 0),)])
    return _normalized(total, F)


def _normalized(total, F):
    """check_normalized's mpf c'Wc and check, from its exact sum total."""
    with mp.workprec(F + 1):
        wq = to_mpf(total >> F, F)
    if abs(wq - 1) > _NORM_TOL:
        raise NormalizationError(
            f"state is not normalized: <U|U> = {mp.nstr(wq, 12)}")
    return wq


# --- coalescence densities -------------------------------------------------

def delta_expectations(basis, coeffs, F, k, wq):
    """(<delta^3(r_1)>, <delta^3(r_12)>) on a state of norm wq = c'Wc.

    Electron-nucleus coalescence pins s = t = u = r2 and leaves a radial
    integral 4 pi int r^2 (k r)^{g_i + g_j} e^{-2 k r} dr; the normalization
    2 pi^2 Wq turns it into (2 k^3 / pi) sum c_i c_j (g+2)!/2^{g+3}.
    Electron-electron coalescence (u = t = 0, s = 2r) keeps only l-pure
    terms with an extra 2^{l_i + l_j} from s = 2r.  Both weights depend on
    a pair only through g = g_i + g_j, so the double sums run over grade
    pairs of S_g, the sum of the coefficients of grade g.

    The S_g are ints at scale 2**F, the state's.  Each weight
    (g+2)!/2^{g+3} is the polynomial family at s^{g+1} u^{-1}
    (integrals.polynomial_moments), read for every g up to 2 g_max as ints
    over one D, a power of two; so each double sum is one exact int at
    scale 2**(2F) D and becomes one mpf, rounded once.
    """
    grade_sums, pure_sums = {}, {}
    for term, c in zip(basis, coeffs):
        g = term.grade
        grade_sums[g] = grade_sums.get(g, 0) + c
        if term.m == 0 and term.n == 0:
            pure_sums[g] = pure_sums.get(g, 0) + c
    weight, D = polynomial_moments(
        [(g + 1, 0, -1) for g in range(2 * max(grade_sums) + 1)])

    def pair_sum(sums):
        total = sum(si * sj * weight[gi + gj]
                    for gi, si in sums.items() for gj, sj in sums.items())
        # total / (2**(2F) D) in one rounding: D is 2**(D.bit_length() - 1)
        return mp.ldexp(total, 1 - D.bit_length() - 2 * F)

    # t enters as (-r)^{2m}, even, so r1 and r2 agree exactly; and
    # 2^g (g+2)!/4^{g+3} = weight[g] / 8
    scale = mp.mpf(k) ** 3 * _factors(mp.prec, F)[0] / wq
    return scale * pair_sum(grade_sums), scale * pair_sum(pure_sums) / 8


# --- <p^4> and the logarithmic momentum matrix element -----------------------

def p4_expectation(forms, coeffs, F, k, wq):
    """<p_1^4 + p_2^4> = int (Lap_1 U)^2 + (Lap_2 U)^2 over the half domain,
    on the ints coeffs at scale 2**F and their norm wq = c'Wc.

    (Lap_1 U)^2 vol = T^2 e^{-2s} (s+t)/((s-t)u), T the reduced Laplacian of
    the state polynomial.  For a monomial s^A t^B u^C of T^2 (s+t) the s
    integral is (A+B+C)!/2^{A+B+C+1} and the t and u integrals are exact
    channel moments,

      1/((s-t)u): (H_{B+C} - H_B)/C,
                  C = 0: zeta(2) - sum_{j<=B} 1/j^2
      1/((s+t)u): (a_{B+1} - a_{B+C+1})/C,
                  C = 0: zeta(2)/2 - sum_{j<=B} (-1)^{j+1}/j^2

    with a_n = (-1)^n (sum_{j<n} (-1)^{j+1}/j - ln 2).  The electron-2 piece
    is the t-reflection of the electron-1 one, so it reads the 1/((s+t)u)
    moment off the same monomial with sign (-1)^B.  (The C = 0 moment
    misses its own (-1)^B: ROADMAP item 2.)

    The sum is the quadratic form c'(A + zeta(2) B + ln 2 C)c of the
    stage's expectation Stack `forms` (forms.build_expectation_forms) on
    its leading len(coeffs) blocks (exact.quadratics), exact on ints with
    zeta(2) and ln 2 at scale 2**F, and one mpf at the end; returned with
    the bits it lost to cancellation.
    """
    ((total, size),) = quadratics(coeffs, forms, [_p4_terms(F)])
    return (mp.mpf(k) ** 4 * mp.ldexp(total, -3 * F) / wq,
            lost_bits(total, size))


def _p4_terms(F):
    """The terms of c'(A + zeta(2) B + ln 2 C)c 2**F, for exact.quadratics:
    A, B and C are members 1, 2 and 3 of the expectation Stack."""
    _, zeta2, ln2 = _factors(mp.prec, F)
    return (1 << F, 1), (zeta2, 2), (ln2, 3)


def log_momentum_expectation(forms, coeffs, F, k, wq):
    """Q = <(gamma - ln k) + ln u'> n.grad_12 matrix element (mpf), gamma
    Euler's constant, on the ints coeffs at scale 2**F and their norm wq.

    u' = k u is the scaled coordinate, so the weight is ln r12 + gamma, the
    (ln r12 + gamma)/r12^2 term of the alpha^3 shift.  Scale restoration
    sends ln u -> ln u - ln k, so the closed form is
    k^3 (I_log + (gamma - ln k) I_plain) / Wq with the two u^{-2}-weighted
    moment families; I_log integrates +ln u'.  The numerator N, with
    U (n.grad_12 U) vol = N e^{-2s} / u^2 for U = P e^{-s}, is
    P (P_u vol + (P_s - P) s(u^2 - t^2) + P_t t(s^2 - u^2)): n = r_12 / r_12,
    grad_12 acts as (grad_1 - grad_2)/2, and the direction cosines fold into
    the kinetic closed form's angular weights (module docstring).  A
    monomial s^A t^B u^C of N, with M = A + B + C and m = M!/2^{M+1},
    contributes
      plain = m / ((B+1)(B+C)),
      log   = plain (psi(M+1) - ln 2 - 1/(B+C)),   psi(M+1) = H_M - gamma,
    so the gammas cancel and it carries plain (H_M - 1/(B+C) - ln 2k).

    The sum is the quadratic form c'(L - ln(2k) L')c of `forms`, as in
    p4_expectation, with ln 2k at scale 2**F.
    """
    km = mp.mpf(k)
    ((total, size),) = quadratics(coeffs, forms,
                                  [_log_momentum_terms(F, km)])
    return km ** 3 * mp.ldexp(total, -3 * F) / wq, lost_bits(total, size)


def _log_momentum_terms(F, km):
    """The terms of c'(L - ln(2 km) L')c 2**F, for exact.quadratics: L and
    L' are members 4 and 5 of the expectation Stack."""
    with mp.workprec(F):
        shift = fixed_mpf(-mp.ln(2 * km), F)
    return (1 << F, 4), (shift, 5)


def expectation_set(basis, coeffs, F, k, forms, k_err=0):
    """All correction-layer expectation values on a normalized state, the
    ints coeffs at scale 2**F of a solve at the working precision, with k
    within k_err of its root; forms is the expectation Stack, the overlap W
    its member 0 (forms.build_expectation_forms), possibly a larger
    stage's.  |c'Wc - 1| is logged to the "hyhe" logger at DEBUG.

    One exact product of the stack's leading blocks takes the six forms'
    quadratic sums on the state (exact.quadratics): the norm, checked as
    check_normalized checks it, and the sums of p4_expectation and
    log_momentum_expectation, which end as those do; the delta densities
    are delta_expectations on the state and its norm.

    rel_err bounds the relative error of every value.  The solve stops once
    its correction is at most 2**-prec max|c|, so it leaves each c_j within
    that of the true state, and k within k_err.  A quadratic form c'Mc then
    moves by at most 2 2**-prec max|c| ||Mc||_1 (exact.quadratics), plus a
    second-order term 2**-prec times smaller: 2**(1-prec) |c'Mc| times
    2**b, b the bits between max|c| ||Mc||_1 and |c'Mc| that lost_bits
    counts, the most of the <p^4> and log-momentum sums.  The mpf
    operations that end each route add their rounding.
    """
    km = mp.mpf(k)
    (norm, _), (p4_total, p4_size), (q_total, q_size) = quadratics(
        coeffs, forms, [((1, 0),), _p4_terms(F), _log_momentum_terms(F, km)])
    wq = _normalized(norm, F)
    debug("expectations: norm_err=%s", lambda: mp.nstr(abs(wq - 1), 3))
    d1, dee = delta_expectations(basis, coeffs, F, km, wq)
    p4_pair = km ** 4 * mp.ldexp(p4_total, -3 * F) / wq
    q = km ** 3 * mp.ldexp(q_total, -3 * F) / wq
    lost = max(lost_bits(p4_total, p4_size), lost_bits(q_total, q_size))
    state_err = mp.eps / 2 + k_err / km
    return ExpectationSet(
        delta_r1=d1, delta_r12=dee, p4=p4_pair / 2, log_momentum=q,
        rel_err=2 ** (lost + 1) * state_err + 2 * mp.eps)
