"""Operator matrices and expectation values over the correlated basis.

Every trial function is phi_i = s^l t^{2m} u^n e^{-s} (k = 1 scale; the
exponent enters only through the k-scaling tags).  Matrix elements are exact
rationals in "volume units": the physical element is 2 pi^2 times the stored
Fraction, and the constant cancels in every Rayleigh quotient.

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
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from mpmath import mp

from .basis import padd, pdiff, pmul, pscale, pshift, psquare
from .eigen import _debug, fixed, fixed_mpf, integer_matrix, to_mpf
from .integrals import raw_moment

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
# _pair_coefficients lists the coefficients (right) in the same order.
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


def _pair_coefficients(ti, tj):
    """Exponent sum (L, Q, N) of a pair and its integer _PIECES coefficients.

    X_i X_j = (l_i l_j / s^2 - L / s + 1) p_i p_j, Y_i Y_j = q_i q_j / t^2,
    c_i c_j = n_i n_j / u^2, X_i c_j + X_j c_i = ((l_i n_j + l_j n_i) / s - N)
    / u and Y_i c_j + Y_j c_i = (q_i n_j + q_j n_i) / (t u), each times p_i p_j.
    """
    (li, qi, ni), (lj, qj, nj) = ti, tj
    e = (li + lj, qi + qj, ni + nj)
    return e, (1, -e[0], li * lj, qi * qj, ni * nj, li * nj + lj * ni,
               -e[2], qi * nj + qj * ni)


class NormalizationError(ValueError):
    """Expectation values require a state normalized to <U|U> = 1."""


@dataclass(frozen=True)
class OperatorMatrices:
    """Exact operator matrices (nested lists of Fraction, volume units).

    P is Z times the nuclear attraction plus the electron repulsion.  When
    the trial exponent k is restored the Rayleigh quotient is
    E(k) = (k^2 Kq + k Pq) / Wq, and the mass-polarization form rides with
    the kinetic one.
    """

    n_basis: int
    Z: int
    W: list
    K: list
    P: list
    M_pol: list


def build_operator_matrices(basis, Z=2):
    """Assemble overlap, kinetic, potential and mass-polarization matrices.

    K and M_pol are the closed forms of the module docstring: for a pair
    with exponent sum e = (L, Q, N) each element is

      sum_k coefficient_k(i, j) * int weight_k s^L t^Q u^N e^{-2s}

    over the eight _PIECES, and only the pieces with a nonzero coefficient
    are integrated.  W integrates vol and P the one polynomial
    Z attraction + repulsion; both depend only on e.

    Every sum runs on ints over one common denominator D, the lcm of the
    denominators of the raw moments the call reads: each moment is looked
    up once and held as numerator * (D // denominator).  A piece is summed
    once per (e, piece) and W and P once per e; each element is then one
    Fraction(numerator, D).
    """
    n = len(basis)
    exps = [(term.l, 2 * term.m, term.n) for term in basis]
    pairs, pieces = [], set()
    for i, ti in enumerate(exps):
        for j in range(i + 1):
            e, coeffs = _pair_coefficients(ti, exps[j])
            pairs.append((i, j, e, coeffs))
            pieces.update((e, k) for k, v in enumerate(coeffs) if v)

    potential = padd(REPULSION_VOLUME, ATTRACTION_VOLUME, Z)
    sums = {e for _, _, e, _ in pairs}
    needed = [(e, poly) for e in sums for poly in (VOLUME, potential)]
    needed += [(e, poly) for e, k in pieces for poly in _PIECES[k]]
    keys = {(L + a, Q + b, N + c)
            for (L, Q, N), poly in needed for a, b, c in poly}
    moments = {key: raw_moment(*key) for key in keys}
    D = math.lcm(*(m.denominator for m in moments.values()))
    scaled = {key: m.numerator * (D // m.denominator)
              for key, m in moments.items()}

    def integral(poly, e):
        L, Q, N = e
        return sum(v * scaled[L + a, Q + b, N + c]
                   for (a, b, c), v in poly.items())

    by_sum = {e: (Fraction(integral(VOLUME, e), D),
                  Fraction(integral(potential, e), D)) for e in sums}
    piece_sums = {(e, k): [integral(poly, e) for poly in _PIECES[k]]
                  for e, k in pieces}

    W = [[None] * n for _ in range(n)]
    K = [[None] * n for _ in range(n)]
    P = [[None] * n for _ in range(n)]
    M = [[None] * n for _ in range(n)]
    for i, j, e, coeffs in pairs:
        W[i][j], P[i][j] = by_sum[e]
        W[j][i], P[j][i] = by_sum[e]
        k_num = m_num = 0
        for k, v in enumerate(coeffs):
            if v:
                k_sum, m_sum = piece_sums[e, k]
                k_num += v * k_sum
                m_num += v * m_sum
        K[i][j] = K[j][i] = Fraction(k_num, D)
        M[i][j] = M[j][i] = Fraction(m_num, D)

    return OperatorMatrices(n_basis=n, Z=Z, W=W, K=K, P=P, M_pol=M)


# ---------------------------------------------------------------------------
# expectation values on a solved state
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExpectationSet:
    """Expectation values on the normalized ground state at exponent k.

    delta_r1      <delta^3(r_1)>  (= <delta^3(r_2)> by exchange symmetry)
    delta_r12     <delta^3(r_12)>
    p4            <p_1^4> for a single electron (half the two-electron sum)
    log_momentum  Q = <ln(kappa) n.grad_12> -type matrix element entering the
                  alpha^3 term; carries its Euler-gamma and ln k pieces
    """

    k: object
    delta_r1: object
    delta_r12: object
    p4: object
    log_momentum: object


# check_normalized accepts |c'Wc - 1| up to this.
_NORM_TOL = 1e-10


def _state_poly(basis, values):
    """One polynomial dict from per-term values (ints, mpf or floats)."""
    poly = {}
    for term, v in zip(basis, values):
        key = (term.l, 2 * term.m, term.n)
        poly[key] = poly.get(key, 0) + v
    return poly


def check_normalized(W, coeffs, F):
    """Return the overlap quadratic form; raise unless it is 1 within _NORM_TOL.

    The state is the ints coeffs at scale 2**F, as a solve leaves it
    (VariationalResult.frac_bits), and c'Wc is summed exactly on them with
    W as integer_matrix reads it, ints over one D.  The sum is cut to scale
    2**F and made one mpf, exact below 2, so |c'Wc - 1| keeps the bits
    below the working precision.  A state read at the wrong scale fails
    here, so the check also guards F.
    """
    W, D = integer_matrix(W)
    total = sum(ci * sum(map(mul, coeffs, row)) for ci, row in zip(coeffs, W))
    with mp.workprec(F + 1):
        wq = to_mpf(total // (D << F), F)
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

    The S_g are ints at scale 2**F, the state's.  With top = 2 g_max + 3
    each weight (g+2)!/2^{g+3} is the int (g+2)! 2^{top-g-3} at scale
    2**top, so each double sum is one exact int at scale 2**(2F + top) and
    becomes one mpf.
    """
    grade_sums, pure_sums = {}, {}
    for term, c in zip(basis, coeffs):
        g = term.grade
        grade_sums[g] = grade_sums.get(g, 0) + c
        if term.m == 0 and term.n == 0:
            pure_sums[g] = pure_sums.get(g, 0) + c
    top = 2 * max(grade_sums) + 3
    weight = [math.factorial(g + 2) << (top - g - 3) for g in range(top - 2)]

    def pair_sum(sums):
        total = sum(si * sj * weight[gi + gj]
                    for gi, si in sums.items() for gj, sj in sums.items())
        return mp.ldexp(total, -2 * F - top)

    # t-power enters as (-r)^{2m}: even, so r1 and r2 agree exactly
    scale = mp.mpf(k) ** 3 * (2 / mp.pi) / wq
    # 2^g (g+2)!/4^{g+3} = weight[g] / 8
    return scale * pair_sum(grade_sums), scale * pair_sum(pure_sums) / 8


# --- fixed-point series weights ----------------------------------------------

def _prefix_sums(n, F):
    """Fixed-point prefix sums over j = 1..i, for i = 0..n, at scale 2**F.

    Returns the lists of sum 1/j (harmonic numbers H_i), sum 1/j^2,
    sum (-1)^{j+1}/j and sum (-1)^{j+1}/j^2, each starting at i = 0.
    """
    harm, sq, alt, alt_sq = [0], [0], [0], [0]
    for j in range(1, n + 1):
        h, z = fixed(Fraction(1, j), F), fixed(Fraction(1, j * j), F)
        sign = 1 if j % 2 else -1
        harm.append(harm[-1] + h)
        sq.append(sq[-1] + z)
        alt.append(alt[-1] + sign * h)
        alt_sq.append(alt_sq[-1] + sign * z)
    return harm, sq, alt, alt_sq


# --- <p^4> via the reduced-Laplacian series ---------------------------------

def reduced_laplacian(poly):
    """Polynomial T such that Lap_1 (P e^{-s}) = T e^{-s} / ((s-t) u).

    Built from the S-state Laplacian in (s, t, u):
      Lap_1 = dss + dtt + duu - 2 dst
              + 2 (dsu - dtu)(u^2 - st)/((s-t)u)
              + (4/(s-t))(ds - dt) + (2/u) du
    after folding e^{-s} (every ds picks up -1) and clearing the common
    denominator (s-t)u:
      T = T0 (s-t)u + T1 (u^2 - st) + T2 u + T3 (s-t)
    with T0 = p_ss - 2 p_s + p + p_tt + p_uu - 2(p_st - p_t),
         T1 = 2 (p_su - p_u - p_tu), T2 = 4 (p_s - p - p_t), T3 = 2 p_u.
    """
    p_s, p_t, p_u = pdiff(poly, 0), pdiff(poly, 1), pdiff(poly, 2)
    T0 = padd(padd(padd(pdiff(p_s, 0), p_s, -2), poly),
              padd(pdiff(p_t, 1), pdiff(p_u, 2)))
    T0 = padd(T0, padd(pdiff(p_s, 1), p_t, -1), -2)
    T1 = pscale(padd(padd(pdiff(p_s, 2), p_u, -1), pdiff(p_t, 2), -1), 2)
    T2 = pscale(padd(padd(p_s, poly, -1), p_t, -1), 4)
    T3 = pscale(p_u, 2)
    out = pmul(T0, {(1, 0, 1): 1, (0, 1, 1): -1})
    out = padd(out, pmul(T1, {(0, 0, 2): 1, (1, 1, 0): -1}))
    out = padd(out, pshift(T2, dc=1))
    return padd(out, pmul(T3, {(1, 0, 0): 1, (0, 1, 0): -1}))


def p4_expectation(basis, coeffs, F, k, wq):
    """<p_1^4 + p_2^4> = int (Lap_1 U)^2 + (Lap_2 U)^2 over the half domain.

    (Lap_1 U)^2 vol = T^2 e^{-2s} (s+t)/((s-t)u).  For a monomial
    s^A t^B u^C of T^2 (s+t) the s integral is (A+B+C)!/2^{A+B+C+1} and the
    t and u integrals are exact channel moments,

      1/((s-t)u): (H_{B+C} - H_B)/C,
                  C = 0: zeta(2) - sum_{j<=B} 1/j^2
      1/((s+t)u): (a_{B+1} - a_{B+C+1})/C,
                  C = 0: zeta(2)/2 - sum_{j<=B} (-1)^{j+1}/j^2

    with a_n = (-1)^n (sum_{j<n} (-1)^{j+1}/j - ln 2).  The electron-2 piece
    is the t-reflection of the electron-1 one, so it reads the 1/((s+t)u)
    moment off the same monomial with sign (-1)^B.

    Everything runs on Python ints: the state's coefficients at scale 2**F,
    T^2 (s+t) exactly at scale 2**(2F), and the channel moments from
    fixed-point prefix sums; one mpf is made at the end.
    """
    T = reduced_laplacian(_state_poly(basis, coeffs))
    poly = pmul(psquare(T), {(1, 0, 0): 1, (0, 1, 0): 1})
    harm, sq, alt, alt_sq = _prefix_sums(max(b + c for _, b, c in poly), F)
    with mp.workprec(F):
        zeta2, ln2 = fixed_mpf(mp.zeta(2), F), fixed_mpf(mp.ln(2), F)

    def a_n(n):
        v = alt[n - 1] - ln2
        return -v if n % 2 else v

    total = 0
    for (a, b, c), v in poly.items():
        if c:
            minus = harm[b + c] - harm[b]
            plus = a_n(b + 1) - a_n(b + c + 1)
        else:
            minus, plus = zeta2 - sq[b], (zeta2 >> 1) - alt_sq[b]
        w = minus - plus if b % 2 else minus + plus
        n = a + b + c
        total += (v * math.factorial(n) * w // (c or 1)) >> (n + 1)
    return mp.mpf(k) ** 4 * mp.ldexp(total, -3 * F) / wq


# --- the logarithmic momentum matrix element --------------------------------

def _logmom_numerator(poly):
    """N for U = poly e^{-s}, where U (n.grad_12 U) vol = N e^{-2s} / u^2.

    n = r_12 / r_12; grad_12 acts as (grad_1 - grad_2)/2, and the direction
    cosines r1.n = (u^2 - st)/((s-t)u), r2.n = -(u^2 + st)/((s+t)u) fold the
    angular factors into polynomials after clearing u^2:
      N = poly (p_u vol + a (s+t)(u^2 - st)/2 + b (s-t)(st + u^2)/2).
    With a = X - Y and b = X + Y the two angular weights combine as in the
    kinetic closed form of the module docstring:
      N = poly (p_u vol + (p_s - p) s(u^2 - t^2) + p_t t(s^2 - u^2)).
    Every piece is even in t, and every coefficient is an int on an int
    state.
    """
    p_s, p_t, p_u = pdiff(poly, 0), pdiff(poly, 1), pdiff(poly, 2)
    factor = padd(padd(pmul(VOLUME, p_u), pmul(S_ANGLE, padd(p_s, poly, -1))),
                  pmul(T_ANGLE, p_t))
    return pmul(poly, factor)


def log_momentum_expectation(basis, coeffs, F, k, wq, gamma=None):
    """Q = <(gamma - ln k) + ln u'> n.grad_12 matrix element (mpf).

    u' = k u is the scaled coordinate, so the weight is ln r12 + gamma, the
    (ln r12 + gamma)/r12^2 term of the alpha^3 shift.  Scale restoration
    sends ln u -> ln u - ln k, so the closed form is
    k^3 (I_log + (gamma - ln k) I_plain) / Wq with the two u^{-2}-weighted
    moment families; I_log integrates +ln u'.  A monomial s^A t^B u^C of the
    numerator N, with M = A + B + C and m = M!/2^{M+1}, contributes
      plain = m / ((B+1)(B+C)),
      log   = plain (psi(M+1) - ln 2 - 1/(B+C)),   psi(M+1) = H_M - gamma_E,
    so it carries plain (H_M - 1/(B+C) + gamma - gamma_E - ln 2k).  As in
    p4_expectation the sum runs on ints, N at scale 2**(2F) and the weights
    at 2**F with H_M from the fixed-point prefix sums, and one mpf is made
    at the end.
    """
    if gamma is None:
        gamma = mp.euler
    num = _logmom_numerator(_state_poly(basis, coeffs))
    harm = _prefix_sums(max(sum(key) for key in num), F)[0]
    km = mp.mpf(k)
    with mp.workprec(F):
        shift = fixed_mpf(gamma - mp.euler - mp.ln(2 * km), F)
    total = 0
    for (a, b, c), v in num.items():
        M, d = a + b + c, b + c
        # harm[d] - harm[d - 1] is the fixed-point 1/d
        w = harm[M] - harm[d] + harm[d - 1] + shift
        total += (v * math.factorial(M) * w // ((b + 1) * d)) >> (M + 1)
    return km ** 3 * mp.ldexp(total, -3 * F) / wq


def expectation_set(basis, coeffs, F, k, W, gamma=None):
    """All correction-layer expectation values on a normalized state, the
    ints coeffs at scale 2**F; |c'Wc - 1| is logged to the "hyhe" logger at
    DEBUG."""
    wq = check_normalized(W, coeffs, F)
    _debug("expectations: norm_err=%s", mp.nstr(abs(wq - 1), 3))
    d1, dee = delta_expectations(basis, coeffs, F, k, wq)
    p4_pair = p4_expectation(basis, coeffs, F, k, wq)
    q = log_momentum_expectation(basis, coeffs, F, k, wq, gamma=gamma)
    return ExpectationSet(k=mp.mpf(k), delta_r1=d1, delta_r12=dee,
                          p4=p4_pair / 2, log_momentum=q)
