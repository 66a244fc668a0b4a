"""Operator matrices and expectation values over the correlated basis.

Every trial function is phi_i = s^l t^{2m} u^n e^{-s} (k = 1 scale; the
exponent enters only through the k-scaling tags).  Matrix elements are exact
rationals in "volume units": the physical element is 2 pi^2 times the stored
Fraction, and the constant cancels in every Rayleigh quotient.

Derivative bookkeeping (all polynomials fold out e^{-s}):

  a = (phi_s - phi_t) e^{s} -> p_s - p - p_t      (radial derivative, electron 1)
  b = (phi_s + phi_t) e^{s} -> p_s - p + p_t      (radial derivative, electron 2)
  c = phi_u e^{s}           -> p_u                (correlation derivative)

Kinetic energy (single electron pair sum, after integration by parts):

  2 K_ij = int vol (a_i a_j + b_i b_j + 2 c_i c_j)
         + (a_i c_j + a_j c_i)(s+t)(u^2 - s t)
         + (b_i c_j + b_j c_i)(s-t)(s t + u^2)

Mass polarization grad_1 . grad_2 uses the same symbols with the angular
weights u(s^2 + t^2 - 2u^2), -(s+t)(u^2 - st), -(s-t)(st + u^2), -vol.

The integrand polynomials are integrated over the half domain
0 <= t <= u <= s with even powers of t only; physical integrands are even
under t -> -t (electron exchange), so this equals half the full-t integral
in the same units throughout.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from mpmath import mp

from .basis import padd, pdiff, pmul, pscale, pshift
from .integrals import raw_moment

# geometric weight polynomials (coordinates s, t, u; keys are exponents)
VOLUME = {(2, 0, 1): 1, (0, 2, 1): -1}                        # u(s^2 - t^2)
ANGLE_AC = pmul({(0, 0, 2): 1, (1, 1, 0): -1},
                {(1, 0, 0): 1, (0, 1, 0): 1})                 # (s+t)(u^2 - st)
ANGLE_BC = pmul({(0, 0, 2): 1, (1, 1, 0): 1},
                {(1, 0, 0): 1, (0, 1, 0): -1})                # (s-t)(st + u^2)
COS_VOLUME = {(2, 0, 1): 1, (0, 2, 1): 1, (0, 0, 3): -2}      # u(s^2+t^2-2u^2)
ATTRACTION_VOLUME = {(1, 0, 1): -4}        # -(1/r1 + 1/r2) * vol = -4su
REPULSION_VOLUME = {(2, 0, 0): 1, (0, 2, 0): -1}              # (1/u) * vol


def measure_constant():
    """d tau1 d tau2 = 2 pi^2 u(s^2 - t^2) ds dt du for S states."""
    return 2 * mp.pi ** 2


class NormalizationError(ValueError):
    """Expectation values require a state normalized to <U|U> = 1."""


def _derivative_polys(p):
    """(a, b, c) of the module docstring for a polynomial p (e^{-s} folded out)."""
    p_s, p_t, p_u = pdiff(p, 0), pdiff(p, 1), pdiff(p, 2)
    a = padd(padd(p_s, p, -1), p_t, -1)
    b = padd(padd(p_s, p, -1), p_t)
    return a, b, p_u


def derivative_symbols(term):
    """(p, a, b, c) integer polynomial dicts for one basis term (e^{-s} folded out)."""
    p = {(term.l, 2 * term.m, term.n): 1}
    return (p, *_derivative_polys(p))


def project_even_t(poly):
    """Drop odd powers of t (electron-exchange projection for S singlets)."""
    return {k: v for k, v in poly.items() if k[1] % 2 == 0}


def integrate_projected(poly, divisor=1):
    """Exact integral of the even-t part of an integer polynomial, / divisor.

    The integrand is taken against e^{-2s} and must already contain whatever
    volume/cancellation factors apply.  The coefficients are summed against
    the raw moments over D, the lcm of the moments' denominators, so the one
    Fraction built is the result, Fraction(numerator, divisor * D).
    """
    moments = [(v, raw_moment(a, b, c))
               for (a, b, c), v in poly.items() if b % 2 == 0]
    D = math.lcm(*(m.denominator for _, m in moments))
    numerator = sum(v * m.numerator * (D // m.denominator) for v, m in moments)
    return Fraction(numerator, divisor * D)


def evaluate_poly(poly, s, t, u):
    """Numeric value of a polynomial dict; works on floats and numpy arrays."""
    total = 0.0 * (s + t + u)
    for (a, b, c), v in poly.items():
        total = total + float(v) * s ** a * t ** b * u ** c
    return total


def evaluate_poly_mp(poly, s, t, u):
    """mpf value of a polynomial dict at mpf coordinates."""
    total = mp.mpf(0)
    for (a, b, c), v in poly.items():
        if isinstance(v, Fraction):
            coeff = mp.mpf(v.numerator) / v.denominator
        else:
            coeff = mp.mpf(v)
        total += coeff * s ** a * t ** b * u ** c
    return total


@dataclass(frozen=True)
class OperatorMatrices:
    """Exact operator matrices (nested lists of Fraction, volume units).

    P = Z * attraction + repulsion.  K_SCALING records how each quadratic
    form scales when the trial exponent k is restored: the Rayleigh quotient
    is E(k) = (k^2 Kq + k Pq) / Wq, and the mass-polarization form rides
    with the kinetic one.
    """

    n_basis: int
    Z: int
    W: list
    K: list
    P: list
    M_pol: list
    attraction: list
    repulsion: list

    K_SCALING = {"W": 0, "K": 2, "P": 1, "M_pol": 2}


def build_operator_matrices(basis, Z=2):
    """Assemble overlap, kinetic, potential and mass-polarization matrices.

    All polynomials carry integer coefficients; each element is one
    integrate_projected call, so one Fraction per element.  W, attraction
    and repulsion depend only on the exponent sum of the pair and are
    integrated once per distinct sum.  The kinetic and mass-polarization
    integrands (module docstring) are regrouped so that each product pairs
    a per-term factor of i with a derivative symbol of j, or the reverse:

      2 K_ij:  ka_i a_j + kb_i b_j + kc_i c_j + kc_j c_i
      2 M_ij:  mb_i b_j + mb_j b_i + mc_i c_j + mc_j c_i     (both orders)

    with ka = vol a, kb = vol b, kc = vol c + ac a + bc b,
    mb = cos a - bc c and mc = -(ac a + vol c).
    """
    n = len(basis)
    syms = [derivative_symbols(term) for term in basis]
    ka, kb, kc, mb, mc = [], [], [], [], []
    for _, a, b, c in syms:
        vol_c, ac_a = pmul(VOLUME, c), pmul(ANGLE_AC, a)
        ka.append(pmul(VOLUME, a))
        kb.append(pmul(VOLUME, b))
        kc.append(padd(padd(vol_c, ac_a), pmul(ANGLE_BC, b)))
        mb.append(padd(pmul(COS_VOLUME, a), pmul(ANGLE_BC, c), -1))
        mc.append(pscale(padd(ac_a, vol_c), -1))

    by_sum = {}
    W = [[None] * n for _ in range(n)]
    K = [[None] * n for _ in range(n)]
    P = [[None] * n for _ in range(n)]
    Va = [[None] * n for _ in range(n)]
    Vr = [[None] * n for _ in range(n)]
    M = [[None] * n for _ in range(n)]
    for i, t_i in enumerate(basis):
        _, _, b_i, c_i = syms[i]
        for j in range(i + 1):
            t_j = basis[j]
            _, a_j, b_j, c_j = syms[j]
            e = (t_i.l + t_j.l, 2 * (t_i.m + t_j.m), t_i.n + t_j.n)
            if e not in by_sum:
                w = integrate_projected(pshift(VOLUME, *e))
                va = integrate_projected(pshift(ATTRACTION_VOLUME, *e))
                vr = integrate_projected(pshift(REPULSION_VOLUME, *e))
                by_sum[e] = (w, va, vr, Z * va + vr)
            W[i][j], Va[i][j], Vr[i][j], P[i][j] = by_sum[e]
            W[j][i], Va[j][i], Vr[j][i], P[j][i] = by_sum[e]

            g = padd(padd(padd(pmul(ka[i], a_j), pmul(kb[i], b_j)),
                          pmul(kc[i], c_j)), pmul(kc[j], c_i))
            K[i][j] = K[j][i] = integrate_projected(g, 2)
            h = padd(padd(padd(pmul(mb[i], b_j), pmul(mb[j], b_i)),
                          pmul(mc[i], c_j)), pmul(mc[j], c_i))
            M[i][j] = M[j][i] = integrate_projected(h, 2)

    return OperatorMatrices(n_basis=n, Z=Z, W=W, K=K, P=P, M_pol=M,
                            attraction=Va, repulsion=Vr)


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


def _state_poly(basis, coeffs):
    """Collapse a coefficient vector onto one mpf polynomial dict."""
    poly = {}
    for term, cf in zip(basis, coeffs):
        key = (term.l, 2 * term.m, term.n)
        poly[key] = poly.get(key, mp.mpf(0)) + mp.mpf(cf)
    return poly


def _flip_t(poly):
    return {k: (v if k[1] % 2 == 0 else -v) for k, v in poly.items()}


def check_normalized(W, coeffs, tol=1e-10):
    """Return the overlap quadratic form; raise unless it is 1 within tol."""
    n = len(coeffs)
    wq = mp.mpf(0)
    for i in range(n):
        for j in range(n):
            wij = W[i][j]
            wq += coeffs[i] * coeffs[j] * mp.mpf(wij.numerator) / wij.denominator
    if abs(wq - 1) > tol:
        raise NormalizationError(
            f"state is not normalized: <U|U> = {mp.nstr(wq, 12)}")
    return wq


# --- coalescence densities -------------------------------------------------

def delta_expectations(basis, coeffs, k, W=None, wq=None):
    """(<delta^3(r_1)>, <delta^3(r_12)>) on a normalized state.

    Electron-nucleus coalescence pins s = t = u = r2 and leaves a radial
    integral 4 pi int r^2 (k r)^{g_i + g_j} e^{-2 k r} dr; the normalization
    2 pi^2 Wq turns it into (2 k^3 / pi) sum c_i c_j (g+2)!/2^{g+3}.
    Electron-electron coalescence (u = t = 0, s = 2r) keeps only l-pure
    terms with an extra 2^{l_i + l_j} from s = 2r.
    """
    if wq is None:
        if W is None:
            raise ValueError("need either W (to verify normalization) or wq")
        wq = check_normalized(W, coeffs)
    km = mp.mpf(k)
    tot_n = mp.mpf(0)
    for i, ti in enumerate(basis):
        gi = ti.grade
        for j, tj in enumerate(basis):
            g = gi + tj.grade
            # t-power enters as (-r)^{2m}: even, so r1 and r2 agree exactly
            tot_n += coeffs[i] * coeffs[j] * mp.factorial(g + 2) / mp.mpf(2) ** (g + 3)
    d1 = km ** 3 * (2 / mp.pi) * tot_n / wq

    pure = [(i, t.l) for i, t in enumerate(basis) if t.m == 0 and t.n == 0]
    tot_e = mp.mpf(0)
    for i, li in pure:
        for j, lj in pure:
            g = li + lj
            tot_e += (coeffs[i] * coeffs[j] * mp.mpf(2) ** g
                      * mp.factorial(g + 2) / mp.mpf(4) ** (g + 3))
    dee = km ** 3 * (2 / mp.pi) * tot_e / wq
    return d1, dee


# --- <p^4> via the reduced-Laplacian series ---------------------------------

_ZETA2_TAIL = {}


def _harm(n):
    return mp.fsum(mp.mpf(1) / j for j in range(1, n + 1))


def _lam_minus(a, b):
    """Exact value of the 1/((s-t)u)-channel moment with t^a u^{b-a} powers.

    Equals (H_b - H_a)/(b - a); the confluent a = b case sums to
    zeta(2) - sum_{j<=a} 1/j^2.
    """
    if a == b:
        if a not in _ZETA2_TAIL:
            _ZETA2_TAIL[a] = mp.zeta(2) - mp.fsum(
                mp.mpf(1) / (j * j) for j in range(1, a + 1))
        return _ZETA2_TAIL[a]
    if a > b:
        a, b = b, a
    return (_harm(b) - _harm(a)) / (b - a)


def _alt_A(n):
    # (-1)^n (sum_{j<n} (-1)^{j+1}/j - ln 2)
    s = mp.fsum(mp.mpf((-1) ** (j + 1)) / j for j in range(1, n))
    return (-1) ** n * (s - mp.ln(2))


def _lam_plus(a, b):
    """Exact value of the 1/((s+t)u)-channel moment (alternating analogue)."""
    if a == b:
        s = mp.fsum(mp.mpf((-1) ** (j + 1)) / (j * j) for j in range(1, a + 1))
        return mp.zeta(2) / 2 - s
    return (_alt_A(a + 1) - _alt_A(b + 1)) / (b - a)


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


def _channel_sum(poly, minus):
    """sum over monomials of s-moment times the matching channel moment."""
    tot = mp.mpf(0)
    for (A, B, C), v in poly.items():
        s_mom = mp.factorial(A + B + C) / mp.mpf(2) ** (A + B + C + 1)
        lam = _lam_minus(B, B + C) if minus else _lam_plus(B, B + C)
        tot += v * s_mom * lam
    return tot


def p4_expectation(basis, coeffs, k, wq):
    """<p_1^4 + p_2^4> = int (Lap_1 U)^2 + (Lap_2 U)^2 over the half domain.

    (Lap_1 U)^2 vol = T^2 e^{-2s} (s+t)/((s-t)u); the t and u integrals of
    each monomial are the exact channel moments (lam functions), leaving a
    plain factorial s-moment.  The electron-2 piece is the t-reflection.
    """
    poly = _state_poly(basis, coeffs)
    T = reduced_laplacian(poly)
    T2 = pmul(T, T)
    s_plus_t = {(1, 0, 0): 1, (0, 1, 0): 1}
    s_minus_t = {(1, 0, 0): 1, (0, 1, 0): -1}
    I1 = _channel_sum(pmul(T2, s_plus_t), minus=True)
    I2 = _channel_sum(pmul(_flip_t(T2), s_minus_t), minus=False)
    return mp.mpf(k) ** 4 * (I1 + I2) / wq


def p4_integrand(basis, coeffs):
    """Pointwise (Lap_1 U)^2 * vol * e^{2s} as a function of (s, t, u).

    Quadrature route for the same observable as p4_expectation; the
    integrable 1/((s-t)u) edge comes from the electron-1 Coulomb cusp.
    """
    poly = _state_poly(basis, coeffs)
    T = reduced_laplacian(poly)
    Tf = {key: float(v) for key, v in T.items()}

    def f(s, t, u):
        val = evaluate_poly(Tf, s, t, u)
        return val * val * (s + t) / ((s - t) * u)
    return f


def p4_expectation_quad(basis, coeffs, k, wq, quad, target=1e-3):
    """Quadrature evaluation of <p_1^4 + p_2^4> (cross-check route).

    ``quad`` is a callable with the quad_integral signature.  Both electron
    pieces map onto the half domain; electron 2 is electron 1 at t -> -t.
    The 1/(s - t) edge limits plain Gauss rules to a few digits, so this is
    a sanity check on the channel series, not a precision route.
    """
    f1 = p4_integrand(basis, coeffs)

    def f2(s, t, u):
        return f1(s, -t, u)
    val = quad(f1, target=target) + quad(f2, target=target)
    return mp.mpf(k) ** 4 * val / wq


# --- the logarithmic momentum matrix element --------------------------------

def _logmom_numerator(basis, coeffs):
    """Polynomial N with U (n.grad_12 U) vol = N e^{-2s} / u^2.

    n = r_12 / r_12; grad_12 acts as (grad_1 - grad_2)/2, and the direction
    cosines r1.n = (u^2 - st)/((s-t)u), r2.n = -(u^2 + st)/((s+t)u) fold the
    angular factors into polynomials after clearing u^2.
    """
    poly = _state_poly(basis, coeffs)
    a, b, p_u = _derivative_polys(poly)
    num = pmul(pmul(poly, p_u), VOLUME)
    num = padd(num, pmul(pmul(poly, a), ANGLE_AC), mp.mpf(0.5))
    num = padd(num, pmul(pmul(poly, b), ANGLE_BC), mp.mpf(0.5))
    # exchange-odd parts cancel against the mirrored half domain
    return {key: v for key, v in num.items() if key[1] % 2 == 0}


def log_momentum_expectation(basis, coeffs, k, wq, gamma=None):
    """Q = <(gamma - ln k) + ln u'> n.grad_12 matrix element (mpf).

    u' = k u is the scaled coordinate, so the weight is ln r12 + gamma, the
    (ln r12 + gamma)/r12^2 term of the alpha^3 shift.  Scale restoration
    sends ln u -> ln u - ln k, so the closed form is
    k^3 (I_log + (gamma - ln k) I_plain) / Wq with the two u^{-2}-weighted
    moment families; I_log integrates +ln u'.
    """
    if gamma is None:
        gamma = mp.euler
    num = _logmom_numerator(basis, coeffs)
    i_plain, i_log = mp.mpf(0), mp.mpf(0)
    for (A, B, C), v in num.items():
        c = C - 2
        n = A + B + c + 3
        plain = mp.factorial(n - 1) / mp.mpf(2) ** n / ((B + 1) * (B + c + 2))
        M = A + B + c + 2
        s_mom = mp.factorial(M) / mp.mpf(2) ** (M + 1)
        logv = (s_mom * (mp.digamma(M + 1) - mp.ln(2)) / ((B + 1) * (B + c + 2))
                - s_mom / ((B + 1) * (B + c + 2) ** 2))
        i_plain += v * plain
        i_log += v * logv
    km = mp.mpf(k)
    return km ** 3 * (i_log + (gamma - mp.ln(km)) * i_plain) / wq


def log_momentum_integrands(basis, coeffs):
    """(plain, log) integrand functions for the quadrature cross-check."""
    num = _logmom_numerator(basis, coeffs)
    numf = {key: float(v) for key, v in num.items()}

    def plain(s, t, u):
        return evaluate_poly(numf, s, t, u) / (u * u)

    def logu(s, t, u):
        return evaluate_poly(numf, s, t, u) / (u * u) * np.log(u)
    return plain, logu


def expectation_set(basis, coeffs, k, W, gamma=None):
    """All correction-layer expectation values on a normalized state."""
    wq = check_normalized(W, coeffs)
    d1, dee = delta_expectations(basis, coeffs, k, wq=wq)
    p4_pair = p4_expectation(basis, coeffs, k, wq)
    q = log_momentum_expectation(basis, coeffs, k, wq, gamma=gamma)
    return ExpectationSet(k=mp.mpf(k), delta_r1=d1, delta_r12=dee,
                          p4=p4_pair / 2, log_momentum=q)
