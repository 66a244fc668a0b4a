"""The polynomial routes to <p^4> and the log-momentum element, and
pointwise integrands for the quadrature cross-checks of `hyhe.matrices`.

The pipeline evaluates both expectation values as exact quadratic forms
(`hyhe.forms.build_expectation_forms`).  The routes here build the state
polynomial instead, and from it T = reduced_laplacian(state) and T^2 (s+t),
or the log-momentum numerator, summing each monomial against its channel
moment on fixed-point ints; they are the referees of the forms.  The other
functions evaluate the same integrands at points, in float64 or mpf, so
that quadrature can referee the closed forms.  The log-momentum numerator
is also built by the a/b/c angle route (ANGLE_AC, ANGLE_BC), independent of
the S_ANGLE/T_ANGLE closed form.
"""

import math
from fractions import Fraction

import numpy as np
from mpmath import mp

from hyhe.basis import padd, pscale, pshift
from hyhe.exact import fixed, fixed_mpf, lost_bits
from hyhe.matrices import S_ANGLE, T_ANGLE, VOLUME

from .basis import pdiff, pmul, psquare

# The angular weights of the a/b/c form of the kinetic energy
# (`hyhe.matrices` module docstring), which the assembly folds into
# S_ANGLE and T_ANGLE.
ANGLE_AC = pmul({(0, 0, 2): 1, (1, 1, 0): -1},
                {(1, 0, 0): 1, (0, 1, 0): 1})                 # (s+t)(u^2 - st)
ANGLE_BC = pmul({(0, 0, 2): 1, (1, 1, 0): 1},
                {(1, 0, 0): 1, (0, 1, 0): -1})                # (s-t)(st + u^2)


def derivative_polys(p):
    """(a, b, c) of the `hyhe.matrices` module docstring for a polynomial p
    (e^{-s} folded out)."""
    p_s, p_t, p_u = pdiff(p, 0), pdiff(p, 1), pdiff(p, 2)
    a = padd(padd(p_s, p, -1), p_t, -1)
    b = padd(padd(p_s, p, -1), p_t)
    return a, b, p_u


def project_even_t(poly):
    """Drop odd powers of t (electron-exchange projection for S singlets)."""
    return {k: v for k, v in poly.items() if k[1] % 2 == 0}


def angle_logmom_numerator(poly):
    """2N of `logmom_numerator` by the angle route:
    poly (2 vol p_u + a (s+t)(u^2 - st) + b (s-t)(st + u^2)), projected on
    even t.  Doubling keeps the halves integral on int coefficients."""
    a, b, p_u = derivative_polys(poly)
    factor = padd(padd(pmul(pscale(VOLUME, 2), p_u), pmul(ANGLE_AC, a)),
                  pmul(ANGLE_BC, b))
    # exchange-odd parts cancel against the mirrored half domain
    return project_even_t(pmul(poly, factor))


def derivative_symbols(term):
    """(p, a, b, c) integer polynomial dicts for one basis term (e^{-s} folded out).

    a and b are the radial derivatives of electrons 1 and 2 and c the
    correlation derivative (`hyhe.matrices` module docstring), as polynomials
    for the pointwise checks.
    """
    p = {(term.l, 2 * term.m, term.n): 1}
    return (p, *derivative_polys(p))


def evaluate_poly(poly, s, t, u):
    """Numeric value of a polynomial dict; works on floats and numpy arrays."""
    total = 0.0 * (s + t + u)
    for (a, b, c), v in poly.items():
        total = total + float(v) * s ** a * t ** b * u ** c
    return total


def poly_function_mp(poly):
    """f(s, t, u), the mpf value of a polynomial dict at mpf coordinates.

    The coefficients are converted once, and powers 0 and 1 skip mpf pow,
    since quadrature calls f at many nodes.
    """
    terms = [(mp.mpf(v.numerator) / v.denominator
              if isinstance(v, Fraction) else mp.mpf(v),
              [(axis, e) for axis, e in enumerate(key) if e])
             for key, v in poly.items()]

    def f(s, t, u):
        xs = (s, t, u)
        total = mp.mpf(0)
        for coeff, powers in terms:
            for axis, e in powers:
                coeff *= xs[axis] if e == 1 else xs[axis] ** e
            total += coeff
        return total
    return f


def p4_integrand(basis, coeffs):
    """Pointwise (Lap_1 U)^2 * vol * e^{2s} as a function of (s, t, u).

    Quadrature route for the same observable as p4_expectation; the
    integrable 1/((s-t)u) edge comes from the electron-1 Coulomb cusp.
    """
    T = reduced_laplacian(state_poly(basis, coeffs))
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


def log_momentum_integrands(basis, coeffs):
    """(plain, log) integrand functions for the quadrature cross-check."""
    num = angle_logmom_numerator(state_poly(basis, coeffs))
    numf = {key: float(v) / 2 for key, v in num.items()}

    def plain(s, t, u):
        return evaluate_poly(numf, s, t, u) / (u * u)

    def logu(s, t, u):
        return evaluate_poly(numf, s, t, u) / (u * u) * np.log(u)
    return plain, logu


# ---------------------------------------------------------------------------
# the polynomial routes: referees of the exact expectation forms
# ---------------------------------------------------------------------------

def state_poly(basis, values):
    """One polynomial dict from per-term values (ints, mpf or floats)."""
    poly = {}
    for term, v in zip(basis, values):
        key = (term.l, 2 * term.m, term.n)
        poly[key] = poly.get(key, 0) + v
    return poly


def prefix_sums(n, F):
    """Fixed-point prefix sums over j = 1..i, for i = 0..n, at scale 2**F.

    Returns the lists of sum 1/j (harmonic numbers H_i), sum 1/j^2,
    sum (-1)^{j+1}/j and sum (-1)^{j+1}/j^2, each starting at i = 0.
    """
    harm, sq, alt, alt_sq = [0], [0], [0], [0]
    for j in range(1, n + 1):
        h, z = fixed((1, j), F), fixed((1, j * j), F)
        sign = 1 if j % 2 else -1
        harm.append(harm[-1] + h)
        sq.append(sq[-1] + z)
        alt.append(alt[-1] + sign * h)
        alt_sq.append(alt_sq[-1] + sign * z)
    return harm, sq, alt, alt_sq


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


def logmom_numerator(poly):
    """N for U = poly e^{-s}, where U (n.grad_12 U) vol = N e^{-2s} / u^2.

    n = r_12 / r_12; grad_12 acts as (grad_1 - grad_2)/2, and the direction
    cosines r1.n = (u^2 - st)/((s-t)u), r2.n = -(u^2 + st)/((s+t)u) fold the
    angular factors into polynomials after clearing u^2:
      N = poly (p_u vol + a (s+t)(u^2 - st)/2 + b (s-t)(st + u^2)/2).
    With a = X - Y and b = X + Y the two angular weights combine as in the
    kinetic closed form of the `hyhe.matrices` module docstring:
      N = poly (p_u vol + (p_s - p) s(u^2 - t^2) + p_t t(s^2 - u^2)).
    Every piece is even in t, and every coefficient is an int on an int
    state.
    """
    p_s, p_t, p_u = pdiff(poly, 0), pdiff(poly, 1), pdiff(poly, 2)
    factor = padd(padd(pmul(VOLUME, p_u), pmul(S_ANGLE, padd(p_s, poly, -1))),
                  pmul(T_ANGLE, p_t))
    return pmul(poly, factor)


def polynomial_p4_expectation(basis, coeffs, F, k, wq):
    """<p_1^4 + p_2^4> of `hyhe.matrices.p4_expectation` on the state
    polynomial: (value, lost bits), the lost bits counted on the monomial
    terms.

    For a monomial s^A t^B u^C of T^2 (s+t) the s integral is
    (A+B+C)!/2^{A+B+C+1} and the t and u integrals are the channel moments
    of `hyhe.forms._p4_moments`.  The state's coefficients at scale
    2**F, T^2 (s+t) exactly at scale 2**(2F) and the channel moments from
    fixed-point prefix sums run on Python ints; one mpf is made at the end.
    """
    T = reduced_laplacian(state_poly(basis, coeffs))
    poly = pmul(psquare(T), {(1, 0, 0): 1, (0, 1, 0): 1})
    harm, sq, alt, alt_sq = prefix_sums(max(b + c for _, b, c in poly), F)
    with mp.workprec(F):
        zeta2, ln2 = fixed_mpf(mp.zeta(2), F), fixed_mpf(mp.ln(2), F)

    def a_n(n):
        v = alt[n - 1] - ln2
        return -v if n % 2 else v

    total = size = 0
    for (a, b, c), v in poly.items():
        if c:
            minus = harm[b + c] - harm[b]
            plus = a_n(b + 1) - a_n(b + c + 1)
        else:
            minus, plus = zeta2 - sq[b], (zeta2 >> 1) - alt_sq[b]
        w = minus - plus if b % 2 else minus + plus
        n = a + b + c
        term = (v * math.factorial(n) * w // (c or 1)) >> (n + 1)
        total += term
        size += abs(term)
    return (mp.mpf(k) ** 4 * mp.ldexp(total, -3 * F) / wq,
            lost_bits(total, size))


def polynomial_log_momentum_expectation(basis, coeffs, F, k, wq):
    """Q of `hyhe.matrices.log_momentum_expectation` on the state
    polynomial: (value, lost bits), the lost bits counted on the monomial
    terms.

    A monomial s^A t^B u^C of the numerator N, with M = A + B + C and
    m = M!/2^{M+1}, carries plain = m / ((B+1)(B+C)) times
    H_M - 1/(B+C) - ln 2k; as in polynomial_p4_expectation the sum runs on
    ints, N at scale 2**(2F) and the weights at 2**F.
    """
    num = logmom_numerator(state_poly(basis, coeffs))
    harm = prefix_sums(max(sum(key) for key in num), F)[0]
    km = mp.mpf(k)
    with mp.workprec(F):
        shift = fixed_mpf(-mp.ln(2 * km), F)
    total = size = 0
    for (a, b, c), v in num.items():
        M, d = a + b + c, b + c
        # harm[d] - harm[d - 1] is the fixed-point 1/d
        w = harm[M] - harm[d] + harm[d - 1] + shift
        term = (v * math.factorial(M) * w // ((b + 1) * d)) >> (M + 1)
        total += term
        size += abs(term)
    return km ** 3 * mp.ldexp(total, -3 * F) / wq, lost_bits(total, size)
