"""Pointwise integrands for the quadrature cross-checks of `hyhe.matrices`.

The pipeline integrates every expectation value in closed form; these
functions evaluate the same integrands at points, in float64 or mpf, so that
quadrature can referee the closed forms.  The log-momentum numerator is
built here by the a/b/c angle route (ANGLE_AC, ANGLE_BC), independent of
the S_ANGLE/T_ANGLE closed form the pipeline uses.
"""

from fractions import Fraction

import numpy as np
from mpmath import mp

from hyhe.basis import padd, pdiff, pmul, pscale
from hyhe.matrices import VOLUME, _state_poly, reduced_laplacian

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
    """2N of `hyhe.matrices._logmom_numerator` by the angle route:
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
    T = reduced_laplacian(_state_poly(basis, coeffs))
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
    num = angle_logmom_numerator(_state_poly(basis, coeffs))
    numf = {key: float(v) / 2 for key, v in num.items()}

    def plain(s, t, u):
        return evaluate_poly(numf, s, t, u) / (u * u)

    def logu(s, t, u):
        return evaluate_poly(numf, s, t, u) / (u * u) * np.log(u)
    return plain, logu
