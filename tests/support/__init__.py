"""Referees for the hyhe pipeline, used only by the tests.

Independent routes to what `hyhe` computes: the ln u integral family and
quadrature engines (`integrals`), the exponential-polynomial differentiation
route (`basis`), pointwise integrands and the angle route to the
log-momentum numerator (`matrices`), and the Cartesian probes, product-state closed forms, mpmath
eigensolve, Fraction assembly, mpf series and Duffy-split Gauss rule
(`oracles`).  `fixed_state` turns an mpf state into the fixed-point ints
that the expectation routes read.
"""

from mpmath import mp

from hyhe.eigen import _GUARD_BITS, fixed_mpf


def fixed_state(coeffs):
    """(ints, F): the state coeffs as round(c 2**F), at the scale F a solve
    uses at the current precision (VariationalResult.frac_bits)."""
    F = mp.prec + _GUARD_BITS
    return [fixed_mpf(c, F) for c in coeffs], F
