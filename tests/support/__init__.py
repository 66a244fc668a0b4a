"""Referees for the hyhe pipeline, used only by the tests.

Independent routes to what `hyhe` computes: the ln u integral family and
quadrature engines (`integrals`), the polynomial-dict algebra and the
exponential-polynomial differentiation route (`basis`), the polynomial
routes to <p^4> and the log-momentum element that referee the exact
expectation forms, pointwise integrands and the angle route to the
log-momentum numerator (`matrices`), and the Cartesian probes, product-state closed forms, mpmath
eigensolve, Fraction assembly, mpf series and Duffy-split Gauss rule
(`oracles`).  `fixed_state` turns an mpf state into the fixed-point ints
that the expectation routes read.  The assembly gives each form as exact
ints over one denominator; `integer_matrix`, `fraction_matrix` and
`fraction_forms` convert between that and matrices of Fractions, for the
tests that read or build forms entry by entry.
"""

import dataclasses
import math
from fractions import Fraction

from mpmath import mp

from hyhe.eigen import _GUARD_BITS, fixed_mpf


def fixed_state(coeffs):
    """(ints, F): the state coeffs as round(c 2**F), at the scale F a solve
    uses at the current precision (VariationalResult.frac_bits)."""
    F = mp.prec + _GUARD_BITS
    return [fixed_mpf(c, F) for c in coeffs], F


def integer_matrix(matrix):
    """(ints, D) with matrix = ints / D exactly, for a matrix of Fractions
    (or ints): D is the lcm of the entries' denominators, the minimal one."""
    D = math.lcm(*(v.denominator for row in matrix for v in row))
    return [[v.numerator * (D // v.denominator) for v in row]
            for row in matrix], D


def fraction_matrix(form):
    """The matrix of Fractions ints / D of an (ints, D) form."""
    ints, D = form
    return [[Fraction(v, D) for v in row] for row in ints]


def fraction_forms(mats):
    """OperatorMatrices mats with each (ints, D) form as a matrix of
    Fractions (an M_pol of None stays None)."""
    return dataclasses.replace(mats, **{
        name: fraction_matrix(getattr(mats, name))
        for name in ("W", "K", "P", "M_pol")
        if getattr(mats, name) is not None})
