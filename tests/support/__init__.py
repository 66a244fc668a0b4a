"""Referees for the hyhe pipeline, used only by the tests.

Independent routes to what `hyhe` computes: the ln u integral family and
quadrature engines (`integrals`), the polynomial-dict algebra and the
exponential-polynomial differentiation route (`basis`), the polynomial
routes to <p^4> and the log-momentum element that referee the exact
expectation forms, pointwise integrands and the angle route to the
log-momentum numerator (`matrices`), and the Cartesian probes, product-state closed forms, mpmath
eigensolve, Fraction assembly, mpf series and Duffy-split Gauss rule
(`oracles`).  `fixed_state` turns an mpf state into the fixed-point ints
that the expectation routes read.  The assembly gives each matrix as an
exact (ints, D) pair, its ints row by row over one denominator;
`integer_matrix`, `fraction_matrix` and `fraction_forms` convert between
that and matrices of Fractions, for the tests that read or build matrices
entry by entry, and `members` reads the pairs back out of an
`hyhe.exact.Stack`.
`straddles` is the rule that decides whether a report cell is settled,
and `compare_trees` compares two source trees value by value.
"""

import dataclasses
import math
from fractions import Fraction

from mpmath import mp

from hyhe.exact import GUARD_BITS, fixed_mpf, join


def fixed_state(coeffs):
    """(ints, F): the state coeffs as round(c 2**F), at the scale F a solve
    uses at the current precision (VariationalResult.frac_bits)."""
    F = mp.prec + GUARD_BITS
    return [fixed_mpf(c, F) for c in coeffs], F


def integer_matrix(matrix):
    """The (ints, D) pair of a square matrix of Fractions (or ints), as the
    assembly gives one: its ints row by row, a list, over D, the lcm of the
    entries' denominators, the minimal one."""
    D = math.lcm(*(v.denominator for row in matrix for v in row))
    return [v.numerator * (D // v.denominator) for row in matrix
            for v in row], D


def fraction_matrix(A):
    """The matrix of Fractions ints / D of an (ints, D) pair A."""
    ints, D = A
    ints, n = list(map(int, ints)), math.isqrt(len(ints))
    return [[Fraction(v, D) for v in ints[i:i + n]]
            for i in range(0, n * n, n)]


def members(stack):
    """The (ints, D) pair of each member of an exact.Stack, in turn, its
    ints a list row by row."""
    out, start = [], 0
    for m, D in zip(stack.counts, stack.denominators):
        limbs = stack.limbs[start:start + m]
        out.append((join(limbs.reshape(m, -1).tolist(), stack.bits), D))
        start += m
    return out


def fraction_forms(mats):
    """OperatorMatrices mats with each pair as a matrix of Fractions (an
    M_pol of None stays None)."""
    return dataclasses.replace(mats, **{
        name: fraction_matrix(getattr(mats, name))
        for name in ("W", "K", "P", "M_pol")
        if getattr(mats, name) is not None})


def straddles(value, err):
    """Whether a report cell, value within err, straddles a 20-digit
    rounding boundary at the working precision: its bound, widened by
    eps |value|, has endpoints whose 20-digit strings differ."""
    err += abs(value) * mp.eps
    low, high = mp.mpf(value - err), mp.mpf(value + err)
    return mp.nstr(low, 20) != mp.nstr(high, 20)
