"""Exponential-polynomial expressions: the independent differentiation route.

The assembly in `hyhe.matrices` differentiates bare polynomial dicts and
folds e^{-s} out by hand.  `SteuExpression` carries the exponential along
as e^{-d*s}, d tracked as ``exp_degree``, so that d/ds hits it explicitly;
the quadrature tests rebuild every matrix element through it.
"""

import math
from fractions import Fraction

from hyhe.basis import BasisError, padd, pdiff, pmul, pscale, terms_of_grade


def _exp(x):
    """Exponential that follows the argument type (float, mpf, numpy array)."""
    if hasattr(x, "dtype") or hasattr(x, "shape"):
        import numpy as np
        return np.exp(x)
    try:
        return math.exp(x)
    except TypeError:
        from mpmath import mp
        return mp.exp(x)


class SteuExpression:
    """Exponential-polynomial expression: (sum of monomials) * e^{-exp_degree*s}."""

    __slots__ = ("terms", "exp_degree")

    def __init__(self, terms=None, exp_degree=1):
        self.terms = {k: Fraction(v) for k, v in (terms or {}).items() if v}
        self.exp_degree = exp_degree

    def __eq__(self, other):
        return (isinstance(other, SteuExpression)
                and self.exp_degree == other.exp_degree
                and self.terms == other.terms)

    def __repr__(self):
        return f"SteuExpression({self.terms!r}, exp_degree={self.exp_degree})"

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.exp_degree != other.exp_degree:
            raise BasisError("cannot add expressions with different exponentials")
        return SteuExpression(padd(self.terms, other.terms), self.exp_degree)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, factor):
        return SteuExpression(pscale(self.terms, Fraction(factor)), self.exp_degree)

    def __mul__(self, other):
        # product of e^{-d1 s} and e^{-d2 s} polynomials
        return SteuExpression(pmul(self.terms, other.terms),
                              self.exp_degree + other.exp_degree)

    def diff(self, var):
        """Exact partial derivative; d/ds also hits the exponential factor."""
        axis = {"s": 0, "t": 1, "u": 2}[var]
        out = pdiff(self.terms, axis)
        if var == "s" and self.exp_degree:
            out = padd(out, self.terms, -self.exp_degree)
        return SteuExpression(out, self.exp_degree)

    def evaluate(self, s, t, u):
        """Numeric value at a point (works with floats, mpf, numpy arrays)."""
        total = 0
        for (a, b, c), v in self.terms.items():
            total = total + float(v) * s ** a * t ** b * u ** c
        if self.exp_degree:
            total = total * _exp(-self.exp_degree * s)
        return total


def basis_expression(term):
    """Single basis function s^l t^{2m} u^n e^{-s} (scaled variables, k = 1)."""
    return SteuExpression({(term.l, 2 * term.m, term.n): 1}, exp_degree=1)


def grade_counts(max_grade):
    """Number of terms per grade; cumulative sums give the natural N values."""
    return {g: len(terms_of_grade(g)) for g in range(max_grade + 1)}
