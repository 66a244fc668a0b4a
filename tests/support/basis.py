"""Polynomial-dict products and derivatives, and exponential-polynomial
expressions: the independent differentiation route.

`pmul`, `psquare` and `pdiff` act on bare polynomial dicts, with e^{-s}
folded out by hand, for the referees in `support.matrices` and
`support.oracles`.  `SteuExpression` carries the exponential along as
e^{-d*s}, d tracked as ``exp_degree``, so that d/ds hits it explicitly; the
quadrature tests rebuild every matrix element through it.
"""

import math
from fractions import Fraction

from hyhe.basis import BasisError, padd, pscale, terms_of_grade


# ---------------------------------------------------------------------------
# polynomial-dict products and derivatives (hyhe.basis keeps padd, pscale
# and pshift, which the assembly's weights use)
# ---------------------------------------------------------------------------

def pmul(p, q):
    out = {}
    for (a1, b1, c1), v1 in p.items():
        for (a2, b2, c2), v2 in q.items():
            key = (a1 + a2, b1 + b2, c1 + c2)
            new = out.get(key, 0) + v1 * v2
            if new:
                out[key] = new
            else:
                out.pop(key, None)
    return out


def psquare(p):
    """pmul(p, p), with each cross term formed once as 2 v_i v_j."""
    items = list(p.items())
    out = {}
    for i, ((a1, b1, c1), v1) in enumerate(items):
        key = (2 * a1, 2 * b1, 2 * c1)
        out[key] = out.get(key, 0) + v1 * v1
        w = 2 * v1
        for (a2, b2, c2), v2 in items[i + 1:]:
            key = (a1 + a2, b1 + b2, c1 + c2)
            out[key] = out.get(key, 0) + w * v2
    return {key: v for key, v in out.items() if v}


def pdiff(p, axis):
    """Partial derivative of the bare polynomial along s/t/u (axis 0/1/2)."""
    out = {}
    for key, val in p.items():
        e = key[axis]
        if e:
            new = list(key)
            new[axis] = e - 1
            out[tuple(new)] = val * e
    return out


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
