"""Hylleraas basis enumeration and the polynomial dicts of the assembly's
weights in (s, t, u).

The trial function is U = e^{-ks} sum C_lmn (ks)^l (kt)^{2m} (ku)^n with
s = r1 + r2, t = r2 - r1, u = r12.  All symbolic work happens at k = 1; the
scaling parameter re-enters only through per-matrix power laws.

A polynomial is a sparse dict {(a, b, c): coefficient} over s^a t^b u^c;
the coefficients may be ints, Fractions or mpf, and callers fold the
exponential out.  Negative b or c exponents are permitted (they appear
after division by u or t factors); basis terms themselves never carry them.
Products and derivatives of dicts serve only the referees, in
tests/support.
"""

from typing import NamedTuple


# The largest basis size.  From about N = 195 (the size moves by one with the
# BLAS thread count) the float64 Cholesky of W fails, and cond_bits reaches
# 62 by N = 170, so a larger size can only fail, after seconds and hundreds
# of megabytes (6 s and 740 MB at N = 1000).
MAX_BASIS = 300


class BasisError(ValueError):
    pass


class BasisTerm(NamedTuple):
    l: int  # power of s
    m: int  # half the power of t (t enters as t^{2m}, even by construction)
    n: int  # power of u

    @property
    def grade(self):
        return self.l + 2 * self.m + self.n


def terms_of_grade(g):
    """The terms of grade g = l + 2m + n in graded order: (l, 2m, n)
    lexicographic ascending, which puts u before s at grade 1."""
    return [BasisTerm(l, m, g - l - 2 * m)
            for l in range(g + 1) for m in range((g - l) // 2 + 1)]


def enumerate_basis(n_basis):
    """First ``n_basis`` terms in graded order (ascending l + 2m + n, then
    (l, 2m, n) inside a grade, as terms_of_grade yields them); the
    enumeration is a prefix of any larger one (nested bases), which the
    variational monotonicity tests rely on.  n_basis is at most MAX_BASIS.
    """
    if not 1 <= n_basis <= MAX_BASIS:
        raise BasisError(f"n_basis must be in 1..{MAX_BASIS}, got {n_basis}")
    terms = []
    g = 0
    while len(terms) < n_basis:
        terms.extend(terms_of_grade(g))
        g += 1
    return terms[:n_basis]


# ---------------------------------------------------------------------------
# polynomial-dict primitives
# ---------------------------------------------------------------------------

def padd(p, q, factor=1):
    """p + factor*q on monomial dicts; drops zero coefficients."""
    out = dict(p)
    for key, val in q.items():
        new = out.get(key, 0) + factor * val
        if new:
            out[key] = new
        else:
            out.pop(key, None)
    return out


def pscale(p, factor):
    if not factor:
        return {}
    return {key: factor * val for key, val in p.items()}


def pshift(p, da=0, db=0, dc=0):
    """Multiply by s^da t^db u^dc (negative shifts = division)."""
    return {(a + da, b + db, c + dc): v for (a, b, c), v in p.items()}
