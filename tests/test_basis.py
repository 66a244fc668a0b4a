from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyhe.basis import (MAX_BASIS, BasisError, BasisTerm, enumerate_basis,
                        terms_of_grade)
from support.basis import (SteuExpression, basis_expression, grade_counts,
                           pmul, psquare)


def test_first_terms():
    assert enumerate_basis(1) == [BasisTerm(0, 0, 0)]
    assert enumerate_basis(3) == [BasisTerm(0, 0, 0), BasisTerm(0, 0, 1),
                                  BasisTerm(1, 0, 0)]


def test_grade_shell_sizes():
    # grade g = l + 2m + n; cumulative shell sizes 1, 3, 7, 13, 22, 34, 50
    assert grade_counts(6) == {0: 1, 1: 2, 2: 4, 3: 6, 4: 9, 5: 12, 6: 16}
    assert sum(grade_counts(6).values()) == 50
    basis = enumerate_basis(50)
    assert max(t.grade for t in basis) == 6
    for g in range(7):
        assert sum(1 for t in basis if t.grade == g) == grade_counts(6)[g]


def test_grades_non_decreasing_and_tiebreak():
    basis = enumerate_basis(50)
    keys = [(t.grade, t.l, 2 * t.m, t.n) for t in basis]
    assert keys == sorted(keys)


def test_prefix_nesting():
    full = enumerate_basis(50)
    for n in (1, 2, 7, 13, 20, 34, 49):
        assert enumerate_basis(n) == full[:n]


def test_terms_of_grade_partition():
    assert terms_of_grade(0) == [BasisTerm(0, 0, 0)]
    assert set(terms_of_grade(2)) == {BasisTerm(0, 0, 2), BasisTerm(0, 1, 0),
                                      BasisTerm(1, 0, 1), BasisTerm(2, 0, 0)}


def test_basis_size_must_be_positive():
    with pytest.raises(BasisError):
        enumerate_basis(0)
    with pytest.raises(BasisError, match=r"1\.\.300"):
        enumerate_basis(MAX_BASIS + 1)


# --- SteuExpression algebra ---------------------------------------------

def test_diff_s_hits_exponential():
    # d/ds [s e^{-s}] = (1 - s) e^{-s}
    expr = basis_expression(BasisTerm(1, 0, 0))
    assert expr.diff("s") == SteuExpression({(0, 0, 0): Fraction(1),
                                             (1, 0, 0): Fraction(-1)})


def test_diff_t_u_pure_polynomial():
    expr = SteuExpression({(0, 2, 1): Fraction(3)})
    assert expr.diff("t") == SteuExpression({(0, 1, 1): Fraction(6)})
    assert expr.diff("u") == SteuExpression({(0, 2, 0): Fraction(3)})


def test_mul_adds_exp_degrees():
    a = basis_expression(BasisTerm(1, 0, 0))   # s e^{-s}
    b = basis_expression(BasisTerm(0, 0, 1))   # u e^{-s}
    prod = a * b
    assert prod.exp_degree == 2
    assert prod == SteuExpression({(1, 0, 1): Fraction(1)}, exp_degree=2)


def test_add_requires_matching_exp_degree():
    a = basis_expression(BasisTerm(0, 0, 0))
    b = SteuExpression({(0, 0, 0): Fraction(1)}, exp_degree=2)
    with pytest.raises(BasisError):
        a + b


coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=8)
monos = st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4))
polys = st.dictionaries(monos, coeffs, min_size=1, max_size=5)


@given(polys, polys, st.sampled_from("stu"))
def test_diff_is_linear(p, q, var):
    a = SteuExpression(p)
    b = SteuExpression(q)
    assert (a + b).diff(var) == a.diff(var) + b.diff(var)


@given(polys, st.sampled_from("stu"), st.sampled_from("stu"))
def test_mixed_partials_commute(p, v1, v2):
    expr = SteuExpression(p)
    assert expr.diff(v1).diff(v2) == expr.diff(v2).diff(v1)


@given(polys, polys)
def test_product_rule(p, q):
    a = SteuExpression(p)
    b = SteuExpression(q)
    lhs = (a * b).diff("u")
    rhs = a.diff("u") * b + a * b.diff("u")
    assert lhs == rhs


# small exponent and coefficient ranges make colliding, cancelling products
int_polys = st.dictionaries(st.tuples(*[st.integers(-2, 2)] * 3),
                            st.integers(-3, 3), max_size=8)


@given(int_polys)
@example({(1, 0, 0): 1, (-1, 0, 0): 1, (0, 1, 0): 1, (0, -1, 0): -1})
def test_square_matches_product(p):
    # in the example the cross terms at s^0 t^0 u^0 cancel: 2 - 2 = 0
    assert psquare(p) == pmul(p, p)


@settings(max_examples=25)
@given(polys, st.floats(0.1, 3.0), st.floats(0.1, 3.0), st.floats(0.1, 3.0))
def test_evaluate_matches_direct_sum(p, s, t, u):
    expr = SteuExpression(p)
    direct = sum(float(v) * s**a * t**b * u**c for (a, b, c), v in p.items())
    import math
    direct *= math.exp(-s)
    assert expr.evaluate(s, t, u) == pytest.approx(direct, rel=1e-12, abs=1e-12)


@given(polys, st.floats(0.1, 2.0), st.floats(0.1, 2.0), st.floats(0.1, 2.0))
def test_derivative_matches_finite_difference(p, s, t, u):
    expr = SteuExpression(p)
    h = 1e-6
    fd = (expr.evaluate(s, t + h, u) - expr.evaluate(s, t - h, u)) / (2 * h)
    assert expr.diff("t").evaluate(s, t, u) == pytest.approx(fd, rel=1e-5, abs=1e-5)
