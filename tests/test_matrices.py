from fractions import Fraction

import numpy as np
import pytest
from mpmath import mp

from hyhe.basis import enumerate_basis
from hyhe.matrices import (ATTRACTION_VOLUME, COS_VOLUME, REPULSION_VOLUME,
                           VOLUME, NormalizationError, build_operator_matrices,
                           check_normalized, reduced_laplacian)
from support import fixed_state
from support.basis import basis_expression
from support.integrals import (_mp_laguerre_rule, _mp_legendre_rule,
                               quad_integral)
from support.matrices import (ANGLE_AC, ANGLE_BC, derivative_symbols,
                              evaluate_poly, poly_function_mp, project_even_t)
from support.oracles import fraction_operator_matrices


@pytest.fixture(scope="module")
def m1():
    return build_operator_matrices(enumerate_basis(1))


@pytest.fixture(scope="module")
def m6():
    return build_operator_matrices(enumerate_basis(6))


def test_overlap_seed_entry(m1):
    # <e^-s|e^-s> = 2 pi^2 * 1/2 = pi^2
    assert m1.W[0][0] == Fraction(1, 2)


def test_screening_ratios(m1):
    # the classic 1s^2 numbers: <V>/<1> = -27/8 (Z=2), kinetic/overlap = 1
    assert m1.P[0][0] / m1.W[0][0] == Fraction(-27, 8)
    assert m1.K[0][0] == m1.W[0][0]
    h1 = build_operator_matrices(enumerate_basis(1), Z=1)
    assert h1.P[0][0] / h1.W[0][0] == Fraction(-11, 8)
    # P = Z attraction + repulsion: attraction -2, repulsion 5/8 per overlap
    assert (m1.P[0][0] - h1.P[0][0]) / m1.W[0][0] == Fraction(-2)
    assert (2 * h1.P[0][0] - m1.P[0][0]) / m1.W[0][0] == Fraction(5, 8)


def test_screening_minimum_exact(m1):
    # E(k) = k^2 K/W + k P/W: stationary at k = 27/16, E = -729/256
    k_star = -m1.P[0][0] / (2 * m1.K[0][0]) * m1.W[0][0] / m1.W[0][0]
    assert k_star == Fraction(27, 16)
    e_min = -(k_star ** 2) * m1.K[0][0] / m1.W[0][0]
    assert e_min == Fraction(-729, 256) == Fraction(-2.84765625)


def test_mass_polarization_vanishes_on_product_state(m1):
    # grad_1 . grad_2 of a pure s-product has zero expectation
    assert m1.M_pol[0][0] == 0


def test_nested_bases_share_blocks(m6):
    big = build_operator_matrices(enumerate_basis(20))
    for name in ("W", "K", "P", "M_pol"):
        small = getattr(m6, name)
        block = getattr(big, name)
        for i in range(6):
            assert small[i][:6] == block[i][:6]


def test_symmetry_is_exact(m6):
    for name in ("W", "K", "P", "M_pol"):
        mat = getattr(m6, name)
        for i in range(6):
            for j in range(6):
                assert mat[i][j] == mat[j][i]


def test_overlap_positive_definite():
    mats = build_operator_matrices(enumerate_basis(20))
    W = np.array([[float(v) for v in row] for row in mats.W])
    np.linalg.cholesky(W)  # raises LinAlgError if not PD
    assert np.linalg.eigvalsh(W).min() > 0


@pytest.mark.parametrize("Z", [1, 2])
@pytest.mark.parametrize("n", [1, 7, 22, 50, 70])
def test_integer_assembly_matches_fraction_oracle(n, Z):
    basis = enumerate_basis(n)
    fast = build_operator_matrices(basis, Z=Z)
    ref = fraction_operator_matrices(basis, Z=Z)
    for name in ("W", "K", "P", "M_pol"):
        assert getattr(fast, name) == getattr(ref, name), name


# --- independent quadrature route for every operator ------------------------
#
# Basis functions and their derivatives are rebuilt with the SteuExpression
# engine (a different differentiation implementation than the assembly's
# polynomial-dict one) and integrated numerically.  Odd powers of t are
# handled by averaging the two half-domains t > 0 / t < 0, which is what the
# even-t projection encodes.

def _symbols(term):
    phi = basis_expression(term)
    a = phi.diff("s") - phi.diff("t")
    b = phi.diff("s") + phi.diff("t")
    c = phi.diff("u")
    return phi, a, b, c


def _poly_fn(expr):
    terms = dict(expr.terms)
    return lambda s, t, u: evaluate_poly(terms, s, t, u)


def _flip_avg(f):
    return lambda s, t, u: 0.5 * (f(s, t, u) + f(s, -t, u))


def _close(quad_val, exact):
    assert quad_val == pytest.approx(float(exact), rel=1e-12, abs=1e-12)


def test_entries_match_quadrature(m6):
    basis = enumerate_basis(6)
    syms = [_symbols(term) for term in basis]
    vol = lambda s, t, u: u * (s * s - t * t)
    ac = lambda s, t, u: (s + t) * (u * u - s * t)
    bc = lambda s, t, u: (s - t) * (s * t + u * u)
    cosv = lambda s, t, u: u * (s * s + t * t - 2 * u * u)
    for i in range(6):
        pi, ai, bi, ci = syms[i]
        for j in range(i + 1):
            pj, aj, bj, cj = syms[j]
            pij = _poly_fn(pi * pj)
            _close(quad_integral(lambda s, t, u: pij(s, t, u) * vol(s, t, u)),
                   m6.W[i][j])
            _close(quad_integral(lambda s, t, u: pij(s, t, u)
                                 * (m6.Z * (-4 * s * u) + s * s - t * t)),
                   m6.P[i][j])

            pairs = {(x, y): _poly_fn(syms[i][x] * syms[j][y])
                     for x in (1, 2, 3) for y in (1, 2, 3)}

            def kin(s, t, u):
                grad = (pairs[1, 1](s, t, u) + pairs[2, 2](s, t, u)
                        + 2 * pairs[3, 3](s, t, u)) * vol(s, t, u)
                cross = (pairs[1, 3](s, t, u) + pairs[3, 1](s, t, u)) * ac(s, t, u)
                cross += (pairs[2, 3](s, t, u) + pairs[3, 2](s, t, u)) * bc(s, t, u)
                return 0.5 * (grad + cross)
            _close(quad_integral(_flip_avg(kin)), m6.K[i][j])

            def mpol(s, t, u):
                ij = (pairs[1, 2](s, t, u) * cosv(s, t, u)
                      - pairs[1, 3](s, t, u) * ac(s, t, u)
                      - pairs[3, 2](s, t, u) * bc(s, t, u)
                      - pairs[3, 3](s, t, u) * vol(s, t, u))
                ji = (pairs[2, 1](s, t, u) * cosv(s, t, u)
                      - pairs[3, 1](s, t, u) * ac(s, t, u)
                      - pairs[2, 3](s, t, u) * bc(s, t, u)
                      - pairs[3, 3](s, t, u) * vol(s, t, u))
                return 0.5 * (ij + ji)
            _close(quad_integral(_flip_avg(mpol)), m6.M_pol[i][j])


def test_kinetic_by_parts(m6):
    # -<phi_i Lap phi_j> route: Lap_1 phi_j * vol = T_j (s+t) e^{-2s}, and
    # electron 2 is the t-reflection; no derivative of phi_i appears at all
    basis = enumerate_basis(6)
    for i in range(6):
        pi = {(basis[i].l, 2 * basis[i].m, basis[i].n): 1.0}
        for j in range(6):
            T = {key: float(v) for key, v in
                 reduced_laplacian({(basis[j].l, 2 * basis[j].m, basis[j].n):
                                    mp.mpf(1)}).items()}

            def f(s, t, u):
                lap1 = evaluate_poly(T, s, t, u) * (s + t)
                lap2 = evaluate_poly(T, s, -t, u) * (s - t)
                return evaluate_poly(pi, s, t, u) * (lap1 + lap2)
            val = -0.5 * quad_integral(_flip_avg(f), target=1e-13)
            _close(val, m6.K[i][j])


# --- exponent restoration (k-scaling tags) -----------------------------------

def _mpf(v):
    return mp.mpf(v.numerator) / v.denominator


def _dict_mul(p, q):
    out = {}
    for k1, v1 in p.items():
        for k2, v2 in q.items():
            key = (k1[0] + k2[0], k1[1] + k2[1], k1[2] + k2[2])
            out[key] = out.get(key, mp.mpf(0)) + v1 * v2
    return out


def _dict_add(p, q, f=1):
    out = dict(p)
    for key, v in q.items():
        out[key] = out.get(key, mp.mpf(0)) + f * v
    return out


def _dress(poly, k, extra=0):
    # basis monomials are (ks)^a (kt)^b (ku)^c; each derivative adds one k
    return {key: _mpf(v) * k ** (sum(key) + extra) for key, v in poly.items()}


def _mp_box_quad(poly, k, n=12):
    """Tensor Gauss integral of poly * e^{-2ks} over the half domain."""
    xs, wxs = _mp_laguerre_rule(n)
    ys, wys = _mp_legendre_rule(n)
    f = poly_function_mp(poly)
    total = mp.mpf(0)
    for xi, wi in zip(xs, wxs):
        s = xi / (2 * k)
        for yj, wj in zip(ys, wys):
            u = yj * s
            acc = mp.mpf(0)
            for zk, wk in zip(ys, wys):
                acc += wk * f(s, zk * u, u)
            total += wi * wj * acc * u * s / (2 * k)
    return total


def test_exponent_scaling_tags():
    # entry(k) = k^(tag - 6) entry(1) for every operator block, verified by
    # high-precision quadrature of the k-dressed integrands at k = 2
    basis = enumerate_basis(4)
    mats = build_operator_matrices(basis)
    k = mp.mpf(2)
    weights = {name: {key: _mpf(v) for key, v in poly.items()}
               for name, poly in (("vol", VOLUME), ("ac", ANGLE_AC),
                                  ("bc", ANGLE_BC), ("cos", COS_VOLUME),
                                  ("att", ATTRACTION_VOLUME),
                                  ("rep", REPULSION_VOLUME))}
    with mp.workdps(40):
        for (i, j) in [(0, 0), (1, 1), (2, 3), (0, 3)]:
            pi, ai, bi, ci = derivative_symbols(basis[i])
            pj, aj, bj, cj = derivative_symbols(basis[j])
            dp_i, dp_j = _dress(pi, k), _dress(pj, k)
            da_i, db_i, dc_i = (_dress(x, k, extra=1) for x in (ai, bi, ci))
            da_j, db_j, dc_j = (_dress(x, k, extra=1) for x in (aj, bj, cj))
            pij = _dict_mul(dp_i, dp_j)

            dressed = {
                "W": (_dict_mul(pij, weights["vol"]), 0),
                "P": (_dict_add(
                    _dict_mul(pij, {key: mats.Z * v
                                    for key, v in weights["att"].items()}),
                    _dict_mul(pij, weights["rep"])), 1),
                "K": (None, 2),
                "M_pol": (None, 2),
            }
            g = _dict_mul(weights["vol"],
                          _dict_add(_dict_add(_dict_mul(da_i, da_j),
                                              _dict_mul(db_i, db_j)),
                                    _dict_mul(dc_i, dc_j), 2))
            g = _dict_add(g, _dict_mul(weights["ac"],
                                       _dict_add(_dict_mul(da_i, dc_j),
                                                 _dict_mul(da_j, dc_i))))
            g = _dict_add(g, _dict_mul(weights["bc"],
                                       _dict_add(_dict_mul(db_i, dc_j),
                                                 _dict_mul(db_j, dc_i))))
            dressed["K"] = ({key: v / 2 for key, v in g.items()}, 2)

            h = {}
            for (dax, dbx, dcx), (day, dby, dcy) in (
                    ((da_i, db_i, dc_i), (da_j, db_j, dc_j)),
                    ((da_j, db_j, dc_j), (da_i, db_i, dc_i))):
                h = _dict_add(h, _dict_mul(weights["cos"], _dict_mul(dax, dby)))
                h = _dict_add(h, _dict_mul(weights["ac"], _dict_mul(dax, dcy)), -1)
                h = _dict_add(h, _dict_mul(weights["bc"], _dict_mul(dcx, dby)), -1)
                h = _dict_add(h, _dict_mul(weights["vol"], _dict_mul(dcx, dcy)), -1)
            dressed["M_pol"] = ({key: v / 2 for key, v in h.items()}, 2)

            for name, (poly, tag) in dressed.items():
                entry1 = _mpf(getattr(mats, name)[i][j])
                scaled = _mp_box_quad(project_even_t(poly), k, n=14)
                expected = entry1 * k ** (tag - 6)
                if entry1 == 0:
                    assert abs(scaled) < mp.mpf("1e-30")
                else:
                    assert abs(scaled - expected) < mp.mpf("1e-20") * abs(expected)


def test_check_normalized():
    mats = build_operator_matrices(enumerate_basis(1))
    with mp.workdps(40):
        wq = check_normalized(mats.W, *fixed_state([mp.sqrt(2)]))
        assert abs(wq - 1) < mp.mpf("1e-35")
    with pytest.raises(NormalizationError):
        check_normalized(mats.W, *fixed_state([mp.mpf(1)]))
