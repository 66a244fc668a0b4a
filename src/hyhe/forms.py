"""Exact quadratic forms of <p^4> and the log-momentum element.

Both expectation values are quadratic in the state's coefficients c, so
each is c'Ac for exact rational matrices A:

  <p_1^4 + p_2^4> = k^4 c'(A + zeta(2) B + ln 2 C)c / c'Wc
  Q               = k^3 c'(L - ln(2k) L')c / c'Wc

matrices.p4_expectation and matrices.log_momentum_expectation give the
integrals they stand for.  Each is built as an exact (ints, D) pair
(hyhe.exact) over its minimal denominator and, with the overlap W, split
into one exact.Stack, which costs a row neither a Python int per entry nor
an n^2 product of them: a row takes all of its quadratic forms in one
exact product of its views (exact.quadratics).  The forms depend on the
basis alone, not on the state, k or the precision; the bases are nested
prefixes, so a stage's stack serves every smaller basis by its leading
blocks, and a rerun at more digits reads the same forms.
"""

import math
from itertools import chain

import numpy as np

from .exact import STATE_LIMB, Stack, code_table, reduced, split
from .integrals import polynomial_moments

# T = reduced Laplacian of phi = s^l t^q u^n (matrices.p4_expectation), as
# the coefficients of its 12 monomials phi s^da t^db u^dc at these offsets.
# With the S-state Laplacian in (s, t, u), e^{-s} folded out and (s-t)u
# cleared,
#   T = T0 (s-t)u + T1 (u^2 - st) + T2 u + T3 (s-t),
#   T0 = p_ss - 2 p_s + p + p_tt + p_uu - 2(p_st - p_t),
#   T1 = 2 (p_su - p_u - p_tu), T2 = 4 (p_s - p - p_t), T3 = 2 p_u,
# and the offsets collect its terms.  A coefficient that is zero marks an
# offset that would leave the monomial's exponents negative.
_LAPLACIAN_OFFSETS = np.array((
    (-1, 0, 1), (0, 0, 1), (1, 0, 1), (1, -2, 1), (1, 0, -1), (0, -1, 1),
    (1, -1, 1), (-2, 1, 1), (-1, 1, 1), (0, 1, 1), (0, 1, -1), (1, 1, -1)))


def _laplacian_coefficients(l, q, n):
    one = np.ones_like(l)
    return np.array((
        l * (l + 2 * q + 2 * n + 3), -2 * (l + q + n + 2), one, q * (q - 1),
        n * (n + 2 * q + 1), -q * (2 * l + q + 2 * n + 3), 2 * q,
        -l * (l - 1), 2 * l, -one, -n * (n + 2 * l + 1), 2 * n)).T


# The angular factor of phi = s^l t^q u^n in the log-momentum numerator
# (matrices.log_momentum_expectation),
#   p_u vol + (p_s - p) s(u^2 - t^2) + p_t t(s^2 - u^2),
# as the coefficients of phi s^da t^db u^dc at these offsets.
_LOGMOM_OFFSETS = np.array(((2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 0, 2),
                            (1, 2, 0)))


def _logmom_coefficients(l, q, n):
    one = np.ones_like(l)
    return np.array((n + q, -n - l, l - q, -one, one)).T


def _prefix_sums(m):
    """L = lcm(1 ... m) and the integer prefix sums over L of 1/j and
    (-1)^{j+1}/j, and over L^2 of their squares, each a list whose entry
    i sums j = 1 ... i."""
    L = math.lcm(*range(1, m + 1))
    H, A, S, AS = [0], [0], [0], [0]
    for j in range(1, m + 1):
        x, sign = L // j, 1 if j % 2 else -1
        H.append(H[-1] + x)
        A.append(A[-1] + sign * x)
        S.append(S[-1] + x * x)
        AS.append(AS[-1] + sign * x * x)
    return L, H, A, S, AS


def _p4_moments(a, b, c):
    """The weights of s^a t^b u^c in T_i T_j for <p^4>: for their rational,
    zeta(2) and ln 2 parts in turn, the list of numerators (ints) and the
    part's denominator.

    A monomial s^A t^B u^C of T^2 (s+t) weighs n!/2^{n+1} h(B, C),
    n = A + B + C, with h = (minus + (-1)^B plus) / (C or 1), the two channel
    moments of matrices.p4_expectation; so s^a t^b u^c weighs
    (n+1)!/2^{n+2} (h(b, c) + h(b + 1, c)), n = a + b + c.  That factor is
    the polynomial family at s^n u^{-1} (integrals.polynomial_moments), read
    once per order n as ints over its D.  The parts of h are ints over L^2,
    2 and L, L = lcm(1 ... max(b + c) + 1), from the prefix sums over L and
    L^2 (_prefix_sums).
    """
    L, H, A, S, AS = _prefix_sums(int((b + c).max()) + 1)

    def h(b, c):
        sign = -1 if b % 2 else 1
        if c:
            r, sign_c = L // c, -1 if c % 2 else 1
            # minus = H_{b+c} - H_b, (-1)^b plus = -A_b + (-1)^c A_{b+c}
            # + (1 - (-1)^c) ln 2
            return (r * (H[b + c] - H[b] - A[b] + sign_c * A[b + c]), 0,
                    r * (1 - sign_c))
        # minus = zeta(2) - S_b; plus = zeta(2)/2 - AS_b is the confluent
        # 1/((s+t)u) moment without its (-1)^b: the sign defect of ROADMAP
        # item 2, kept here because mending it moves the reported deltaE2
        # and E_total
        plus = (-AS[b], 1)
        return -S[b] + sign * plus[0], 2 + sign * plus[1], 0

    pairs = list(zip(b.tolist(), c.tolist()))
    table = {key: tuple(map(sum, zip(h(*key), h(key[0] + 1, key[1]))))
             for key in set(pairs)}
    n = (a + b + c).tolist()
    weight, D = polynomial_moments([(k, 0, -1) for k in range(max(n) + 1)])
    for part, den in enumerate((D * L * L, 2 * D, D * L)):
        yield [weight[k] * table[key][part] for k, key in zip(n, pairs)], den


def _logmom_moments(a, b, c):
    """The weights of s^a t^b u^c in the log-momentum numerator: for their
    log and plain parts in turn, the list of numerators (ints) and the
    part's denominator.

    With M = a + b + c and d = b + c, plain = M!/(2^{M+1} (b+1) d) is the
    polynomial moment at s^a t^b u^{c-2} (integrals.polynomial_moments),
    ints over its D; log = plain (H_M - 1/d) is over D L,
    L = lcm(1 ... M_max), with H_M from the prefix sums over L
    (_prefix_sums).
    """
    plain, D = polynomial_moments(np.array((a, b, c - 2)).T.tolist())
    M, d = (a + b + c).tolist(), (b + c).tolist()
    L, H, *_ = _prefix_sums(max(M))
    yield [p * (H[k] - L // y) for p, k, y in zip(plain, M, d)], D * L
    yield plain, D


def _bilinear_parts(X, Y, moments, r):
    """Exact int matrices, one (ints, D) pair per part of moments: the
    symmetric part (X G Y' + Y G X') / 2, which is X G Y' itself when X is
    Y, with G[mu, nu] = moments at the monomial keys[mu] + keys'[nu].

    X and Y are (at, coefficients, keys), each row a term's polynomial:
    X[i, at[i, k]] = coefficients[i, k], the monomials keys as codes of
    radix r.  Each part's numerators are reduced by their gcd with D and
    split into limbs (exact.split) that keep every sum of X G Y' in int64,
    and the sum of X G Y' and its transpose too; Z holds each limb's
    product, joined to the pair (exact.reduced).  The monomial sums are
    formed one column of X's terms at a time, which keeps the temporaries
    at n x len(keys').
    """
    (xi, xc, kx), (yi, yc, ky) = X, Y
    keys, index = code_table((kx[i][:, None] + ky for i in xi.T), r ** 3)
    bound = 2 * int(abs(xc).sum(1).max()) * int(abs(yc).sum(1).max())
    for values, D in moments(keys // (r * r), keys // r % r, keys % r):
        g = math.gcd(D, *values)
        limbs, bits = split([v // g for v in values], bound)
        del values
        Z = np.empty((len(limbs), len(xi), len(yi)), np.int64)
        for limb, z in zip(limbs, Z):
            XG = np.zeros((len(xi), len(ky)), np.int64)
            for i, c in zip(xi.T, xc.T):
                XG += c[:, None] * limb[index[kx[i][:, None] + ky]]
            z[:] = sum(c * XG[:, i] for i, c in zip(yi.T, yc.T))
        D //= g
        if X is not Y:
            Z, D = Z + Z.transpose(0, 2, 1), 2 * D
        yield reduced(Z.reshape(len(Z), -1), bits, D)


def build_expectation_forms(basis, W):
    """The exact Stack of basis's quadratic forms (module docstring), and so
    the same at any precision: the overlap W, the assembly's (ints, D)
    pair, then <p^4>'s A, B and C, then the log-momentum element's L and
    L', split at STATE_LIMB.  On a state c of
    norm c'Wc,

      <p_1^4 + p_2^4> = k^4 c'(A + zeta(2) B + ln 2 C)c / c'Wc
      Q               = k^3 c'(L - ln(2k) L')c / c'Wc

    and the leading n x n blocks are the forms of the first n basis terms.

    The state polynomial is sum c_i phi_i, so T = sum c_i T_i with T_i the
    reduced Laplacian of phi_i, whose 12 monomials sit at fixed offsets from
    phi_i's exponents (_LAPLACIAN_OFFSETS), and <p^4> sums T_i T_j (s+t)
    against the channel moments.  With R[i, mu] the coefficient of monomial
    mu in T_i, A, B and C are R G R' for the rational, zeta(2) and ln 2
    parts of G[mu, nu], the weight of monomial mu + nu (_p4_moments).  The
    log-momentum numerator is sum c_i c_j phi_i F_j, F_j phi_j's angular
    factor (_LOGMOM_OFFSETS), so L and L' are the symmetrized I G F', G the
    log and plain weights (_logmom_moments).  Each product is exact on
    int64 limbs (_bilinear_parts).
    """
    exps = np.array([(term.l, 2 * term.m, term.n) for term in basis],
                    np.int64)
    # monomial components stay below r in every sum formed here
    r = 2 * int(exps.max()) + 3
    radix = np.array([r * r, r, 1])
    codes = exps @ radix

    def polys(offsets, coefficients):
        """Term i's polynomial, sum_k coefficients[i, k] s^a t^b u^c at the
        offsets from its exponents, as (at, coefficients, keys): the monomial
        at[i, k] of the codes keys."""
        nonzero = np.flatnonzero(coefficients)
        monomials = (codes[:, None] + offsets @ radix).ravel()[nonzero]
        keys, index = code_table([monomials], r ** 3)
        at = np.zeros(coefficients.shape, np.intp)
        at.put(nonzero, index[monomials])
        return at, coefficients, keys

    T = polys(_LAPLACIAN_OFFSETS, _laplacian_coefficients(*exps.T))
    phi = (np.arange(len(exps))[:, None], np.ones((len(exps), 1), np.int64),
           codes)
    angular = polys(_LOGMOM_OFFSETS, _logmom_coefficients(*exps.T))
    return Stack.of(chain([W], _bilinear_parts(T, T, _p4_moments, r),
                          _bilinear_parts(phi, angular, _logmom_moments, r)),
                    STATE_LIMB)
