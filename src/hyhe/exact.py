"""Exact arithmetic: fixed-point ints, exact matrices and their one kernel.

A rational is an exact (numerator, denominator) int pair (rational), a
real at scale 2**F the int round(v 2**F) (fixed, fixed_mpf, to_mpf), as the
solver leaves its state at F = mp.prec + GUARD_BITS.  An exact n x n
matrix travels the same way, as an (ints, D) pair: its n^2 ints row by
row, an int64 array or, past int64, a list of Python ints, over its
minimal denominator D.  The assembly's W, P, K and M_pol, K_0 and the
expectation forms are such pairs.  Both builds number their monomials in
one dense table (code_table) and join their int64 limb products to a pair
in one joiner (reduced).  Matrices that are multiplied together stand in
one Stack, the only holder of limbs (split, join): Stack.of splits its
pairs at the width the caller leaves room for, the pencil's W, P and K at
CHUNK_LIMB and a row stage's W, A, B, C, L and L' at STATE_LIMB.  One
kernel multiplies them (Stack.matvecs): the stack's limb matrices times a
vector's limbs, as wide as the rows' magnitude sums allow, in one int64
matmul joined on Python ints (the operand splitting of K. Ozaki et al.,
Numer. Algorithms 59, 95 (2012)), for the solver's chunks and the
expectation routes' states (quadratics).  The bases are nested prefixes,
so a stage's stack serves every smaller basis by its leading blocks, which
are views.
"""
import math
import re
import sys
from contextlib import suppress
from dataclasses import dataclass
from operator import mul

import numpy as np
from mpmath import mp

# Guard bits above mp.prec in the fixed-point scale of the coefficients: a
# prefix sum to n carries at most n/2 ulps (n <= 17 at N = 50), and the
# <p^4> channel sum cancels by a factor of ~70 at N = 50; 32 bits cover both.
GUARD_BITS = 32
# The widest entry chunk makes and its limbs, the room the pencil's stacks
# leave (39-bit limbs at N = 50: one for W, P or K, two for K_0); and the
# room an expectation stack leaves a state, which keeps it one limb to N = 50
CHUNK_BITS, CHUNK_LIMB, STATE_LIMB = 54, 18, 10

# The limit on the digits int() reads from a str (0: none); before Python
# 3.10.7, which has no such limit, CPython's later default
_digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 4300)
_DECIMAL = re.compile(r"([+-]?\d*)(?:\.(\d*))?(?:e([+-]?\d+))?")


def rational(v):
    """v as an exact (numerator, denominator) int pair in lowest terms, the
    denominator positive: an mpf by its mantissa and exponent, a float by
    its integer ratio, a str as a decimal literal ("7294.299508",
    "-7.294299508E3", "1e3"), and an int or Fraction by its numerator and
    denominator.  A str that is no decimal literal, or whose exponent
    exceeds the digits int() reads (sys.get_int_max_str_digits()), raises
    ValueError."""
    if isinstance(v, mp.mpf):
        man, exp = v.man_exp        # man is the magnitude, and odd
        if v < 0:
            man = -man
        return (man << exp, 1) if exp >= 0 else (man, 1 << -exp)
    if isinstance(v, float):
        return v.as_integer_ratio()
    if isinstance(v, str):
        m = _DECIMAL.fullmatch(v.strip().lower())
        if m is None or not (m[1].lstrip("+-") or m[2]):
            raise ValueError(f"not a decimal literal: {v!r}")
        frac = m[2] or ""
        p, e = int(m[1] + frac), int(m[3] or 0) - len(frac)
        # 10**|e| would take unbounded time on a long exponent
        if abs(e) > (_digit_limit() or abs(e)):
            raise ValueError(f"decimal exponent out of range: {v!r}")
        p, q = (p * 10 ** e, 1) if e >= 0 else (p, 10 ** -e)
        return p // math.gcd(p, q), q // math.gcd(p, q)
    return v.numerator, v.denominator


def fixed(q, F):
    """round(q * 2**F), a tie rounded up, for an exact rational q as a
    (numerator, denominator) int pair with a positive denominator."""
    p, d = q
    return ((p << (F + 1)) // d + 1) >> 1


def fixed_mpf(v, F):
    """round(v * 2**F) for a real v that mp.mpf accepts; keeps the sign."""
    return fixed(rational(mp.mpf(v)), F)


def fixed_quotient(a, t, h, b):
    """round((a 2**t - h) / b) for floats a and b, b != 0, and ints t and h,
    exactly on ints: the correction loop's k step at scale 2**F."""
    (an, ad), (bn, bd) = a.as_integer_ratio(), b.as_integer_ratio()
    s = t - ad.bit_length() + 1     # a 2**t = an 2**s: ad is a power of two
    num, den = ((an << s) - h, 1) if s >= 0 else (an - (h << -s), 1 << -s)
    if bn < 0:
        num, bn = -num, -bn
    return fixed((num * bd, den * bn), 0)


def to_mpf(v, F):
    """The mpf v * 2**-F of a fixed-point int v."""
    return mp.ldexp(mp.mpf(v), -F)


def dot(u, v):
    return sum(map(mul, u, v))


def chunk(d, scale):
    """(ints, shift), shift >= 0, with the int64 array ints * 2**shift the
    float64 vector d * 2**scale on the integer grid.

    The ints keep the 53 bits of the largest entry's float64 mantissa (one
    more if rounding carries, so at most CHUNK_BITS); where the shift would
    go negative they are d rounded to the grid instead, and narrower still.
    """
    e = max(math.frexp(float(np.abs(d).max()))[1] - 53, -scale)
    return np.rint(np.ldexp(d, -e)).astype(np.int64), scale + e


def split(values, bound):
    """(L, bits): the fewest int64 limbs L, shape (m, len(values)), of the
    ints values (an int64 array, or a list of ints), values = sum_j L[j]
    2**(bits j) with bits = 63 - bitlen(bound), 0 <= L[j] < 2**bits below
    the top limb and |L[m-1]| <= 2**bits: limbs times ints whose
    magnitudes add to at most bound sum in int64.  A list wider than int64
    is split on its ints."""
    bits = 63 - bound.bit_length()
    mask = (1 << bits) - 1
    if isinstance(values, list):
        try:
            values = np.array(values, np.int64)
        except OverflowError:
            top = -(-max(map(abs, values)).bit_length() // bits) - 1
            return np.array([[v >> s & mask for v in values]
                             for s in range(0, top * bits, bits)]
                            + [[v >> top * bits for v in values]],
                            np.int64), bits
    top = max(int(values.max()), -int(values.min())).bit_length()
    L = values >> np.arange(0, max(1, -(-top // bits)) * bits, bits)[:, None]
    L[:-1] &= mask
    return L, bits


def join(L, bits):
    """The list of ints sum_j L[j] 2**(bits j) of limbs L, lists of ints."""
    acc = L[-1]
    for limb in L[-2::-1]:
        acc = [(a << bits) + x for a, x in zip(acc, limb)]
    return acc


def reduced(L, bits, D):
    """The pair (values // g, D // g), g = gcd(D, values), of the ints
    values = sum_j L[j] 2**(bits j) of the int64 limb arrays L: an int64
    array where the reduced values fit in it, else a list of Python ints.
    Limbs whose every partial sum fits are joined in int64, others on
    Python ints (join)."""
    top = max(int(np.abs(x).max()).bit_length() + bits * j
              for j, x in enumerate(L)) + len(L)
    if top < 63:
        values = sum(x << (bits * j) for j, x in enumerate(L))
        g = math.gcd(D, *values.tolist())
        return values // g, D // g
    values = join([x.tolist() for x in L], bits)
    g = math.gcd(D, *values)
    values = [v // g for v in values]
    with suppress(OverflowError):
        values = np.array(values, np.int64)
    return values, D // g


def code_table(code_arrays, size):
    """(keys, index): the distinct codes, ascending, of int arrays of codes
    in [0, size), and the table over [0, size) of each key's position.

    Here and where the tables are read, arrays are indexed with intp arrays
    and written with put: a boolean mask, an assignment through an index
    array or an index array of another int type costs numpy a buffer on
    first use, which shows in a run's peak memory.
    """
    present = np.zeros(size, bool)
    for codes in code_arrays:
        present.put(codes, True)
    keys = np.flatnonzero(present)
    index = np.empty(size, np.intp)
    index.put(keys, np.arange(len(keys)))
    return keys, index


@dataclass(frozen=True, eq=False)
class Stack:
    """Exact n x n matrices in one int64 array of limbs of one width:
    limbs, shape (sum m_f, n, n), holds each member's m_f limbs in turn
    (counts) over its denominator (denominators).  bounds[i] is the largest
    row sum of |limbs| over the leading (i + 1) x (i + 1) blocks, at least
    1: the bound that the product of that prefix needs (matvecs).  Stack.of
    builds one; its leading blocks (leading) are views."""

    limbs: np.ndarray
    bits: int
    counts: tuple
    denominators: tuple
    bounds: tuple

    @classmethod
    def of(cls, pairs, room):
        """The Stack of the (ints, D) pairs of n x n matrices (any
        iterable, each pair split as it comes), in limbs of
        63 - bitlen(n 2**room) bits: n products of them with ints of at most
        2**room sum in int64."""
        members, denominators, top = [], [], 1
        for ints, D in pairs:
            n = math.isqrt(len(ints))
            L, bits = split(ints, n << room)
            members.append(L.reshape(-1, n, n))
            denominators.append(D)
            # the row sums to each column, their running maximum down the
            # rows, and at (i, i) the bound of the leading (i + 1) x (i + 1)
            # blocks
            top = np.maximum(top, np.maximum.accumulate(
                np.abs(members[-1]).cumsum(2).max(0)).diagonal())
        return cls(np.concatenate(members), bits, tuple(map(len, members)),
                   tuple(denominators), tuple(top.tolist()))

    @property
    def n(self):
        return self.limbs.shape[1]

    def leading(self, n):
        """The Stack of the members' leading n x n blocks, a view."""
        return Stack(self.limbs[:, :n, :n], self.bits, self.counts,
                     self.denominators, self.bounds[:n])

    def matvecs(self, x):
        """The lists A_f x of exact ints, for each member A_f in turn and
        the ints x (as split takes).  One int64 matmul takes every product
        of a limb matrix and a limb of x (split at the stack's bound),
        joined over x's limbs, then over each member's."""
        n, (X, room) = self.n, split(x, self.bounds[-1])
        Y = join((self.limbs @ X.T).transpose(2, 0, 1).reshape(len(X), -1)
                 .tolist(), room)
        rows = iter([Y[j:j + n] for j in range(0, len(Y), n)])
        return [join([next(rows) for _ in range(m)], self.bits)
                for m in self.counts]


def quadratics(coeffs, stack, groups):
    """[(c'Mc, max|c| ||Mc||_1) for each group], each rounded down to an
    int, for the ints coeffs c and each group's M = sum_f w_f A_f over its
    terms, the pairs (w_f, f) of an int weight and a member f of the Stack
    stack.

    One matvecs of the stack's leading len(coeffs) blocks takes every A_f c,
    so the stack may be a larger stage's, and each Mc is summed exactly
    over its group's D = lcm(D_f).  A change dc of c moves c'Mc by
    2 dc'Mc + dc'M dc, and |dc'Mc| is at most max|dc| ||Mc||_1: the second
    value bounds it for max|dc| = max|c|.
    """
    n, D_f = len(coeffs), stack.denominators
    products = stack.leading(n).matvecs(coeffs)
    top, sums = max(map(abs, coeffs)), []
    for terms in groups:
        D, Mc = math.lcm(*(D_f[f] for _, f in terms)), [0] * n
        for w, f in terms:
            w *= D // D_f[f]
            Mc = [x + w * y for x, y in zip(Mc, products[f])]
        sums.append((dot(coeffs, Mc) // D, top * sum(map(abs, Mc)) // D))
    return sums


def lost_bits(total, size):
    """The bits a sum lost to cancellation: an integer above
    log2(size / |total|), for size >= |total|."""
    return size.bit_length() - max(abs(total).bit_length(), 1) + 1
