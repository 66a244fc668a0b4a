"""Generalized eigensolve and exponent optimization at arbitrary precision.

The variational problem is min over (c, k) of the Rayleigh quotient
E(k, c) = (k^2 c'Kc + k c'Pc) / c'Wc.  For fixed k this is the symmetric
generalized eigenproblem of the pencil (A(k), W), A(k) = k^2 K + k P.  Each
solve works with B(k) = k K + P instead: (B, W) has A's eigenvectors and
theta_A = k theta_B.

The pencil is solved as it stands, with no reduction.  Each form is read
once as exact ints over its own denominator (integer_matrix; every matrix
the program builds has a power-of-two denominator of at most 256 and
numerators of at most 37 bits at N = 50), and K_0 = ((M + 1) K + M_pol) / M
is formed exactly from M's exact value.  One Hamiltonian's W, P and K (or
K_0) are packed into one int per entry, Z_ij = W_ij + P_ij 2**a +
K_ij 2**(2a) (_pack), where a leaves room for any sum of n products of a W
or P numerator with a vector entry of at most 54 bits.  So one matvec of Z
with such a vector, and a signed unpack, gives Wv, Pv and Kv exactly
(_packed_matvec).

float64 carries the rest.  numpy's Cholesky of the diagonally scaled W,
W_ij / sqrt(W_ii W_jj) = Lf Lf', inverted by forward substitution, gives
T = Lf^{-1} S, S = diag(W_jj^{-1/2}), with T W T' = I to float64 accuracy,
and the float forms K_float = T K T' and P_float = T P T'.  At each k,
float64 eigh of k K_float + P_float gives (mu_i, v_i), and the columns u_i
of T'V approximate the pencil's eigenvectors.  The solve is iterative
refinement (N. J. Higham, Accuracy and Stability of Numerical Algorithms,
SIAM 2002, ch. 12), which needs only an exact residual and an approximate
inverse: it seeds c = u_0, keeps Wc, Pc and Kc as exact integer
accumulators, and each step takes theta = c'Bc / c'Wc and
r = Bc - theta Wc exactly on the ints and adds the correction
-sum_{i>=1} u_i (u_i'r) / (mu_i - theta), the lowest mode projected out.
c is a sum of float64-sized chunks of at most 54 bits at scale 2**F,
F = mp.prec + 32, so the n^2 products of a step are each the packed form
times a narrow chunk.  Results leave the kernel as mpf at the working
precision.

A step gains about log2(gap / (n eps |B| cond(W))) bits, so the
conditioning of W, not the precision, sets how much each step gains.  With
cond_bits = floor(log2(max W_jj / min pivot)) read off the float64
factor, a solve takes at 50 / 100 digits 4 / 9 steps at N = 20
(cond_bits 17), 5 / 11 at N = 40 (28), 6 / 12 at N = 50 (30), 10 / 21 at
N = 95 (43) and 16 / 33 at N = 125 (50).  A step that fails to shrink the
correction _MIN_SHRINK-fold raises ConvergenceError naming cond_bits: past
cond_bits ~ 50 (N ~ 125 on the graded basis) float64 no longer resolves W,
and there is no other solver to fall back on.

Minimizing over k at the solved state gives the fixed-point map
k <- -P_q / (2 K_q).  The map is a contraction with rate 1 - O(1e-5), so
the plain iteration would need ~1e5 steps for 1e-12; a secant iteration on
h(k) = g(k) - k instead lands in a handful of solves and satisfies the same
fixed-point condition at exit.  The secant first runs on the float forms,
which costs no mp solve and puts its root k_f within about 1e-10 k of the
true one at N <= 50 (the float forms carry the float64 factor's error,
6e-8 k at N = 95).  The mp search solves at k_f, then at the Newton point
k_f - h(k_f)/h'(k_f), with h' from first-order perturbation theory in
float64 (good to ~1e-9 relative); the secant through those two points meets
its tolerance on its first step, so a search takes three mp solves.  When
the float64 slope is unusable it falls back to a second point at k_f + 1e-8.
Past N ~ 70 the float64 secant stalls in float noise short of its
tolerance; its best iterate still serves as k_f when the Newton step from
it is within 1e-8 k.

The bases are nested prefixes, the packed forms are read entry by entry and
T is lower triangular, so the leading n x n blocks of Z, T and the float
forms serve the n-term prefix: one stage at the largest size serves every
smaller one (PencilSystem.leading).
"""

import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul

import numpy as np
from mpmath import mp

# Guard bits above mp.prec in the fixed-point scale of the coefficients.
_GUARD_BITS = 32
# The float64 eigenbasis must resolve the lowest gap by this many bits.
_SEED_BITS = 20
# Each correction after the first must be this many times smaller than the
# one before; a solve thus takes at most about F / 4 steps.
_MIN_SHRINK = 16
# The widest vector entry _chunk makes, in bits.
_CHUNK_BITS = 54
# The float64 secant on h(k) stops once a step is this small (relative to
# k).  Float64 rounding leaves the root ~1e-11 uncertain at N = 30..50
# (|h'| ~ 1e-5 turns 1e-16 in h into that much in k), so a tighter exit
# would only chase noise; the mp secant removes the rest.
_FLOAT_K_TOL = 1e-10
# Secant steps the float64 search may take before it counts as failed.
_FLOAT_MAX_STEPS = 16
# The mp secant's second point lies this far above the float64 root when
# the Newton step from it is unusable.
_FLOAT_SEED_STEP = "1e-8"
# A float64 Newton step longer than this (relative to k) is not trusted.
_NEWTON_MAX_STEP = 1e-6
# A float64 search that runs out of steps still returns its best iterate
# when the Newton step from it is at most this long (relative to k): the
# mp search only needs a start that close.
_FLOAT_ACCEPT = 1e-8


class AssemblyError(ValueError):
    """The quadratic forms violate a structural requirement (e.g. K <= 0)."""


class ConvergenceError(RuntimeError):
    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace or []


@dataclass
class VariationalResult:
    energy: object            # mpf
    k_opt: object             # mpf
    coeffs: list              # mpf list, normalized c'Wc = 1
    n_basis: int
    iterations: int           # outer (k) iterations
    # ||Bc - theta Wc||_{W^-1} / (||c||_W ||B||), B = kK + P and ||B|| the
    # row-sum norm of T B T'
    residual: object
    trace: list = field(default_factory=list)   # [(k, E)] per mp solve
    k_err: object = None      # |h(k_opt) / s|, s the last secant slope (mpf)


def _exact(v):
    """v as an exact Fraction: an mpf by its mantissa and exponent, anything
    else (str, int, float, Fraction) as Fraction reads it."""
    if not isinstance(v, mp.mpf):
        return Fraction(v)
    man, exp = v.man_exp            # man is the magnitude
    if v < 0:
        man = -man
    return Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)


def fixed(q, F):
    """round(q * 2**F) for an exact rational q (Fraction, int or float)."""
    q = Fraction(q)
    return ((q.numerator << (F + 1)) // q.denominator + 1) >> 1


def fixed_mpf(v, F):
    """round(v * 2**F) for a real v that mp.mpf accepts; keeps the sign."""
    return fixed(_exact(mp.mpf(v)), F)


def to_mpf(v, F):
    """The mpf v * 2**-F of a fixed-point int v."""
    return mp.ldexp(mp.mpf(v), -F)


def integer_matrix(matrix):
    """(ints, D) with matrix = ints / D exactly, for a matrix of Fractions
    (or ints): D is the lcm of the entries' denominators."""
    D = math.lcm(*(v.denominator for row in matrix for v in row))
    return [[v.numerator * (D // v.denominator) for v in row]
            for row in matrix], D


def _pack(W, P, K, a):
    """Z_ij = W_ij + P_ij 2**a + K_ij 2**(2a) for int matrices W, P, K."""
    return [[w + (p << a) + (k << 2 * a) for w, p, k in zip(*rows)]
            for rows in zip(W, P, K)]


def _unpack(ts, a):
    """The lists (w, p, k) with t = w + p 2**a + k 2**(2a) for each t in ts,
    where |w|, |p| < 2**(a - 1).

    Adding half = 2**(a - 1) to both low fields makes them nonnegative and
    below 2**a, so plain masks and shifts read them.
    """
    half, mask = 1 << (a - 1), (1 << a) - 1
    bias = (half << a) + half
    u = [t + bias for t in ts]
    return ([(t & mask) - half for t in u],
            [((t >> a) & mask) - half for t in u],
            [t >> 2 * a for t in u])


def _matvec(A, v):
    """A v exactly on the ints; the solve keeps every v at most 54 bits wide."""
    return [sum(map(mul, row, v)) for row in A]


def _packed_matvec(Z, a, v):
    """(Wv, Pv, Kv) exactly, from one matvec of the packed Z = _pack(W, P,
    K, a), for a v whose sums W v and P v stay within 2**(a - 1)."""
    return _unpack(_matvec(Z, v), a)


def _inverse_factor(Wf):
    """T = Lf^{-1} S for float64 W, with Lf Lf' = S W S, S = diag(W_jj^-1/2).

    numpy factors the diagonally scaled W and Lf is inverted by forward
    substitution, row i from rows < i, so T is lower triangular and its
    leading blocks are the prefixes' own.  Raises ValueError where float64
    cannot factor W.
    """
    d = Wf.diagonal()
    if not (d > 0).all():
        raise ValueError("overlap matrix is not positive definite "
                         "(diagonal)")
    s = 1 / np.sqrt(d)
    try:
        Lf = np.linalg.cholesky(Wf * np.outer(s, s))
    except np.linalg.LinAlgError:
        raise ValueError("overlap matrix is not positive definite in "
                         "float64") from None
    X = np.zeros_like(Lf)
    for i, row in enumerate(Lf):
        X[i, :i] = -(row[:i] @ X[:i, :i]) / row[i]
        X[i, i] = 1 / row[i]
    return X * s


class PencilSystem:
    """One Hamiltonian's pencil (K, P, W), exact and in float64.

    Z packs the exact numerators of W, P and K (K_0 for "0") at field width
    `width` (_pack), over their own `denominators` (D_W, D_P, D_K).  T is
    the float64 inverse factor of W (_inverse_factor); K_float = T K T' and
    P_float = T P T' are the float forms whose eigenbasis seeds each solve
    and carries its corrections.  cond_bits = floor(log2(max W_jj / min
    pivot)), pivot_j = 1 / T_jj^2, is the float64 estimate of W's
    conditioning.  frac_bits = mp.prec + _GUARD_BITS is the fixed-point
    scale of the solve's coefficients at the current precision.
    """

    def __init__(self, Z, width, denominators, T, K_float, P_float,
                 label=""):
        self.Z = Z
        self.n = len(Z)
        self.width = width
        self.denominators = denominators
        self.T = T
        self.K_float = K_float
        self.P_float = P_float
        self.label = label
        w_max = max(_unpack([row[j] for j, row in enumerate(Z)], width)[0])
        self.cond_bits = math.floor(math.log2(
            w_max / denominators[0] * (T.diagonal() ** 2).max()))

    @property
    def frac_bits(self):
        return mp.prec + _GUARD_BITS

    def leading(self, n):
        """The system of the first n basis terms.

        Z's fields are the prefix's exact forms (over the stage's
        denominators, at the stage's width, which holds for fewer terms),
        and T's leading block is the prefix's inverse factor.
        """
        if n == self.n:
            return self
        return PencilSystem([row[:n] for row in self.Z[:n]], self.width,
                            self.denominators, self.T[:n, :n],
                            self.K_float[:n, :n], self.P_float[:n, :n],
                            label=self.label)

    def coefficients(self, c):
        """The solve's fixed-point c as mpf, signed so that c[0] >= 0."""
        if c[0] < 0:
            c = [-v for v in c]
        return [to_mpf(v, self.frac_bits) for v in c]


def _moving_nucleus_form(K, M_pol, mass_ratio):
    """K_0 = ((M + 1) K + M_pol) / M as (ints, D), from K and M_pol as
    integer_matrix gives them and M read exactly (str, int or mpf)."""
    (K, DK), (M_pol, DM) = K, M_pol
    M = _exact(mass_ratio)
    D = math.lcm(DK, DM)
    a = (M.numerator + M.denominator) * (D // DK)
    b = M.denominator * (D // DM)
    return ([[a * x + b * y for x, y in zip(rk, rm)]
             for rk, rm in zip(K, M_pol)], M.numerator * D)


def _float_form(A, D):
    """The float64 matrix A / D of ints over D, each entry rounded once
    (int / int stays in range where D and A are beyond float64, as K_0's
    are for an mpf mass ratio at high precision)."""
    return np.array([[v / D for v in row] for row in A])


def build_systems(matrices, mass_ratio=None, include=("inf", "0")):
    """Pack the operator pencil and factor W in float64, for one or both
    Hamiltonians.

    "inf" is the clamped-nucleus problem (kinetic matrix alone); "0" folds
    nuclear motion in: K_0 = (1 + 1/M) K + (1/M) M_pol, which inherits the
    k^2 scaling tag, so the same Rayleigh-quotient machinery applies.

    Every form is read once as exact ints over its own denominator
    (integer_matrix); K_0 is formed exactly from K, M_pol and M.  Each
    system packs W, P and its K into one Z at width a = (widest W or P
    numerator) + 54 + n.bit_length() + 2 bits; the K field is on top, so
    its width is not bounded.  The systems share T and P_float.
    """
    if "0" in include and mass_ratio is None:
        raise ValueError("nuclear-motion Hamiltonian needs a mass ratio")
    W, DW = integer_matrix(matrices.W)
    P, DP = integer_matrix(matrices.P)
    n = len(W)
    a = (max(abs(v).bit_length() for A in (W, P) for row in A for v in row)
         + _CHUNK_BITS + n.bit_length() + 2)
    T = _inverse_factor(_float_form(W, DW))

    def congruence(A, D):
        A = _float_form(A, D)
        return np.array([T @ (A @ t) for t in T])

    P_float = congruence(P, DP)

    def system(form, label):
        K, DK = form
        return PencilSystem(_pack(W, P, K, a), a, (DW, DP, DK), T,
                            congruence(K, DK), P_float, label=label)

    K = integer_matrix(matrices.K)
    systems = {}
    if "inf" in include:
        systems["inf"] = system(K, "inf")
    if "0" in include:
        form = _moving_nucleus_form(K, integer_matrix(matrices.M_pol),
                                    mass_ratio)
        systems["0"] = system(form, "0")
    _debug("stage: n=%d F=%d cond_bits=%d", n, mp.prec + _GUARD_BITS,
           next(iter(systems.values())).cond_bits)
    return systems


def _debug(msg, *args):
    """Log msg % args at DEBUG on the "hyhe" logger, if logging is loaded.

    Only code that has imported logging can have given a logger a handler,
    and without one a DEBUG record goes nowhere; so hyhe never imports
    logging itself, and its import path stays as lean as without the trace.
    """
    logging = sys.modules.get("logging")
    if logging is not None:
        logging.getLogger("hyhe").debug(msg, *args)


def _chunk(d, scale):
    """(ints, shift), shift >= 0, with ints * 2**shift the float64 vector
    d * 2**scale on the integer grid.

    The ints keep the 53 bits of the largest entry's float64 mantissa (one
    more if rounding carries); where the shift would go negative they are d
    rounded to the grid instead, and narrower still.
    """
    e = max(math.frexp(float(np.abs(d).max()))[1] - 53, -scale)
    return [int(v) for v in np.rint(np.ldexp(d, -e))], scale + e


def _dot(u, v):
    return sum(map(mul, u, v))


def _lowest_pair(system, k):
    """Lowest eigenpair of the pencil (B, W), B = k K + P: (theta, c, K_q,
    residual, steps), theta and K_q = c'Kc / c'Wc at scale 2**F and c with
    c'Wc = 1 at scale 2**F, as ints, F = system.frac_bits.

    B is never built.  c is a sum of float64-sized chunks (_chunk), and
    Wc, Pc and Kc are exact integer accumulators over their denominators,
    each chunk updating all three by one _packed_matvec.  float64 eigh of
    k K_float + P_float gives (mu_i, v_i), and u_i = T'v_i carries them
    back to the pencil.  Each step takes theta = c'Bc / c'Wc and
    r = Bc - theta Wc exactly on the ints and adds the chunk
    -sum_{i>=1} u_i (u_i'r) / (mu_i - theta); it stops once a chunk is at most max|c| 2**-prec.  A
    gap the float64 eigenbasis cannot resolve by _SEED_BITS bits raises, as
    does a correction that fails to shrink _MIN_SHRINK-fold from the one
    before (W too ill-conditioned for float64).  c is normalized once, at
    exit.
    """
    n, F, a, Z = system.n, system.frac_bits, system.width, system.Z
    DW, DP, DK = system.denominators
    k = mp.mpf(k)
    kq = fixed_mpf(k, F)
    kf = float(k)
    B_float = kf * system.K_float + system.P_float
    evals, evecs = np.linalg.eigh(B_float)
    if n > 1:
        gap = evals[1] - evals[0]
        resolved = (2 ** _SEED_BITS * n * np.finfo(float).eps
                    * max(abs(evals[0]), abs(evals[-1])))
        if gap <= resolved:
            raise ConvergenceError(
                f"(near-)degenerate lowest eigenvalue at k={kf}: gap "
                f"{gap:.2g} is within {resolved:.2g}, what the float64 "
                "eigenbasis resolves")
    T, V1, lam = system.T, evecs[:, 1:], evals[1:]
    # c, Wc, Pc and Kc at scale 2**F; r at scale 4**F D, D = DW DP DK;
    # u_i'r = v_i'(T r) and sum_i u_i y_i = (V y)'T, all matrix-vector
    dc, shift = _chunk(evecs[:, 0] @ T, F)
    c = [v << shift for v in dc]
    Wc, Pc, Kc = ([v << shift for v in part]
                  for part in _packed_matvec(Z, a, dc))
    D = DW * DP * DK
    e = max(0, D.bit_length() - 64)
    D_f = D / (1 << e)              # D = D_f 2**e with D_f in float range
    kK, pP = kq * DW * DP, DW * DK
    tol = max(map(abs, c)) >> mp.prec
    last, steps = None, 0
    while True:
        cW, cK = _dot(c, Wc), _dot(c, Kc)
        theta = (((kq * cK * DP + (_dot(c, Pc) * DK << F)) * DW)
                 // (cW * DK * DP))
        tW = theta * DK * DP
        r = [kK * x + (pP * y << F) - tW * z
             for x, y, z in zip(Kc, Pc, Wc)]
        # r at ~60 significant bits keeps float() finite for any F
        s = max(0, max(map(abs, r)).bit_length() - 60)
        r_f = np.array([float(v >> s) for v in r])
        Tr = T @ r_f
        d = (V1 @ ((Tr @ V1) / (lam - theta / (1 << F)))) @ T
        dc, shift = _chunk(d / D_f, s - F - e)
        size = max(map(abs, dc)) << shift
        if size <= tol:
            break
        if last is not None and size * _MIN_SHRINK > last:
            raise ConvergenceError(
                f"eigenpair correction at k={mp.nstr(k, 17)} did not "
                f"converge: step {steps + 1} shrank it less than "
                f"{_MIN_SHRINK}-fold, with cond_bits={system.cond_bits} "
                "(float64 resolves W only to about 50)")
        last, steps = size, steps + 1
        c = [x - (y << shift) for x, y in zip(c, dc)]
        Wv, Pv, Kv = _packed_matvec(Z, a, dc)
        Wc = [x - (y << shift) for x, y in zip(Wc, Wv)]
        Pc = [x - (y << shift) for x, y in zip(Pc, Pv)]
        Kc = [x - (y << shift) for x, y in zip(Kc, Kv)]
    K_q = (cK * DW << F) // (cW * DK)
    # norm = ||c||_W at scale 4**F; Tr at scale 2**(2F - s) D
    norm = math.isqrt((cW << 2 * F) // DW)
    b_norm = max(float(np.abs(B_float).sum(axis=1).max()), 1.0)
    residual = mp.ldexp(mp.mpf(float(np.linalg.norm(Tr)) / (D_f * b_norm)),
                        s - e) / norm
    return theta, [(v << 2 * F) // norm for v in c], K_q, residual, steps


def solve_fixed_k(system, k):
    """Ground state at fixed exponent: (E, c, K_q, P_q, residual).

    c holds the coefficients, c'Wc = 1, as fixed-point ints at scale
    2**system.frac_bits; the rest are mpf.  E = k theta_B, K_q = c'Kc / c'Wc
    and P_q = theta_B - k K_q, all on the ints.  Each solve is logged with
    its step count to the "hyhe" logger at DEBUG.
    """
    theta, c, K_q, residual, steps = _lowest_pair(system, k)
    F = system.frac_bits
    if K_q <= 0:
        raise AssemblyError(
            f"kinetic quadratic form is not positive (K_q = "
            f"{mp.nstr(to_mpf(K_q, F), 8)}); operator assembly is broken")
    kq = fixed_mpf(k, F)
    P_q = theta - ((kq * K_q) >> F)
    E = to_mpf((kq * theta) >> F, F)
    _debug("k-search %s: solve k=%s E=%s steps=%d", system.label, k, E,
           steps)
    return E, c, to_mpf(K_q, F), to_mpf(P_q, F), residual


def _float_slope(system, k):
    """h'(k) on the float64 forms, by first-order perturbation theory.

    In the eigenbasis (mu_i, v_i) of B(k) = k K + P the ground vector moves
    as x' = -sum_{i>=1} v_i v_i'K x / (mu_i - mu_0), which is
    -sum_{i>=1} v_i v_i'(2kK + P) x / (lambda_i - lambda_0) in the terms of
    A(k) = k^2 K + k P.  Then K_q' = 2 x'Kx, P_q' = 2 x'Px and
    h' = g' - 1 = -(P_q' K_q - P_q K_q') / (2 K_q^2) - 1.
    """
    K, P = system.K_float, system.P_float
    mu, V = np.linalg.eigh(k * K + P)
    x, V = V[:, 0], V[:, 1:]
    Kx, Px = K @ x, P @ x
    dx = -V @ ((V.T @ Kx) / (mu[1:] - mu[0]))
    K_q, P_q = x @ Kx, x @ Px
    dK_q, dP_q = 2 * (dx @ Kx), 2 * (dx @ Px)
    return float(-(dP_q * K_q - P_q * dK_q) / (2 * K_q * K_q) - 1)


def _float_root(system, k_init):
    """Root of h(k) = g(k) - k on the float64 forms, or None on failure.

    The same secant as optimize_k's, on K_float/P_float.  It fails on a
    non-finite h and on an iterate outside [k_init/3, 3 k_init].  When no
    step falls within _FLOAT_K_TOL in _FLOAT_MAX_STEPS (past N ~ 70 the
    steps stall in float noise), it returns the iterate of least |h| if the
    Newton step from it is within _FLOAT_ACCEPT, and fails otherwise.
    """
    K, P = system.K_float, system.P_float

    def h(k):
        x = np.linalg.eigh(k * k * K + k * P)[1][:, 0]
        return -(x @ P @ x) / (2 * (x @ K @ x)) - k

    try:
        k0, k1 = k_init, k_init + 0.005
        h0, h1 = h(k0), h(k1)
        best = min((abs(h0), k0), (abs(h1), k1))
        for _ in range(_FLOAT_MAX_STEPS):
            if not (math.isfinite(h0) and math.isfinite(h1)):
                return None
            if h1 == h0:
                return k1   # flat secant: h is down to float noise
            k2 = k1 - h1 * (k1 - k0) / (h1 - h0)
            if not k_init / 3 <= k2 <= 3 * k_init:
                return None
            if abs(k2 - k1) <= _FLOAT_K_TOL * k2:
                return k2
            k0, h0, k1 = k1, h1, k2
            h1 = h(k1)
            best = min(best, (abs(h1), k1))
        h_best, k_best = best
        slope = _float_slope(system, k_best)
        if h_best <= _FLOAT_ACCEPT * k_best * abs(slope):
            return k_best
    except np.linalg.LinAlgError:
        return None
    return None


def optimize_k(system, k_init=2.0, k_tol=1e-12, max_outer_iters=60):
    """Drive k to the self-consistent exponent and return the ground state.

    A secant iteration on h(k) = g(k) - k, g(k) = -P_q/(2 K_q), finds the
    root; the result satisfies |g(k_opt) - k_opt| <= k_tol.  The mp secant
    starts at the float64 root k_f and the Newton point
    k_f - h(k_f)/h'(k_f), h(k_f) from the mp solve and h' from
    _float_slope; its first step then meets k_tol, for three solves in all.
    The second point is k_f + 1e-8 instead when h' is not finite or zero,
    when h(k_f) = 0 exactly, or when the Newton step exceeds 1e-6 k_f.  When
    the float64 search fails, the secant starts at k_init and k_init + 0.005.
    The defaults are the only values the pipeline uses; other values serve
    the tests (a tighter k_tol as a reference, a k_init far from the root to
    force the fallback).  The float seed and each solve's (k, E) are logged
    to the "hyhe" logger at DEBUG.
    """
    tol = mp.mpf(k_tol)
    trace = []

    def g(k):
        E, c, K_q, P_q, residual = _traced_solve(system, k, trace)
        return -P_q / (2 * K_q)

    k_f = _float_root(system, float(k_init))
    if k_f is None:
        k0, step = mp.mpf(k_init), mp.mpf("0.005")
    else:
        dh = _float_slope(system, k_f)
        _debug("k-search %s: float seed k_f=%r h'=%r",
               system.label, float(k_f), dh)
        k0, step = mp.mpf(k_f), mp.mpf(_FLOAT_SEED_STEP)
    h0 = g(k0) - k0
    if k_f is not None and math.isfinite(dh) and dh != 0:
        newton = -h0 / dh
        if newton != 0 and abs(newton) <= _NEWTON_MAX_STEP * k_f:
            step = newton
    k1 = k0 + step
    g1 = g(k1)
    h1 = g1 - k1
    for it in range(max_outer_iters):
        if h1 == h0:
            k2 = g1  # flat secant: fall back to the plain map (slope -1)
        else:
            k2 = k1 - h1 * (k1 - k0) / (h1 - h0)
        # keep steps inside a sane bracket around the current iterate
        k2 = max(k1 / 3, min(3 * k1, k2))
        if abs(k2 - k1) <= tol:
            slope = (h1 - h0) / (k1 - k0) if h1 != h0 else -1
            return _finish(system, k2, it + 3, trace, slope)
        k0, h0 = k1, h1
        k1 = k2
        g1 = g(k1)
        h1 = g1 - k1
    raise ConvergenceError(
        f"secant exponent search did not reach {k_tol:g} in "
        f"{max_outer_iters} iterations", trace=trace)


def _traced_solve(system, k, trace):
    """solve_fixed_k at k, with (k, E) appended to trace."""
    E, c, K_q, P_q, residual = solve_fixed_k(system, k)
    trace.append((k, E))
    return E, c, K_q, P_q, residual


def _finish(system, k_opt, iterations, trace, slope):
    """The state at k_opt, with the a-posteriori error |h(k_opt) / slope|."""
    E, c, K_q, P_q, residual = _traced_solve(system, k_opt, trace)
    h = -P_q / (2 * K_q) - k_opt
    return VariationalResult(
        energy=E, k_opt=k_opt, coeffs=system.coefficients(c),
        n_basis=system.n, iterations=iterations, residual=residual,
        trace=trace, k_err=abs(h / slope))


def ground_state_pair(systems):
    """Clamped-nucleus and moving-nucleus ground states of build_systems'
    "inf" and "0" systems.

    Each Hamiltonian gets its own converged exponent; sharing k would spoil
    neither below the parabola's curvature but the independent optimum is
    the cleaner definition.
    """
    return tuple(optimize_k(systems[label]) for label in ("inf", "0"))
