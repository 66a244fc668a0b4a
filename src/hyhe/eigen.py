"""Generalized eigensolve and exponent optimization at arbitrary precision.

The variational problem is min over (c, k) of the Rayleigh quotient
E(k, c) = (k^2 c'Kc + k c'Pc) / c'Wc.  For fixed k this is the symmetric
generalized eigenproblem of the pencil (A(k), W), A(k) = k^2 K + k P.  Each
solve works with B(k) = k K + P instead: (B, W) has A's eigenvectors and
theta_A = k theta_B.

The pencil is solved as it stands, with no reduction.  Each form arrives
from the assembly as exact ints over its own minimal denominator (every
matrix the program builds has a power-of-two denominator of at most 256 and
numerators of at most 37 bits at N = 50), and K_0 = ((M + 1) K + M_pol) / M
is formed exactly from M's exact value.  One Hamiltonian's W, P and K (or
K_0) are split into int64 limbs of b = 63 - bitlen(n 2**18) bits (_limbs;
39 at N = 50, one limb for W, P or K and two for K_0), and a vector entry
of at most 54 bits into three of 18, so a sum of n limb products stays
below n 2**(b + 18) < 2**63: one int64 matmul of the two, joined on
Python ints, gives Wv, Pv and Kv exactly (_matvecs; the operand splitting
of K. Ozaki et al., Numer. Algorithms 59, 95 (2012)).

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
F = mp.prec + 32, so the n^2 products of a step run in int64.  The state
leaves the kernel as those ints, with F beside them
(VariationalResult.frac_bits), and the expectation routes in matrices read
it as it is; energies and exponents leave as mpf at the working precision.

A step gains about log2(gap / (n eps |B| cond(W))) bits, so the
conditioning of W, not the precision, sets how much each step gains.  With
cond_bits = floor(log2(max W_jj / min pivot)) read off the float64
factor, a solve takes at 50 / 100 digits 4 / 9 steps at N = 20
(cond_bits 17), 5 / 11 at N = 40 (28), 6 / 12 at N = 50 (30), 10 / 21 at
N = 95 (43) and 16 / 33 at N = 125 (50).  A step that fails to shrink the
correction _MIN_SHRINK-fold raises ConvergenceError naming cond_bits: past
cond_bits ~ 50 (N ~ 125 on the graded basis) float64 no longer resolves W,
and there is no other solver to fall back on.

The exponent is the root of h = g - k, g = -c'Pc / (2 c'Kc) at the ground
state c of k, where E is stationary in k (the virial condition).  Wc, Pc
and Kc do not depend on k, so the search runs in the same correction loop
(_refine): each step is Newton's on the pair (c, k), with the derivative
dc/dk = -R (K - K_q W) c and h' from the same float64 eigenbasis, and k
moves between two steps at no matvec; k stays on the grid 2**-F, and
each step's k step is an exact quotient on ints (_fixed_quotient).  The
loop starts at the root k_f of a float64 Newton iteration on the float
forms, h and h' from one eigh per step (_float_step), which stops once a
step is within 1e-8 k: 4 to 6 eighs from k = 2 at N = 20 to 80.  The
moving-nucleus search starts at mu k_opt(inf) instead, mu = M / (M + 1),
which is its root with mass polarization zeroed and within 4e-5 k of it
with it, so its float root takes 2 eighs (ground_state_pair).  k_f lies
within about 1e-10 k of the true root at N <= 50 (6e-8 k at N = 95, where
the float forms carry the float64 factor's error), and a k step longer
than 1e-8 k takes a new eigenbasis.  So a search costs about the steps of
one fixed-k solve (6 at N = 40 and 50 digits, 13 at 100 digits) and ends
with k converged to the working precision, k_err at most about
2**-prec k.

The bases are nested prefixes, the limbs are read entry by entry and T is
lower triangular, so the leading n x n blocks of the limbs, T and the float
forms serve the n-term prefix: one stage at the largest size serves every
smaller one (PencilSystem.leading).
"""

import math
import sys
from dataclasses import dataclass, field
from operator import mul

import numpy as np
from mpmath import mp

# Guard bits above mp.prec in the fixed-point scale of the coefficients,
# which the expectation sums in matrices keep.  A prefix sum to n carries at
# most n/2 ulps (n <= 17 at N = 50), and the <p^4> channel sum cancels by a
# factor of ~70 at N = 50; 32 bits cover both.
_GUARD_BITS = 32
# The float64 eigenbasis must resolve the lowest gap by this many bits.
_SEED_BITS = 20
# Each correction after the first must be this many times smaller than the
# one before; a solve thus takes at most about F / 4 steps.
_MIN_SHRINK = 16
# The widest entry _chunk makes, in bits, and its three limbs (the top signed)
_CHUNK_BITS = 54
_CHUNK_LIMB = _CHUNK_BITS // 3
_CHUNK_SHIFTS = np.arange(0, _CHUNK_BITS, _CHUNK_LIMB)
_CHUNK_MASKS = np.array([(1 << _CHUNK_LIMB) - 1] * 2 + [-1])
# Newton steps the float64 search may take before it counts as failed.
_FLOAT_MAX_STEPS = 16
# A float64 eigenbasis serves the correction loop within this distance
# (relative to k) of the k it was taken at; a longer k step takes a new one.
_FLOAT_ACCEPT = 1e-8
# The k-search's start, and the centre of the float seed's bracket
# [_K_INIT / 3, 3 _K_INIT].
_K_INIT = 2.0


class AssemblyError(ValueError):
    """The quadratic forms violate a structural requirement (e.g. K <= 0)."""


class ConvergenceError(RuntimeError):
    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace or []


@dataclass
class VariationalResult:
    energy: object            # mpf
    k_opt: object             # mpf, the loop's k at 2**-frac_bits exactly
    coeffs: list              # ints at 2**frac_bits, c'Wc = 1, c[0] >= 0
    frac_bits: int            # F of the fixed-point coeffs
    iterations: int           # correction steps of the search
    # ||Bc - theta Wc||_{W^-1} / (||c||_W ||B||), B = kK + P and ||B|| the
    # row-sum norm of T B T'
    residual: object
    trace: list = field(default_factory=list)   # [(k, E)] after each step
    k_err: object = None      # bound on |k_opt - the root| (mpf)
    energy_err: object = None   # bound on |energy - the pencil's E| (mpf)
    eighs: int = 0            # float64 eighs: seed steps plus loop bases


def _exact(v):
    """v as an exact (numerator, denominator) int pair in lowest terms, the
    denominator positive: an mpf by its mantissa and exponent, a float by
    its integer ratio, a str as a decimal literal ("7294.299508",
    "-7.294299508E3", "1e3"), and an int or Fraction by its numerator and
    denominator.  A str that is no decimal literal raises ValueError."""
    if isinstance(v, mp.mpf):
        man, exp = v.man_exp        # man is the magnitude, and odd
        if v < 0:
            man = -man
        return (man << exp, 1) if exp >= 0 else (man, 1 << -exp)
    if isinstance(v, float):
        return v.as_integer_ratio()
    if isinstance(v, str):
        mant, _, exp = v.strip().lower().partition("e")
        whole, _, frac = mant.partition(".")
        p, e = int(whole + frac), int(exp or 0) - len(frac)
        if e >= 0:
            return p * 10 ** e, 1
        g = math.gcd(p, 10 ** -e)
        return p // g, 10 ** -e // g
    return v.numerator, v.denominator


def fixed(q, F):
    """round(q * 2**F), a tie rounded up, for an exact rational q as a
    (numerator, denominator) int pair with a positive denominator."""
    p, d = q
    return ((p << (F + 1)) // d + 1) >> 1


def fixed_mpf(v, F):
    """round(v * 2**F) for a real v that mp.mpf accepts; keeps the sign."""
    return fixed(_exact(mp.mpf(v)), F)


def _fixed_quotient(a, t, h, b):
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


def _limbs(values, bound):
    """(L, bits): int64 limbs L, shape (m, len(values)), values[i] = sum_j
    L[j, i] 2**(bits j), |L| < 2**bits, with bits = 63 - bound.bit_length():
    limbs times ints whose magnitudes add to at most bound sum in int64."""
    bits = 63 - bound.bit_length()
    mask, L = (1 << bits) - 1, []
    while max(map(abs, values)) >> bits:
        L.append([v & mask for v in values])
        values = [v >> bits for v in values]
    return np.array(L + [values], np.int64), bits


def _join(L, bits):
    """The list of ints sum_j L[j] 2**(bits j) of limbs L (_limbs)."""
    acc = [0] * len(L[0])
    for limb in L[::-1].tolist():
        acc = [(a << bits) + x for a, x in zip(acc, limb)]
    return acc


def _matvecs(system, v, shift=0):
    """The lists (Wv, Pv, Kv) 2**shift of exact ints, for an int64 vector v
    with |v| < 2**_CHUNK_BITS (a _chunk): one int64 matmul of the system's
    limb stack with v's three limbs, each at most 2**_CHUNK_LIMB in
    magnitude, as the stack's limb width allows (bound n 2**_CHUNK_LIMB)."""
    X = (system.stack @ (v[:, None] >> _CHUNK_SHIFTS & _CHUNK_MASKS)).tolist()
    s1, s2, bits, out = _CHUNK_LIMB, 2 * _CHUNK_LIMB, system.bits, []
    for m in system.limbs:
        acc = [0] * system.n
        for rows in reversed(X[:m]):
            acc = [(a << bits) + x + (y << s1) + (z << s2)
                   for a, (x, y, z) in zip(acc, rows)]
        out.append([a << shift for a in acc])
        X = X[m:]
    return out


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

    stack holds the exact numerators of W, P and K (K_0 for "0"), in that
    order, as limbs = (m_W, m_P, m_K) int64 limb matrices of width `bits`
    (_limbs), over their own `denominators` (D_W, D_P, D_K).  T is the
    float64 inverse factor of W (_inverse_factor); K_float = T K T' and
    P_float = T P T' are the float forms whose eigenbasis seeds each solve
    and carries its corrections.  cond_bits = floor(log2(max W_jj / min
    pivot)), pivot_j = 1 / T_jj^2, is the float64 estimate of W's
    conditioning.  frac_bits = mp.prec + _GUARD_BITS is the fixed-point
    scale of the solve's coefficients at the current precision.  mu is the
    reduced mass M / (M + 1) in float64 on the "0" system, None on "inf".
    """

    def __init__(self, stack, bits, limbs, denominators, T, K_float,
                 P_float, label="", mu=None):
        self.stack = stack
        self.n = stack.shape[1]
        self.bits = bits
        self.limbs = limbs
        self.denominators = denominators
        self.T = T
        self.K_float = K_float
        self.P_float = P_float
        self.label = label
        self.mu = mu
        w_max = max(_join(np.diagonal(stack[:limbs[0]], 0, 1, 2), bits))
        self.cond_bits = math.floor(math.log2(
            w_max / denominators[0] * (T.diagonal() ** 2).max()))

    @property
    def frac_bits(self):
        return mp.prec + _GUARD_BITS

    def leading(self, n):
        """The system of the first n basis terms.

        The stack's leading blocks are the prefix's exact forms (over the
        stage's denominators and limb width, which holds for fewer terms),
        and T's leading block is the prefix's inverse factor.  n must lie
        in 1 ... self.n: a stage serves no larger basis than its own.
        """
        if not 1 <= n <= self.n:
            raise ValueError(f"leading({n}) of a {self.n}-term system: "
                             f"need 1 <= n <= {self.n}")
        if n == self.n:
            return self
        return PencilSystem(np.ascontiguousarray(self.stack[:, :n, :n]),
                            self.bits, self.limbs, self.denominators,
                            self.T[:n, :n], self.K_float[:n, :n],
                            self.P_float[:n, :n], label=self.label,
                            mu=self.mu)


def _moving_nucleus_form(K, M_pol, M):
    """K_0 = ((M + 1) K + M_pol) / M as (ints, D), from the (ints, D) forms
    K and M_pol and M as an exact (numerator, denominator) pair."""
    (K, DK), (M_pol, DM), (p, q) = K, M_pol, M
    D = math.lcm(DK, DM)
    a, b = (p + q) * (D // DK), q * (D // DM)
    return ([[a * x + b * y for x, y in zip(rk, rm)]
             for rk, rm in zip(K, M_pol)], p * D)


def _float_form(A, D):
    """The float64 matrix A / D of ints over D, each entry rounded once
    (int / int stays in range where D and A are beyond float64, as K_0's
    are for an mpf mass ratio at high precision)."""
    return np.array([[v / D for v in row] for row in A])


def build_systems(matrices, mass_ratio=None):
    """Split the operator pencil into int64 limbs and factor W in float64:
    the "inf" system always, and the "0" system too when given a mass ratio.

    "inf" is the clamped-nucleus problem (kinetic matrix alone); "0" folds
    nuclear motion in: K_0 = (1 + 1/M) K + (1/M) M_pol, which inherits the
    k^2 scaling tag, so the same Rayleigh-quotient machinery applies.

    Every form is read as the assembly gives it, exact ints over its own
    denominator; K_0 is formed exactly from K, M_pol and M = mass_ratio
    (str, int or mpf, read by _exact), so a mass ratio needs matrices
    assembled with mass polarization.  The "0" system carries the reduced
    mass mu = M / (M + 1), which seeds its k-search (ground_state_pair).  Each
    system stacks the int64 limbs (_limbs) of W, P and its K, all at the
    one width that holds n products with a _CHUNK_LIMB-bit chunk limb.  The
    systems share T and P_float.
    """
    if mass_ratio is not None and matrices.M_pol is None:
        raise ValueError("nuclear-motion Hamiltonian needs M_pol: assemble "
                         "with mass_polarization=True")
    (W, DW), (P, DP) = matrices.W, matrices.P
    n = len(W)
    T = _inverse_factor(_float_form(W, DW))

    def limbs(A):
        L, bits = _limbs([v for row in A for v in row], n << _CHUNK_LIMB)
        return L.reshape(-1, n, n), bits

    def congruence(A, D):
        A = _float_form(A, D)
        return np.array([T @ (A @ t) for t in T])

    P_float = congruence(P, DP)
    (LW, _), (LP, _) = limbs(W), limbs(P)

    def system(form, label, mu=None):
        K, DK = form
        LK, bits = limbs(K)
        return PencilSystem(np.concatenate((LW, LP, LK)), bits,
                            (len(LW), len(LP), len(LK)), (DW, DP, DK), T,
                            congruence(K, DK), P_float, label=label, mu=mu)

    systems = {"inf": system(matrices.K, "inf")}
    if mass_ratio is not None:
        p, q = M = _exact(mass_ratio)
        form = _moving_nucleus_form(matrices.K, matrices.M_pol, M)
        systems["0"] = system(form, "0", p / (p + q))
    _debug("stage: n=%d cond_bits=%d", n, systems["inf"].cond_bits)
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
    """(ints, shift), shift >= 0, with the int64 array ints * 2**shift the
    float64 vector d * 2**scale on the integer grid.

    The ints keep the 53 bits of the largest entry's float64 mantissa (one
    more if rounding carries); where the shift would go negative they are d
    rounded to the grid instead, and narrower still.
    """
    e = max(math.frexp(float(np.abs(d).max()))[1] - 53, -scale)
    return np.rint(np.ldexp(d, -e)).astype(np.int64), scale + e


def _dot(u, v):
    return sum(map(mul, u, v))


def _float_vector(v):
    """(x, s) with the float64 array x 2**s the ints v to ~60 significant
    bits, so float() stays finite at any F."""
    s = max(0, max(map(abs, v)).bit_length() - 60)
    return np.array([float(u >> s) for u in v]), s


def _refine(system, k, trace=None):
    """The correction loop on the pencil (B, W), B = k K + P: (kq, theta, c,
    K_q, residual, steps, k_err, energy_err, eighs), kq, theta = c'Bc / c'Wc
    and K_q = c'Kc / c'Wc at scale 2**F and c with c'Wc = 1 at scale 2**F,
    as ints, F = system.frac_bits, and eighs the float64 eigenbases taken.

    B is never built; each chunk of c updates the exact accumulators Wc, Pc
    and Kc by one _matvecs.  R = sum_{i>=1} u_i u_i' / (mu_i - theta)
    is the approximate inverse from float64 eigh of k K_float + P_float,
    and each step corrects c by dc_r = -R r, r = Bc - theta Wc on the ints.
    With a trace, k is free: once per eigenbasis the loop takes
    dc_K = -R (Kc - K_q Wc), grad g from float copies of Pc and Kc and
    h' = grad g . dc_K - 1; each step takes h = g - k on the ints,
    dk = -(h + grad g . dc_r) / h' rounded to the grid 2**-F exactly on
    ints (_fixed_quotient) and the chunk dc_r + dk dc_K, and appends and
    logs (k, E), the only mpf a step makes.  A k step over _FLOAT_ACCEPT k
    takes a new eigenbasis; k_err = |h / h'| + |dk| + 2**-F k, dk the
    unapplied last step, bounds k's distance to the root (None at fixed k).
    energy_err bounds how far E = k theta lies from the pencil's lowest
    eigenvalue at k (from its minimum over k, with k free): Kato-Temple's
    ||r||_{W^-1}^2 / gap, from the last residual T r and the float64 gap
    at hand, so it costs no matvec, eigh or solve.

    It stops once a chunk is at most max|c| 2**-prec and |dk| at most
    k 2**-prec.  A gap the float64 eigenbasis cannot resolve by _SEED_BITS
    bits raises, as does a correction that fails to shrink _MIN_SHRINK-fold
    from the one before in one eigenbasis (W too ill-conditioned for
    float64).  c is normalized once, at exit.
    """
    n, F = system.n, system.frac_bits
    DW, DP, DK = system.denominators
    T, prec = system.T, mp.prec
    kq = fixed_mpf(k, F)
    # c, Wc, Pc and Kc at scale 2**F; r and r_K at scale 4**F D,
    # D = DW DP DK; u_i'r = v_i'(T r) and sum_i u_i y_i = (V y)'T
    D = DW * DP * DK
    e = max(0, D.bit_length() - 64)
    D_f = D / (1 << e)              # D = D_f 2**e with D_f in float range

    def eigenbasis():
        kf = kq / (1 << F)
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
                    "eigenbasis resolves", trace=trace)
        return B_float, evecs[:, 0], evecs[:, 1:], evals[1:]

    def project(v):
        """(x, t, Tv) with R v / (D 2**F) = x 2**t, for v at scale 4**F D:
        the correction in units of c's ints."""
        v_f, s = _float_vector(v)
        Tv = T @ v_f
        x = (V1 @ ((Tv @ V1) / (lam - theta / (1 << F)))) @ T
        return x / D_f, s - F - e, Tv

    # A fresh eigh at k, although _float_root has just taken one within
    # _FLOAT_ACCEPT k of it: started from the seed's last eigenbasis, the
    # loop took more steps (6 / 6 -> 9 / 9 per search at N = 40 and 50
    # digits), which cost more than the eigh saves.
    B_float, v0, V1, lam = eigenbasis()
    eighs = 1
    dc, shift = _chunk(v0 @ T, F)
    c = [v << shift for v in dc.tolist()]
    Wc, Pc, Kc = _matvecs(system, dc, shift)
    tol = max(map(abs, c)) >> prec
    slope = None                    # (grad g, x_K, t_K, h') of the eigenbasis
    last, steps, k_err = None, 0, None
    while True:
        cW, cK, cP = _dot(c, Wc), _dot(c, Kc), _dot(c, Pc)
        if cK <= 0:
            K_q = mp.nstr(mp.mpf(cK * DW) / (cW * DK), 8)
            raise AssemblyError(f"kinetic quadratic form is not positive "
                                f"(K_q = {K_q}); operator assembly is broken")
        theta = (((kq * cK * DP + (cP * DK << F)) * DW)
                 // (cW * DK * DP))
        if steps and trace is not None:
            trace.append((to_mpf(kq, F), to_mpf((kq * theta) >> F, F)))
            _debug("k-search %s: step k=%s E=%s dc=2^%d", system.label,
                   *trace[-1], size.bit_length() - tol.bit_length() - prec)
        tW = theta * DK * DP
        r = [kq * DW * DP * x + (DW * DK * y << F) - tW * z
             for x, y, z in zip(Kc, Pc, Wc)]
        x_r, t_r, Tr = project(r)
        d, t, dkq = x_r, t_r, 0
        if trace is not None:
            if slope is None:
                K_q = (cK * DW << F) // (cW * DK)
                x_K, t_K, _ = project([(DW * DP * y << F) - K_q * DK * DP * z
                                       for y, z in zip(Kc, Wc)])
                # grad g = 2 g (Pc / c'Pc - Kc / c'Kc), per unit of c
                xP, sP = _float_vector(Pc)
                xK, sK = _float_vector(Kc)
                g = (-cP * DK) / (2 * cK * DP)
                grad = 2 * g * (xP / (cP / (1 << (sP + F)))
                                - xK / (cK / (1 << (sK + F))))
                dh = -math.ldexp(float(grad @ x_K), t_K - F) - 1
                slope = grad, x_K, t_K, dh
            grad, x_K, t_K, dh = slope
            h = ((-cP * DK << F) // (2 * cK * DP)) - kq
            dkq = _fixed_quotient(float(grad @ x_r), t_r, h, dh)
            # dk = m 2**ex, m from dkq's leading 60 bits
            s = max(0, dkq.bit_length() - 60)
            m, ex = math.frexp(float(dkq >> s))
            ex += s - F
            t = max(t_r, t_K + ex)
            d = np.ldexp(x_r, t_r - t) + np.ldexp(m * x_K, t_K + ex - t)
        dc, shift = _chunk(d, t)
        size = int(np.abs(dc).max()) << shift
        if size <= tol and abs(dkq) <= kq >> prec:
            break
        if last is not None and size * _MIN_SHRINK > last:
            raise ConvergenceError(
                f"eigenpair correction at k={mp.nstr(to_mpf(kq, F), 17)} "
                f"did not converge: step {steps + 1} shrank it less than "
                f"{_MIN_SHRINK}-fold, with cond_bits={system.cond_bits} "
                "(float64 resolves W only to about 50)", trace=trace)
        last, steps = size, steps + 1
        c = [x - (y << shift) for x, y in zip(c, dc.tolist())]
        Wc, Pc, Kc = ([x - y for x, y in zip(acc, part)] for acc, part
                      in zip((Wc, Pc, Kc), _matvecs(system, dc, shift)))
        kq += dkq
        if dkq and abs(dkq) / kq > _FLOAT_ACCEPT:
            B_float, _, V1, lam = eigenbasis()
            slope, last, eighs = None, None, eighs + 1
    K_q = (cK * DW << F) // (cW * DK)
    # norm = ||c||_W at scale 4**F; Tr at scale 2**(2F - s) D, and
    if trace is not None:   # dk: the last Newton step's c term, unapplied
        k_err = (abs(to_mpf(h, F) / dh) + to_mpf(abs(dkq), F)
                 + mp.ldexp(kq, -2 * F))
    # W^-1 ~ T'T, so r_W = ||r||_{W^-1} / ||c||_W
    norm = math.isqrt((cW << 2 * F) // DW)
    r_W = mp.ldexp(mp.mpf(float(np.linalg.norm(Tr)) / D_f), t_r + F) / norm
    b_norm = max(float(np.abs(B_float).sum(axis=1).max()), 1.0)
    # Kato-Temple: theta lies within r_W**2 / gap of the pencil's lowest
    # eigenvalue, gap = mu_1 - theta off the float eigenbasis, taken at half
    # to cover its float64 error and the k steps since the eigh.  E = k theta
    # adds its rounding and, off the root, E'' k_err**2 / 2, E'' = -2 K_q h'.
    E = to_mpf((kq * theta) >> F, F)
    energy_err = abs(E) * mp.eps
    if n > 1:
        gap = float(lam[0]) - theta / (1 << F)
        energy_err += 2 * (kq / (1 << F)) * r_W ** 2 / gap
    if trace is not None:
        energy_err += to_mpf(K_q, F) * abs(slope[3]) * k_err ** 2
    c = [(v << 2 * F) // norm for v in c]
    return kq, theta, c, K_q, r_W / b_norm, steps, k_err, energy_err, eighs


def solve_fixed_k(system, k):
    """Ground state at fixed exponent: (E, c, K_q, P_q, residual).

    c holds the coefficients, c'Wc = 1, as fixed-point ints at scale
    2**system.frac_bits; the rest are mpf.  E = k theta_B, K_q = c'Kc / c'Wc
    and P_q = theta_B - k K_q, all on the ints.  It runs optimize_k's
    correction loop with k held fixed.
    """
    kq, theta, c, K_q, residual, *_ = _refine(system, k)
    F = system.frac_bits
    P_q = theta - ((kq * K_q) >> F)
    E = to_mpf((kq * theta) >> F, F)
    return E, c, to_mpf(K_q, F), to_mpf(P_q, F), residual


def _float_step(system, k):
    """(h, h') at k on the float64 forms, from one eigh of k K + P.

    h = g - k with g = -x'Px / (2 x'Kx) at the ground vector x.  In the
    eigenbasis (mu_i, v_i) of B(k) = k K + P the ground vector moves as
    x' = -sum_{i>=1} v_i v_i'K x / (mu_i - mu_0), which is
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
    return (float(-P_q / (2 * K_q) - k),
            float(-(dP_q * K_q - P_q * dK_q) / (2 * K_q * K_q) - 1))


def _float_root(system, k_init):
    """(k_f, steps): the root k_f of h(k) = g(k) - k on the float64 forms,
    None on failure, and the eighs the search took.

    Newton's method from k_init with h and h' from _float_step, one eigh
    per step; it returns k + dk once |dk| is within _FLOAT_ACCEPT of k,
    where the correction loop takes over: 4 to 6 steps from k = 2 at
    N = 20 to 80, 2 from the moving nucleus's seed mu k_inf
    (ground_state_pair).  It fails on an iterate outside
    [k_init/3, 3 k_init], which a non-finite step also fails, on a
    LinAlgError or a zero h', and after _FLOAT_MAX_STEPS steps.
    """
    k, steps = k_init, 0
    try:
        for steps in range(1, _FLOAT_MAX_STEPS + 1):
            h, dh = _float_step(system, k)
            dk = -h / dh
            k += dk
            if not k_init / 3 <= k <= 3 * k_init:
                break
            if abs(dk) <= _FLOAT_ACCEPT * k:
                _debug("k-search %s: float seed k_f=%r F=%d steps=%d",
                       system.label, k, system.frac_bits, steps)
                return k, steps
    except (np.linalg.LinAlgError, ZeroDivisionError):
        pass
    return None, steps


def optimize_k(system, k_inf=None):
    """Drive k to the self-consistent exponent and return the ground state.

    The search starts at mu k_inf on a system with a reduced mass mu (the
    "0" system) when given k_inf, the clamped nucleus's k_opt
    (ground_state_pair), and at _K_INIT otherwise.  The correction loop
    (_refine) runs with k free from the float64 root k_f that Newton's
    method finds from the start (_float_root), or from the start itself
    when that fails, and converges k with c to the working precision.  c is
    signed so that c[0] >= 0; iterations counts the correction steps, eighs
    the float64 eighs of the seed and the loop, trace holds (k, E) after
    each step, k_err (_refine) bounds k_opt's error and energy_err the
    energy's.  The start, the float seed and each step are logged to the
    "hyhe" logger at DEBUG.
    """
    if k_inf is None or system.mu is None:
        k_init, start = _K_INIT, "k"
    else:
        k_init, start = system.mu * float(k_inf), "mu*k_inf"
    _debug("k-search %s: start %s=%r", system.label, start, k_init)
    k_f, seed_eighs = _float_root(system, k_init)
    if k_f is None:
        _debug("k-search %s: float root failed; starting at k=%r",
               system.label, k_init)
    trace = []
    kq, theta, c, K_q, residual, steps, k_err, energy_err, eighs = _refine(
        system, k_init if k_f is None else k_f, trace)
    F = system.frac_bits
    if c[0] < 0:
        c = [-v for v in c]
    with mp.workprec(kq.bit_length()):
        k_opt = to_mpf(kq, F)       # kq exactly, which k_err bounds
    return VariationalResult(
        energy=to_mpf((kq * theta) >> F, F), k_opt=k_opt, coeffs=c,
        frac_bits=F, iterations=steps, eighs=seed_eighs + eighs,
        residual=residual, trace=trace, k_err=k_err, energy_err=energy_err)


def ground_state_pair(systems):
    """Clamped-nucleus and moving-nucleus ground states of build_systems'
    "inf" and "0" systems.

    Each Hamiltonian gets its own converged exponent; sharing k would spoil
    neither below the parabola's curvature but the independent optimum is
    the cleaner definition.  The clamped search starts at _K_INIT, the
    moving-nucleus one at mu k_opt(inf), mu = M / (M + 1): with M_pol = 0,
    K_0 = K / mu and k_0 = mu k_inf exactly (H. A. Bethe and E. E.
    Salpeter, Quantum Mechanics of One- and Two-Electron Atoms, 1957), and
    mass polarization moves the root by 4e-6 to 4e-5 k at N = 3 to 50, so
    its float64 root takes 2 eighs instead of 4 to 6.
    """
    res_inf = optimize_k(systems["inf"])
    return res_inf, optimize_k(systems["0"], res_inf.k_opt)
