"""Generalized eigensolve and exponent optimization at arbitrary precision.

The variational problem is min over (c, k) of the Rayleigh quotient
E(k, c) = (k^2 c'Kc + k c'Pc) / c'Wc.  For fixed k this is the symmetric
generalized eigenproblem of the pencil (A(k), W), A(k) = k^2 K + k P.  Each
solve works with B(k) = k K + P instead: (B, W) has A's eigenvectors and
theta_A = k theta_B.

The pencil is solved as it stands, with no reduction.  Its matrices
arrive from the assembly as exact (ints, D) pairs (hyhe.exact), and
K_0 = ((M + 1) K + M_pol) / M is formed exactly from M's exact value.  One
Hamiltonian's W, P and K (or K_0) are split into one exact.Stack, in int64
limbs that leave room for a chunk's 18-bit limbs, so one int64 matmul with
a chunk's limbs gives Wv, Pv and Kv exactly (Stack.matvecs).

float64 carries the rest.  numpy's Cholesky of the diagonally scaled W,
W_ij / sqrt(W_ii W_jj) = Lf Lf', inverted by forward substitution, gives
T = Lf^{-1} S, S = diag(W_jj^{-1/2}), with T W T' = I to float64 accuracy,
and the float forms K_float = T K T' and P_float = T P T'.  At each k,
float64 eigh of k K_float + P_float gives (mu_i, v_i), and the columns u_i
of T'V approximate the pencil's eigenvectors.  The solve is iterative
refinement (N. J. Higham, Accuracy and Stability of Numerical Algorithms,
SIAM 2002, ch. 12): it seeds c = u_0, keeps Wc, Pc and Kc as exact
integer accumulators, and each step takes theta = c'Bc / c'Wc and
r = Bc - theta Wc exactly on the ints and adds the correction
-sum_{i>=1} u_i (u_i'r) / (mu_i - theta), the lowest mode projected out.
c is a sum of float64-sized chunks at scale 2**F, F = mp.prec + 32, and
leaves the kernel as those ints with F (VariationalResult.frac_bits);
energies and exponents leave as mpf at the working precision.

A step gains about log2(gap / (n eps |B| cond(W))) bits, so the
conditioning of W, not the precision, sets the step count.  With
cond_bits = floor(log2(max W_jj / min pivot)) of the float64 factor, a
solve takes at 50 / 100 digits 4 / 9 steps at N = 20 (cond_bits 17),
5 / 11 at N = 40 (28), 6 / 12 at N = 50 (30), 10 / 21 at N = 95 (43) and
16 / 33 at N = 125 (50).  A step that fails to shrink the correction
_MIN_SHRINK-fold raises ConvergenceError naming cond_bits: past
cond_bits ~ 50 (N ~ 125) float64 no longer resolves W, and there is no
other solver to fall back on.

The exponent is the root of h = g - k, g = -c'Pc / (2 c'Kc) at the ground
state c of k, where E is stationary in k (the virial condition).  Wc, Pc
and Kc do not depend on k, so the search runs in the same correction loop
(_refine): each step is Newton's on the pair (c, k), with dc/dk =
-R (K - K_q W) c and h' from the same float64 eigenbasis, and k moves
between two steps at no matvec, on the grid 2**-F (fixed_quotient).  The
loop starts at the root k_f of a float64 Newton iteration on the float
forms (_float_root), within about 1e-10 k of the true root at N <= 50
(6e-8 k at N = 95, where the float forms carry the float64 factor's
error), and a k step longer than 1e-8 k takes a new eigenbasis.  So a
search costs about the steps of one fixed-k solve (6 at N = 40 and 50
digits, 13 at 100 digits) and ends with k converged to the working
precision, k_err at most about 2**-prec k.

The bases are nested prefixes and T is lower triangular, so the leading
blocks of a stage's stack, T and float forms serve every smaller basis as
views (PencilSystem.leading).
"""

import math
from dataclasses import dataclass, field

import numpy as np
from mpmath import mp

from . import debug
from .exact import (CHUNK_LIMB, GUARD_BITS, Stack, chunk, dot, fixed_mpf,
                    fixed_quotient, rational, to_mpf)

# The float64 eigenbasis must resolve the lowest gap by this many bits.
_SEED_BITS = 20
# Each correction after the first must be this many times smaller than the
# one before; a solve thus takes at most about F / 4 steps.
_MIN_SHRINK = 16
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

    stack is the exact.Stack of W, P and K (K_0 for "0"), in turn.  T is
    the float64 inverse factor of W (_inverse_factor); K_float = T K T' and
    P_float = T P T' are the float forms whose eigenbasis seeds each solve
    and carries its corrections.  With W_diag the float64 diagonal of W,
    cond_bits = floor(log2(max W_jj / min pivot)), pivot_j = 1 / T_jj^2,
    is the float64 estimate of W's conditioning.  frac_bits = mp.prec +
    GUARD_BITS is the fixed-point scale of the solve's coefficients.  mu is
    the reduced mass M / (M + 1) in float64 on "0", None on "inf".
    """

    def __init__(self, stack, T, K_float, P_float, W_diag, label="",
                 mu=None):
        self.stack, self.n = stack, stack.n
        self.T, self.K_float, self.P_float = T, K_float, P_float
        self.W_diag, self.label, self.mu = W_diag, label, mu
        self.cond_bits = math.floor(math.log2(
            W_diag.max() * (T.diagonal() ** 2).max()))

    @property
    def frac_bits(self):
        return mp.prec + GUARD_BITS

    def leading(self, n):
        """The system of the first n basis terms, 1 <= n <= self.n, on views
        of this one's: the stack's leading blocks are the prefix's exact
        forms (at the stage's denominators and limb width), T's the
        prefix's inverse factor."""
        if not 1 <= n <= self.n:
            raise ValueError(f"leading({n}) of a {self.n}-term system: "
                             f"need 1 <= n <= {self.n}")
        return PencilSystem(self.stack.leading(n), self.T[:n, :n],
                            self.K_float[:n, :n], self.P_float[:n, :n],
                            self.W_diag[:n], label=self.label, mu=self.mu)


def _python_ints(ints):
    """A pair's ints as a list of Python ints."""
    return ints.tolist() if isinstance(ints, np.ndarray) else ints


def _moving_nucleus_form(K, M_pol, M):
    """K_0 = ((M + 1) K + M_pol) / M, the (ints, D) pair from the pairs K
    and M_pol and M as an exact (numerator, denominator) pair."""
    (p, q), (K, D_K), (M_pol, D_M) = M, K, M_pol
    D = math.lcm(D_K, D_M)
    a, b = (p + q) * (D // D_K), q * (D // D_M)
    return [a * x + b * y for x, y in zip(_python_ints(K),
                                          _python_ints(M_pol))], p * D


def _float_form(A):
    """The float64 n x n matrix of the (ints, D) pair A, each entry its int
    over D rounded once.  Over D = 2**e (W, P and K) the ints are made
    floats from a list of Python ints, each rounded once, and scaled by
    2**-e exactly: a cast inside a numpy ufunc would take a buffer that
    shows in a run's peak memory.  Over any other D (K_0) each int is
    divided (int / int stays in range where D and the ints are beyond
    float64, as K_0's are for an mpf mass ratio at high precision)."""
    ints, D = A
    n, ints = math.isqrt(len(ints)), _python_ints(ints)
    if D & (D - 1) == 0:
        return (np.array(ints, float).reshape(n, n)
                * 2.0 ** (1 - D.bit_length()))
    return np.array([v / D for v in ints]).reshape(n, n)


def build_systems(matrices, mass_ratio=None):
    """Stack the operator pencil's matrices and factor W in float64: the
    "inf" system always, and the "0" system too when given a mass ratio.

    "inf" is the clamped-nucleus problem (kinetic matrix alone); "0" folds
    nuclear motion in: K_0 = (1 + 1/M) K + (1/M) M_pol, which inherits the
    k^2 scaling tag.  The assembly's (ints, D) pairs are split into each
    system's Stack at CHUNK_LIMB; K_0 is formed exactly from K, M_pol and
    M = mass_ratio (str, int or mpf, read by rational), so a mass ratio
    needs M_pol.  The "0" system carries the reduced mass mu = M / (M + 1),
    which seeds its k-search (ground_state_pair).  The systems share T,
    P_float and W's float64 diagonal, which gives cond_bits.
    """
    if mass_ratio is not None and matrices.M_pol is None:
        raise ValueError("nuclear-motion Hamiltonian needs M_pol: assemble "
                         "with mass_polarization=True")
    W, P = matrices.W, matrices.P
    W_float = _float_form(W)
    T = _inverse_factor(W_float)
    W_diag = W_float.diagonal().copy()
    del W_float         # the n^2 floats go before the stacks are built

    def congruence(A):
        A = _float_form(A)
        return np.array([T @ (A @ t) for t in T])

    P_float = congruence(P)

    def system(K, label, mu=None):
        return PencilSystem(Stack.of([W, P, K], CHUNK_LIMB), T,
                            congruence(K), P_float, W_diag, label=label,
                            mu=mu)

    systems = {"inf": system(matrices.K, "inf")}
    if mass_ratio is not None:
        p, q = M = rational(mass_ratio)
        K_0 = _moving_nucleus_form(matrices.K, matrices.M_pol, M)
        systems["0"] = system(K_0, "0", p / (p + q))
    debug("stage: n=%d cond_bits=%d", len(T), systems["inf"].cond_bits)
    return systems


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
    and Kc by one matvecs of the system's stack.
    R = sum_{i>=1} u_i u_i' / (mu_i - theta) is the approximate inverse
    from float64 eigh of k K_float + P_float, and each step corrects c by
    dc_r = -R r, r = Bc - theta Wc on the ints.
    With a trace, k is free: once per eigenbasis the loop takes
    dc_K = -R (Kc - K_q Wc), grad g from float copies of Pc and Kc and
    h' = grad g . dc_K - 1; each step takes h = g - k on the ints,
    dk = -(h + grad g . dc_r) / h' on the grid 2**-F (fixed_quotient) and
    the chunk dc_r + dk dc_K, and appends and logs (k, E).  A k step over
    _FLOAT_ACCEPT k takes a new eigenbasis; k_err = |h / h'| + |dk| +
    2**-F k, dk the unapplied last step, bounds k's distance to the root
    (None at fixed k).  energy_err bounds how far E = k theta lies from the
    pencil's lowest eigenvalue at k (from its minimum over k, with k free):
    Kato-Temple's ||r||_{W^-1}^2 / gap, from the last residual T r and the
    float64 gap at hand.

    It stops once a chunk is at most max|c| 2**-prec and |dk| at most
    k 2**-prec.  A gap the float64 eigenbasis cannot resolve by _SEED_BITS
    bits raises, as does a correction that fails to shrink _MIN_SHRINK-fold
    from the one before in one eigenbasis (W too ill-conditioned for
    float64).  c is normalized once, at exit.
    """
    n, F = system.n, system.frac_bits
    DW, DP, DK = system.stack.denominators
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
    dc, shift = chunk(v0 @ T, F)
    c = [v << shift for v in dc.tolist()]
    Wc, Pc, Kc = ([a << shift for a in Av]
                  for Av in system.stack.matvecs(dc))
    tol = max(map(abs, c)) >> prec
    slope = None                    # (grad g, x_K, t_K, h') of the eigenbasis
    last, steps, k_err = None, 0, None
    while True:
        cW, cK, cP = dot(c, Wc), dot(c, Kc), dot(c, Pc)
        if cK <= 0:
            K_q = mp.nstr(mp.mpf(cK * DW) / (cW * DK), 8)
            raise AssemblyError(f"kinetic quadratic form is not positive "
                                f"(K_q = {K_q}); operator assembly is broken")
        theta = (((kq * cK * DP + (cP * DK << F)) * DW)
                 // (cW * DK * DP))
        if steps and trace is not None:
            trace.append((to_mpf(kq, F), to_mpf((kq * theta) >> F, F)))
            debug("k-search %s: step k=%s E=%s dc=2^%d", system.label,
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
            dkq = fixed_quotient(float(grad @ x_r), t_r, h, dh)
            # dk = m 2**ex, m from dkq's leading 60 bits
            s = max(0, dkq.bit_length() - 60)
            m, ex = math.frexp(float(dkq >> s))
            ex += s - F
            t = max(t_r, t_K + ex)
            d = np.ldexp(x_r, t_r - t) + np.ldexp(m * x_K, t_K + ex - t)
        dc, shift = chunk(d, t)
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
        Wc, Pc, Kc = ([x - (y << shift) for x, y in zip(acc, part)]
                      for acc, part
                      in zip((Wc, Pc, Kc), system.stack.matvecs(dc)))
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

    Newton's method from k_init, one eigh per step (_float_step); it
    returns k + dk once |dk| is within _FLOAT_ACCEPT of k: 4 to 6 steps
    from k = 2 at N = 20 to 80, 2 from the moving nucleus's seed mu k_inf
    (ground_state_pair).  It fails on an iterate outside [k_init/3,
    3 k_init] (a non-finite step too), on a LinAlgError or a zero h', and
    after _FLOAT_MAX_STEPS steps.
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
                debug("k-search %s: float seed k_f=%r F=%d steps=%d",
                      system.label, k, system.frac_bits, steps)
                return k, steps
    except (np.linalg.LinAlgError, ZeroDivisionError):
        pass
    return None, steps


def optimize_k(system, k_inf=None):
    """Drive k to the self-consistent exponent and return the ground state.

    The search starts at mu k_inf on the "0" system, with its reduced mass
    mu, when given k_inf, the clamped nucleus's k_opt, and at _K_INIT
    otherwise.  The correction loop (_refine) runs with k free from the
    float64 root k_f found from the start (_float_root), or from the start
    itself when that fails.  c is signed so that c[0] >= 0; eighs counts
    the float64 eighs of the seed and the loop.  The start, the float seed
    and each step are logged to the "hyhe" logger at DEBUG.
    """
    if k_inf is None or system.mu is None:
        k_init, start = _K_INIT, "k"
    else:
        k_init, start = system.mu * float(k_inf), "mu*k_inf"
    debug("k-search %s: start %s=%r", system.label, start, k_init)
    k_f, seed_eighs = _float_root(system, k_init)
    if k_f is None:
        debug("k-search %s: float root failed; starting at k=%r",
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

    Each Hamiltonian gets its own converged exponent.  The clamped search
    starts at _K_INIT, the moving-nucleus one at mu k_opt(inf),
    mu = M / (M + 1): with M_pol = 0, K_0 = K / mu and k_0 = mu k_inf
    exactly (H. A. Bethe and E. E. Salpeter, Quantum Mechanics of One- and
    Two-Electron Atoms, 1957), and mass polarization moves the root by 4e-6
    to 4e-5 k at N = 3 to 50, so its float64 root takes 2 eighs, not 4-6.
    """
    res_inf = optimize_k(systems["inf"])
    return res_inf, optimize_k(systems["0"], res_inf.k_opt)
