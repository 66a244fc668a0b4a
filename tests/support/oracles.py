"""Independent cross-checks of the pipeline: the referees, not the players.

The Cartesian probes work from electron position vectors and finite
differences, deliberately sharing no code with the closed-form integral
engine.

Also provides the one-parameter product-state (hydrogenic screening) limits,
where every pipeline quantity has a pencil-and-paper value; a standalone
float64 tensor quadrature built on numpy's Gauss rules (`support.integrals`
uses scipy's -- independent node/weight computations); a working-precision
Gauss rule with the 1/(s - t) corner split off by a Duffy transform, which
integrates the <p^4> channel integrands pointwise; the mpmath-matrix
Cholesky reduction and Rayleigh-quotient eigensolve that the exact-pencil
integer kernel in `hyhe.eigen` is checked against; and the plain
fixed-point k map, the reference for its secant search.

The Fraction-valued operator assembly is the reference for the integer
assembly in `hyhe.matrices`.  It keeps its own copy of the weight
polynomials and does all arithmetic in Fractions, pair by pair; it shares
only the polynomial primitives and the raw-moment closed form, which the
integral tests check against quadrature.

The mpf channel-series <p^4> and closed-form log-momentum routes after it
are the references for the fixed-point-int sums in `hyhe.matrices`.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from mpmath import mp

from hyhe.basis import padd, pdiff, pmul, pscale
from hyhe.eigen import ConvergenceError, _finish, solve_fixed_k
from hyhe.integrals import raw_moment
from hyhe.matrices import OperatorMatrices, _state_poly, reduced_laplacian

from .integrals import _mp_laguerre_rule, _mp_legendre_rule, log_raw_moment
from .matrices import angle_logmom_numerator, poly_function_mp


@dataclass(frozen=True)
class ElectronConfiguration:
    """Explicit electron positions (nucleus at the origin)."""

    r1: np.ndarray
    r2: np.ndarray


def stu_of(r1, r2):
    """Collective coordinates (s, t, u) of a configuration."""
    a = float(np.linalg.norm(r1))
    b = float(np.linalg.norm(r2))
    u = float(np.linalg.norm(np.asarray(r1) - np.asarray(r2)))
    return a + b, b - a, u


def random_configurations(count, seed=0, r_lo=0.3, r_hi=2.0, min_sep=0.3):
    """Reproducible generic configurations, kept away from coalescences."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        d1 = rng.normal(size=3)
        d2 = rng.normal(size=3)
        r1 = d1 / np.linalg.norm(d1) * rng.uniform(r_lo, r_hi)
        r2 = d2 / np.linalg.norm(d2) * rng.uniform(r_lo, r_hi)
        if np.linalg.norm(r1 - r2) < min_sep:
            continue
        out.append(ElectronConfiguration(r1=r1, r2=r2))
    return out


class CartesianProbe:
    """A trial state evaluated from raw positions, with FD derivatives.

    coeffs may be floats or mpf; everything is coerced to float64, which is
    plenty for finite-difference comparisons at 1e-6..1e-12.
    """

    def __init__(self, basis, coeffs, k):
        self.terms = [(t.l, 2 * t.m, t.n, float(c)) for t, c in zip(basis, coeffs)]
        self.k = float(k)

    def value_stu(self, s, t, u):
        ks, kt, ku = self.k * s, self.k * t, self.k * u
        tot = 0.0
        for l, tt, n, c in self.terms:
            tot += c * ks ** l * kt ** tt * ku ** n
        return tot * math.exp(-ks)

    def value(self, cfg):
        return self.value_stu(*stu_of(cfg.r1, cfg.r2))

    def _shifted(self, cfg, electron, axis, delta):
        r1 = np.array(cfg.r1, dtype=float)
        r2 = np.array(cfg.r2, dtype=float)
        (r1 if electron == 1 else r2)[axis] += delta
        return ElectronConfiguration(r1=r1, r2=r2)

    def laplacian_fd(self, cfg, electron=1, h=1e-3):
        """7-point Laplacian, Richardson-extrapolated (h and h/2)."""
        def lap(hh):
            tot = -6.0 * self.value(cfg)
            for axis in range(3):
                tot += self.value(self._shifted(cfg, electron, axis, +hh))
                tot += self.value(self._shifted(cfg, electron, axis, -hh))
            return tot / (hh * hh)
        coarse, fine = lap(h), lap(h / 2)
        return (4 * fine - coarse) / 3

    def grad12_dot_n_fd(self, cfg, h=1e-5):
        """n . (grad_1 - grad_2)/2 by Richardson central differences.

        n is the unit vector along r1 - r2; the h and h/2 stencils knock the
        error down to O(h^4) ~ 1e-12 analytically, roundoff-limited ~1e-9.
        """
        n = (cfg.r1 - cfg.r2) / np.linalg.norm(cfg.r1 - cfg.r2)

        def along(hh):
            fp1 = self.value(ElectronConfiguration(cfg.r1 + hh * n, cfg.r2))
            fm1 = self.value(ElectronConfiguration(cfg.r1 - hh * n, cfg.r2))
            fp2 = self.value(ElectronConfiguration(cfg.r1, cfg.r2 + hh * n))
            fm2 = self.value(ElectronConfiguration(cfg.r1, cfg.r2 - hh * n))
            return ((fp1 - fm1) - (fp2 - fm2)) / (4 * hh)
        coarse, fine = along(h), along(h / 2)
        return (4 * fine - coarse) / 3


def attraction_identity_residual(cfg):
    """|(1/r1 + 1/r2) u(s^2-t^2) - 4su| at a configuration.

    This is the algebraic cancellation that turns the nuclear attraction
    into a polynomial integrand; it must hold pointwise, not just under the
    integral sign.
    """
    r1 = float(np.linalg.norm(cfg.r1))
    r2 = float(np.linalg.norm(cfg.r2))
    s, t, u = stu_of(cfg.r1, cfg.r2)
    lhs = (1.0 / r1 + 1.0 / r2) * u * (s * s - t * t)
    return abs(lhs - 4.0 * s * u)


def direction_cosines(cfg):
    """(r1_hat . n, r2_hat . n) with n along r1 - r2, from raw vectors."""
    n = (cfg.r1 - cfg.r2) / np.linalg.norm(cfg.r1 - cfg.r2)
    c1 = float(np.dot(cfg.r1, n) / np.linalg.norm(cfg.r1))
    c2 = float(np.dot(cfg.r2, n) / np.linalg.norm(cfg.r2))
    return c1, c2


# ---------------------------------------------------------------------------
# product-state (single-term) closed forms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HydrogenicReference:
    """Closed forms for the bare e^{-k(r1+r2)} trial state."""

    k: object
    energy: object        # k^2 - (2Z - 5/8) k
    k_star: object        # Z - 5/16
    delta_r1: object      # k^3 / pi
    delta_r12: object     # k^3 / (8 pi)
    p4: object            # 5 k^4 (single electron)
    log_momentum: object  # k^3 (ln2/4 - 1/3 + ln(k)/4)


def hydrogenic_reference(k, Z=2):
    km = mp.mpf(k)
    return HydrogenicReference(
        k=km,
        energy=km ** 2 - (2 * Z - mp.mpf(5) / 8) * km,
        k_star=Z - mp.mpf(5) / 16,
        delta_r1=km ** 3 / mp.pi,
        delta_r12=km ** 3 / (8 * mp.pi),
        p4=5 * km ** 4,
        log_momentum=km ** 3 * (mp.ln(2) / 4 - mp.mpf(1) / 3 + mp.ln(km) / 4),
    )


# ---------------------------------------------------------------------------
# standalone quadrature (numpy Gauss rules; support.integrals uses scipy's)
# ---------------------------------------------------------------------------

def gauss_tensor_value(f, n=48):
    """One-shot float64 tensor quadrature of f(s,t,u) e^{-2s} over the domain."""
    xs, ws = np.polynomial.laguerre.laggauss(n)
    ys, wys = np.polynomial.legendre.leggauss(n)
    ys = 0.5 * (ys + 1.0)
    wys = 0.5 * wys
    s = xs[:, None, None] / 2.0
    u = ys[None, :, None] * s
    t = ys[None, None, :] * u
    w = (ws[:, None, None] / 2.0) * wys[None, :, None] * wys[None, None, :] * s * u
    return math.fsum((f(s, t, u) * w).ravel())


def duffy_quad_mp(f, nodes=12):
    """Gauss quadrature of f(s,t,u) e^{-2s} with the s = t corner split off.

    Under s = x/2, u = y s, t = z u the domain becomes x >= 0 and the unit
    square in (y, z), and s - t = s (1 - yz) vanishes only at y = z = 1.
    With a = 1 - y, b = 1 - z, 1 - yz = a + b - ab; the square is split at
    a = b and each half is mapped by a Duffy transform, a = b r on a < b
    and b = a r on a > b, so that 1 - yz = b (1 + r - b r) (resp. with a)
    and the Jacobian b (resp. a) cancels the 1/(s - t) edge.  The rest is
    smooth: Gauss-Laguerre in x and Gauss-Legendre in the (outer, r)
    square, ``nodes`` points each, at working precision.  f is called at
    points only, so this shares nothing with the channel closed forms.
    """
    xs, wxs = _mp_laguerre_rule(nodes)
    ps, wps = _mp_legendre_rule(nodes)
    corner = mp.mpf(0)
    for x, wx in zip(xs, wxs):
        s = x / 2
        half = mp.mpf(0)
        for p, wp in zip(ps, wps):
            for r, wr in zip(ps, wps):
                # (a, b) = (p r, p) and (p, p r); the Jacobian of either is p
                for a, b in ((p * r, p), (p, p * r)):
                    u = (1 - a) * s
                    half += wp * wr * p * u * f(s, (1 - b) * u, u)
        # ds du dt = (dx/2)(s dy)(u dz) with e^{-2s} = e^{-x}
        corner += wx * half * s / 2
    return corner


def duffy_p4_channels(basis, coeffs, nodes=12):
    """(I_minus, I_plus), the two <p^4> channel integrals at k = 1.

    I_minus integrates T^2 (s+t)/((s-t)u), the electron-1 piece, and I_plus
    its t-reflection, the electron-2 piece, with T = reduced_laplacian of
    the state; both go through duffy_quad_mp.  <p_1^4 + p_2^4> at exponent
    k is k^4 (I_minus + I_plus) / Wq.
    """
    T = poly_function_mp(reduced_laplacian(_state_poly(basis, coeffs)))

    def electron_1(s, t, u):
        v = T(s, t, u)
        return v * v * (s + t) / ((s - t) * u)

    return (duffy_quad_mp(electron_1, nodes),
            duffy_quad_mp(lambda s, t, u: electron_1(s, -t, u), nodes))


# ---------------------------------------------------------------------------
# mpmath reference eigensolve (the production kernel runs on fixed-point ints)
# ---------------------------------------------------------------------------

def to_mp(frac_matrix, n):
    out = mp.matrix(n)
    for i in range(n):
        for j in range(n):
            v = frac_matrix[i][j]
            out[i, j] = mp.mpf(v.numerator) / v.denominator
    return out


def tri_solve(L, B):
    """Solve L X = B for lower-triangular L (columnwise forward pass)."""
    n = L.rows
    X = mp.matrix(n, B.cols)
    for col in range(B.cols):
        for i in range(n):
            acc = B[i, col]
            for k in range(i):
                acc -= L[i, k] * X[k, col]
            X[i, col] = acc / L[i, i]
    return X


def reduce_sym(L, A):
    """L^{-1} A L^{-T} for symmetric A."""
    return tri_solve(L, tri_solve(L, A).T)


def upper_t_solve(L, x):
    """Solve L' c = x (back substitution against the transpose)."""
    n = L.rows
    c = mp.matrix(n, 1)
    for i in range(n - 1, -1, -1):
        acc = x[i]
        for k in range(i + 1, n):
            acc -= L[k, i] * c[k]
        c[i] = acc / L[i, i]
    return c


def mp_reduce_pencil(matrices, mass_ratio=None):
    """(L, K_red, P_red) by mp.cholesky; K_0 = (1+1/M) K + M_pol/M if M given."""
    n = matrices.n_basis
    L = mp.cholesky(to_mp(matrices.W, n))
    K = to_mp(matrices.K, n)
    if mass_ratio is not None:
        minv = 1 / mp.mpf(mass_ratio)
        K = (1 + minv) * K + minv * to_mp(matrices.M_pol, n)
    return L, reduce_sym(L, K), reduce_sym(L, to_mp(matrices.P, n))


def mp_solve_fixed_k(L, K_red, P_red, k):
    """Ground state at fixed k by mp Rayleigh-quotient iteration.

    Returns (E, K_q, P_q, coeffs) with coeffs[0] >= 0, as the production
    solve does.  Each step refactors A - sigma I with mp.lu_solve.
    """
    n = L.rows
    km = mp.mpf(k)
    A = km * km * K_red + km * P_red
    evals, evecs = np.linalg.eigh(
        np.array([[float(A[i, j]) for j in range(n)] for i in range(n)]))
    x = mp.matrix([mp.mpf(v) for v in evecs[:, 0]])
    sigma = mp.mpf(evals[0])
    tol = mp.mpf(10) ** (-mp.dps + 8)
    for _ in range(12):
        try:
            y = mp.lu_solve(A - sigma * mp.eye(n), x)
        except ZeroDivisionError:
            # sigma hit an eigenvalue exactly; nudge by one ulp-scale step
            y = mp.lu_solve(A - sigma * (1 + tol) * mp.eye(n), x)
        x = y / mp.norm(y)
        sigma_new = (x.T * (A * x))[0, 0]
        done = abs(sigma_new - sigma) < tol * max(1, abs(sigma_new))
        sigma = sigma_new
        if done:
            break
    K_q = (x.T * (K_red * x))[0, 0]
    P_q = (x.T * (P_red * x))[0, 0]
    c = upper_t_solve(L, x)
    if c[0] < 0:
        c = -c
    return sigma, K_q, P_q, [c[i] for i in range(n)]


# ---------------------------------------------------------------------------
# plain fixed-point k map (production runs a secant search on g(k) - k)
# ---------------------------------------------------------------------------

def plain_optimize_k(system, k_init=2.0, k_tol=1e-12, max_outer_iters=60,
                     damping=0.0):
    """`hyhe.eigen.optimize_k` by the literal map k <- g(k) = -P_q/(2 K_q).

    With damping d the step is k <- d k + (1 - d) g(k).  It stops when a
    step moves k by at most k_tol and raises ConvergenceError, carrying the
    (k, E) trace, after max_outer_iters steps.
    """
    km = mp.mpf(k_init)
    tol = mp.mpf(k_tol)
    d = mp.mpf(damping)
    trace = []
    for it in range(max_outer_iters):
        E, x, K_q, P_q, residual = solve_fixed_k(system, km)
        trace.append((km, E))
        k_next = d * km + (1 - d) * (-P_q / (2 * K_q))
        if abs(k_next - km) <= tol:
            # slope -1 is what the undamped map assumes of h(k) = g(k) - k
            return _finish(system, k_next, it + 1, trace, -1)
        km = k_next
    raise ConvergenceError(
        f"exponent map did not reach {k_tol:g} in {max_outer_iters} "
        "iterations", trace=trace)


# ---------------------------------------------------------------------------
# Fraction reference assembly (production assembles on integer coefficients)
# ---------------------------------------------------------------------------

def fraction_operator_matrices(basis, Z=2):
    """W, K, P and M_pol with every step in Fractions.

    Each element builds its own integrand polynomials with Fraction
    coefficients and integrates them monomial by monomial, exactly as the
    assembly did before it moved to integer coefficients.  Returns an
    `OperatorMatrices`.
    """
    F0, F1 = Fraction(0), Fraction(1)
    volume = {(2, 0, 1): F1, (0, 2, 1): -F1}
    angle_ac = pmul({(0, 0, 2): F1, (1, 1, 0): -F1},
                    {(1, 0, 0): F1, (0, 1, 0): F1})
    angle_bc = pmul({(0, 0, 2): F1, (1, 1, 0): F1},
                    {(1, 0, 0): F1, (0, 1, 0): -F1})
    cos_volume = {(2, 0, 1): F1, (0, 2, 1): F1, (0, 0, 3): -2 * F1}
    attraction_volume = {(1, 0, 1): -4 * F1}
    repulsion_volume = {(2, 0, 0): F1, (0, 2, 0): -F1}

    def integrate(poly):
        total = F0
        for (a, b, c), v in poly.items():
            if b % 2 == 0:
                total += v * raw_moment(a, b, c)
        return total

    n = len(basis)
    ps, As, Bs, Cs = [], [], [], []
    for term in basis:
        p = {(term.l, 2 * term.m, term.n): F1}
        p_s, p_t, p_u = pdiff(p, 0), pdiff(p, 1), pdiff(p, 2)
        ps.append(p)
        As.append(padd(padd(p_s, pscale(p, -F1)), pscale(p_t, -F1)))
        Bs.append(padd(padd(p_s, pscale(p, -F1)), p_t))
        Cs.append(p_u)

    W = [[F0] * n for _ in range(n)]
    K = [[F0] * n for _ in range(n)]
    Va = [[F0] * n for _ in range(n)]
    Vr = [[F0] * n for _ in range(n)]
    M = [[F0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            pij = pmul(ps[i], ps[j])
            W[i][j] = W[j][i] = integrate(pmul(pij, volume))
            Va[i][j] = Va[j][i] = integrate(pmul(pij, attraction_volume))
            Vr[i][j] = Vr[j][i] = integrate(pmul(pij, repulsion_volume))

            g = pmul(volume, padd(padd(pmul(As[i], As[j]), pmul(Bs[i], Bs[j])),
                                  pscale(pmul(Cs[i], Cs[j]), 2 * F1)))
            g = padd(g, pmul(angle_ac, padd(pmul(As[i], Cs[j]), pmul(As[j], Cs[i]))))
            g = padd(g, pmul(angle_bc, padd(pmul(Bs[i], Cs[j]), pmul(Bs[j], Cs[i]))))
            K[i][j] = K[j][i] = Fraction(1, 2) * integrate(g)

            acc = F0
            for x, y in ((i, j), (j, i)):
                h = pmul(cos_volume, pmul(As[x], Bs[y]))
                h = padd(h, pscale(pmul(angle_ac, pmul(As[x], Cs[y])), -F1))
                h = padd(h, pscale(pmul(angle_bc, pmul(Cs[x], Bs[y])), -F1))
                h = padd(h, pscale(pmul(volume, pmul(Cs[x], Cs[y])), -F1))
                acc += integrate(h)
            M[i][j] = M[j][i] = Fraction(1, 2) * acc

    P = [[Z * Va[i][j] + Vr[i][j] for j in range(n)] for i in range(n)]
    return OperatorMatrices(n_basis=n, Z=Z, W=W, K=K, P=P, M_pol=M)


# ---------------------------------------------------------------------------
# mpf reference expectation values (production sums on fixed-point ints)
# ---------------------------------------------------------------------------

def _harm(n):
    return mp.fsum(mp.mpf(1) / j for j in range(1, n + 1))


def _lam_minus(a, b):
    """Exact value of the 1/((s-t)u)-channel moment with t^a u^{b-a} powers.

    Equals (H_b - H_a)/(b - a); the confluent a = b case sums to
    zeta(2) - sum_{j<=a} 1/j^2.
    """
    if a == b:
        return mp.zeta(2) - mp.fsum(mp.mpf(1) / (j * j)
                                    for j in range(1, a + 1))
    if a > b:
        a, b = b, a
    return (_harm(b) - _harm(a)) / (b - a)


def _alt_A(n):
    # (-1)^n (sum_{j<n} (-1)^{j+1}/j - ln 2)
    s = mp.fsum(mp.mpf((-1) ** (j + 1)) / j for j in range(1, n))
    return (-1) ** n * (s - mp.ln(2))


def _lam_plus(a, b):
    """Exact value of the 1/((s+t)u)-channel moment (alternating analogue)."""
    if a == b:
        s = mp.fsum(mp.mpf((-1) ** (j + 1)) / (j * j) for j in range(1, a + 1))
        return mp.zeta(2) / 2 - s
    return (_alt_A(a + 1) - _alt_A(b + 1)) / (b - a)


def _channel_sum(poly, minus):
    """sum over monomials of s-moment times the matching channel moment."""
    tot = mp.mpf(0)
    for (A, B, C), v in poly.items():
        s_mom = mp.factorial(A + B + C) / mp.mpf(2) ** (A + B + C + 1)
        lam = _lam_minus(B, B + C) if minus else _lam_plus(B, B + C)
        tot += v * s_mom * lam
    return tot


def mp_delta_expectations(basis, coeffs, k, wq):
    """(<delta^3(r_1)>, <delta^3(r_12)>) of `hyhe.matrices.delta_expectations`
    in mpf, each grade-pair weight (g+2)!/2^{g+3} an mpf and each double
    sum an mp.fsum."""
    km = mp.mpf(k)
    grade_sums, pure_sums = {}, {}
    for term, c in zip(basis, coeffs):
        g = term.grade
        grade_sums[g] = grade_sums.get(g, 0) + c
        if term.m == 0 and term.n == 0:
            pure_sums[g] = pure_sums.get(g, 0) + c
    weight = [mp.factorial(g + 2) / mp.mpf(2) ** (g + 3)
              for g in range(2 * max(grade_sums) + 1)]

    def pair_sum(sums):
        return mp.fsum(si * sj * weight[gi + gj]
                       for gi, si in sums.items() for gj, sj in sums.items())

    d1 = km ** 3 * (2 / mp.pi) * pair_sum(grade_sums) / wq
    dee = km ** 3 * (2 / mp.pi) * pair_sum(pure_sums) / (8 * wq)
    return d1, dee


def mp_p4_expectation(basis, coeffs, k, wq):
    """<p_1^4 + p_2^4> by the channel series with every step in mpf.

    The electron-1 and electron-2 channel sums are taken separately, the
    second on the t-reflected T^2, and each weight is rebuilt from its
    harmonic-type sums; `matrices.p4_expectation` is checked against this.
    """
    T = reduced_laplacian(_state_poly(basis, [mp.mpf(c) for c in coeffs]))
    T2 = pmul(T, T)
    flipped = {key: (v if key[1] % 2 == 0 else -v) for key, v in T2.items()}
    I1 = _channel_sum(pmul(T2, {(1, 0, 0): 1, (0, 1, 0): 1}), minus=True)
    I2 = _channel_sum(pmul(flipped, {(1, 0, 0): 1, (0, 1, 0): -1}),
                      minus=False)
    return mp.mpf(k) ** 4 * (I1 + I2) / wq


def mp_log_momentum_expectation(basis, coeffs, k, wq, gamma=None):
    """Q of `hyhe.matrices.log_momentum_expectation` in mpf.

    Each monomial s^A t^B u^C of the numerator N, built by the angle route
    (support.matrices.angle_logmom_numerator gives 2N), is integrated
    against u^{-2} by the closed forms raw_moment(A, B, C - 2) and
    log_raw_moment(A, B, C - 2), the latter with mp.digamma.
    """
    if gamma is None:
        gamma = mp.euler
    num = angle_logmom_numerator(
        _state_poly(basis, [mp.mpf(c) for c in coeffs]))
    i_plain, i_log = mp.mpf(0), mp.mpf(0)
    for (A, B, C), v in num.items():
        v = v / 2
        plain = raw_moment(A, B, C - 2)
        i_plain += v * mp.mpf(plain.numerator) / plain.denominator
        i_log += v * log_raw_moment(A, B, C - 2)
    km = mp.mpf(k)
    return km ** 3 * (i_log + (gamma - mp.ln(km)) * i_plain) / wq
