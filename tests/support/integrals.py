"""Integral referees: the ln u family, the real-c continuation and quadrature.

None of this runs in the pipeline, which reads
`hyhe.integrals.polynomial_moments`.
The tests use it to check the closed forms from independent routes:

  base_integral(a, b, c)  int e^{-2s} s^a t^b u^c * u(s^2-t^2)

is the raw-moment family with the volume factor multiplied in; its ln u
weighted variant comes from digamma moments, and a float64 Gauss tensor
engine (scipy's rules) and working-precision Gauss rules integrate
everything numerically.

Scaling: against e^{-2ks} every value picks up k^{-(a+b+c+3)} for raw keys,
k^{-(a+b+c+6)} for base keys; ln(u) keys obey J(k) = (J(1) - ln k * I(1)) k^{-p}.
"""

import math

import numpy as np
from mpmath import mp
from scipy.special import roots_laguerre, roots_legendre

from hyhe.integrals import IntegralDomainError, raw_moment


class QuadratureError(RuntimeError):
    def __init__(self, message, best_estimate, achieved):
        super().__init__(message)
        self.best_estimate = best_estimate
        self.achieved = achieved


def base_integral(a, b, c):
    """Exact base integral including the volume factor u(s^2 - t^2)."""
    if a < 0 or b < 0 or c < 0:
        raise IntegralDomainError(
            f"base_integral requires a, b, c >= 0, got ({a}, {b}, {c})")
    return raw_moment(a + 2, b, c + 1) - raw_moment(a, b + 2, c + 1)


def k_scaling_exponent(a, b, c, with_volume=True):
    """p such that I(k) = I(1) * k^{-p} when the weight is e^{-2ks}."""
    return a + b + c + (6 if with_volume else 3)


def log_raw_moment(a, b, c):
    """mpf value of int e^{-2s} s^a t^b u^c ln(u), same domain.

    From int_0^s u^q ln u du = s^{q+1} (ln s/(q+1) - 1/(q+1)^2) with
    q = b + c + 1, then int e^{-2s} s^M ln s ds = M!/2^{M+1} (psi(M+1) - ln 2).
    """
    if b < 0 or b + c + 1 < 0:
        raise IntegralDomainError(f"log moment outside family: b={b}, c={c}")
    M = a + b + c + 2
    if M < 0:
        raise IntegralDomainError(f"log moment diverges: a+b+c+2 = {M}")
    denom = (b + 1) * (b + c + 2)
    smom = mp.factorial(M) / mp.mpf(2) ** (M + 1)
    return smom * (mp.digamma(M + 1) - mp.ln(2)) / denom - smom / ((b + c + 2) * denom)


def log_base_integral(a, b, c):
    """Base integral with an extra ln(u) weight (high-precision float)."""
    if a < 0 or b < 0 or c < 0:
        raise IntegralDomainError(
            f"log_integral requires a, b, c >= 0, got ({a}, {b}, {c})")
    return log_raw_moment(a + 2, b, c + 1) - log_raw_moment(a, b + 2, c + 1)


def base_integral_real(a, b, c):
    """Analytic continuation of base_integral to real c (mpf).

    Same nested antiderivatives with Gamma in place of factorial; used to
    check d/dc base = log integral by finite differences.
    """
    def raw(aa, bb, cc):
        if bb < 0 or bb + cc + 1 <= -1:
            raise IntegralDomainError(f"outside family: b={bb}, c={cc}")
        n = mp.mpf(aa + bb) + cc + 2
        return mp.gamma(n + 1) / mp.mpf(2) ** (n + 1) / ((bb + 1) * (bb + cc + 2))
    return raw(a + 2, b, c + 1) - raw(a, b + 2, c + 1)


def log_integral_quad_mp(a, b, c):
    """Numerical (tanh-sinh) evaluation of the ln(u)-weighted base integral.

    Under s = x/2, u = y s, t = z u the integrand separates:
    e^{-2s} s^{a+b+c+5} y^{b+c+2} z^b (1 - y^2 z^2), with ln u = ln s + ln y.
    Each univariate factor is integrated numerically, so this is an
    independent cross-check of the digamma closed form at working precision.
    """
    if a < 0 or b < 0 or c < 0:
        raise IntegralDomainError(
            f"log quadrature requires a, b, c >= 0, got ({a}, {b}, {c})")
    total = mp.mpf(0)
    for sign, dy, dz in ((1, 0, 0), (-1, 2, 2)):
        P = a + b + c + 5
        Y = b + c + 2 + dy
        Z = b + dz
        s0 = mp.quad(lambda s: mp.e ** (-2 * s) * s ** P, [0, mp.inf])
        s1 = mp.quad(lambda s: mp.e ** (-2 * s) * s ** P * mp.ln(s), [0, mp.inf])
        y0 = mp.quad(lambda y: y ** Y, [0, 1])
        y1 = mp.quad(lambda y: y ** Y * mp.ln(y), [0, 1])
        z0 = mp.quad(lambda z: z ** Z, [0, 1])
        total += sign * (s1 * y0 + s0 * y1) * z0
    return total


# ---------------------------------------------------------------------------
# float64 quadrature engine
# ---------------------------------------------------------------------------

_rule_cache = {}


def _tensor_rule(n):
    """Nodes/weights for the box map s = x/2 (Laguerre), u = y*s, t = z*u."""
    if n in _rule_cache:
        return _rule_cache[n]
    xs, ws = roots_laguerre(n)
    ys, wys = roots_legendre(n)
    # shift Legendre to [0, 1]
    ys = 0.5 * (ys + 1.0)
    wys = 0.5 * wys
    s = xs[:, None, None] / 2.0
    y = ys[None, :, None]
    z = ys[None, None, :]
    u = y * s
    t = z * u
    # e^{-2s} ds = e^{-x} dx / 2; du dt = (s dy)(u dz)
    w = (ws[:, None, None] / 2.0) * wys[None, :, None] * wys[None, None, :]
    jac = s * u
    rule = (s, t, u, w * jac)
    _rule_cache[n] = rule
    return rule


_LEVELS = (12, 16, 24, 32, 48, 64, 96)


def quad_integral(f, target=1e-14, levels=_LEVELS):
    """Adaptive tensor quadrature of f(s, t, u) against e^{-2s} over the domain.

    ``f`` is evaluated on numpy arrays (vectorize accordingly) and must NOT
    include the e^{-2s} weight.  Node count escalates until two successive
    levels agree within ``target`` (relative for |value| > 1); raises
    QuadratureError carrying the best estimate if the budget runs out.
    Summation is compensated (fsum), so accuracy is limited by the rule, not
    by accumulation.
    """
    prev = None
    best = None
    achieved = math.inf
    for n in levels:
        s, t, u, w = _tensor_rule(n)
        val = math.fsum((f(s, t, u) * w).ravel())
        if prev is not None:
            err = abs(val - prev)
            if err < achieved:
                achieved = err
                best = val
            if err <= target * max(1.0, abs(val)):
                return val
        prev = val
    raise QuadratureError(
        f"quadrature did not reach {target:g} (achieved {achieved:g})",
        best if best is not None else prev, achieved)


def quad_base_integral(a, b, c, log_u=False, target=1e-13):
    """Quadrature route to the (possibly ln u weighted) base integral."""
    def f(s, t, u):
        val = s ** a * t ** b * u ** c * u * (s ** 2 - t ** 2)
        if log_u:
            val = val * np.log(u)
        return val
    return quad_integral(f, target=target)


# ---------------------------------------------------------------------------
# high-precision Gauss rules (exact for polynomials at working precision);
# used by tests that need closed-form-vs-quadrature agreement below 1e-14
# ---------------------------------------------------------------------------

_mp_rule_cache = {}


def _mp_legendre_rule(n):
    """Gauss-Legendre nodes/weights on [0, 1] at working precision."""
    key = (n, mp.dps)
    if key in _mp_rule_cache:
        return _mp_rule_cache[key]
    seeds, _ = np.polynomial.legendre.leggauss(n)
    nodes, weights = [], []
    for x0 in seeds:
        x = mp.mpf(float(x0))
        for _ in range(60):
            p = mp.legendre(n, x)
            dp = n * (x * mp.legendre(n, x) - mp.legendre(n - 1, x)) / (x * x - 1)
            step = p / dp
            x -= step
            if abs(step) < mp.mpf(10) ** (-mp.dps + 2):
                break
        dp = n * (x * mp.legendre(n, x) - mp.legendre(n - 1, x)) / (x * x - 1)
        w = 2 / ((1 - x * x) * dp * dp)
        nodes.append((x + 1) / 2)
        weights.append(w / 2)
    _mp_rule_cache[key] = (nodes, weights)
    return nodes, weights


def _mp_laguerre_rule(n):
    """Gauss-Laguerre nodes/weights (weight e^{-x}) at working precision."""
    key = ("lag", n, mp.dps)
    if key in _mp_rule_cache:
        return _mp_rule_cache[key]
    seeds, _ = np.polynomial.laguerre.laggauss(n)
    nodes, weights = [], []
    for x0 in seeds:
        x = mp.mpf(float(x0))
        for _ in range(60):
            p = mp.laguerre(n, 0, x)
            dp = n * (mp.laguerre(n, 0, x) - mp.laguerre(n - 1, 0, x)) / x
            step = p / dp
            x -= step
            if abs(step) < mp.mpf(10) ** (-mp.dps + 2) * max(1, abs(x)):
                break
        dp = n * (mp.laguerre(n, 0, x) - mp.laguerre(n - 1, 0, x)) / x
        lnm1 = mp.laguerre(n - 1, 0, x)
        # standard Gauss-Laguerre weight x / ((n+1)^2 L_{n+1}(x)^2) variant:
        w = x / (n * n * lnm1 * lnm1)
        nodes.append(x)
        weights.append(w)
    _mp_rule_cache[key] = (nodes, weights)
    return nodes, weights


def quad_base_integral_mp(a, b, c, log_u=False, nodes=None):
    """High-precision tensor quadrature of the base integral.

    Gaussian rules are exact for polynomial integrands once the node count
    covers the degree, so this matches the closed forms to working precision,
    far below float64.  The ln(u) = ln(y) + ln(s) split keeps the
    log factor out of the polynomial part only for error, not exactness, so
    log keys come out near quadrature precision rather than exactly.
    """
    deg_s = a + b + c + 5
    deg_y = b + c + 3
    deg_x = b + 2
    if nodes is None:
        nodes = max(deg_s, deg_y, deg_x) // 2 + 6 + (8 if log_u else 0)
    xs, wxs = _mp_laguerre_rule(nodes)
    ys, wys = _mp_legendre_rule(nodes)
    total = mp.mpf(0)
    for xi, wi in zip(xs, wxs):
        s = xi / 2
        acc_s = mp.mpf(0)
        for yj, wj in zip(ys, wys):
            u = yj * s
            acc_y = mp.mpf(0)
            for zk, wk in zip(ys, wys):
                t = zk * u
                val = s ** a * t ** b * u ** c * u * (s * s - t * t)
                if log_u:
                    val = val * mp.ln(u)
                acc_y += wk * val
            acc_s += wj * acc_y * u  # dt = u dz
        total += wi / 2 * acc_s * s  # du = s dy, ds = dx/2
    return total
