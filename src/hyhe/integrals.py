"""Integrals over the Hylleraas domain 0 <= t <= u <= s < infinity.

Every matrix element and expectation value the pipeline forms reduces to
the polynomial family against the weight e^{-2s} (k = 1 scale):

  moment_ratio(a, b, c)   int e^{-2s} s^a t^b u^c   (p, q; no volume factor)

The full measure is d tau1 d tau2 = 2 pi^2 u(s^2 - t^2) ds dt du; the 2 pi^2
is applied by callers (it cancels in every ratio the pipeline forms), and
callers multiply the volume element (or what is left of it after the
Coulomb cancellations) into the integrand before it reaches the moments.
Against e^{-2ks} every value picks up k^{-(a+b+c+3)}.
"""

import math
from functools import lru_cache


class IntegralDomainError(ValueError):
    """Exponents outside the closed-form family."""


def moment_ratio(a, b, c):
    """(p, q) in lowest terms with p / q = int_0^inf ds int_0^s du int_0^u dt
    e^{-2s} s^a t^b u^c.

    Nested antiderivatives: t-integral u^{b+1}/(b+1), u-integral
    s^{b+c+2}/(b+c+2), s-integral Gamma(a+b+c+3)/2^{a+b+c+3}, so with
    n = a+b+c+2 the moment is n!/(2^(n+1) (b+1) (b+c+2)).
    b must be >= 0 (odd-t projection happens upstream); c may be negative
    as long as b + c + 1 >= 0 and the final Gamma argument is positive.
    """
    if b < 0:
        raise IntegralDomainError(f"t-exponent must be >= 0, got b={b}")
    if b + c + 1 < 0:
        raise IntegralDomainError(f"u-integral diverges: b+c+1 = {b + c + 1}")
    n = a + b + c + 2  # s-moment order
    if n < 0:
        raise IntegralDomainError(f"s-integral diverges: a+b+c+2 = {n}")
    p, q = math.factorial(n), (b + 1) * (b + c + 2) << (n + 1)
    g = math.gcd(p, q)
    return p // g, q // g


@lru_cache(maxsize=None)
def raw_moment(a, b, c):
    """moment_ratio(a, b, c) as a Fraction; memoized, so hits are
    bit-identical.  fractions is imported here: no production path reads
    this, and the module (with decimal) would cost every run its import."""
    from fractions import Fraction
    return Fraction(*moment_ratio(a, b, c))
