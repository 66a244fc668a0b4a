"""Integrals over the Hylleraas domain 0 <= t <= u <= s < infinity.

Every operator matrix element the pipeline forms reduces to the
polynomial family against the weight e^{-2s} (k = 1 scale):

  moment_ratio(a, b, c)   int e^{-2s} s^a t^b u^c   (p, q; no volume factor)

polynomial_moments is the package's one s-integral table: the keys a
caller needs, over one denominator, from one factorial table.  The
assembly reads it, and so do the log-momentum form, at u^{-2}, and at
u^{-1} <p^4>'s s-integral factor (n+1)!/2^{n+2} and the delta densities'
weights (g+2)!/2^{g+3}.  moment_ratio, one key in lowest terms, and
raw_moment, its memoized Fraction, read the same table and serve the
referees.  <p^4>'s channel moments and the log-momentum element's log
factor are the expectation forms' own (hyhe.forms).

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
    Inside that domain the value is polynomial_moments' at the one key,
    whose D is then the lowest-terms denominator.
    """
    if b < 0:
        raise IntegralDomainError(f"t-exponent must be >= 0, got b={b}")
    if b + c + 1 < 0:
        raise IntegralDomainError(f"u-integral diverges: b+c+1 = {b + c + 1}")
    n = a + b + c + 2  # s-moment order
    if n < 0:
        raise IntegralDomainError(f"s-integral diverges: a+b+c+2 = {n}")
    (p,), q = polynomial_moments([(a, b, c)])
    return p, q


def polynomial_moments(keys):
    """(values, D): moment_ratio(a, b, c) at each key (a, b, c) of the list
    keys, as ints over their least common denominator D; a key with b < 0
    reads 0.  It holds the package's only factorial table (module
    docstring); a caller that needs a family at many keys of few orders
    reads it once per order and indexes into the values.

    Each is n!/(2^(n+1) (b+1)(b+c+2)), n = a+b+c+2, read off one table of
    k! 2^(top-k), top the largest n: that entry over (b+1)(b+c+2) 2^(top+1).
    Where (b+1)(b+c+2) does not divide it (c = -1, where b+1 = b+c+2 and
    n!/(b+1)^2 need not be an integer) what is left of the divisor joins D.
    """
    top = max(a + b + c for a, b, c in keys) + 2
    weight = [math.factorial(k) << (top - k) for k in range(top + 1)]
    ratios = [(weight[a + b + c + 2], (b + 1) * (b + c + 2)) if b >= 0
              else (0, 1) for a, b, c in keys]
    L = math.lcm(*(d // math.gcd(w, d) for w, d in ratios))
    values = [w * L // d for w, d in ratios]
    g = math.gcd(L << (top + 1), *values)
    return [v // g for v in values], (L << (top + 1)) // g


@lru_cache(maxsize=None)
def raw_moment(a, b, c):
    """moment_ratio(a, b, c) as a Fraction; memoized, so hits are
    bit-identical.  fractions is imported here: no production path reads
    this, and the module (with decimal) would cost every run its import."""
    from fractions import Fraction
    return Fraction(*moment_ratio(a, b, c))
