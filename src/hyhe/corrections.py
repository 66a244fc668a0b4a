"""Relativistic (alpha^2) and radiative (alpha^3) energy corrections.

All pieces are first-order perturbations evaluated on the solved
(nuclear-motion) ground state; the inputs are the four expectation values
and the physical constants.  The spin-spin Breit term E3 vanishes for a
singlet S state.  The orbit-orbit term E2 does not, but it is left out:
both are carried as explicit zeros rather than silently dropped.

  E1 = -(alpha^2/8) <p1^4 + p2^4>                    (momentum quartic)
  E4 = pi alpha^2 (Z <delta(r1)> - <delta(r12)>)     (Darwin contact)
  E5 = 2 pi alpha^2 <delta(r12)>                     (exchange contact)

  dE3_nuclear = alpha^3 (4Z/3)(-2 ln alpha - beta + 19/30) * 2<delta(r1)>
  dE3_contact = alpha^3 ((14/3) ln alpha + 164/15) <delta(r12)>
  dE3_logmom  = alpha^3 (7 / 3 pi) Q

The quoted uncertainty follows the rule of thumb that the truncated series
is good to about half its last retained order.

deltaE2, deltaE3 and E_total each carry a bound on their numerical error
(the *_err fields): the sum of the absolute values of the parts each sums,
times the expectation values' relative error (ExpectationSet.rel_err) plus
the rounding of the formulas at the working precision, and for E_total
E0's own bound.

Every factor that depends only on the constants and the working precision
(alpha^2 / 8, pi alpha^2, the alpha^3 coefficients, E_exp) is computed
once per constant set and precision (_factors), in the order the formulas
above multiply them.  total_energy is the one place the terms are formed:
it computes every term, sum and error bound of the breakdown from one
_factors lookup.
"""

from dataclasses import dataclass
from functools import lru_cache
from types import SimpleNamespace

from mpmath import mp


@dataclass(frozen=True)
class CorrectionBreakdown:
    """Every correction term (mpf), the totals, and the experiment gap."""

    E0: object
    E1: object
    E2: object                 # orbit-orbit: left out, carried as 0
    E3: object                 # spin-spin: zero for singlet S
    E4: object
    E5: object
    deltaE2: object
    r3_nuclear: object
    r3_contact: object
    r3_logmom: object
    deltaE3: object
    E_total: object
    uncertainty: object
    delta_vs_experiment: object
    deltaE2_err: object
    deltaE3_err: object
    E_total_err: object


@lru_cache(maxsize=64)
def _factors(constants, prec):
    """The mpf factors of the corrections at one constant set and
    precision prec, each multiplied in the order of the module docstring's
    formulas: E1 = e1 <p1^4 + p2^4>, E4 = pi_a2 (Z <delta(r1)> -
    <delta(r12)>), E5 = two_pi_a2 <delta(r12)>, r3_nuclear = r3n
    2<delta(r1)>, r3_contact = r3c <delta(r12)> and r3_logmom = r3l Q;
    with alpha and E_exp."""
    with mp.workprec(prec):
        alpha = mp.mpf(constants.alpha)
        a2, a3 = alpha ** 2, alpha ** 3
        beta = mp.mpf(constants.bethe_beta)
        ln_alpha = mp.ln(alpha)     # -inf at alpha = 0, whose r3 is 0
        return SimpleNamespace(
            alpha=alpha, e1=-a2 / 8, pi_a2=mp.pi * a2,
            two_pi_a2=2 * mp.pi * a2,
            r3n=(a3 * (4 * constants.Z / mp.mpf(3))
                 * (-2 * ln_alpha - beta + mp.mpf(19) / 30)),
            r3c=a3 * (mp.mpf(14) / 3 * ln_alpha + mp.mpf(164) / 15),
            r3l=a3 * mp.mpf(7) / (3 * mp.pi),
            E_exp=mp.mpf(constants.E_exp))


def total_energy(E0, expectations, constants, E0_err=0):
    """Assemble the full breakdown around a variational energy E0, which
    lies within E0_err of the exact one: the alpha^2 terms E1 ... E5 and
    their sum deltaE2, then the alpha^3 parts and their sum deltaE3 (all
    zero at alpha = 0), each from the module docstring's formulas."""
    E0 = mp.mpf(E0)
    f = _factors(constants, mp.prec)
    Z, d1, dee = constants.Z, expectations.delta_r1, expectations.delta_r12
    E1 = f.e1 * (2 * expectations.p4)
    E2 = E3 = mp.mpf(0)
    E4 = f.pi_a2 * (Z * d1 - dee)
    E5 = f.two_pi_a2 * dee
    dE2 = E1 + E2 + E3 + E4 + E5
    if f.alpha == 0:
        r3n = r3c = r3l = dE3 = mp.mpf(0)
    else:
        r3n = f.r3n * (2 * d1)
        r3c = f.r3c * dee
        r3l = f.r3l * expectations.log_momentum
        dE3 = r3n + r3c + r3l
    E_total = E0 + dE2 + dE3
    # |E4| + |E5| at most, by part: pi alpha^2 (Z delta_r1 - delta_r12)
    # and 2 pi alpha^2 delta_r12
    contact = f.pi_a2 * (Z * abs(d1) + 3 * abs(dee))
    rel = expectations.rel_err + 4 * mp.eps
    dE2_err = (abs(E1) + contact) * rel
    dE3_err = (abs(r3n) + abs(r3c) + abs(r3l)) * rel
    return CorrectionBreakdown(
        E0=E0, E1=E1, E2=E2, E3=E3, E4=E4, E5=E5, deltaE2=dE2,
        r3_nuclear=r3n, r3_contact=r3c, r3_logmom=r3l, deltaE3=dE3,
        E_total=E_total, uncertainty=abs(dE3) / 2,
        delta_vs_experiment=E_total - f.E_exp,
        deltaE2_err=dE2_err, deltaE3_err=dE3_err,
        E_total_err=(E0_err + dE2_err + dE3_err
                     + (abs(E0) + abs(dE2) + abs(dE3)) * mp.eps))
