"""Physical constants used by the helium ground-state pipeline.

Single source of truth for every number that is not derived by the code
itself.  Values are stored as decimal strings so that converting to mpmath
floats at whatever working precision is active never loses digits.
"""

import math
from dataclasses import dataclass

from mpmath import mp

# Sentinel for "evaluate Euler's gamma at working precision" -- the reference
# only quotes 0.5772, which is too coarse for the alpha^3 log-moment term.
GAMMA_AUTO = "auto"


class ConstantsError(ValueError):
    pass


def _finite(name, raw):
    """float(raw), or ConstantsError naming the field if it is not finite."""
    try:
        value = float(raw)
    except (TypeError, ValueError):
        value = math.nan
    if not math.isfinite(value):
        raise ConstantsError(f"{name} must be a finite decimal, got {raw!r}")
    return value


@dataclass(frozen=True)
class PhysicalConstants:
    """Constants of the calculation, Hartree atomic units throughout.

    Z            -- nuclear charge (2 for helium)
    alpha        -- fine-structure constant (CODATA default; the source
                    calculation never states which value it used)
    mass_ratio_M -- nucleus-to-electron mass ratio M
    euler_gamma  -- Euler's constant, or "auto" for full working precision
    bethe_beta   -- Bethe logarithm beta for the helium ground state
    E_exp        -- experimental ground energy, used only for report deltas
    """

    Z: int = 2
    alpha: str = "7.2973525693e-3"
    mass_ratio_M: str = "7294.299508"
    euler_gamma: str = GAMMA_AUTO
    bethe_beta: str = "4.3700392"
    E_exp: str = "-2.90338629"

    def validate(self):
        if not (isinstance(self.Z, int) and self.Z >= 1):
            raise ConstantsError(f"Z must be a positive integer, got {self.Z!r}")
        if not (0.0 < _finite("alpha", self.alpha) < 0.01):
            raise ConstantsError(f"alpha out of range (0, 0.01): {self.alpha}")
        if not _finite("mass_ratio_M", self.mass_ratio_M) > 1000:
            raise ConstantsError(f"mass_ratio_M must exceed 1000: {self.mass_ratio_M}")
        _finite("bethe_beta", self.bethe_beta)
        _finite("E_exp", self.E_exp)
        if self.euler_gamma != GAMMA_AUTO:
            _finite("euler_gamma", self.euler_gamma)
        return self

    # mpf views, evaluated at the currently active mp precision
    def alpha_mp(self):
        return mp.mpf(self.alpha)

    def gamma_mp(self):
        if self.euler_gamma == GAMMA_AUTO:
            return +mp.euler
        return mp.mpf(self.euler_gamma)

    def beta_mp(self):
        return mp.mpf(self.bethe_beta)

    def e_exp_mp(self):
        return mp.mpf(self.E_exp)

    def echo(self):
        """Plain-dict snapshot for report headers (auditable alpha etc.)."""
        return {
            "Z": self.Z,
            "alpha": self.alpha,
            "mass_ratio_M": self.mass_ratio_M,
            "euler_gamma": self.euler_gamma,
            "bethe_beta": self.bethe_beta,
            "E_exp": self.E_exp,
        }


def default_constants():
    """The default constant set (helium, CODATA alpha)."""
    return PhysicalConstants().validate()
