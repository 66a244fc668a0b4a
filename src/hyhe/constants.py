"""Physical constants used by the helium ground-state pipeline.

Single source of truth for the five physical inputs that are not derived
by the code itself.  Values are stored as decimal strings so that
converting to mpmath floats at whatever working precision is active never
loses digits.  Euler's constant gamma, which the alpha^3 log-moment term
carries, is no input: it is computed at the working precision.
"""

from dataclasses import dataclass

from .exact import rational


class ConstantsError(ValueError):
    pass


def _finite(name, raw):
    """raw as a float, or ConstantsError naming the field unless it is a
    decimal literal in the one grammar that exact.rational reads (float()
    also takes "nan", "inf" and digits grouped by "_", which mpmath reads
    otherwise) with a value in float64 range."""
    try:
        p, q = rational(raw)
        return p / q
    except (AttributeError, OverflowError, TypeError, ValueError):
        raise ConstantsError(f"{name} must be a finite decimal, got {raw!r}"
                             ) from None


@dataclass(frozen=True)
class PhysicalConstants:
    """The five physical inputs, Hartree atomic units throughout.

    Z            -- nuclear charge (2 for helium)
    alpha        -- fine-structure constant (CODATA default; the source
                    calculation never states which value it used)
    mass_ratio_M -- nucleus-to-electron mass ratio M
    bethe_beta   -- Bethe logarithm beta for the helium ground state
    E_exp        -- experimental ground energy, used only for report deltas
    """

    Z: int = 2
    alpha: str = "7.2973525693e-3"
    mass_ratio_M: str = "7294.299508"
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
        return self


def default_constants():
    """The default constant set (helium, CODATA alpha)."""
    return PhysicalConstants().validate()
