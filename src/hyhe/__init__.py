"""Helium ground-state energy by the correlated variational method.

Library pipeline: enumerate a graded basis, assemble exact operator
matrices, solve the generalized eigenproblem with a self-consistent scale
exponent at arbitrary precision, then add the alpha^2 and alpha^3
perturbative corrections evaluated on the solved state.
"""

__version__ = "hyhe 0.1.0"

import sys


def debug(msg, *args):
    """Log msg % args at DEBUG on the "hyhe" logger, if logging is loaded:
    without it no logger has a handler, so hyhe never imports logging.  An
    argument that is callable stands for its value, computed only when the
    line is logged."""
    logging = sys.modules.get("logging")
    if logging is None:
        return
    log = logging.getLogger("hyhe")
    if log.isEnabledFor(logging.DEBUG):
        log.debug(msg, *(a() if callable(a) else a for a in args))


# In this order the pipeline loads numpy, then mpmath, both before click,
# which sets a run's peak memory: other orders read up to 0.4 MB more.
from . import (basis, config, constants, corrections, eigen, integrals,
               forms, matrices, report)
