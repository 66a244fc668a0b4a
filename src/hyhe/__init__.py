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


from .basis import BasisTerm, enumerate_basis
from .config import RunConfig, load_config, DEFAULT_SWEEP
from .constants import PhysicalConstants, default_constants
from .corrections import CorrectionBreakdown, breit_correction, \
    radiative_correction, total_energy
from .eigen import VariationalResult, ground_state_pair, optimize_k, \
    solve_fixed_k, build_systems
from .integrals import raw_moment
from .forms import build_expectation_forms
from .matrices import ExpectationSet, OperatorMatrices, \
    build_operator_matrices, delta_expectations, expectation_set, \
    log_momentum_expectation, p4_expectation
from .report import ReportDocument, Row, run_tables

__all__ = [
    "BasisTerm", "enumerate_basis",
    "RunConfig", "load_config", "DEFAULT_SWEEP",
    "PhysicalConstants", "default_constants",
    "CorrectionBreakdown", "breit_correction", "radiative_correction",
    "total_energy",
    "VariationalResult", "ground_state_pair", "optimize_k", "solve_fixed_k",
    "build_systems",
    "raw_moment",
    "ExpectationSet", "OperatorMatrices",
    "build_expectation_forms", "build_operator_matrices",
    "delta_expectations", "expectation_set", "log_momentum_expectation",
    "p4_expectation",
    "ReportDocument", "Row", "run_tables",
]
