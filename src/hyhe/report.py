"""End-to-end sweep pipeline and report serialization.

A report row is one basis size N pushed through the whole chain:
matrices -> both ground states -> expectation values on the nuclear-motion
state -> correction breakdown.  Every verb gets its basis, overlap and
pencil systems from build_stage, the one place where the choice of
Hamiltonian decides what is assembled; a row's stage (build_row_stage) adds
the exact forms of <p^4> and the log-momentum element, split with the
overlap into one stack for one exact product per row.  The stage
is exact, so it is built with no precision context and serves every
precision, and a sweep builds one, at its largest N, whose leading blocks
serve every row.
Numeric cells are strings of 20 significant digits, each certified: its
error bound must leave it on one side of each 20-digit rounding boundary
(settled), or its solve runs again at twice the digits (_certified, for
compute_row and solve_single alike), so a run's precision is a floor; a
settled cell prints the string its check formatted.  The delta columns
(dE_inf, dE0, dE_total: change against the previous row) are derived from
the energy columns.
"""

import io
import json
import math
import time
from dataclasses import dataclass, field, asdict, replace

from mpmath import mp

from . import __version__ as ENGINE_VERSION, debug
from .basis import MAX_BASIS, enumerate_basis
from .config import DEFAULT_SWEEP, OUTPUT_FORMATS, RunConfig
from .constants import default_constants
from .corrections import total_energy
from .eigen import build_systems, ground_state_pair, optimize_k
from .forms import build_expectation_forms
from .matrices import build_operator_matrices, expectation_set

SCHEMA_VERSION = 5

CSV_COLUMNS = ("N", "E_inf", "dE_inf", "E0", "dE0", "deltaE2", "deltaE3",
               "E_total", "dE_total", "k_opt")
# the human table's width of each of CSV_COLUMNS
_WIDTHS = (4, 15, 12, 15, 12, 12, 12, 15, 12, 15)


class UsageError(ValueError):
    """Malformed request (empty sweep, bad format); maps to exit code 2."""


def _fmt(x):
    """Canonical 20-digit string for a report cell."""
    return mp.nstr(mp.mpf(x), 20)


def _settled(cells):
    """(strings, None): each cell's printed string, {name: _fmt(value)},
    for cells {name: (value, error bound)} whose every value and bound lie
    on one side of each 20-digit rounding boundary; else (None, name) for
    the first cell that straddles one.

    Each bound is widened by eps |value|, the rounding at the working
    precision, so value rounded to it lies between its two endpoints, and
    a settled cell's endpoints format as its value does.
    """
    strings = {}
    for name, (v, err) in cells.items():
        err += abs(v) * mp.eps
        low = _fmt(v - err)
        if low != _fmt(v + err):
            return None, name
        strings[name] = low
    return strings, None


def certified_digits(value, err):
    """The significant digits of value that an error bound err certifies,
    floor(-log10(err / |value|)), from the binary exponent of the ratio (an
    mpf log10 would compute ln 10 at the working precision)."""
    m, e = mp.frexp(err / abs(value))
    return math.floor(-math.log10(m) - e * math.log10(2))


@dataclass
class Row:
    """One basis size.  k_opt, k_err and residual belong to the
    nuclear-motion Hamiltonian, whose state also feeds the corrections;
    steps counts the correction steps of both k-searches and eighs their
    float64 eigensolves.  precision_digits is the precision the row ran at,
    twice the run's where a cell was not settled at it, and E_digits the
    significant digits of E0 that its error bound certifies.  In a sweep,
    wall_time leaves out the shared assembly and stage."""

    N: int
    ok: bool = True
    error: str = ""
    E_inf: str = ""
    dE_inf: str = ""
    E0: str = ""
    dE0: str = ""
    deltaE2: str = ""
    deltaE3: str = ""
    E_total: str = ""
    dE_total: str = ""
    k_opt: str = ""
    residual: str = ""
    k_err: str = ""
    steps: int = 0
    eighs: int = 0
    precision_digits: int = 0
    E_digits: int = 0
    wall_time: str = ""


@dataclass
class ReportDocument:
    schema_version: int
    engine_version: str
    config: dict
    constants: dict
    rows: list = field(default_factory=list)

    @property
    def all_ok(self):
        return all(row.ok for row in self.rows)

    def to_json(self):
        return json.dumps(asdict(self), indent=2, sort_keys=True) + "\n"

    def to_csv(self):
        import csv      # only this format needs it
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for row in self.rows:
            writer.writerow([getattr(row, col) for col in CSV_COLUMNS])
        return buf.getvalue()

    def to_human(self):
        def num(cell, width):
            if cell == "":
                return " " * width
            return f"{float(mp.mpf(cell)):>{width}.8f}"

        lines = []
        lines.append(f"engine {self.engine_version}   schema {self.schema_version}")
        lines.append("constants: " + ", ".join(
            f"{k}={v}" for k, v in sorted(self.constants.items())))
        lines.append("config:    " + ", ".join(
            f"{k}={v}" for k, v in sorted(self.config.items())))
        lines.append("")
        head = " ".join(f"{col:>{width}}"
                        for col, width in zip(CSV_COLUMNS, _WIDTHS))
        lines.append(head)
        lines.append("-" * len(head))
        for row in self.rows:
            n = f"{row.N:>{_WIDTHS[0]}}"
            if not row.ok:
                lines.append(f"{n} FAILED: {row.error}")
                continue
            lines.append(" ".join([n] + [
                num(getattr(row, col), width)
                for col, width in zip(CSV_COLUMNS[1:], _WIDTHS[1:])]))
        lines.append("")
        for row in self.rows:
            if row.ok:
                lines.append(f"  N={row.N}: residual {row.residual}, "
                             f"E_digits {row.E_digits} at "
                             f"{row.precision_digits} digits, "
                             f"wall {row.wall_time}s")
        return "\n".join(lines) + "\n"

    def emit(self, fmt):
        """The document in fmt, one of OUTPUT_FORMATS, by its to_<fmt>."""
        if fmt not in OUTPUT_FORMATS:
            raise UsageError(f"unknown output format {fmt!r}")
        return getattr(self, f"to_{fmt}")()


_DELTA_COLUMNS = (("dE_inf", "E_inf"), ("dE0", "E0"), ("dE_total", "E_total"))


def recompute_deltas(rows):
    """Fill dE_* cells as differences against the previous successful row;
    each cell is parsed once."""
    with mp.workdps(30):
        prev = None
        for row in rows:
            if not row.ok:
                continue
            values = {col: mp.mpf(getattr(row, col))
                      for _, col in _DELTA_COLUMNS if getattr(row, col)}
            for dcol, col in _DELTA_COLUMNS:
                if prev is None or col not in prev:
                    setattr(row, dcol, "")
                else:
                    setattr(row, dcol, _fmt(values[col] - prev[col]))
            prev = values
    return rows


def build_stage(n, constants, nuclear_motion=True):
    """(basis, W, systems) at basis size n, exact and so the same at any
    precision (build it outside one): a verb's choice of Hamiltonian, the
    "inf" system always, and with nuclear_motion the mass polarization and
    the "0" system too (build_systems), and the assembly's overlap W, its
    one matrix a verb reads past the systems.  The rest of the assembly is
    freed on return."""
    basis = enumerate_basis(n)
    mats = build_operator_matrices(basis, Z=constants.Z,
                                   mass_polarization=nuclear_motion)
    return basis, mats.W, build_systems(
        mats, mass_ratio=constants.mass_ratio_M if nuclear_motion else None)


def build_row_stage(n, constants):
    """(basis, systems, forms): build_stage's nuclear-motion stage at basis
    size n, and the Stack of its basis's expectation forms with the stage's
    overlap W (build_expectation_forms), built once the rest of the assembly
    is freed; exact, as the stage is."""
    basis, W, systems = build_stage(n, constants)
    return basis, systems, build_expectation_forms(basis, W)


def _certified(digits, solve, what):
    """(result, strings): the result of solve() -> (result, cells) at
    digits, or at twice the digits if a cell is not settled there
    (_settled), and the cells' printed strings; what names the run in the
    rerun's log line."""
    with mp.workdps(digits):
        result, cells = solve()
        strings, unsettled = _settled(cells)
    if unsettled:
        debug("%s: %s unsettled at %d digits; rerun at %d", what,
              unsettled, digits, 2 * digits)
        with mp.workdps(2 * digits):
            result, cells = solve()
            strings = {name: _fmt(v) for name, (v, _) in cells.items()}
    return result, strings


def compute_row(n, config, constants, stage=None):
    """Run the full pipeline for one basis size; returns (Row, results).

    stage is a build_row_stage result at any size >= n; each row solves its
    leading n x n block of both systems and evaluates the same block of the
    forms.  Without one the row builds its own at size n.  The row is
    certified at config.precision_digits (_certified); a rerun reuses the
    exact stage.
    """
    t0 = time.perf_counter()
    if stage is None:
        stage = build_row_stage(n, constants)
    (row, results), strings = _certified(
        config.precision_digits, lambda: _solve_row(n, constants, stage),
        f"row N={n}")
    return replace(row, **strings,
                   wall_time=f"{time.perf_counter() - t0:.2f}"), results


def _solve_row(n, constants, stage):
    """compute_row at the working precision: ((Row, results), cells), the
    Row without its cells' strings, which _certified gives.

    The cells' bounds are the energies' energy_err, k_opt's k_err and the
    correction breakdown's *_err.
    """
    basis, systems, forms = stage
    systems = {label: system.leading(n) for label, system in systems.items()}
    res_inf, res_0 = ground_state_pair(systems)
    exps = expectation_set(basis[:n], res_0.coeffs, res_0.frac_bits,
                           res_0.k_opt, forms, res_0.k_err)
    br = total_energy(res_0.energy, exps, constants, res_0.energy_err)
    cells = {
        "E_inf": (res_inf.energy, res_inf.energy_err),
        "E0": (res_0.energy, res_0.energy_err),
        "deltaE2": (br.deltaE2, br.deltaE2_err),
        "deltaE3": (br.deltaE3, br.deltaE3_err),
        "E_total": (br.E_total, br.E_total_err),
        "k_opt": (res_0.k_opt, res_0.k_err),
    }
    row = Row(
        N=n, residual=mp.nstr(res_0.residual, 3),
        k_err=mp.nstr(res_0.k_err, 3),
        steps=res_inf.iterations + res_0.iterations,
        eighs=res_inf.eighs + res_0.eighs,
        precision_digits=mp.dps,
        E_digits=certified_digits(*cells["E0"]),
    )
    debug("row N=%d: %d digits, E_digits=%d", n, mp.dps, row.E_digits)
    return (row, (res_inf, res_0, exps, br)), cells


def run_tables(config=None, constants=None, n_list=None):
    """Sweep the basis sizes and assemble a ReportDocument.

    One stage at max(n_list) serves every row.  A failing size produces a
    failure row instead of aborting the sweep; all_ok reflects it.  When the
    shared stage itself fails, each size builds its own, so only a size that
    fails alone gets a failure row.  An explicitly empty sweep, or a size
    outside 1..MAX_BASIS, is a usage error.
    """
    config = config or RunConfig()
    constants = constants or default_constants()
    if n_list is None:
        n_list = list(DEFAULT_SWEEP)
    if not n_list:
        raise UsageError("empty sweep: need at least one basis size")
    if any(not 1 <= n <= MAX_BASIS for n in n_list):
        raise UsageError(f"basis sizes must be 1..{MAX_BASIS}, got {n_list}")
    try:
        stage = build_row_stage(max(n_list), constants)
    except Exception:  # noqa: BLE001 - the rows retry alone and report
        stage = None
    rows = []
    for n in n_list:
        try:
            row, _ = compute_row(n, config, constants, stage)
        except Exception as exc:  # noqa: BLE001 - failure rows are the contract
            row = Row(N=n, ok=False, error=f"{type(exc).__name__}: {exc}")
        rows.append(row)
    recompute_deltas(rows)
    return ReportDocument(
        schema_version=SCHEMA_VERSION,
        engine_version=ENGINE_VERSION,
        config=asdict(config),
        constants=asdict(constants),
        rows=rows,
    )


def solve_single(n, config=None, constants=None, nuclear_motion=True):
    """One Hamiltonian at one basis size (the `solve` CLI verb): the
    k-search on build_stage's "0" system, or on its "inf" system for the
    clamped nucleus, whose stage assembles no mass polarization; no stage of
    a solve builds expectation forms.  As in compute_row, it runs again at
    twice the digits if its energy or k_opt is not settled (_certified)."""
    config = config or RunConfig()
    constants = constants or default_constants()
    _, _, systems = build_stage(n, constants, nuclear_motion)
    system = systems["0" if nuclear_motion else "inf"]

    def solve():
        res = optimize_k(system)
        return res, {"energy": (res.energy, res.energy_err),
                     "k_opt": (res.k_opt, res.k_err)}

    return _certified(config.precision_digits, solve, f"solve N={n}")[0]
