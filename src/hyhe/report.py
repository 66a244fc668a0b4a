"""End-to-end sweep pipeline and report serialization.

A report row is one basis size N pushed through the whole chain:
matrices -> both ground states -> expectation values on the nuclear-motion
state -> correction breakdown.  A sweep assembles and packs the pencil
once, at its largest N; the bases are nested prefixes, so every row solves
the leading block of that one stage.  Numeric cells are stored as strings (20
significant digits) so that emit -> parse -> emit is byte-stable; the
delta columns (dE_inf, dE0, dE_total: change against the previous row) are
derived data and are recomputed from the energy columns whenever a document
is loaded.
"""

import csv
import io
import json
import time
from dataclasses import dataclass, field, asdict
from typing import NamedTuple

from mpmath import mp

from . import __version__ as ENGINE_VERSION
from .basis import enumerate_basis
from .config import DEFAULT_SWEEP, RunConfig
from .constants import default_constants
from .corrections import total_energy
from .eigen import build_systems, ground_state_pair, optimize_k
from .matrices import build_operator_matrices, expectation_set

SCHEMA_VERSION = 3

CSV_COLUMNS = ("N", "E_inf", "dE_inf", "E0", "dE0", "deltaE2", "deltaE3",
               "E_total", "dE_total", "k_opt")


class UsageError(ValueError):
    """Malformed request (empty sweep, bad format); maps to exit code 2."""


def _fmt(x):
    """Canonical 20-digit string for a report cell."""
    return mp.nstr(mp.mpf(x), 20)


@dataclass
class Row:
    """One basis size.  k_opt, k_err and residual belong to the
    nuclear-motion Hamiltonian, whose state also feeds the corrections;
    solves counts the mp eigensolves of both k-searches.  In a sweep,
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
    solves: int = 0
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
        payload = {
            "schema_version": self.schema_version,
            "engine_version": self.engine_version,
            "config": self.config,
            "constants": self.constants,
            "rows": [asdict(row) for row in self.rows],
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text):
        payload = json.loads(text)
        doc = cls(
            schema_version=payload["schema_version"],
            engine_version=payload["engine_version"],
            config=payload["config"],
            constants=payload["constants"],
            rows=[Row(**row) for row in payload["rows"]],
        )
        recompute_deltas(doc.rows)
        return doc

    def to_csv(self):
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for row in self.rows:
            writer.writerow([row.N, row.E_inf, row.dE_inf, row.E0, row.dE0,
                             row.deltaE2, row.deltaE3, row.E_total,
                             row.dE_total, row.k_opt])
        return buf.getvalue()

    def to_human(self):
        def num(cell, width=15):
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
        head = (f"{'N':>4} {'E_inf':>15} {'dE_inf':>12} {'E0':>15} {'dE0':>12} "
                f"{'deltaE2':>12} {'deltaE3':>12} {'E_total':>15} "
                f"{'dE_total':>12} {'k_opt':>15}")
        lines.append(head)
        lines.append("-" * len(head))
        for row in self.rows:
            if not row.ok:
                lines.append(f"{row.N:>4} FAILED: {row.error}")
                continue
            lines.append(
                f"{row.N:>4} {num(row.E_inf)} {num(row.dE_inf, 12)} "
                f"{num(row.E0)} {num(row.dE0, 12)} {num(row.deltaE2, 12)} "
                f"{num(row.deltaE3, 12)} {num(row.E_total)} "
                f"{num(row.dE_total, 12)} {num(row.k_opt)}")
        lines.append("")
        for row in self.rows:
            if row.ok:
                lines.append(f"  N={row.N}: residual {row.residual}, "
                             f"wall {row.wall_time}s")
        return "\n".join(lines) + "\n"

    def emit(self, fmt):
        if fmt == "human":
            return self.to_human()
        if fmt == "json":
            return self.to_json()
        if fmt == "csv":
            return self.to_csv()
        raise UsageError(f"unknown output format {fmt!r}")


def recompute_deltas(rows):
    """Fill dE_* cells as differences against the previous successful row."""
    with mp.workdps(30):
        prev = None
        for row in rows:
            if not row.ok:
                continue
            for dcol, col in (("dE_inf", "E_inf"), ("dE0", "E0"),
                              ("dE_total", "E_total")):
                if prev is None or getattr(prev, col) == "":
                    setattr(row, dcol, "")
                else:
                    diff = mp.mpf(getattr(row, col)) - mp.mpf(getattr(prev, col))
                    setattr(row, dcol, _fmt(diff))
            prev = row
    return rows


class Stage(NamedTuple):
    """Basis, exact matrices and both pencil systems at one basis size."""

    basis: list
    matrices: object
    systems: dict


def build_stage(n, constants):
    """Assemble the n-term basis and build both pencil systems (inside
    mp.workdps)."""
    basis = enumerate_basis(n)
    mats = build_operator_matrices(basis, Z=constants.Z)
    return Stage(basis, mats, build_systems(mats,
                                            mass_ratio=constants.mass_ratio_M))


def compute_row(n, config, constants, stage=None):
    """Run the full pipeline for one basis size; returns (Row, results).

    stage is a build_stage result at any size >= n at this precision; each
    row solves its leading n x n block.  Without one the row builds its own.
    """
    t0 = time.perf_counter()
    with mp.workdps(config.precision_digits):
        basis, mats, systems = stage or build_stage(n, constants)
        res_inf, res_0 = ground_state_pair(
            {label: system.leading(n) for label, system in systems.items()})
        exps = expectation_set(basis[:n], res_0.coeffs, res_0.frac_bits,
                               res_0.k_opt, [row[:n] for row in mats.W[:n]],
                               gamma=constants.gamma_mp())
        breakdown = total_energy(res_0.energy, exps, constants)
        row = Row(
            N=n,
            E_inf=_fmt(res_inf.energy),
            E0=_fmt(res_0.energy),
            deltaE2=_fmt(breakdown.deltaE2),
            deltaE3=_fmt(breakdown.deltaE3),
            E_total=_fmt(breakdown.E_total),
            k_opt=_fmt(res_0.k_opt),
            residual=mp.nstr(res_0.residual, 3),
            k_err=mp.nstr(res_0.k_err, 3),
            solves=len(res_inf.trace) + len(res_0.trace),
            wall_time=f"{time.perf_counter() - t0:.2f}",
        )
    return row, (res_inf, res_0, exps, breakdown)


def run_tables(config=None, constants=None, n_list=None):
    """Sweep the basis sizes and assemble a ReportDocument.

    One stage at max(n_list) serves every row.  A failing size produces a
    failure row instead of aborting the sweep; all_ok reflects it.  When the
    shared stage itself fails, each size builds its own, so only a size that
    fails alone gets a failure row.  An explicitly empty sweep is a usage
    error.
    """
    config = config or RunConfig()
    constants = constants or default_constants()
    if n_list is None:
        n_list = list(DEFAULT_SWEEP)
    if not n_list:
        raise UsageError("empty sweep: need at least one basis size")
    if any(n < 1 for n in n_list):
        raise UsageError(f"basis sizes must be >= 1, got {n_list}")
    try:
        with mp.workdps(config.precision_digits):
            stage = build_stage(max(n_list), constants)
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
        config=config.echo(),
        constants=constants.echo(),
        rows=rows,
    )


def solve_single(n, config=None, constants=None, nuclear_motion=True):
    """One Hamiltonian at one basis size (the `solve` CLI verb)."""
    config = config or RunConfig()
    constants = constants or default_constants()
    with mp.workdps(config.precision_digits):
        basis = enumerate_basis(n)
        mats = build_operator_matrices(basis, Z=constants.Z)
        systems = build_systems(
            mats, mass_ratio=constants.mass_ratio_M if nuclear_motion else None,
            include=("0",) if nuclear_motion else ("inf",))
        system = systems["0" if nuclear_motion else "inf"]
        result = optimize_k(system)
    return result


def corrections_single(n, config=None, constants=None):
    """Full correction breakdown at one basis size (the `corrections` verb)."""
    config = config or RunConfig()
    constants = constants or default_constants()
    row, (res_inf, res_0, exps, breakdown) = compute_row(n, config, constants)
    return row, res_0, exps, breakdown
