import ast
import csv
import dataclasses
import io
import json
import logging
import math
import os
import re
import subprocess
import sys
import time

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

import hyhe
import hyhe.report as report
from hyhe import exact
from hyhe.cli import main
from hyhe.config import DEFAULT_SWEEP, RunConfig
from hyhe.constants import default_constants
from hyhe.report import (CSV_COLUMNS, Row, UsageError, recompute_deltas,
                         run_tables)
from support import straddles


@pytest.fixture(scope="module")
def two_row_doc():
    return run_tables(n_list=[1, 2])


def test_run_tables_seed_row(two_row_doc):
    row = two_row_doc.rows[0]
    assert row.ok and row.N == 1
    assert abs(mp.mpf(row.E_inf) + mp.mpf("2.84765625")) < mp.mpf("1e-18")
    assert abs(mp.mpf(row.k_opt) - mp.mpf("1.6872686866730900502")) < mp.mpf("1e-15")
    assert row.dE_inf == "" and row.dE0 == "" and row.dE_total == ""
    assert float(row.wall_time) >= 0
    assert two_row_doc.all_ok


def test_deltas_reference_previous_row(two_row_doc):
    first, second = two_row_doc.rows
    with mp.workdps(40):
        for dcol, col in (("dE_inf", "E_inf"), ("dE0", "E0"),
                          ("dE_total", "E_total")):
            expected = mp.mpf(getattr(second, col)) - mp.mpf(getattr(first, col))
            # cells carry ~20 significant digits
            assert abs(mp.mpf(getattr(second, dcol)) - expected) < mp.mpf("1e-18")
            assert mp.mpf(getattr(second, dcol)) < 0  # more basis, lower energy


def test_empty_or_bad_sweep_rejected():
    with pytest.raises(UsageError):
        run_tables(n_list=[])
    with pytest.raises(UsageError):
        run_tables(n_list=[0, 5])


def test_csv_shape(two_row_doc):
    parsed = list(csv.reader(io.StringIO(two_row_doc.to_csv())))
    assert parsed[0] == list(CSV_COLUMNS)
    assert len(parsed) == 3
    assert parsed[1][0] == "1"
    float(parsed[2][1])  # cells parse as numbers


HUMAN_HEAD = ("   N           E_inf       dE_inf              E0          dE0"
              "      deltaE2      deltaE3         E_total     dE_total"
              "           k_opt")


def test_human_rendering(two_row_doc):
    text = two_row_doc.to_human()
    assert "E_total" in text and "-2.84765625" in text
    assert "residual" in text
    # the table, byte for byte: a header of CSV_COLUMNS, then a row with
    # its delta cells blank and a row with every cell
    lines = text.splitlines()
    head = lines.index(HUMAN_HEAD)
    assert lines[head + 1:head + 4] == [
        "-" * len(HUMAN_HEAD),
        "   1     -2.84765625                  -2.84726591              "
        "  0.00000407   0.00001841     -2.84724343                   "
        "1.68726869",
        "   2     -2.89112072  -0.04346447     -2.89069245  -0.04342655  "
        "-0.00005085   0.00002006     -2.89072325  -0.04347982      "
        "1.84936927",
    ]


def test_emit_renders_each_output_format(two_row_doc):
    for fmt, render in (("human", two_row_doc.to_human),
                        ("json", two_row_doc.to_json),
                        ("csv", two_row_doc.to_csv)):
        assert two_row_doc.emit(fmt) == render()
    with pytest.raises(UsageError, match="unknown output format 'xml'"):
        two_row_doc.emit("xml")


def test_failure_rows_keep_the_sweep_alive(monkeypatch):
    real = report.compute_row

    def flaky(n, config, constants, stage=None):
        if n == 2:
            raise RuntimeError("boom")
        return real(n, config, constants, stage)

    monkeypatch.setattr(report, "compute_row", flaky)
    doc = run_tables(n_list=[1, 2, 3])
    assert [row.ok for row in doc.rows] == [True, False, True]
    assert "RuntimeError: boom" in doc.rows[1].error
    assert not doc.all_ok
    # deltas skip the failed row: N=3 references N=1
    with mp.workdps(40):
        d = mp.mpf(doc.rows[2].dE_inf)
        expected = mp.mpf(doc.rows[2].E_inf) - mp.mpf(doc.rows[0].E_inf)
        assert abs(d - expected) < mp.mpf("1e-18")
    lines = doc.to_human().splitlines()
    head = lines.index(HUMAN_HEAD)
    assert lines[head + 3] == "   2 FAILED: RuntimeError: boom"
    assert [row["ok"] for row in json.loads(doc.to_json())["rows"]] == \
        [True, False, True]


def test_a_failed_shared_stage_leaves_each_row_its_own(rows_alone,
                                                      monkeypatch):
    # the sweep's stage at N = 13 fails, so each row builds its own stage,
    # and only the row that fails alone, N = 13, is a failure row
    real = report.build_row_stage
    built = []

    def fails_at_13(n, constants):
        built.append(n)
        if n == 13:
            raise RuntimeError("no stage")
        return real(n, constants)

    monkeypatch.setattr(report, "build_row_stage", fails_at_13)
    doc = run_tables(n_list=[3, 13, 7])
    assert built == [13, 3, 13, 7]
    assert [row.ok for row in doc.rows] == [True, False, True]
    assert doc.rows[1].error == "RuntimeError: no stage"
    for row in (doc.rows[0], doc.rows[2]):
        assert result_cells(row) == result_cells(rows_alone[row.N])
    assert not doc.all_ok


def result_cells(row):
    return (row.ok, row.E_inf, row.E0, row.deltaE2, row.deltaE3,
            row.E_total, row.k_opt)


@pytest.fixture(scope="module")
def rows_alone():
    config = RunConfig()
    return {n: report.compute_row(n, config, default_constants())[0]
            for n in (3, 7, 13)}


@pytest.mark.parametrize("n_list", [[3, 7, 13], [13, 3, 7, 3]])
def test_sweep_rows_match_rows_alone(n_list, rows_alone, monkeypatch):
    # the sweep reduces once, at N = 13, and solves leading blocks of it
    real = report.build_systems
    reduced = []

    def counting(mats, **kwargs):
        reduced.append(math.isqrt(len(mats.W[0])))
        return real(mats, **kwargs)

    monkeypatch.setattr(report, "build_systems", counting)
    doc = run_tables(n_list=n_list)
    assert reduced == [13]
    assert [row.N for row in doc.rows] == n_list
    for row in doc.rows:
        assert result_cells(row) == result_cells(rows_alone[row.N])


def test_stage_serves_no_larger_size():
    # a 7-term stage cannot stand in for a 13-term row
    constants = default_constants()
    stage = report.build_row_stage(7, constants)
    with pytest.raises(ValueError, match=r"leading\(13\) of a 7-term"):
        report.compute_row(13, RunConfig(), constants, stage)


def test_a_row_on_a_stage_allocates_no_limb_stack(monkeypatch):
    # a row reads its prebuilt stage's stacks through views: neither its
    # k-searches nor its expectation product gathers or copies limbs
    constants = default_constants()
    stage = report.build_row_stage(13, constants)
    stacks = []
    for name in ("concatenate", "ascontiguousarray"):
        def spy(*args, real=getattr(np, name), **kwargs):
            out = real(*args, **kwargs)
            if out.dtype == np.int64 and out.ndim == 3:
                stacks.append(out.shape)
            return out

        monkeypatch.setattr(np, name, spy)
    for n in (7, 13):
        report.compute_row(n, RunConfig(), constants, stage)
    assert stacks == []


@pytest.mark.parametrize("n", [7, 20])
def test_solve_single_matches_the_row(n):
    # the nuclear-motion solve runs the row's "0" search: same E0 and
    # k_opt at 20 digits
    res = report.solve_single(n)
    row, _ = report.compute_row(n, RunConfig(), default_constants())
    with mp.workdps(RunConfig().precision_digits):
        assert (report._fmt(res.energy), report._fmt(res.k_opt)) == (
            row.E0, row.k_opt)


@pytest.mark.parametrize("nuclear_motion", [True, False])
def test_a_solve_builds_no_expectation_forms(monkeypatch, nuclear_motion):
    # only a row evaluates <p^4> and Q, so only a row's stage builds their
    # forms; a solve of either Hamiltonian never calls the builder
    real = report.build_expectation_forms
    built = []

    def counting(basis, *args):
        built.append(len(basis))
        return real(basis, *args)

    monkeypatch.setattr(report, "build_expectation_forms", counting)
    report.solve_single(7, nuclear_motion=nuclear_motion)
    assert built == []
    report.compute_row(7, RunConfig(), default_constants())
    assert built == [7]


def test_shared_stage_failure_falls_back_to_rows_alone(monkeypatch,
                                                        rows_alone):
    real = report.build_systems
    calls = []

    def fails_at_13(mats, **kwargs):
        calls.append(math.isqrt(len(mats.W[0])))
        if calls[-1] == 13:
            raise ValueError("overlap matrix is not positive definite")
        return real(mats, **kwargs)

    monkeypatch.setattr(report, "build_systems", fails_at_13)
    doc = run_tables(n_list=[3, 13, 7])
    assert calls == [13, 3, 13, 7]
    assert [row.ok for row in doc.rows] == [True, False, True]
    assert "not positive definite" in doc.rows[1].error
    for row in (doc.rows[0], doc.rows[2]):
        assert result_cells(row) == result_cells(rows_alone[row.N])

    # a stage that fails only once leaves every row intact
    calls.clear()
    monkeypatch.setattr(report, "build_systems",
                        lambda mats, **kwargs: fails_at_13(mats, **kwargs)
                        if not calls else real(mats, **kwargs))
    doc = run_tables(n_list=[3, 13])
    assert calls == [13] and doc.all_ok
    assert [result_cells(row) for row in doc.rows] == \
        [result_cells(rows_alone[n]) for n in (3, 13)]


def test_recompute_deltas_blank_without_predecessor():
    rows = [Row(N=5, ok=False, error="x"), Row(N=6, E_inf="-2.0", E0="-1.9",
                                               E_total="-1.95")]
    recompute_deltas(rows)
    assert rows[1].dE_inf == ""


def test_recompute_deltas_skips_failed_rows():
    # each delta is against the previous successful row, at 30 digits
    rows = [Row(N=1, E_inf="-2.8", E0="-2.7", E_total="-2.75"),
            Row(N=2, ok=False, error="x"),
            Row(N=3, E_inf="-2.9000000000000000001", E0="-2.71",
                E_total="-2.7512345678901234567"),
            Row(N=4, E_inf="-2.91", E0="-2.72", E_total="-2.76")]
    recompute_deltas(rows)
    with mp.workdps(30):
        for row, prev in ((rows[2], rows[0]), (rows[3], rows[2])):
            for dcol, col in (("dE_inf", "E_inf"), ("dE0", "E0"),
                              ("dE_total", "E_total")):
                assert getattr(row, dcol) == report._fmt(
                    mp.mpf(getattr(row, col)) - mp.mpf(getattr(prev, col)))
    assert rows[1].dE_inf == rows[0].dE_inf == ""


def _first_up(lo, hi):
    """The least mpf in (lo, hi] at the working precision that prints as
    hi does, for lo < hi that print differently: where nstr's 20-digit
    rounding turns, which lies within about 1e-26 of the decimal boundary
    (it rounds a truncation to 23 digits)."""
    up = report._fmt(hi)
    while True:
        mid = (lo + hi) / 2
        if mid in (lo, hi):
            return hi
        lo, hi = (lo, mid) if report._fmt(mid) == up else (mid, hi)


@st.composite
def report_cells(draw):
    """A cell (value, error bound) at the working precision: a value on,
    or up to 3 working ulps from, a 20-digit rounding boundary (where
    _fmt's rounding turns) or a 20-digit value, of either sign, its
    leading digit at 10**-30 to 10**1; some carry 40 digits more than the
    working precision, as k_opt does.  The bound is 0, up to 3 ulps, or
    about a 20-digit step."""
    e = draw(st.integers(-30, 1))
    m = draw(st.integers(10 ** 19, 10 ** 20 - 1))
    unit = mp.mpf(10) ** (e - 19)
    if draw(st.booleans()):
        edge = (m + mp.mpf(0.5)) * unit
        point = _first_up(edge * (1 - mp.mpf("1e-24")),
                          edge * (1 + mp.mpf("1e-24")))
    else:
        point = m * unit
    ulp = mp.ldexp(1, mp.frexp(point)[1] - mp.prec)
    value = point + draw(st.integers(-3, 3)) * ulp
    sign = draw(st.sampled_from((1, -1)))
    extra = draw(st.sampled_from((0, 0, 40)))
    with mp.workdps(mp.dps + extra):
        value = sign * (value + draw(st.integers(-99, 99)) * ulp / 100
                        if extra else value)
    scale = draw(st.sampled_from((0, 1, 2, 3, "1e-21", "4e-21", "1e-20")))
    if isinstance(scale, str):
        return value, abs(value) * mp.mpf(scale)
    return value, scale * ulp


@settings(max_examples=300, deadline=None)
@given(st.sampled_from((30, 60)), st.data())
def test_settled_cells_print_their_checked_string(digits, data):
    # _settled decides as the two-format rule decides (support.straddles),
    # names the first cell that straddles a boundary, and gives each cell
    # of a settled set the string _fmt prints for its value
    with mp.workdps(digits):
        drawn = data.draw(st.lists(report_cells(), min_size=1, max_size=4))
        cells = {f"c{i}": cell for i, cell in enumerate(drawn)}
        strings, unsettled = report._settled(cells)
        first = next((name for name, cell in cells.items()
                      if straddles(*cell)), None)
        assert unsettled == first
        if first is None:
            assert strings == {name: report._fmt(v)
                               for name, (v, _) in cells.items()}
        else:
            assert strings is None


def test_cell_bounds_contain_a_rerun_at_20_more_digits():
    # every row N = 1 ... 50 at the default precision settles at it, each
    # printed cell's bound (widened by eps |value|, as the check widens it)
    # holds the value of a rerun at 20 more digits, and E_digits claims no
    # digit of E0 that the rerun does not confirm; one stage, built with no
    # precision context, serves both precisions
    constants = default_constants()
    digits = RunConfig().precision_digits
    stage = report.build_row_stage(50, constants)

    def rows(d):
        return [report.compute_row(n, RunConfig(precision_digits=d),
                                   constants, stage) for n in range(1, 51)]

    def cells(results):
        res_inf, res_0, _, br = results
        return {"E_inf": (res_inf.energy, res_inf.energy_err),
                "E0": (res_0.energy, res_0.energy_err),
                "deltaE2": (br.deltaE2, br.deltaE2_err),
                "deltaE3": (br.deltaE3, br.deltaE3_err),
                "E_total": (br.E_total, br.E_total_err),
                "k_opt": (res_0.k_opt, res_0.k_err)}

    with mp.workdps(digits):
        eps = +mp.eps
    for (row, results), (_, ref) in zip(rows(digits), rows(digits + 20)):
        assert row.precision_digits == digits, row.N
        ref = cells(ref)
        with mp.workdps(digits + 40):
            for name, (v, err) in cells(results).items():
                assert abs(v - ref[name][0]) <= err + abs(v) * eps, (
                    row.N, name, mp.nstr(v - ref[name][0], 3),
                    mp.nstr(err, 3))
            E, E_ref = results[1].energy, ref["E0"][0]
            if E != E_ref:
                agree = -mp.log10(abs(E - E_ref) / abs(E_ref))
                assert row.E_digits <= agree, (row.N, row.E_digits, agree)


def test_an_unsettled_cell_reruns_its_row_alone(monkeypatch):
    # a bound made wide for N = 7 below 60 digits leaves deltaE2 unsettled
    # there: that row alone runs again at twice the default 30 digits, says
    # so, and names the cell under --verbose
    real = report.expectation_set

    def lossy(basis, *args):
        exps = real(basis, *args)
        if len(basis) == 7 and mp.dps < 60:
            exps = dataclasses.replace(exps, rel_err=mp.mpf(1))
        return exps

    monkeypatch.setattr(report, "expectation_set", lossy)
    args = ["--format", "json", "sweep", "--n-list", "3,7,13"]
    result = runner.invoke(main, ["--verbose"] + args)
    assert result.exit_code == 0, result.output
    rows = json.loads(result.stdout)["rows"]
    assert [row["precision_digits"] for row in rows] == [30, 60, 30]
    reruns = [line for line in result.stderr.splitlines()
              if "unsettled" in line]
    assert reruns == ["hyhe: row N=7: deltaE2 unsettled at 30 digits; "
                      "rerun at 60"]
    assert re.search(r"^hyhe: row N=7: 60 digits, E_digits=\d+$",
                     result.stderr, re.M)
    monkeypatch.undo()
    plain = json.loads(runner.invoke(main, args).stdout)["rows"]
    assert [result_cells(Row(**row)) for row in rows] == \
        [result_cells(Row(**row)) for row in plain]


def test_an_unsettled_solve_reruns_at_twice_the_digits(monkeypatch):
    # solve_single checks its energy and k_opt as compute_row checks a row
    real = report.optimize_k

    def loose(system):
        res = real(system)
        if mp.dps < 60:
            res.energy_err = mp.mpf(1)
        return res

    monkeypatch.setattr(report, "optimize_k", loose)
    res = report.solve_single(3)
    with mp.workdps(60):
        assert res.frac_bits == mp.prec + exact.GUARD_BITS
        assert res.energy_err < mp.mpf(10) ** -50


# --- CLI ---------------------------------------------------------------------

runner = CliRunner()


def test_cli_sweep_human():
    result = runner.invoke(main, ["sweep", "--n-list", "1"])
    assert result.exit_code == 0, result.output
    assert "-2.84765625" in result.output


def test_cli_sweep_csv_and_json():
    result = runner.invoke(main, ["--format", "csv",
                                  "sweep", "--n-list", "1,2"])
    assert result.exit_code == 0
    assert result.output.splitlines()[0] == ",".join(CSV_COLUMNS)

    result = runner.invoke(main, ["--format", "json",
                                  "sweep", "--n-list", "1"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["rows"][0]["N"] == 1
    assert payload["config"]["precision_digits"] == 30
    # schema 5: no integral-cache statistics, no euler_gamma in the
    # constants header, and each row's health fields filled in
    assert set(payload) == {"schema_version", "engine_version", "config",
                            "constants", "rows"}
    assert payload["schema_version"] == 5
    assert set(payload["constants"]) == {"Z", "alpha", "mass_ratio_M",
                                         "bethe_beta", "E_exp"}
    row = payload["rows"][0]
    assert row["steps"] > 0 and mp.mpf(row["k_err"]) < mp.mpf("1e-20")
    assert row["eighs"] > 0
    assert (row["precision_digits"], row["E_digits"]) == (30, 30)


def test_cli_solve_both_hamiltonians():
    result = runner.invoke(main, ["solve", "--n", "1"])
    assert result.exit_code == 0
    assert "nuclear-motion" in result.output
    assert "1.687268686" in result.output
    assert re.search(r"^steps +1$", result.output, re.M)

    result = runner.invoke(main, ["solve", "--n", "1",
                                  "--no-nuclear-motion"])
    assert result.exit_code == 0
    assert "clamped-nucleus" in result.output
    assert "-2.84765625" in result.output
    assert re.search(r"^E_digits +30$", result.output, re.M)
    # one term: the first k step lands on 27/16 exactly, and k_err is the
    # 2**-F k of the loop's grid
    k_err = re.search(r"^k_err +(\S+)$", result.output, re.M).group(1)
    with mp.workdps(RunConfig().precision_digits):
        F = mp.prec + exact.GUARD_BITS
    assert float(k_err) == pytest.approx(1.6875 * 2.0 ** -F, rel=1e-2)

    # k_err bounds k_opt's error, to the working precision
    result = runner.invoke(main, ["--format", "json", "solve", "--n", "7"])
    assert result.exit_code == 0, result.output
    fields = json.loads(result.output)
    with mp.workdps(RunConfig().precision_digits):
        bound = mp.mpf(fields["k_opt"]) * mp.mpf(2) ** -(mp.prec - 12)
    assert 0 <= mp.mpf(fields["k_err"]) <= bound
    # the float64 eighs: the seed's Newton steps from k = 2, then one
    # eigenbasis of the correction loop
    assert (fields["steps"], fields["eighs"]) == (2, 6)
    result = runner.invoke(main, ["--precision", "100", "--format", "json",
                                  "solve", "--n", "40",
                                  "--no-nuclear-motion"])
    assert result.exit_code == 0, result.output
    fields = json.loads(result.output)
    assert (fields["steps"], fields["eighs"]) == (12, 7)


def test_cli_solve_rejects_csv():
    result = runner.invoke(main, ["--format", "csv",
                                  "solve", "--n", "1"])
    assert result.exit_code == 2


def test_cli_corrections_breakdown():
    result = runner.invoke(main, ["--format", "json",
                                  "corrections", "--n", "1"])
    assert result.exit_code == 0, result.output
    fields = json.loads(result.output)
    for key in ("E0", "deltaE2", "deltaE3", "E_total", "delta_r1",
                "log_momentum", "uncertainty"):
        assert key in fields
    assert fields["E2"] == "0.0" and fields["E3"] == "0.0"


def test_cli_usage_errors():
    assert runner.invoke(main, ["sweep", "--n-list", "x"]).exit_code == 2
    assert runner.invoke(main, ["sweep", "--n-list", ""]).exit_code == 2
    assert runner.invoke(main, ["solve", "--n", "0"]).exit_code == 2
    assert runner.invoke(main, ["corrections", "--n", "0"]).exit_code == 2
    assert runner.invoke(main, ["--alpha", "0",
                                "sweep", "--n-list", "1"]).exit_code == 2
    assert runner.invoke(main, ["--alpha", "abc",
                                "sweep", "--n-list", "1"]).exit_code == 2
    # float() reads "7.297_3e-3" as 7.2973e-3 and mpmath as 7.2973e-4: the
    # run stops at validation and names the field
    result = runner.invoke(main, ["--alpha", "7.297_3e-3",
                                  "sweep", "--n-list", "1"])
    assert result.exit_code == 2 and "alpha" in result.output


@pytest.mark.parametrize("args", [["solve", "--n", "301"],
                                  ["corrections", "--n", "301"],
                                  ["sweep", "--n-list", "20,301"]])
def test_cli_sizes_past_max_basis_are_usage_errors(args):
    # refused before any stage is built, naming the limit
    t0 = time.perf_counter()
    result = runner.invoke(main, args)
    assert time.perf_counter() - t0 < 1
    assert result.exit_code == 2, result.output
    assert "300" in result.output and "Traceback" not in result.output


# the default sweep's cells, each at its 20 printed digits: E_inf, E0,
# deltaE2, deltaE3, E_total and k_opt at each N of DEFAULT_SWEEP
DEFAULT_SWEEP_CELLS = {
    20: ("-2.9037123521833017098", "-2.9032925284325082559",
         "-0.00010201619993165552233", "0.000022254041932394087978",
         "-2.9033722905905075174", "2.0144961794959568273"),
    30: ("-2.9037207626197164983", "-2.9033009425485711339",
         "-0.00010151230806393922207", "0.00002224510428279150916",
         "-2.9033802097523522816", "2.0890472771007877184"),
    40: ("-2.903723135517563758", "-2.9033033157155091661",
         "-0.00010121768473237344709", "0.000022245379195769926108",
         "-2.9033822880210457696", "2.1350608558343044482"),
    50: ("-2.9037237019379654316", "-2.9033038825694226464",
         "-0.00010139032593815274451", "0.000022253487638107067085",
         "-2.9033830194077226921", "2.2341700119506241494"),
}


def test_cli_tables_is_the_default_sweep():
    # the tables verb prints what a sweep of DEFAULT_SWEEP prints, in human
    # and JSON, wall times masked, and its JSON holds DEFAULT_SWEEP_CELLS
    sweep = ["sweep", "--n-list", ",".join(map(str, DEFAULT_SWEEP))]
    for fmt in ("human", "json"):
        outputs = [runner.invoke(main, ["--format", fmt] + verb)
                   for verb in (["tables"], sweep)]
        assert [r.exit_code for r in outputs] == [0, 0]
        tables, swept = (re.sub(r'(wall |"wall_time": ")[0-9.]+', r"\1*",
                                r.output) for r in outputs)
        assert tables == swept
        assert ("N=50:" if fmt == "human" else '"N": 50') in tables
    cells = ("E_inf", "E0", "deltaE2", "deltaE3", "E_total", "k_opt")
    assert {row["N"]: tuple(row[col] for col in cells)
            for row in json.loads(tables)["rows"]} == DEFAULT_SWEEP_CELLS


def test_cli_config_file_value_that_does_not_parse(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("precision_digits = abc\n")
    result = runner.invoke(main, ["--config", str(cfg),
                                  "sweep", "--n-list", "1"])
    assert result.exit_code == 2
    assert "config key 'precision_digits': cannot parse 'abc'" in \
        result.output


def test_cli_env_overrides_flow_into_config():
    # precision below the floor proves HYHE_ env vars reach load_config
    result = runner.invoke(main, ["sweep", "--n-list", "1"],
                           env={"HYHE_PRECISION_DIGITS": "10"})
    assert result.exit_code == 2
    result = runner.invoke(main, ["sweep", "--n-list", "1"],
                           env={"HYHE_OUTPUT": "csv"})
    assert result.exit_code == 0
    assert result.output.splitlines()[0] == ",".join(CSV_COLUMNS)


def test_cli_rejects_non_utf8_config_file(tmp_path):
    # exit 2 with a usage error naming the file, and no traceback
    cfg = tmp_path / "utf16.cfg"
    cfg.write_bytes(b"\xff\xfeo\x00u\x00t\x00")
    result = runner.invoke(main, ["--config", str(cfg),
                                  "sweep", "--n-list", "1"])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert "utf16.cfg: 'utf-8' codec can't decode" in result.output


@pytest.mark.parametrize("text, code, shown", [
    (b"\xef\xbb\xbfprecision_digits = 40\n", 0, '"precision_digits": 40'),
    (b"precision_digits = 40\nprecision_digits = 50\n", 2,
     "config key 'precision_digits' set twice: lines 1 and 2"),
    (b"= 40\n", 2, "config line 1: expected 'key = value', got '= 40'"),
], ids=["byte-order-mark", "repeated-key", "empty-key"])
def test_cli_config_file_mark_and_repeated_key(tmp_path, text, code, shown):
    # a leading byte-order mark is skipped, so the run goes at the file's
    # precision; a key set twice is a usage error naming both lines, and a
    # line with no key one naming its line
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(text)
    result = runner.invoke(main, ["--config", str(cfg), "--format", "json",
                                  "sweep", "--n-list", "1"],
                           env={"HYHE_PRECISION_DIGITS": None})
    assert result.exit_code == code, result.output
    assert shown in result.output


def test_cli_option_beats_env_beats_config_file(tmp_path):
    # each layer sets both precision and format; the human and JSON reports
    # echo the config the run used
    cfg = tmp_path / "run.cfg"
    cfg.write_text("precision_digits = 35\noutput = human\n")
    args = ["--config", str(cfg), "sweep", "--n-list", "1"]
    env = {"HYHE_PRECISION_DIGITS": None, "HYHE_OUTPUT": None}
    result = runner.invoke(main, args, env=env)
    assert result.exit_code == 0, result.output
    assert "config:    output=human, precision_digits=35" in result.output
    env = {"HYHE_PRECISION_DIGITS": "40", "HYHE_OUTPUT": "json"}
    result = runner.invoke(main, args, env=env)
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["config"] == {"output": "json",
                                                   "precision_digits": 40}
    result = runner.invoke(main, ["--precision", "45", "--format", "human"]
                           + args, env=env)
    assert result.exit_code == 0, result.output
    assert "config:    output=human, precision_digits=45" in result.output


@pytest.mark.parametrize("args, env", [
    (["--format", "json", "solve"], {"HYHE_SOLVE_N": "3"}),
    (["sweep"], {"HYHE_SWEEP_N_LIST": "1,2"}),
])
def test_cli_verbs_read_no_environment(args, env):
    # only the four group options have variables; a verb's required option
    # must come from the command line
    result = runner.invoke(main, args, env=env)
    assert result.exit_code == 2, result.output


def test_cli_verbose_logs_the_k_search_to_stderr():
    # csv carries no wall times, so equal output is byte for byte; the stage
    # line and the k-search trace go to stderr only
    args = ["--format", "csv", "sweep", "--n-list", "7"]
    plain = runner.invoke(main, args)
    verbose = runner.invoke(main, ["--verbose"] + args)
    assert plain.exit_code == verbose.exit_code == 0, verbose.output
    assert verbose.stdout == plain.stdout
    assert plain.stderr == ""
    lines = verbose.stderr.splitlines()
    # one shared stage at N = 7, with its float64 conditioning estimate
    stage = [line for line in lines if line.startswith("hyhe: stage: ")]
    assert len(stage) == 1
    assert re.fullmatch(r"hyhe: stage: n=7 cond_bits=\d+", stage[0])
    # one line per correction step of both searches, with k, E and the
    # step's size in bits, against the row's step count; each float seed
    # names the solve's fixed-point width F
    row = run_tables(n_list=[7]).rows[0]
    with mp.workdps(row.precision_digits):
        F = mp.prec + exact.GUARD_BITS
    steps = 0
    for label in ("inf", "0"):
        head = f"hyhe: k-search {label}: "
        step = [line for line in lines if line.startswith(head + "step k=")]
        assert all(re.search(r" E=\S+ dc=2\^-\d+$", line) for line in step)
        steps += len(step)
        seed = [line for line in lines
                if line.startswith(head + "float seed k_f=")]
        assert len(seed) == 1
        assert re.fullmatch(head + rf"float seed k_f=\S+ F={F} steps=\d+",
                            seed[0])
        # each search names its start: k = 2, or mu k_inf for the "0" one
        start = [line for line in lines if line.startswith(head + "start ")]
        want = r"k=2\.0" if label == "inf" else r"mu\*k_inf=\S+"
        assert len(start) == 1, start
        assert re.fullmatch(head + "start " + want, start[0]), start
    assert steps == row.steps > 0
    # one normalization error |c'Wc - 1| per row
    norm = [line for line in lines if line.startswith("hyhe: expectations: ")]
    assert len(norm) == 1
    assert re.fullmatch(r"hyhe: expectations: norm_err=\S+", norm[0])
    assert not logging.getLogger("hyhe").handlers   # removed on close


def test_debug_computes_a_callable_argument_only_when_logged(caplog):
    # a row's normalization error is formatted only for a line that is
    # logged: debug calls a callable argument only then
    calls = []

    def norm_err():
        calls.append(1)
        return "1e-31"

    with caplog.at_level(logging.INFO, logger="hyhe"):
        hyhe.debug("expectations: norm_err=%s", norm_err)
    assert calls == []
    with caplog.at_level(logging.DEBUG, logger="hyhe"):
        hyhe.debug("expectations: norm_err=%s", norm_err)
    assert calls == [1]
    assert "expectations: norm_err=1e-31" in caplog.text


def test_cli_failure_row_exit_code(monkeypatch):
    def boom(n, config, constants, stage=None):
        raise RuntimeError("broken")

    monkeypatch.setattr(report, "compute_row", boom)
    result = runner.invoke(main, ["sweep", "--n-list", "1"])
    assert result.exit_code == 1
    assert "FAILED" in result.output


@pytest.mark.parametrize("verb, name", [("solve", "solve_single"),
                                        ("corrections", "compute_row")])
def test_cli_verb_failure_is_one_line_and_exit_1(verb, name, monkeypatch):
    # a verb that fails prints one line to stderr, as a failure row reads,
    # and no traceback
    def boom(*args, **kwargs):
        raise RuntimeError("broken")

    monkeypatch.setattr(f"hyhe.cli.{name}", boom)
    result = runner.invoke(main, [verb, "--n", "3"])
    assert result.exit_code == 1
    assert result.stdout == ""
    assert result.stderr == "Error: RuntimeError: broken\n"


def test_sweep_imports_neither_fractions_nor_decimal():
    # the exact helpers work on (numerator, denominator) int pairs, so a
    # sweep loads neither module (with decimal, about 0.4 MB resident); nor,
    # without --verbose and in human output, logging or csv
    code = (
        "import sys\n"
        "from hyhe.cli import main\n"
        "try:\n"
        "    main(['sweep', '--n-list', '1,3'])\n"
        "except SystemExit as exit:\n"
        "    assert exit.code == 0, exit.code\n"
        "print(sorted({'fractions', 'decimal', 'logging', 'csv'}\n"
        "             & set(sys.modules)))\n"
    )
    src = os.path.dirname(os.path.dirname(hyhe.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=300,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]", proc.stdout


def test_rows_count_their_eighs():
    # the clamped search starts at k = 2, the moving-nucleus one at
    # mu k_opt(inf), whose float64 root takes 2 eighs instead of 4 to 6; so
    # at 30 digits the rows take these eighs and correction steps
    rows = run_tables(n_list=[20, 30, 40]).rows
    assert [(row.eighs, row.steps) for row in rows] == [(8, 5), (10, 6),
                                                        (10, 6)]
    rows = run_tables(n_list=[1, 3, 7, 13, 22, 34]).rows
    assert [row.eighs for row in rows] == [5, 10, 9, 9, 9, 10]
    assert [row.steps for row in rows] == [2, 4, 4, 4, 6, 6]


def test_no_module_imports_another_modules_private_names():
    # a name with a leading underscore belongs to its module: no hyhe module
    # imports one (dunders aside) from another
    src = os.path.dirname(hyhe.__file__)
    private = []
    for name in sorted(os.listdir(src)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(src, name), encoding="utf-8") as f:
            tree = ast.parse(f.read(), name)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").split(".")[0] == "hyhe"):
                private += [(name, alias.name) for alias in node.names
                            if alias.name.startswith("_")
                            and not alias.name.endswith("__")]
    assert private == []


def test_cli_import_path_leaves_out_scipy():
    # scipy and the referees in tests/support serve only the tests; a fresh
    # interpreter that imports hyhe and the CLI and runs a sweep must never
    # load them
    code = (
        "import sys\n"
        "from click.testing import CliRunner\n"
        "def referees():\n"
        "    return sorted(m for m in sys.modules if m == 'scipy'\n"
        "                  or m.startswith(('scipy.', 'support', 'hyhe.oracles')))\n"
        "import hyhe\n"
        "assert not referees(), ('import hyhe loaded', referees())\n"
        "import hyhe.cli\n"
        "assert not referees(), ('import hyhe.cli loaded', referees())\n"
        "result = CliRunner().invoke(hyhe.cli.main, ['sweep', '--n-list', '3'])\n"
        "assert result.exit_code == 0, result.output\n"
        "assert not referees(), ('sweep loaded', referees())\n"
    )
    src = os.path.dirname(os.path.dirname(hyhe.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=300,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr


# --- per-precision constants -------------------------------------------------

def test_importing_hyhe_fills_no_cache():
    # the constant factors are computed on first use, not at import, so a
    # run's setup pays for none of them
    code = (
        "import hyhe, hyhe.cli\n"
        "from hyhe import corrections, matrices\n"
        "print(corrections._factors.cache_info().currsize,\n"
        "      matrices._factors.cache_info().currsize)\n"
    )
    src = os.path.dirname(os.path.dirname(hyhe.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=300,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "0"]


def test_cached_constants_never_go_stale():
    # a row at 30, then 60, then 30 digits, and with alpha overridden (as
    # --alpha overrides it), gives the expectation values and corrections,
    # bit for bit, that it gives with every cache emptied first: no factor
    # cached for one precision or constant set serves another
    from hyhe import corrections, matrices
    from hyhe.constants import PhysicalConstants
    bumped = PhysicalConstants(alpha="7.2973525e-3").validate()
    runs = [(30, default_constants()), (60, default_constants()),
            (30, default_constants()), (30, bumped), (60, bumped),
            (30, default_constants())]

    def values(digits, constants):
        _, (_, _, exps, br) = report.compute_row(
            3, RunConfig(precision_digits=digits), constants)
        return exps, br

    warm = [values(*run) for run in runs]
    fresh = []
    for run in runs:
        corrections._factors.cache_clear()
        matrices._factors.cache_clear()
        fresh.append(values(*run))
    assert warm == fresh
    assert warm[0] == warm[2] == warm[5] != warm[3]
