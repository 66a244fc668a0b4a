import csv
import io
import json
import logging
import os
import re
import subprocess
import sys

import pytest
from click.testing import CliRunner
from mpmath import mp

import hyhe
import hyhe.report as report
from hyhe.cli import main
from hyhe.config import RunConfig
from hyhe.constants import default_constants
from hyhe.report import (CSV_COLUMNS, ReportDocument, Row, UsageError,
                         recompute_deltas, run_tables)


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


def test_json_round_trip_is_stable(two_row_doc):
    text = two_row_doc.to_json()
    clone = ReportDocument.from_json(text)
    assert clone.to_json() == text
    assert clone.rows[0].E_inf == two_row_doc.rows[0].E_inf


def test_json_schema_v2_reads_v1(two_row_doc):
    payload = json.loads(two_row_doc.to_json())
    assert payload["schema_version"] == 3 and "cache" not in payload
    # a version-1 document carried the removed integral-cache statistics
    old = dict(payload, schema_version=1,
               cache={"entries": 6, "hits": 4, "misses": 6})
    clone = ReportDocument.from_json(json.dumps(old))
    assert clone.schema_version == 1
    assert [row.E_total for row in clone.rows] == \
        [row.E_total for row in two_row_doc.rows]


def test_json_schema_v3_reads_v2(two_row_doc):
    payload = json.loads(two_row_doc.to_json())
    for row in payload["rows"]:
        assert row["solves"] > 0 and mp.mpf(row["k_err"]) < mp.mpf("1e-20")
    # a version-2 row had no solve count and no k error
    old = dict(payload, schema_version=2,
               rows=[{k: v for k, v in row.items()
                      if k not in ("solves", "k_err")}
                     for row in payload["rows"]])
    clone = ReportDocument.from_json(json.dumps(old))
    assert clone.schema_version == 2
    assert [(row.solves, row.k_err) for row in clone.rows] == [(0, "")] * 2
    assert clone.to_csv() == two_row_doc.to_csv()


def test_csv_shape(two_row_doc):
    parsed = list(csv.reader(io.StringIO(two_row_doc.to_csv())))
    assert parsed[0] == list(CSV_COLUMNS)
    assert len(parsed) == 3
    assert parsed[1][0] == "1"
    float(parsed[2][1])  # cells parse as numbers


def test_human_rendering(two_row_doc):
    text = two_row_doc.to_human()
    assert "E_total" in text and "-2.84765625" in text
    assert "residual" in text


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
    assert "FAILED: RuntimeError: boom" in doc.to_human()
    clone = ReportDocument.from_json(doc.to_json())
    assert not clone.all_ok


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
        reduced.append(mats.n_basis)
        return real(mats, **kwargs)

    monkeypatch.setattr(report, "build_systems", counting)
    doc = run_tables(n_list=n_list)
    assert reduced == [13]
    assert [row.N for row in doc.rows] == n_list
    for row in doc.rows:
        assert result_cells(row) == result_cells(rows_alone[row.N])


def test_shared_stage_failure_falls_back_to_rows_alone(monkeypatch,
                                                        rows_alone):
    real = report.build_systems
    calls = []

    def fails_at_13(mats, **kwargs):
        calls.append(mats.n_basis)
        if mats.n_basis == 13:
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
    assert payload["config"]["precision_digits"] == 50


def test_cli_solve_both_hamiltonians():
    result = runner.invoke(main, ["solve", "--n", "1"])
    assert result.exit_code == 0
    assert "nuclear-motion" in result.output
    assert "1.687268686" in result.output

    result = runner.invoke(main, ["solve", "--n", "1",
                                  "--no-nuclear-motion"])
    assert result.exit_code == 0
    assert "clamped-nucleus" in result.output
    assert "-2.84765625" in result.output


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
    assert runner.invoke(main, ["--alpha", "0",
                                "sweep", "--n-list", "1"]).exit_code == 2
    assert runner.invoke(main, ["--alpha", "abc",
                                "sweep", "--n-list", "1"]).exit_code == 2


def test_cli_env_overrides_flow_into_config():
    # precision below the floor proves HYHE_ env vars reach load_config
    result = runner.invoke(main, ["sweep", "--n-list", "1"],
                           env={"HYHE_PRECISION_DIGITS": "10"})
    assert result.exit_code == 2
    result = runner.invoke(main, ["sweep", "--n-list", "1"],
                           env={"HYHE_OUTPUT": "csv"})
    assert result.exit_code == 0
    assert result.output.splitlines()[0] == ",".join(CSV_COLUMNS)


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
    assert re.fullmatch(r"hyhe: stage: n=7 F=\d+ cond_bits=\d+", stage[0])
    for label in ("inf", "0"):
        head = f"hyhe: k-search {label}: "
        solves = [line for line in lines if line.startswith(head + "solve k=")]
        assert len(solves) == 3
        assert all(re.search(r" E=\S+ steps=\d+$", line) for line in solves)
        assert sum(line.startswith(head + "float seed k_f=")
                   for line in lines) == 1
    # one normalization error |c'Wc - 1| per row
    norm = [line for line in lines if line.startswith("hyhe: expectations: ")]
    assert len(norm) == 1
    assert re.fullmatch(r"hyhe: expectations: norm_err=\S+", norm[0])
    assert not logging.getLogger("hyhe").handlers   # removed on close


def test_cli_failure_row_exit_code(monkeypatch):
    def boom(n, config, constants, stage=None):
        raise RuntimeError("broken")

    monkeypatch.setattr(report, "compute_row", boom)
    result = runner.invoke(main, ["sweep", "--n-list", "1"])
    assert result.exit_code == 1
    assert "FAILED" in result.output


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
