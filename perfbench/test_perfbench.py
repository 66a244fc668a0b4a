"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import json
import os
import shutil
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402


def _span(id_, parent, start, end, name="x", label=None):
    return {"id": id_, "parent": parent, "start": start, "end": end,
            "name": name, "label": label, "run": "t"}


def test_self_times_subtract_child_cover():
    spans = [
        _span(0, None, 0.0, 10.0),
        _span(1, 0, 1.0, 4.0),
        _span(2, 0, 5.0, 9.0),
        _span(3, 2, 6.0, 7.0),
        _span(4, 2, 6.5, 8.0),     # overlaps its sibling: covered once
    ]
    own = run.self_times(spans)
    assert own == pytest.approx({0: 3.0, 1: 3.0, 2: 2.0, 3: 1.0, 4: 1.5})
    # self times add up to the root's duration, less the sibling overlap
    assert sum(own.values()) - 0.5 == pytest.approx(10.0)


def test_layer_metrics_from_synthetic_trace():
    spans = [
        _span(0, None, 0.0, 10.0, "cli"),
        _span(1, 0, 0.5, 9.5, "report.row", 20),
        _span(2, 1, 1.0, 2.0, "matrices.assemble", 20),
        _span(3, 1, 2.0, 6.0, "eigen.kopt", "inf"),
        _span(4, 3, 2.5, 3.5, "eigen.solve"),
        _span(5, 3, 4.0, 6.0, "eigen.solve"),
    ]
    traced = {"spans": spans, "wall_s": 10.0, "probes": [[4.2, 4.4]],
              "raw_moment": {"lookups": 100, "misses": 4}}
    untraced = {"spans": [], "wall_s": 9.0, "probes": [[1.0, 1.1]]}
    m = run.layer_metrics(traced, untraced)
    # the burst sits in the second solve and is left out of every time
    assert m["eigen.kopt_s.inf"] == pytest.approx(3.8)
    assert m["eigen.kopt_s.0"] == 0.0
    assert m["eigen.solves"] == 2
    assert m["eigen.solve_s_mean"] == pytest.approx(1.4)
    assert m["matrices.assemble_s"] == pytest.approx(1.0)
    assert m["matrices.assembled_pairs"] == 210
    assert m["report.row_s.N20"] == pytest.approx(8.8)
    assert m["report.row_s.N30"] == 0.0
    assert m["integrals.raw_moment_hit_ratio"] == pytest.approx(0.96)
    assert m["trace.probe_s"] == pytest.approx(0.2)
    assert m["trace.layer_self_s"] == pytest.approx(8.8)
    assert m["run.wall_s"] == 9.0
    assert m["trace.overhead_s"] == pytest.approx(
        run.normalized_wall(traced) - run.normalized_wall(untraced))
    assert set(m) == set(run.declared_units(trace=True))


def test_normalized_wall_cancels_host_speed():
    nominal = run.PROBE_NOMINAL_S
    fast = {"wall_s": 10.0 + 4 * nominal,
            "probes": [[i, i + nominal] for i in range(4)]}
    slow = {"wall_s": 15.0 + 4 * 1.5 * nominal,
            "probes": [[i, i + 1.5 * nominal] for i in range(4)]}
    assert run.normalized_wall(fast) == pytest.approx(10.0)
    assert run.normalized_wall(slow) == pytest.approx(10.0)


def test_golden_comparator_flags_one_digit():
    golden = run.load_golden()["workloads"]["tables"]
    got = json.loads(json.dumps(golden))
    assert run.compare_cells(golden, got) == []
    cell = got["30"]["E_total"]
    last = cell[-1]
    got["30"]["E_total"] = cell[:-1] + ("1" if last != "1" else "2")
    diffs = run.compare_cells(golden, got)
    assert diffs == [("/30/E_total", cell, got["30"]["E_total"])]


def test_golden_comparator_flags_missing_row():
    golden = run.load_golden()["workloads"]["shells"]
    got = {k: v for k, v in golden.items() if k != "34"}
    assert [d[0] for d in run.compare_cells(golden, got)] == ["/34"]


def test_failed_row_fails_the_sample():
    rec = {"exception": None, "exit_code": 0, "output": json.dumps(
        {"rows": [{"N": 1, "ok": False, "error": "boom"}]})}
    assert "row N=1 failed" in run.sample_failure(rec, {})


SMALL = ["--format", "json", "sweep", "--n-list", "1,3,7"]
EXACT = ("eigen.solves", "eigen.reduce_calls", "matrices.assembled_pairs",
         "integrals.raw_moment_lookups", "integrals.raw_moment_misses")


def test_exact_counts_repeat_across_traced_runs():
    counts = []
    for run_id in ("a", "b"):
        rec = run.sample("trace", SMALL, run_id=run_id)
        cells = run.extract_cells(rec["output"])
        assert run.sample_failure(rec, cells) is None
        m = run.layer_metrics(rec, rec)
        counts.append({name: m[name] for name in EXACT})
        assert {sp["run"] for sp in rec["spans"]} == {run_id}
    assert counts[0] == counts[1]
    assert counts[0]["eigen.reduce_calls"] == 3
    assert counts[0]["matrices.assembled_pairs"] == 1 + 6 + 28


def test_traced_cells_equal_untraced():
    plain = run.sample("run", SMALL)
    traced = run.sample("trace", SMALL)
    assert run.extract_cells(traced["output"]) == \
        run.extract_cells(plain["output"])


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.CHECKOUT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "shells",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
