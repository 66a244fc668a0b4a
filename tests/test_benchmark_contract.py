"""The benchmark's trace mode against the production names it wraps.

perfbench/worker.py wraps public functions where their callers look them
up (perfbench/worker.py install_wrappers); a renamed or deleted name makes
the worker die before the run.  Each case runs one traced cold-start
sample in a subprocess, as perfbench/run.py does.
"""

import json
import os
import subprocess
import sys
import time

import pytest

CHECKOUT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKER = os.path.join(CHECKOUT, "perfbench", "worker.py")


@pytest.mark.parametrize("hyhe_args, spans", [
    (["--format", "json", "sweep", "--n-list", "1,3"],
     {"eigen.reduce", "eigen.kopt", "matrices.assemble", "report.row"}),
    (["--format", "json", "solve", "--n", "3", "--no-nuclear-motion"],
     {"eigen.reduce", "eigen.kopt", "matrices.assemble",
      "report.solve_single"}),
    (["--format", "json", "solve", "--n", "3"],
     {"eigen.reduce", "eigen.kopt", "matrices.assemble",
      "report.solve_single"}),
    (["--format", "json", "corrections", "--n", "3"],
     {"eigen.reduce", "eigen.ground_state_pair", "eigen.kopt",
      "matrices.assemble", "matrices.expect", "corrections.total"}),
], ids=["sweep", "solve-clamped", "solve", "corrections"])
def test_worker_trace_runs_the_wrapped_names(hyhe_args, spans):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, WORKER, "--launched", repr(time.time()),
         "--mode", "trace", "--", *hyhe_args],
        cwd=CHECKOUT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    rec = json.loads(proc.stdout.strip().splitlines()[-1])
    assert rec["exit_code"] == 0, rec["output"]
    assert rec["exception"] is None
    assert spans <= {span["name"] for span in rec["spans"]}
    assert os.path.dirname(rec["hyhe_file"]) == os.path.join(
        CHECKOUT, "src", "hyhe")
