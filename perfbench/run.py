"""hyhe benchmark: end-to-end and per-layer timings of the CLI, cold start.

    python3 perfbench/run.py --workload tables --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 1     # summary table
    python3 perfbench/run.py --write-golden                 # re-capture cells

Every timed sample is one fresh interpreter (perfbench/worker.py) that
imports hyhe and invokes a CLI verb in-process through click.  A fresh
process per sample keeps `integrals.raw_moment`'s lru_cache and
`matrices._ZETA2_TAIL` cold, as every CLI user sees them.  Each sample's
result cells are compared with perfbench/golden.json at their 20 printed
digits; a mismatch, a failed row, an exception or a non-zero exit fails the
sample.

`--trace 0` reports the end-to-end metrics (medians over the samples of the
run), with wall time rescaled by the worker's speed probe to a reference
CPU speed (see perfbench/README.md).  `--trace 1` runs one untraced and one
traced sample and reports the per-layer metrics built from the traced
sample's spans.  The workloads have
no random input: the seed only sets the order in which the samples of a run
are interleaved.  The last line of standard output is one JSON object.
"""

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKOUT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
GOLDEN = os.path.join(HERE, "golden.json")
BENCHMARK = os.path.join(CHECKOUT, "BENCHMARK.json")
SPAN_DIR = os.path.join(CHECKOUT, ".perfbench")

WORKLOADS = {
    "tables": ["--format", "json", "sweep", "--n-list", "20,30,40"],
    "shells": ["--format", "json", "sweep", "--n-list", "1,3,7,13,22,34"],
    "solve-40-p100": ["--precision", "100", "--format", "json", "solve",
                      "--n", "40", "--no-nuclear-motion"],
}

# report rows of every workload; a workload reports 0 s for rows it lacks
ROW_SIZES = (1, 3, 7, 13, 20, 22, 30, 34, 40)
ROW_CELLS = ("E_inf", "E0", "deltaE2", "deltaE3", "E_total", "k_opt")
SOLVE_CELLS = ("energy", "k_opt")
GOLDEN_NOTE = ("Cells are compared at their 20 printed digits. k_opt is "
               "converged only to k_tol = 1e-12; a change that moves its "
               "trailing digits has to justify that on its own.")
SETUP_SAMPLES = 9
# mean burst duration of worker.SpeedProbe that wall_norm_s rescales to
PROBE_NOMINAL_S = 0.007
SAMPLE_TIMEOUT_S = 170


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


# ---------------------------------------------------------------------------
# samples
# ---------------------------------------------------------------------------

def child_env():
    """Environment of a sample: BLAS pinned to one thread, no HYHE_* leaks."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("HYHE_")}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("PYTHONPATH", None)
    return env


def sample(mode, hyhe_args=(), run_id="0"):
    """Run one worker process to completion and return its JSON record."""
    launched = time.time()
    proc = subprocess.run(
        [sys.executable, WORKER, "--launched", repr(launched), "--mode", mode,
         "--run-id", run_id, "--", *hyhe_args],
        cwd=CHECKOUT, env=child_env(), capture_output=True, text=True,
        timeout=SAMPLE_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker failed ({proc.returncode}): "
                         f"{proc.stderr.strip()[-2000:]}")
    rec = json.loads(lines[-1])
    expected = os.path.join(CHECKOUT, "src", "hyhe")
    if os.path.dirname(rec["hyhe_file"]) != expected:
        raise BenchError(f"imported hyhe from {rec['hyhe_file']}, "
                         f"not from {expected}")
    return rec


# ---------------------------------------------------------------------------
# golden cells
# ---------------------------------------------------------------------------

def extract_cells(output):
    """Result cells of one CLI output; timing and health fields excluded.

    Raises ValueError on unparsable output or a failed row.
    """
    doc = json.loads(output)
    if "rows" not in doc:
        return {name: doc[name] for name in SOLVE_CELLS}
    cells = {}
    for row in doc["rows"]:
        if not row["ok"]:
            raise ValueError(f"row N={row['N']} failed: {row['error']}")
        cells[str(row["N"])] = {name: row[name] for name in ROW_CELLS}
    return cells


def compare_cells(expected, got, path=""):
    """List of (cell path, expected, got) for every differing cell."""
    if not isinstance(expected, dict) or not isinstance(got, dict):
        return [] if expected == got else [(path, expected, got)]
    diffs = []
    for key in sorted(set(expected) | set(got)):
        sub = f"{path}/{key}"
        if key not in expected or key not in got:
            diffs.append((sub, expected.get(key), got.get(key)))
        else:
            diffs.extend(compare_cells(expected[key], got[key], sub))
    return diffs


def sample_failure(rec, golden_cells):
    """Why a sample failed, or None when it ran cleanly and matched."""
    if rec["exception"]:
        return f"exception {rec['exception']}"
    if rec["exit_code"] != 0:
        return f"exit code {rec['exit_code']}"
    try:
        cells = extract_cells(rec["output"])
    except (ValueError, KeyError) as exc:
        return f"bad output: {exc}"
    diffs = compare_cells(golden_cells, cells)
    if diffs:
        return "golden mismatch: " + "; ".join(
            f"{p} expected {e} got {g}" for p, e, g in diffs[:5])
    return None


def declared_units(trace):
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    with open(BENCHMARK) as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"]
            for m in bench["per_layer" if trace else "end_to_end"]}


def load_golden():
    with open(GOLDEN) as fh:
        return json.load(fh)


def check_environment(rec, golden):
    """Refuse to compare timings taken on another mpmath backend."""
    want = golden["env"]["mpmath_backend"]
    got = rec["env"]["mpmath_backend"]
    if got != want:
        raise BenchError(f"mpmath backend is {got!r}; the baseline was taken "
                         f"on {want!r}, so timings are not comparable")


# ---------------------------------------------------------------------------
# spans -> per-layer metrics
# ---------------------------------------------------------------------------

def self_times(spans):
    """Span id -> duration minus the part of it covered by child spans."""
    children = {}
    for sp in spans:
        children.setdefault(sp["parent"], []).append(sp)
    out = {}
    for sp in spans:
        covered, cursor = 0.0, sp["start"]
        for ch in sorted(children.get(sp["id"], ()), key=lambda c: c["start"]):
            lo, hi = max(ch["start"], cursor), min(ch["end"], sp["end"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[sp["id"]] = (sp["end"] - sp["start"]) - covered
    return out


def normalized_wall(rec):
    """Wall time less the probe bursts, rescaled to the probe's nominal speed.

    Both the workload and the burst slow down together when the host is
    busy, so the ratio to the mean burst duration cancels most of it.
    """
    bursts = [end - start for start, end in rec["probes"]]
    if not bursts:
        return rec["wall_s"]
    return ((rec["wall_s"] - sum(bursts)) * PROBE_NOMINAL_S
            / statistics.fmean(bursts))


def with_probes(spans, probes):
    """Spans plus one "probe" span per burst, under the innermost span
    that encloses it, so self times leave the bursts out."""
    out = list(spans)
    for start, end in probes:
        enclosing = [sp for sp in spans
                     if sp["start"] <= start and end <= sp["end"]]
        parent = max(enclosing, key=lambda sp: sp["start"], default=None)
        out.append({"id": len(out), "name": "probe", "label": None,
                    "run": parent["run"] if parent else None,
                    "parent": parent["id"] if parent else None,
                    "start": start, "end": end})
    return out


def layer_metrics(traced, untraced):
    """Per-layer metrics from one traced and one untraced sample (see
    README for each)."""
    spans = with_probes(traced["spans"], traced["probes"])
    own = self_times(spans)
    bursts = [sp for sp in spans if sp["name"] == "probe"]

    def select(name, label=None):
        return [sp for sp in spans if sp["name"] == name
                and (label is None or sp["label"] == label)]

    def self_sum(name):
        return sum(own[sp["id"]] for sp in select(name))

    def inclusive(name, label=None):
        """Span durations less the probe bursts inside them."""
        total = 0.0
        for sp in select(name, label):
            total += sp["end"] - sp["start"] - sum(
                b["end"] - b["start"] for b in bursts
                if sp["start"] <= b["start"] and b["end"] <= sp["end"])
        return total

    solves = select("eigen.solve")
    lookups = traced["raw_moment"]["lookups"]
    misses = traced["raw_moment"]["misses"]
    layer_self = sum(t for sp_id, t in own.items()
                     if spans[sp_id]["name"] not in ("cli", "probe"))
    m = {
        "eigen.reduce_s": self_sum("eigen.reduce"),
        "eigen.reduce_calls": len(select("eigen.reduce")),
        "eigen.kopt_s.inf": inclusive("eigen.kopt", "inf"),
        "eigen.kopt_s.0": inclusive("eigen.kopt", "0"),
        "eigen.solves": len(solves),
        "eigen.solve_s_mean": (inclusive("eigen.solve") / len(solves)
                               if solves else 0.0),
        "matrices.assemble_s": self_sum("matrices.assemble"),
        "matrices.assembled_pairs": sum(
            sp["label"] * (sp["label"] + 1) // 2
            for sp in select("matrices.assemble")),
        "integrals.raw_moment_lookups": lookups,
        "integrals.raw_moment_misses": misses,
        "integrals.raw_moment_hit_ratio": (
            (lookups - misses) / lookups if lookups else 0.0),
        "matrices.expect_s": self_sum("matrices.expect"),
        "matrices.normcheck_s": self_sum("matrices.normcheck"),
        "matrices.delta_s": self_sum("matrices.delta"),
        "matrices.p4_s": self_sum("matrices.p4"),
        "matrices.logmom_s": self_sum("matrices.logmom"),
        "corrections.total_s": self_sum("corrections.total"),
        "report.emit_s": self_sum("report.emit"),
        "run.wall_s": untraced["wall_s"],
        "trace.wall_s": traced["wall_s"],
        "trace.probe_s": sum(b["end"] - b["start"] for b in bursts),
        "trace.layer_self_s": layer_self,
        "trace.overhead_s": (normalized_wall(traced)
                             - normalized_wall(untraced)),
    }
    for n in ROW_SIZES:
        m[f"report.row_s.N{n}"] = inclusive("report.row", n)
    return m


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

def run_workload(workload, seed, seconds, trace):
    """One benchmark run; returns the result object printed last."""
    golden = load_golden()
    golden_cells = golden["workloads"][workload]
    args = WORKLOADS[workload]
    rng = random.Random(seed)
    failures = []
    timed = []

    def timed_sample(mode):
        rec = sample(mode, args, run_id=f"{workload}-{seed}-{len(timed)}")
        check_environment(rec, golden)
        reason = sample_failure(rec, golden_cells)
        if reason:
            failures.append(reason)
        timed.append(rec)
        return rec

    if trace:
        modes = ["run", "trace"]
        rng.shuffle(modes)
        recs = {mode: timed_sample(mode) for mode in modes}
        metrics = layer_metrics(recs["trace"], recs["run"])
        os.makedirs(SPAN_DIR, exist_ok=True)
        spans = with_probes(recs["trace"]["spans"], recs["trace"]["probes"])
        with open(os.path.join(SPAN_DIR, f"spans-{workload}-{seed}.json"),
                  "w") as fh:
            json.dump(spans, fh)
        env = recs["trace"]["env"]
    else:
        # warm the file cache and bytecode once, outside the figures
        sample("setup")
        setups = []
        before = rng.randint(0, SETUP_SAMPLES)
        for _ in range(before):
            setups.append(sample("setup")["setup_s"])
        start = time.perf_counter()
        while True:
            rec = timed_sample("run")
            setups.append(rec["setup_s"])
            elapsed = time.perf_counter() - start
            if elapsed + rec["wall_s"] > seconds:
                break
        for _ in range(SETUP_SAMPLES - before):
            setups.append(sample("setup")["setup_s"])
        print("samples wall_s "
              + " ".join(f"{r['wall_s']:.3f}" for r in timed))
        metrics = {
            "wall_norm_s": statistics.median(
                normalized_wall(r) for r in timed),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in timed),
        }
        env = timed[0]["env"]

    units = declared_units(trace)
    if set(units) != set(metrics):
        raise BenchError("metrics differ from BENCHMARK.json: "
                         f"{sorted(set(units) ^ set(metrics))}")
    for reason in failures:
        print(f"FAILED {workload}: {reason}", file=sys.stderr)
    print("env " + json.dumps(env, sort_keys=True))
    return {
        "correct": not failures,
        "attempted": len(timed),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def write_golden():
    """Capture every workload's result cells at the current commit."""
    out = {"note": GOLDEN_NOTE, "env": None, "workloads": {}}
    for workload, args in WORKLOADS.items():
        rec = sample("run", args)
        if rec["exit_code"] != 0 or rec["exception"]:
            raise BenchError(f"{workload} failed while capturing: "
                             f"{rec['exception'] or rec['exit_code']}")
        out["env"] = rec["env"]
        out["workloads"][workload] = extract_cells(rec["output"])
    with open(GOLDEN, "w") as fh:
        json.dump(out, fh, indent=2, sort_keys=True)
        fh.write("\n")


def summary(seed, seconds, trace):
    """Every workload once: a table of metrics, non-zero exit on a failure."""
    ok = True
    for workload in WORKLOADS:
        res = run_workload(workload, seed, seconds, trace)
        ok = ok and res["correct"]
        ratio = res["failed"] / res["attempted"]
        print(f"{workload}: attempted {res['attempted']}, "
              f"failed {res['failed']}, fail_ratio {ratio}")
        for name, metric in res["metrics"].items():
            print(f"  {name:<32} {metric['value']:>14.6g} {metric['unit']}")
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true")
    opts = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(CHECKOUT, "src", "hyhe", "cli.py")):
        print("no hyhe sources under src/hyhe next to the benchmark",
              file=sys.stderr)
        return 2
    try:
        if opts.write_golden:
            write_golden()
            return 0
        if opts.workload is None:
            parser.error("--workload is required")
        if opts.workload == "all":
            return summary(opts.seed, opts.seconds, opts.trace)
        result = run_workload(opts.workload, opts.seed, opts.seconds,
                              opts.trace)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
