"""One cold-start sample of the hyhe CLI, run in a fresh interpreter.

    python3 perfbench/worker.py --launched EPOCH --mode MODE -- HYHE_ARGS...

MODE is setup, run or trace.

`--launched` is the parent's wall clock just before it started this process,
so `setup_s` covers interpreter start, importing `hyhe` and building the
configuration the CLI group builds.  In `run` and `trace` modes the CLI verb
is then invoked in-process through click and timed until its output has been
emitted.  Throughout the call a speed probe times a fixed burst of mpmath
kernel arithmetic every PROBE_INTERVAL_S, so the parent can rescale the wall
time to a reference CPU speed.  `trace` mode first installs span wrappers
where each caller looks a public function up (for example
`hyhe.report.build_systems` and `hyhe.eigen.solve_fixed_k`), keeps the spans
in memory and hands them back at the end.  The last line of standard
output is one JSON object.
"""

import argparse
import contextlib
import functools
import json
import os
import resource
import signal
import sys
import time

CHECKOUT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(CHECKOUT, "src")

PROBE_INTERVAL_S = 0.25
PROBE_PREC = 180    # bits: about the 50 digits of the default runs


class SpeedProbe:
    """Times a fixed burst of mpf multiply-adds on a SIGALRM timer.

    Shared cloud CPUs change speed by tens of percent within minutes when
    other tenants load the host, and that dominates run-to-run spread.
    The burst is the same kind of work as hyhe's mp eigensolve (mpmath's
    pure-Python mpf kernel), timed in the same process while the workload
    runs, so its mean duration tracks the speed the workload saw.  It calls
    mpmath.libmp's pure functions with an explicit precision and touches no
    state of the interrupted computation.
    """

    def __init__(self):
        from mpmath import libmp
        self.libmp = libmp
        self.operands = [libmp.from_rational(i + 1, 7 * i + 3, PROBE_PREC,
                                             libmp.round_nearest)
                         for i in range(24)]
        self.intervals = []

    def _fire(self, signum, frame):
        lib, ops, cells = self.libmp, self.operands, {}
        start = time.perf_counter()
        for r in range(12):
            for i in range(24):
                acc = lib.fzero
                for j in range(0, 24, 3):
                    prod = lib.mpf_mul(ops[i], ops[j], PROBE_PREC,
                                       lib.round_nearest)
                    acc = lib.mpf_add(acc, prod, PROBE_PREC,
                                      lib.round_nearest)
                cells[r, i] = acc
        self.intervals.append((start, time.perf_counter()))

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._fire)
        signal.setitimer(signal.ITIMER_REAL, 1e-3, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return False


class Tracer:
    """In-memory span recorder: name, label, start, end, parent and run id."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self._stack = []

    @contextlib.contextmanager
    def span(self, name, label=None):
        rec = {"id": len(self.spans), "name": name, "label": label,
               "run": self.run_id,
               "parent": self._stack[-1] if self._stack else None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, owner, attr, name, label=None):
        """Replace owner.attr with a wrapper that records one span per call.

        ``label(args, kwargs)`` gives the span's label (basis size,
        Hamiltonian) when the metric needs one.
        """
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name, label(args, kwargs) if label else None):
                return fn(*args, **kwargs)

        setattr(owner, attr, wrapper)


def install_wrappers(tracer):
    """Wrap the public functions of report, matrices, eigen and corrections.

    Each wrapper goes where its caller resolves the name, so every call
    through the production path is seen exactly once.  `integrals` is counted
    through `raw_moment.cache_info()` instead: a wrapper would replace the
    memoized function itself.
    """
    import hyhe.cli
    import hyhe.eigen
    import hyhe.matrices
    import hyhe.report

    def basis_size(args, kwargs):
        return len(args[0])

    def hamiltonian(args, kwargs):
        return args[0].label

    def row_size(args, kwargs):
        return args[0]

    sites = [
        (hyhe.cli, "run_tables", "report.run_tables", None),
        (hyhe.cli, "solve_single", "report.solve_single", None),
        (hyhe.report, "compute_row", "report.row", row_size),
        (hyhe.report.ReportDocument, "emit", "report.emit", None),
        (hyhe.report, "build_operator_matrices", "matrices.assemble",
         basis_size),
        (hyhe.report, "expectation_set", "matrices.expect", None),
        (hyhe.matrices, "check_normalized", "matrices.normcheck", None),
        (hyhe.matrices, "delta_expectations", "matrices.delta", None),
        (hyhe.matrices, "p4_expectation", "matrices.p4", None),
        (hyhe.matrices, "log_momentum_expectation", "matrices.logmom", None),
        (hyhe.report, "ground_state_pair", "eigen.ground_state_pair", None),
        (hyhe.report, "build_systems", "eigen.reduce", None),
        (hyhe.eigen, "build_systems", "eigen.reduce", None),
        (hyhe.report, "optimize_k", "eigen.kopt", hamiltonian),
        (hyhe.eigen, "optimize_k", "eigen.kopt", hamiltonian),
        (hyhe.eigen, "solve_fixed_k", "eigen.solve", None),
        (hyhe.report, "total_energy", "corrections.total", None),
    ]
    for owner, attr, name, label in sites:
        tracer.wrap(owner, attr, name, label)


def environment():
    import mpmath.libmp
    import platform
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "mpmath_backend": mpmath.libmp.BACKEND,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
    }


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--launched", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"),
                        required=True)
    parser.add_argument("--run-id", default="0")
    parser.add_argument("hyhe_args", nargs="*")
    opts = parser.parse_args(argv)

    sys.path.insert(0, SRC)
    import hyhe.cli
    from hyhe.config import load_config
    from hyhe.constants import PhysicalConstants
    load_config()
    PhysicalConstants().validate()
    setup_s = time.time() - opts.launched

    out = {"setup_s": setup_s, "hyhe_file": hyhe.cli.__file__,
           "env": environment()}
    if opts.mode == "setup":
        print(json.dumps(out))
        return 0

    from click.testing import CliRunner
    from hyhe.integrals import raw_moment

    tracer = Tracer(opts.run_id)
    root = contextlib.nullcontext()
    if opts.mode == "trace":
        install_wrappers(tracer)
        root = tracer.span("cli")
    runner = CliRunner()
    before = raw_moment.cache_info()
    with SpeedProbe() as probe, root:
        t0 = time.perf_counter()
        result = runner.invoke(hyhe.cli.main, opts.hyhe_args,
                               prog_name="hyhe")
        t1 = time.perf_counter()
    after = raw_moment.cache_info()

    out.update({
        "wall_s": t1 - t0,
        "probes": [iv for iv in probe.intervals
                   if t0 <= iv[0] and iv[1] <= t1],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        * 1024 / 1e6,
        "exit_code": result.exit_code,
        "exception": (None if result.exception is None
                      or isinstance(result.exception, SystemExit)
                      else repr(result.exception)),
        "output": result.output,
        "raw_moment": {
            "lookups": (after.hits + after.misses)
            - (before.hits + before.misses),
            "misses": after.misses - before.misses,
        },
        "spans": tracer.spans,
    })
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
