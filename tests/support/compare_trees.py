"""Compare two hyhe source trees value by value, in one interpreter.

    python3 tests/support/compare_trees.py PARENT_SRC CHANGE_SRC \\
        [--stage 50] [--n 1-50] [--digits 30,100] [--verbs 1,7,22]

PARENT_SRC and CHANGE_SRC are directories holding a `hyhe` package (a
checkout's `src`).  Each is imported as a package of its own, so both run
on one mpmath context and one numpy.  It compares each tree's
build_row_stage at --stage (its basis, each system's exact forms, T,
K_float, P_float and cond_bits, and the expectation forms), and for each
precision in --digits and each N in --n, on that stage,

  - ground_state_pair on the stage's leading systems: every
    VariationalResult field;
  - expectation_set on the nuclear-motion state: every ExpectationSet
    field;
  - total_energy on it: every CorrectionBreakdown field;
  - compute_row on the stage: every Row field but wall_time;

and for each N in --verbs (default: --n) the JSON and human output of the
`solve` (both Hamiltonians) and `corrections` verbs at that precision, and
at each precision the human, CSV and JSON output of one `sweep` over the
--verbs sizes, each row's wall time masked (the JSON `wall_time` field and
the human footer's `wall ...s`).  The trees' calls alternate.  A
function's arguments are passed by the names of its parameters, so a tree
whose signature differs is still called as it asks.

An mpf is compared by its _mpf_ tuple, anything else by ==, recursing
through dataclasses, lists, tuples and dicts; JSON output is compared
parsed, and human and CSV output line by line.  A stage's exact forms are
compared by their ints and denominators in turn, read off its stacks
(exact_forms): W, P and K of each system, and the overlap W, <p^4>'s A, B
and C and the log-momentum element's L and L' of the expectation forms.
Every differing field is printed; the exit status is 1 if any differs,
else 0.
"""

import argparse
import dataclasses
import importlib
import importlib.util
import inspect
import json
import os
import re
import sys

import numpy as np
from mpmath import mp


def load_tree(src, name):
    """The hyhe package under src, imported as the package `name`."""
    path = os.path.join(os.path.abspath(src), "hyhe")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(path, "__init__.py"),
        submodule_search_locations=[path])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return {module: importlib.import_module(f"{name}.{module}")
            for module in ("cli", "config", "constants", "eigen", "exact",
                           "matrices", "report")}


def call(fn, **available):
    """fn called with the arguments of `available` that its parameters
    name, in their order."""
    params = inspect.signature(fn).parameters
    return fn(**{name: available[name] for name in params
                 if name in available})


def differences(a, b, path=""):
    """[(path, a's value, b's value)] for every field in which a and b
    differ (module docstring)."""
    if hasattr(a, "_mpf_") and hasattr(b, "_mpf_"):
        return [] if a._mpf_ == b._mpf_ else [(path, a, b)]
    if dataclasses.is_dataclass(a) and dataclasses.is_dataclass(b):
        a, b = vars(a), vars(b)
    if isinstance(a, dict) and isinstance(b, dict):
        out = []
        for key in sorted(set(a) | set(b), key=str):
            sub = f"{path}.{key}" if path else str(key)
            if key not in a or key not in b:
                out.append((sub, a.get(key, "<missing>"),
                            b.get(key, "<missing>")))
            else:
                out.extend(differences(a[key], b[key], sub))
        return out
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        if len(a) != len(b):
            return [(f"{path}.len", len(a), len(b))]
        return [d for i, (x, y) in enumerate(zip(a, b))
                for d in differences(x, y, f"{path}[{i}]")]
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        same = (isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
                and a.dtype == b.dtype and np.array_equal(a, b))
        return [] if same else [(path, "array", "array")]
    return [] if type(a) is type(b) and a == b else [(path, a, b)]


def show(v):
    if hasattr(v, "_mpf_"):
        return f"{mp.nstr(v, 30)} {v._mpf_[1:3]}"
    text = repr(v)
    return text if len(text) <= 80 else text[:77] + "..."


def exact_forms(held):
    """[(ints, D)] of the exact forms that a stage part holds, in turn: a
    system's W, P and K, or the expectation forms' W, A, B, C, L and L'.
    It reads an exact.Stack, held alone or as a system's `stack`: each
    member's limbs, of width bits, over its denominator."""
    stack = getattr(held, "stack", held)
    out, start = [], 0
    for m, D in zip(stack.counts, stack.denominators):
        L = stack.limbs[start:start + m].astype(object)
        ints = sum(L[j] << (stack.bits * j) for j in range(m))
        out.append((ints.ravel().tolist(), D))
        start += m
    return out


def stage_values(stage):
    """The compared parts of a build_row_stage result."""
    basis, systems, forms = stage
    return {"basis": basis, "forms": exact_forms(forms),
            "systems": {label: {"forms": exact_forms(system), **{
                name: getattr(system, name) for name in (
                    "T", "K_float", "P_float", "cond_bits")}}
                for label, system in systems.items()}}


def row_values(tree, n, digits, stage, constants):
    """Every compared value of one tree at basis size n and digits."""
    report = tree["report"]
    basis, systems, forms = stage
    config = tree["config"].RunConfig(precision_digits=digits)
    with mp.workdps(digits):
        leading = {label: system.leading(n)
                   for label, system in systems.items()}
        res_inf, res_0 = tree["eigen"].ground_state_pair(leading)
        exps = call(tree["matrices"].expectation_set, basis=basis[:n],
                    coeffs=res_0.coeffs, F=res_0.frac_bits, k=res_0.k_opt,
                    forms=forms, k_err=res_0.k_err)
        br = tree["report"].total_energy(res_0.energy, exps, constants,
                                         res_0.energy_err)
    row, _ = report.compute_row(n, config, constants, stage)
    row = {k: v for k, v in vars(row).items() if k != "wall_time"}
    return {"res_inf": res_inf, "res_0": res_0, "expectations": exps,
            "breakdown": br, "row": row}


def cli_output(tree, args, digits, fmt):
    """The output of the CLI on args at digits in format fmt, with each
    row's wall time masked: JSON parsed, anything else as its lines.
    Raise unless it exits 0."""
    from click.testing import CliRunner
    result = CliRunner().invoke(tree["cli"].main, [
        "--precision", str(digits), "--format", fmt, *args])
    if result.exit_code != 0:
        raise RuntimeError(f"{' '.join(args)} ({fmt}) at {digits} digits "
                           f"exited {result.exit_code}: {result.output}")
    if fmt != "json":
        return re.sub(r"wall [0-9.]+s", "wall *s", result.output).splitlines()
    doc = json.loads(result.output)
    for row in doc.get("rows", ()):
        row["wall_time"] = "*"
    return doc


def verb_values(tree, n, digits):
    """The JSON and human output of the solve and corrections verbs at n
    and digits."""
    return {name: {fmt: cli_output(tree, args, digits, fmt)
                   for fmt in ("json", "human")}
            for name, args in (
                ("solve", ["solve", "--n", str(n)]),
                ("solve-clamped", ["solve", "--n", str(n),
                                   "--no-nuclear-motion"]),
                ("corrections", ["corrections", "--n", str(n)]))}


def sweep_values(tree, ns, digits):
    """The human, CSV and JSON output of a sweep over ns at digits."""
    args = ["sweep", "--n-list", ",".join(map(str, ns))]
    return {fmt: cli_output(tree, args, digits, fmt)
            for fmt in ("human", "csv", "json")}


def sizes(text):
    """1-50 or 1,7,22 (or both, comma-separated) as a list of ints."""
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--stage", type=int, default=50)
    parser.add_argument("--n", type=sizes, default=sizes("1-50"))
    parser.add_argument("--digits", type=sizes, default=[30, 100])
    parser.add_argument("--verbs", type=sizes, default=None)
    opts = parser.parse_args(argv)
    trees = [load_tree(opts.parent, "hyhe_parent"),
             load_tree(opts.change, "hyhe_change")]
    constants = [tree["constants"].default_constants() for tree in trees]
    stages = [tree["report"].build_row_stage(opts.stage, c)
              for tree, c in zip(trees, constants)]
    found = 0
    for path, a, b in differences(*map(stage_values, stages)):
        found += 1
        print(f"stage {path}: parent {show(a)} change {show(b)}")
    compared = 0
    verbs = opts.n if opts.verbs is None else opts.verbs
    for digits in opts.digits:
        for path, a, b in differences(*(sweep_values(tree, verbs, digits)
                                        for tree in trees)):
            found += 1
            print(f"sweep digits={digits} {path}: parent {show(a)} "
                  f"change {show(b)}")
        for n in opts.n:
            values = [row_values(tree, n, digits, stage, c)
                      for tree, stage, c in zip(trees, stages, constants)]
            if n in verbs:
                for tree, v in zip(trees, values):
                    v["verbs"] = verb_values(tree, n, digits)
            compared += 1
            for path, a, b in differences(*values):
                found += 1
                print(f"N={n} digits={digits} {path}: parent {show(a)} "
                      f"change {show(b)}")
    print(f"{found} differences in {compared} (N, digits) pairs")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
