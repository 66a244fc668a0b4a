"""Command-line interface.

Verbs: `tables` (the default four-size sweep), `sweep --n-list`, `solve --n`,
`corrections --n`.  Global options pick the config file, precision, alpha
and output format; each can also come from one environment variable
(HYHE_CONFIG_PATH, HYHE_PRECISION_DIGITS, HYHE_ALPHA, HYHE_OUTPUT).  An
option beats its variable, which beats the config file.  The verbs read
their options from the command line only.  The global `--verbose` flag
sends the "hyhe" logger's DEBUG records (one line per stage with its width
and float64 conditioning estimate, the k-search trace with each solve's
step count, and each row's normalization error |c'Wc - 1|) to stderr;
stdout is the same with or without it.

Exit codes: 0 all rows ok, 1 at least one row failed, 2 usage error.
"""

import sys

import click
from mpmath import mp

from .config import OUTPUT_FORMATS, load_config, with_overrides, ConfigError
from .constants import PhysicalConstants, ConstantsError
from .report import (ReportDocument, UsageError, run_tables, solve_single,
                     corrections_single)

CONTEXT_SETTINGS = {"help_option_names": ["-h", "--help"]}


class _App:
    def __init__(self, config, constants):
        self.config = config
        self.constants = constants


@click.group(context_settings=CONTEXT_SETTINGS)
@click.option("--config", "config_path", type=click.Path(exists=True),
              default=None, envvar="HYHE_CONFIG_PATH",
              help="key = value config file")
@click.option("--precision", "precision_digits", type=int, default=None,
              envvar="HYHE_PRECISION_DIGITS",
              help="working precision in decimal digits")
@click.option("--alpha", type=str, default=None, envvar="HYHE_ALPHA",
              help="override the fine-structure constant")
@click.option("--format", "output", type=click.Choice(OUTPUT_FORMATS),
              default=None, envvar="HYHE_OUTPUT",
              help="output format (default from config)")
@click.option("--verbose", is_flag=True, default=False,
              help="log the stage and the k-search trace to stderr")
@click.pass_context
def main(ctx, config_path, precision_digits, alpha, output, verbose):
    """Helium ground-state energies with relativistic and QED corrections."""
    try:
        config = load_config(config_path)
        config = with_overrides(config, precision_digits=precision_digits,
                                output=output)
        constants = PhysicalConstants()
        if alpha is not None:
            constants = PhysicalConstants(alpha=alpha)
        constants.validate()
    except (ConfigError, ConstantsError) as exc:
        raise click.UsageError(str(exc))
    ctx.obj = _App(config, constants)
    if verbose:
        _log_to_stderr(ctx)


def _log_to_stderr(ctx):
    """Send the "hyhe" logger's DEBUG records to stderr until ctx closes."""
    import logging  # here, so that a run without --verbose never loads it
    log = logging.getLogger("hyhe")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(name)s: %(message)s"))
    level = log.level
    log.addHandler(handler)
    log.setLevel(logging.DEBUG)

    def restore():
        log.removeHandler(handler)
        log.setLevel(level)

    ctx.call_on_close(restore)


def _emit_document(app, doc):
    click.echo(doc.emit(app.config.output), nl=False)
    sys.exit(0 if doc.all_ok else 1)


def _run_sweep(app, n_list):
    try:
        doc = run_tables(app.config, app.constants, n_list=n_list)
    except UsageError as exc:
        raise click.UsageError(str(exc))
    _emit_document(app, doc)


@main.command()
@click.pass_obj
def tables(app):
    """Run the standard sweep (N = 20, 30, 40, 50)."""
    _run_sweep(app, None)


@main.command()
@click.option("--n-list", required=True,
              help="comma-separated basis sizes, e.g. 20,30,40,50")
@click.pass_obj
def sweep(app, n_list):
    """Run an explicit list of basis sizes."""
    try:
        sizes = [int(tok) for tok in n_list.split(",") if tok.strip()]
    except ValueError:
        raise click.UsageError(f"bad --n-list {n_list!r}")
    _run_sweep(app, sizes)


@main.command()
@click.option("--n", "n", type=int, required=True, help="basis size")
@click.option("--no-nuclear-motion", is_flag=True, default=False,
              help="clamp the nucleus (infinite-mass Hamiltonian)")
@click.pass_obj
def solve(app, n, no_nuclear_motion):
    """Converge one ground state and print (E, k, residual)."""
    if n < 1:
        raise click.UsageError("--n must be >= 1")
    if app.config.output == "csv":
        raise click.UsageError("solve supports human or json output")
    result = solve_single(n, app.config, app.constants,
                          nuclear_motion=not no_nuclear_motion)
    with mp.workdps(app.config.precision_digits):
        fields = {
            "N": n,
            "hamiltonian": "clamped-nucleus" if no_nuclear_motion else
                           "nuclear-motion",
            "energy": mp.nstr(result.energy, 20),
            "k_opt": mp.nstr(result.k_opt, 20),
            "iterations": result.iterations,
            "residual": mp.nstr(result.residual, 3),
        }
    _print_fields(app, fields)


@main.command()
@click.option("--n", "n", type=int, required=True, help="basis size")
@click.pass_obj
def corrections(app, n):
    """Print the full correction breakdown at one basis size."""
    if n < 1:
        raise click.UsageError("--n must be >= 1")
    if app.config.output == "csv":
        raise click.UsageError("corrections supports human or json output")
    row, res_0, exps, br = corrections_single(n, app.config, app.constants)
    with mp.workdps(app.config.precision_digits):
        fields = {
            "N": n,
            "E0": mp.nstr(br.E0, 20),
            "k_opt": mp.nstr(res_0.k_opt, 20),
            "delta_r1": mp.nstr(exps.delta_r1, 20),
            "delta_r12": mp.nstr(exps.delta_r12, 20),
            "p4_single": mp.nstr(exps.p4, 20),
            "log_momentum": mp.nstr(exps.log_momentum, 20),
            "E1": mp.nstr(br.E1, 12),
            "E2": mp.nstr(br.E2, 12),
            "E3": mp.nstr(br.E3, 12),
            "E4": mp.nstr(br.E4, 12),
            "E5": mp.nstr(br.E5, 12),
            "deltaE2": mp.nstr(br.deltaE2, 12),
            "r3_nuclear": mp.nstr(br.r3_nuclear, 12),
            "r3_contact": mp.nstr(br.r3_contact, 12),
            "r3_logmom": mp.nstr(br.r3_logmom, 12),
            "deltaE3": mp.nstr(br.deltaE3, 12),
            "E_total": mp.nstr(br.E_total, 20),
            "uncertainty": mp.nstr(br.uncertainty, 6),
            "delta_vs_experiment": mp.nstr(br.delta_vs_experiment, 6),
        }
    _print_fields(app, fields)


def _print_fields(app, fields):
    if app.config.output == "json":
        import json
        click.echo(json.dumps(fields, indent=2, sort_keys=True))
    else:
        width = max(len(k) for k in fields)
        for key, value in fields.items():
            click.echo(f"{key:<{width}}  {value}")


if __name__ == "__main__":
    main()
