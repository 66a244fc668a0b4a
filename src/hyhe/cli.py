"""Command-line interface.

Verbs: `tables` (the default four-size sweep), `sweep --n-list`, `solve --n`,
`corrections --n`.  Global options pick the config file, precision, alpha
and output format; each can also come from one environment variable
(HYHE_CONFIG_PATH, HYHE_PRECISION_DIGITS, HYHE_ALPHA, HYHE_OUTPUT).  An
option beats its variable, which beats the config file: click picks the
option or its variable, and load_config lays that over the file.  The
verbs read their options from the command line only, and a basis size
outside 1..MAX_BASIS is a usage error.  The global `--verbose` flag
sends the "hyhe" logger's DEBUG records (one line per stage with its
float64 conditioning estimate, the start of each k-search, k = 2 or
mu k_inf, and its float seed with its width F, one line per correction
step with its k, E and size, each row's normalization error |c'Wc - 1|,
and each row's working precision and certified digits of E0, with any
rerun at twice the digits and the cell that was not settled) to stderr;
stdout is the same with or without it.

Exit codes: 0 all rows ok, 1 at least one row failed (a sweep prints its
failure rows; `solve` and `corrections` print one line, "Error: <Type>:
<message>", to stderr), 2 usage error.
"""

import sys
from types import SimpleNamespace

import click
from mpmath import mp

from .basis import MAX_BASIS
from .config import OUTPUT_FORMATS, load_config, ConfigError
from .constants import PhysicalConstants, ConstantsError
from .report import (UsageError, certified_digits, compute_row, run_tables,
                     solve_single)

CONTEXT_SETTINGS = {"help_option_names": ["-h", "--help"]}


@click.group(context_settings=CONTEXT_SETTINGS)
@click.option("--config", "config_path", type=click.Path(exists=True),
              default=None, envvar="HYHE_CONFIG_PATH",
              help="key = value config file")
@click.option("--precision", "precision_digits", type=int, default=None,
              envvar="HYHE_PRECISION_DIGITS",
              help="working precision in decimal digits (default 30, at "
              "least 30); a floor, doubled for a row whose printed cells it "
              "does not settle")
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
        config = load_config(config_path, precision_digits=precision_digits,
                             output=output)
        constants = PhysicalConstants()
        if alpha is not None:
            constants = PhysicalConstants(alpha=alpha)
        constants.validate()
    except (ConfigError, ConstantsError) as exc:
        raise click.UsageError(str(exc))
    ctx.obj = SimpleNamespace(config=config, constants=constants)
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


def _run_sweep(app, n_list):
    try:
        doc = run_tables(app.config, app.constants, n_list=n_list)
    except UsageError as exc:
        raise click.UsageError(str(exc))
    click.echo(doc.emit(app.config.output), nl=False)
    sys.exit(0 if doc.all_ok else 1)


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
@click.option("--n", "n", type=click.IntRange(1, MAX_BASIS), required=True,
              help="basis size")
@click.option("--no-nuclear-motion", is_flag=True, default=False,
              help="clamp the nucleus (infinite-mass Hamiltonian)")
@click.pass_obj
def solve(app, n, no_nuclear_motion):
    """Converge one ground state; print E, k_opt, steps, eighs, residual,
    k_err and E_digits."""
    result = _run_verb(app, "solve", lambda: solve_single(
        n, app.config, app.constants, nuclear_motion=not no_nuclear_motion))
    with mp.workdps(app.config.precision_digits):
        fields = {
            "N": n,
            "hamiltonian": "clamped-nucleus" if no_nuclear_motion else
                           "nuclear-motion",
            "energy": mp.nstr(result.energy, 20),
            "k_opt": mp.nstr(result.k_opt, 20),
            "steps": result.iterations,
            "eighs": result.eighs,
            "residual": mp.nstr(result.residual, 3),
            "k_err": mp.nstr(result.k_err, 3),
            "E_digits": certified_digits(result.energy, result.energy_err),
        }
    _print_fields(app, fields)


@main.command()
@click.option("--n", "n", type=click.IntRange(1, MAX_BASIS), required=True,
              help="basis size")
@click.pass_obj
def corrections(app, n):
    """Print the full correction breakdown at one basis size, with E0,
    k_opt and E_total the strings its row certified, as a sweep prints."""
    row, (_, _, exps, br) = _run_verb(
        app, "corrections", lambda: compute_row(n, app.config, app.constants))
    with mp.workdps(app.config.precision_digits):
        fields = {
            "N": n,
            "E0": row.E0,
            "k_opt": row.k_opt,
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
            "E_total": row.E_total,
            "uncertainty": mp.nstr(br.uncertainty, 6),
            "delta_vs_experiment": mp.nstr(br.delta_vs_experiment, 6),
        }
    _print_fields(app, fields)


def _run_verb(app, verb, run):
    """run() for a verb that prints fields, which refuses CSV output: if it
    raises, exit 1 with one line on stderr, "Error: <Type>: <message>", as a
    sweep's failure row reports it."""
    if app.config.output == "csv":
        raise click.UsageError(f"{verb} supports human or json output")
    try:
        return run()
    except Exception as exc:  # noqa: BLE001 - one line, as a failure row
        click.echo(f"Error: {type(exc).__name__}: {exc}", err=True)
        sys.exit(1)


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
