"""Command-line front end: config parsing, experiment dispatch, CSV output.

Flag values are plain numbers here. --seed, --c, --trials and --alpha are
checked as the config values they replace (`config.with_overrides`), with
the same `error:` line, and --workers by the trial runner before any trial.

Exit status: 0 on success, 1 on usage/config/validation errors, 2 when an
experiment requires a feasible bound condition and the model violates it.
Diagnostics (resolved config, summary line) go to stderr; results go to
--out or stdout.
"""

import argparse
import os
import sys
import time
from dataclasses import fields

from . import experiments as exp
from .config import describe, parse_config, with_overrides
from .errors import InfeasibleModel, NoisyPcaError, ValidationError
from .bounds import general_bound, rank_delta
from .experiments import bound_inputs, realize_model

# The BoundInputs scalars that `bound` prints first, in order.
_BOUND_INPUT_KEYS = ("n", "r", "r_v", "alpha", "c", "eta", "regime", "q", "b")

# Subcommand -> (experiment function name in noisypca.experiments, whether it
# evaluates a bound). The function is looked up when the command runs. Every
# command but `bound` runs trials through the trial runner and takes
# --workers and --trials; commands that evaluate a bound take --c. `bound` is
# handled by _print_bound.
COMMANDS = {
    "bound": (None, True),
    "bound-tightness": ("bound_tightness", True),
    "phase-transition": ("phase_transition", False),
    "concentration": ("concentration_check", True),
    "rank-estimation": ("rank_estimation", True),
    "adversarial": ("adversarial_experiment", False),
    "refine": ("refinement_loop", False),
    "missing": ("missing_data_experiment", True),
}


class _Parser(argparse.ArgumentParser):
    # Usage errors (including unknown subcommands) exit 1, not argparse's
    # default 2; 2 is reserved for infeasible-model conditions.
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def _build_parser():
    parser = _Parser(prog="noisypca", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="|".join(COMMANDS), required=True)
    for name, (function, evaluates_bound) in COMMANDS.items():
        # No prefix matching: `--c` on a command without it must not mean --config.
        p = sub.add_parser(name, add_help=True, allow_abbrev=False)
        p.set_defaults(workers=1, trials=None, c=None, alpha=None)
        p.add_argument("--config", required=True, help="config file path or preset name")
        p.add_argument("--seed", type=int, default=None, help="master seed, >= 0 (overrides config)")
        p.add_argument("--out", default=None, help="output CSV path (default: stdout)")
        if function is not None:
            p.add_argument("--workers", type=int, help="worker processes, >= 1 (does not change output bytes)")
            p.add_argument("--trials", type=int, help="override the trial count, >= 1")
        if evaluates_bound:
            p.add_argument("--c", type=float, help="override the bound constant c, finite and > 0")
        if name == "bound":
            p.add_argument("--alpha", type=int, help="sample count, >= 1 (default: first grid value)")
    return parser


def _check_out(path):
    """Fail before the run where the CSV cannot be written to path (None or '-' is stdout); opens nothing."""
    folder = os.path.dirname(path or "") or "."
    writable = os.path.isdir(folder) and os.access(folder, os.W_OK)
    if path not in (None, "-") and (not path or os.path.isdir(path) or not writable):
        raise ValidationError(f"--out {path}: not a file in an existing, writable directory")


def _print_bound(cfg, alpha, out_path):
    model = realize_model(cfg)
    inputs = bound_inputs(cfg, model, alpha, exp._cell(model, alpha).b)
    s, report = inputs.spectra, general_bound(inputs)
    # The two records print every field in declared order: a new field needs no edit here.
    values = {key: getattr(inputs, key) for key in _BOUND_INPUT_KEYS}
    values.update({f.name: getattr(s, f.name) for f in fields(s)}, g=s.g)
    values.update({f.name: getattr(report, f.name) for f in fields(report)}, delta=rank_delta(inputs))
    if out_path != "-":  # with --out -, stdout holds the CSV alone, as for every other command
        for key, value in values.items():
            sys.stdout.write(f"{key}={exp._format_cell(value)}\n")
    result = exp.GridResult(tuple(values), [tuple(values.values())])
    if out_path is not None:
        result.write(out_path)
    return result


def _dispatch(args):
    _check_out(args.out)
    # --seed wins, else the config's seed, else ExperimentConfig's default 0.
    cfg = with_overrides(parse_config(args.config)[0], seed=args.seed, c=args.c, trials=args.trials, alpha=args.alpha)
    sys.stderr.write("# resolved config\n")
    for line in describe(cfg).splitlines():
        sys.stderr.write(f"# {line}\n")
    start = time.perf_counter()
    function, _ = COMMANDS[args.command]
    if function is None:
        result = _print_bound(cfg, cfg.alpha_grid[0], args.out)
    else:
        result = getattr(exp, function)(cfg, workers=args.workers)
        result.write(args.out)
    wall = time.perf_counter() - start
    threads = exp.blas_threads()  # 1 inside main's one-thread scope, None without the library
    sys.stderr.write(
        f"# rows={len(result.rows)} trials={cfg.n_trials} seed={cfg.master_seed} workers={args.workers} "
        f"blas_threads={'unpinned' if threads is None else threads} wall={wall:.2f}s\n"
    )
    return 0


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        # One BLAS thread for all of the command: no OpenBLAS server thread is left spinning.
        with exp._one_blas_thread():
            return _dispatch(args)
    except InfeasibleModel as err:
        sys.stderr.write(f"infeasible: {err}\n")
        return 2
    except (NoisyPcaError, OSError) as err:  # OSError: writing --out
        sys.stderr.write(f"error: {err}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
