"""Command-line interface.

Subcommands::

    nlrd validate CONFIG             check data + nonlinearity requirements
    nlrd bounds CONFIG               certified constants as JSON
    nlrd solve CONFIG                Picard solve with residual + trace
    nlrd probe-contraction CONFIG    empirical Lipschitz ratios vs. theory
    nlrd continuity CONFIG           fixed-point shift vs. certified bound

Reports go to stdout as strict JSON (keys sorted; only wall-time fields
vary between identical runs; non-finite numbers are written as the strings
"inf", "-inf" and "nan"); diagnostics go to stderr.  Exit codes: 0 success,
1 requirement/certification failure (``bounds``, ``solve`` and ``probe-contraction``
still write a report resting on failed requirements, named in ``bounds.failures``;
the probe draws no pairs), 2 configuration error or unwritable output (a path or
stdout), 3 solver failure (divergence or iteration budget).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import sys
import time
from dataclasses import asdict, is_dataclass
from pathlib import Path

import numpy as np

from .bounds import (
    AssumptionsNotValidated,
    ContractionNotStrict,
    compute_bounds,
    validate_problem,
)
from .config import (
    BuiltProblem,
    ConfigError,
    build_problem,
    load_config,
    read_max_iter,
    read_seed,
    read_tol,
)
from .fieldio import write_field
from .model import scale_nonlinearity
from .solver import (
    DivergenceDetected,
    MaxIterExceeded,
    SolveReport,
    continuity_experiment,
    contraction_probe,
    picard,
)

EXIT_OK = 0
EXIT_REQUIREMENTS = 1
EXIT_CONFIG = 2
EXIT_SOLVER = 3


def _jsonable(obj):
    """Coerce report structures to plain JSON types: a report dataclass
    becomes the dict of its fields, and non-finite floats, which RFC 8259
    has no literal for, become "inf", "-inf" or "nan"."""
    if is_dataclass(obj):
        obj = asdict(obj)
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):  # before int: bool is an int subclass
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj) if math.isfinite(obj) else str(float(obj))
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


def _emit(payload: dict) -> None:
    """Print the report; a closed or full stdout is an unwritable output.
    After a failed write stdout is pointed at os.devnull, so the bytes left
    in its buffer do not fail again when the interpreter shuts down."""
    try:
        print(json.dumps(_jsonable(payload), indent=2, sort_keys=True, allow_nan=False), flush=True)
    except OSError as err:
        with contextlib.suppress(OSError):  # an in-memory stdout has no descriptor
            stdout_fd = sys.stdout.fileno()
            with open(os.devnull, "wb") as devnull:
                os.dup2(devnull.fileno(), stdout_fd)
        raise ConfigError(f"cannot write report: {err}") from err


def _diag(msg: str) -> None:
    print(msg, file=sys.stderr)


def _build(args) -> BuiltProblem:
    cfg = load_config(args.config)
    built = build_problem(cfg, eps_fraction=args.eps_fraction)
    for w in built.warnings:
        _diag(f"warning: {w}")
    return built


# ---------------------------------------------------------------------------
# subcommand handlers: (built, args) -> (payload, failure), where failure is
# None, a stderr line, or the exception that ended the command; main emits
# the payload and then reports the failure
# ---------------------------------------------------------------------------

Outcome = tuple[dict, str | Exception | None]


def _uncertified(failures: tuple[str, ...]) -> str | None:
    """The stderr line of a bounds report with these failures, or None if certified."""
    return str(AssumptionsNotValidated(failures)) if failures else None


def _cmd_validate(built: BuiltProblem, args) -> Outcome:
    data, nl = validate_problem(built.problem, built.background_h4)
    failures = data.failures + nl.failures
    payload = {"data": data, "nonlinearity": nl, "passed": not failures}
    return payload, "validation failed: " + ", ".join(failures) if failures else None


def _cmd_bounds(built: BuiltProblem, args) -> Outcome:
    rep = compute_bounds(built.problem, built.background_h4)
    return {"bounds": rep}, _uncertified(rep.failures)


def _open_outputs(args):
    """Create the --dump-fields directory and open --trace-csv, before solving."""
    try:
        if args.dump_fields:
            Path(args.dump_fields).mkdir(parents=True, exist_ok=True)
        return open(args.trace_csv, "w", newline="") if args.trace_csv else None
    except OSError as err:
        raise ConfigError(f"cannot write solver output: {err}") from err


def _write_outputs(rep: SolveReport, args, trace_fh, payload: dict) -> None:
    try:
        if args.dump_fields:
            payload["dumped_fields"] = written = []
            for name in ("background", "perturbation", "solution"):
                for m, comp in enumerate(getattr(rep, name).components):
                    path = Path(args.dump_fields) / f"{name}_{m}.bfx1"
                    write_field(path, comp)
                    written.append(str(path))
        if trace_fh is not None:
            rows = rep.trace.rows()  # at least one: max_iter >= 1
            writer = csv.DictWriter(trace_fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)  # a None ratio is an empty cell
            trace_fh.flush()  # a failed write surfaces here, not at close
            payload["trace_csv"] = args.trace_csv
    except OSError as err:
        raise ConfigError(f"cannot write solver output: {err}") from err


def _cmd_solve(built: BuiltProblem, args) -> Outcome:
    tol = args.tol if args.tol is not None else built.tol
    max_iter = args.max_iter if args.max_iter is not None else built.max_iter
    trace_fh = _open_outputs(args)
    with trace_fh or contextlib.nullcontext():
        t0 = time.perf_counter()
        error = None
        try:
            rep = picard(built.problem, tol=tol, max_iter=max_iter)
        except (MaxIterExceeded, DivergenceDetected) as err:
            error, rep = err, err.report
        payload = {
            "error": type(error).__name__ if error else None,
            "converged": rep.converged,
            "iterations": rep.iterations,
            "tol": rep.tol,
            "background_h4": rep.background_h4,
            "perturbation_h4": rep.perturbation_h4,
            "solution_h4": rep.solution_h4,
            "background_dropped": list(rep.background_dropped),
            "residual_abs": rep.residual.absolute if rep.residual else None,
            "residual_rel": rep.residual.relative if rep.residual else None,
            "bounds": rep.bounds,
            "warnings": list(rep.warnings),
            "trace": rep.trace.rows(),
            "wall_time_total": time.perf_counter() - t0,
        }
        _write_outputs(rep, args, trace_fh, payload)
    return payload, error or _uncertified(rep.bounds.failures)


def _cmd_probe(built: BuiltProblem, args) -> Outcome:
    certified, failure = _cmd_bounds(built, args)
    if failure:  # no pairs are drawn against constants that certify nothing
        return certified, failure
    seed = args.seed if args.seed is not None else built.seed
    probe = contraction_probe(built.problem, pairs=args.pairs, seed=seed)
    kappa = certified["bounds"].contraction_constant
    margin = built.margins["contraction"]
    passed = probe.max_ratio <= kappa * (1.0 + margin)
    if passed and kappa >= 1.0:  # within a bound that shows no contraction: no verdict
        passed = None
    payload = {**asdict(probe), "contraction_constant": kappa, "margin": margin}
    return {**payload, "passed": passed}, None if passed is not False else (
        f"empirical ratio {probe.max_ratio:.6g} exceeds certified "
        f"{kappa:.6g} (+{margin:.0%} margin)"
    )


def _cmd_continuity(built: BuiltProblem, args) -> Outcome:
    g1 = built.problem.nonlinearity
    g2 = scale_nonlinearity(g1, 1.0 + args.delta)
    rep = continuity_experiment(
        built.problem, g1, g2,
        tol=built.tol, max_iter=built.max_iter, margin=built.margins["continuity"],
    )
    return {"delta": args.delta, **asdict(rep)}, None if rep.passed else (
        f"measured shift {rep.measured:.6g} exceeds bound {rep.bound:.6g} "
        f"(+{rep.margin:.0%} margin)"
    )


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_subcommand(sub, name: str, handler, help: str) -> argparse.ArgumentParser:
    """A subcommand that runs `handler` on the problem built from its config."""
    p = sub.add_parser(name, help=help)
    p.add_argument("config", help="path to a JSON config file")
    p.add_argument(
        "--eps-fraction", type=float, default=None, metavar="Q",
        help="set every coupling to Q * eps_max (overrides the config)",
    )
    p.set_defaults(handler=handler)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nlrd",
        description=(
            "pseudo-spectral solver and certified bounds for stationary "
            "nonlocal reaction-diffusion systems"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_subcommand(sub, "validate", _cmd_validate, "check problem requirements")
    _add_subcommand(sub, "bounds", _cmd_bounds, "compute certified constants")

    p = _add_subcommand(sub, "solve", _cmd_solve, "run the Picard solve")
    p.add_argument("--tol", type=float, default=None, help="H^4 step tolerance")
    p.add_argument("--max-iter", type=int, default=None, help="iteration budget")
    p.add_argument(
        "--dump-fields", metavar="DIR", default=None,
        help="write background/perturbation/solution components as BFX1",
    )
    p.add_argument(
        "--trace-csv", metavar="PATH", default=None,
        help="write the per-iteration trace as CSV",
    )

    p = _add_subcommand(
        sub, "probe-contraction", _cmd_probe, "empirical contraction ratios vs. theory"
    )
    p.add_argument("--pairs", type=int, default=50, help="number of random pairs")
    p.add_argument("--seed", type=int, default=None, help="probe RNG seed")

    p = _add_subcommand(
        sub, "continuity", _cmd_continuity,
        "fixed-point shift under a nonlinearity perturbation",
    )
    p.add_argument(
        "--delta", type=float, default=0.01,
        help="relative size of the nonlinearity perturbation (default 0.01)",
    )
    return parser


def _check_options(args) -> None:
    """Reject command-line values no build can make sense of."""
    if getattr(args, "pairs", 1) < 1:
        raise ConfigError(f"--pairs must be at least 1, got {args.pairs}")
    for option, read in (("tol", read_tol), ("max_iter", read_max_iter), ("seed", read_seed)):
        if getattr(args, option, None) is not None:
            read(getattr(args, option), "--" + option.replace("_", "-"))
    if not math.isfinite(getattr(args, "delta", 0.0)):
        raise ConfigError(f"--delta must be finite, got {args.delta}")


def main(argv=None) -> int:
    """Run one subcommand; the only place that turns outcomes into exit codes."""
    args = build_parser().parse_args(argv)
    try:
        _check_options(args)
        built = _build(args)
        payload, failure = args.handler(built, args)
        _emit({"command": args.command, "config": built.resolved, **payload})
        if isinstance(failure, Exception):
            raise failure
    except ConfigError as err:
        _diag(f"config error: {err}")
        return EXIT_CONFIG
    except (AssumptionsNotValidated, ContractionNotStrict) as err:
        _diag(str(err))
        return EXIT_REQUIREMENTS
    except (MaxIterExceeded, DivergenceDetected) as err:
        _diag(f"solver failure: {err}")
        return EXIT_SOLVER
    if failure is not None:
        _diag(failure)
        return EXIT_REQUIREMENTS
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
