"""Command-line interface.

Subcommands::

    nlrd validate CONFIG             check data + nonlinearity requirements
    nlrd bounds CONFIG               certified constants as JSON
    nlrd solve CONFIG                Picard solve with residual + trace
    nlrd probe-contraction CONFIG    empirical Lipschitz ratios vs. theory
    nlrd continuity CONFIG           fixed-point shift vs. certified bound

Reports go to stdout as JSON (keys sorted; only wall-time fields vary
between identical runs); diagnostics go to stderr.  Exit codes: 0 success,
1 requirement/certification failure, 2 configuration error, 3 solver
failure (divergence or iteration budget).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
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
    check_solver_settings,
    load_config,
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
    """Coerce report structures to plain JSON types."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):  # before int: bool is an int subclass
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


def _emit(payload: dict) -> None:
    print(json.dumps(_jsonable(payload), indent=2, sort_keys=True))


def _diag(msg: str) -> None:
    print(msg, file=sys.stderr)


def _build(args) -> BuiltProblem:
    cfg = load_config(args.config)
    built = build_problem(cfg, eps_fraction=getattr(args, "eps_fraction", None))
    for w in built.warnings:
        _diag(f"warning: {w}")
    return built


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_validate(args) -> int:
    built = _build(args)
    data, nl = validate_problem(
        built.problem, built.background_h4, budget=built.budget, seed=built.seed
    )
    passed = data.passed and nl.passed
    _emit(
        {
            "command": "validate",
            "config": built.resolved,
            "data": data.as_dict(),
            "nonlinearity": nl.as_dict(),
            "passed": passed,
        }
    )
    if not passed:
        failures = list(data.failures) + list(nl.failures)
        _diag("validation failed: " + ", ".join(failures))
    return EXIT_OK if passed else EXIT_REQUIREMENTS


def _cmd_bounds(args) -> int:
    built = _build(args)
    try:
        rep = compute_bounds(
            built.problem, built.background_h4, budget=built.budget, seed=built.seed
        )
    except AssumptionsNotValidated as err:
        _emit(
            {
                "command": "bounds",
                "config": built.resolved,
                "error": "requirements_failed",
                "failures": list(err.failures),
            }
        )
        _diag(str(err))
        return EXIT_REQUIREMENTS
    _emit({"command": "bounds", "config": built.resolved, "bounds": rep.as_dict()})
    return EXIT_OK


def _solve_payload(built: BuiltProblem, rep: SolveReport, error: str | None) -> dict:
    return {
        "command": "solve",
        "config": built.resolved,
        "error": error,
        "converged": rep.converged,
        "iterations": rep.iterations,
        "tol": rep.tol,
        "background_h4": rep.background_h4,
        "perturbation_h4": rep.perturbation_h4,
        "solution_h4": rep.solution_h4,
        "background_dropped": list(rep.background_dropped),
        "residual_abs": rep.residual.absolute if rep.residual else None,
        "residual_rel": rep.residual.relative if rep.residual else None,
        "bounds": rep.bounds.as_dict(),
        "warnings": list(rep.warnings),
        "trace": rep.trace.rows(),
    }


def _dump_fields(rep: SolveReport, directory: str) -> list[str]:
    out_dir = Path(directory)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for name, vf in (
        ("background", rep.background),
        ("perturbation", rep.perturbation),
        ("solution", rep.solution),
    ):
        for m, comp in enumerate(vf.components):
            path = out_dir / f"{name}_{m}.bfx1"
            write_field(path, comp)
            written.append(str(path))
    return written


def _write_trace_csv(rep: SolveReport, path: str) -> None:
    rows = rep.trace.rows()
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(
            fh, fieldnames=["k", "norm_h4", "step_h4", "ratio", "dropped_mass", "wall_time"]
        )
        writer.writeheader()
        for row in rows:
            if row["ratio"] is None:
                row = dict(row, ratio="")
            writer.writerow(row)


def _cmd_solve(args) -> int:
    built = _build(args)
    tol = args.tol if args.tol is not None else built.tol
    max_iter = args.max_iter if args.max_iter is not None else built.max_iter
    check_solver_settings(tol, max_iter)
    t0 = time.perf_counter()
    error = None
    code = EXIT_OK
    try:
        rep = picard(
            built.problem, tol=tol, max_iter=max_iter,
            budget=built.budget, seed=built.seed,
        )
    except (MaxIterExceeded, DivergenceDetected) as err:
        rep = err.report
        error = type(err).__name__
        code = EXIT_SOLVER
        _diag(f"solver failure: {err}")
    payload = _solve_payload(built, rep, error)
    payload["wall_time_total"] = time.perf_counter() - t0
    if args.dump_fields:
        payload["dumped_fields"] = _dump_fields(rep, args.dump_fields)
    if args.trace_csv:
        _write_trace_csv(rep, args.trace_csv)
        payload["trace_csv"] = args.trace_csv
    _emit(payload)
    return code


def _cmd_probe(args) -> int:
    if args.pairs < 1:
        raise ConfigError(f"--pairs must be at least 1, got {args.pairs}")
    if args.seed is not None and args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    built = _build(args)
    try:
        theory = compute_bounds(
            built.problem, built.background_h4, budget=built.budget, seed=built.seed
        )
    except AssumptionsNotValidated as err:
        _diag(str(err))
        return EXIT_REQUIREMENTS
    pairs = args.pairs
    seed = args.seed if args.seed is not None else built.seed
    probe = contraction_probe(built.problem, pairs=pairs, seed=seed)
    margin = built.margins["contraction"]
    passed = probe.max_ratio <= theory.contraction_constant * (1.0 + margin)
    _emit(
        {
            "command": "probe-contraction",
            "config": built.resolved,
            "pairs": probe.pairs,
            "seed": probe.seed,
            "ratios": list(probe.ratios),
            "max_ratio": probe.max_ratio,
            "mean_ratio": probe.mean_ratio,
            "contraction_constant": theory.contraction_constant,
            "margin": margin,
            "passed": passed,
        }
    )
    if not passed:
        _diag(
            f"empirical ratio {probe.max_ratio:.6g} exceeds certified "
            f"{theory.contraction_constant:.6g} (+{margin:.0%} margin)"
        )
    return EXIT_OK if passed else EXIT_REQUIREMENTS


def _cmd_continuity(args) -> int:
    if not math.isfinite(args.delta):
        raise ConfigError(f"--delta must be finite, got {args.delta}")
    built = _build(args)
    g1 = built.problem.nonlinearity
    g2 = scale_nonlinearity(g1, 1.0 + args.delta)
    margin = built.margins["continuity"]
    try:
        rep = continuity_experiment(
            built.problem, g1, g2,
            tol=built.tol, max_iter=built.max_iter, margin=margin,
            budget=built.budget, seed=built.seed,
        )
    except AssumptionsNotValidated as err:
        _diag(str(err))
        return EXIT_REQUIREMENTS
    except ContractionNotStrict as err:
        _diag(str(err))
        return EXIT_REQUIREMENTS
    except (MaxIterExceeded, DivergenceDetected) as err:
        _diag(f"solver failure: {err}")
        return EXIT_SOLVER
    _emit(
        {
            "command": "continuity",
            "config": built.resolved,
            "delta": args.delta,
            "measured": rep.measured,
            "bound": rep.bound,
            "margin": rep.margin,
            "slack": rep.slack,
            "nonlinearity_gap": rep.nonlinearity_gap,
            "gap_method": rep.gap_method,
            "contraction_constant": rep.contraction_constant,
            "iterations": list(rep.iterations),
            "residuals": list(rep.residuals),
            "passed": rep.passed,
        }
    )
    if not rep.passed:
        _diag(
            f"measured shift {rep.measured:.6g} exceeds bound {rep.bound:.6g} "
            f"(+{margin:.0%} margin)"
        )
    return EXIT_OK if rep.passed else EXIT_REQUIREMENTS


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_common(sub: argparse.ArgumentParser, eps_fraction: bool = True) -> None:
    sub.add_argument("config", help="path to a JSON config file")
    if eps_fraction:
        sub.add_argument(
            "--eps-fraction", type=float, default=None, metavar="Q",
            help="set every coupling to Q * eps_max (overrides the config)",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nlrd",
        description=(
            "pseudo-spectral solver and certified bounds for stationary "
            "nonlocal reaction-diffusion systems"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check problem requirements")
    _add_common(p)
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("bounds", help="compute certified constants")
    _add_common(p)
    p.set_defaults(handler=_cmd_bounds)

    p = sub.add_parser("solve", help="run the Picard solve")
    _add_common(p)
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
    p.set_defaults(handler=_cmd_solve)

    p = sub.add_parser(
        "probe-contraction", help="empirical contraction ratios vs. theory"
    )
    _add_common(p)
    p.add_argument("--pairs", type=int, default=50, help="number of random pairs")
    p.add_argument("--seed", type=int, default=None, help="probe RNG seed")
    p.set_defaults(handler=_cmd_probe)

    p = sub.add_parser(
        "continuity", help="fixed-point shift under a nonlinearity perturbation"
    )
    _add_common(p)
    p.add_argument(
        "--delta", type=float, default=0.01,
        help="relative size of the nonlinearity perturbation (default 0.01)",
    )
    p.set_defaults(handler=_cmd_continuity)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as err:
        _diag(f"config error: {err}")
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
