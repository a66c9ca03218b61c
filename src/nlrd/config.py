"""JSON configuration: schema, construction, and coupling resolution.

A config file has five sections::

    {
      "grid":         {"d": 5, "n": 12, "L": 8.0},
      "problem":      {"rho": 1.0, "c2_bound": 1.0,
                       "eps": 0.02            # or "eps_fraction": 0.5
                      },
      "kernels":      [ {"constructor": "gaussian", "params": {...}}, ... ],
      "forcings":     [ ... one spec per component ... ],
      "nonlinearity": {"family": "quadratic",
                       "params": {"matrices": [[[...]]]},
                       "scale_c2_to_fraction": 0.5},
      "solver":       {"tol": 1e-10, "max_iter": 200, "seed": 0,
                       "budget": 100000},
      "margins":      {"contraction": 0.05, "continuity": 0.05}
    }

Field constructors: ``gaussian`` (params ``width``, ``amplitude``,
``center``), ``bfx1`` (params ``path``, grid must match), ``zero``.

Coupling resolution: ``eps`` gives the amplitudes directly (scalar or one
per component); ``eps_fraction`` q sets every amplitude to q * eps_max,
where eps_max is the certified threshold computed around the background of
the configured forcings.  ``scale_c2_to_fraction`` rescales the
nonlinearity so its exact C^2 norm over the relevant state ball equals that
fraction of ``c2_bound``.

``build_problem`` resolves everything around the background and the data
report the problem caches (see :class:`nlrd.model.Problem`), so the kernel
and forcing norms are measured once per build and shared by the problem it
returns, together with the fully resolved configuration dictionary that
reports embed.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from . import __version__
from .bounds import coupling_threshold_raw, sobolev_embedding_constant
from .fieldio import read_field
from .lattice import Grid, RealField, VectorField
from .model import (
    DEFAULT_C2_BUDGET,
    GaussianSpec,
    Nonlinearity,
    Problem,
    c2_norm,
    image_ball_radius,
    quadratic_nonlinearity,
    scale_nonlinearity,
    validate_problem_data,
)
from .solver import DEFAULT_MAX_ITER, DEFAULT_TOL

DEFAULT_MARGINS = {"contraction": 0.05, "continuity": 0.05}

#: peak resident bytes of a solve per grid point per component, above the
#: interpreter's own; calibrated against measured benchmark peaks
_PEAK_BYTES_PER_POINT = 128


class ConfigError(ValueError):
    """Malformed or inconsistent configuration."""


@dataclass(frozen=True)
class BuiltProblem:
    """A problem plus everything resolved while building it."""

    problem: Problem
    resolved: dict = field(repr=False)
    tol: float
    max_iter: int
    seed: int
    budget: int
    margins: dict
    warnings: tuple[str, ...]

    @property
    def background(self) -> VectorField:
        return self.problem.background

    @property
    def background_h4(self) -> float:
        return self.problem.background_h4


def load_config(path: str | Path) -> dict:
    """Read and parse a JSON config file."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    try:
        cfg = json.loads(text)
    except (ValueError, RecursionError) as err:  # over-long integers, deep nesting
        raise ConfigError(f"config {path} is not valid JSON: {err}") from err
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    return cfg


def check_solver_settings(tol: float, max_iter: int) -> None:
    """Reject a tolerance that is not positive or an empty iteration budget."""
    if not tol > 0.0:
        raise ConfigError(f"solver tolerance must be positive, got {tol}")
    if max_iter < 1:
        raise ConfigError(f"solver max_iter must be >= 1, got {max_iter}")


def _number(value: Any, what: str) -> float:
    """A numeric setting; booleans and numeric strings are not numbers."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError as err:
        raise ConfigError(f"{what} is too large for a float") from err


def _integer(value: Any, what: str) -> int:
    """An integral setting; 4.9 is rejected, not truncated to 4."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    number = _number(value, what)
    if not number.is_integer():
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    return int(number)


def _build_margins(cfg: dict) -> dict:
    margins = dict(DEFAULT_MARGINS)
    for key, value in _section(cfg, "margins", required=False).items():
        if key not in margins:
            raise ConfigError(f"unknown margin {key!r}; expected one of {sorted(margins)}")
        margin = _number(value, f"margins.{key}")
        if not (math.isfinite(margin) and margin >= 0.0):
            raise ConfigError(f"margins.{key} must be finite and >= 0, got {value!r}")
        margins[key] = margin
    return margins


def _section(cfg: dict, name: str, required: bool = True) -> dict:
    sec = cfg.get(name)
    if sec is None:
        if required:
            raise ConfigError(f"missing config section {name!r}")
        return {}
    if not isinstance(sec, dict):
        raise ConfigError(f"config section {name!r} must be an object")
    return sec


def _build_grid(cfg: dict) -> Grid:
    sec = _section(cfg, "grid")
    try:
        d, n = (_integer(sec[key], f"grid.{key}") for key in ("d", "n"))
        return Grid(d=d, n=n, L=_number(sec["L"], "grid.L"))
    except KeyError as err:
        raise ConfigError(f"grid section is missing {err}") from err
    except (TypeError, ValueError) as err:
        raise ConfigError(f"bad grid section: {err}") from err


def build_field(grid: Grid, spec: Any) -> RealField:
    """Construct one field from a constructor spec."""
    if not isinstance(spec, dict) or "constructor" not in spec:
        raise ConfigError(f"field spec must be an object with a constructor, got {spec!r}")
    name = spec["constructor"]
    params = spec.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError(f"field params must be an object, got {params!r}")
    try:
        if name == "gaussian":
            gauss = GaussianSpec(
                width=_number(params.get("width", 1.0), "gaussian width"),
                amplitude=_number(params.get("amplitude", 1.0), "gaussian amplitude"),
                center=params.get("center", 0.0),
            )
            return gauss.sample(grid)
        if name == "zero":
            return RealField.zeros(grid)
        if name == "bfx1":
            f = read_field(params["path"])
            if f.grid != grid:
                raise ConfigError(
                    f"field in {params['path']} has grid {f.grid}, expected {grid}"
                )
            return f
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError, OSError, ArithmeticError) as err:
        raise ConfigError(f"cannot build {name!r} field: {err}") from err
    raise ConfigError(f"unknown field constructor {name!r}")


def _field_specs(cfg: dict, section: str) -> list:
    specs = cfg.get(section)
    if not isinstance(specs, list) or not specs:
        raise ConfigError(f"config section {section!r} must be a nonempty list")
    return specs


def _physical_memory() -> float:
    """Bytes of physical memory, or inf where the OS does not say."""
    try:
        return float(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"))
    except (AttributeError, ValueError, OSError):
        return math.inf


def _check_grid_size(grid: Grid, n_components: int) -> None:
    """Refuse a grid whose solve would not fit in physical memory."""
    need = _PEAK_BYTES_PER_POINT * n_components * grid.n**grid.d
    have = _physical_memory()
    if need > have:
        raise ConfigError(
            f"a solve on {grid.n}^{grid.d} points x {n_components} components "
            f"needs about {need / 1e9:.3g} GB, more than the {have / 1e9:.3g} GB "
            "of physical memory"
        )


def _build_nonlinearity(cfg: dict) -> tuple[Nonlinearity, float | None]:
    sec = _section(cfg, "nonlinearity")
    family = sec.get("family")
    params = sec.get("params", {})
    if family != "quadratic":
        raise ConfigError(f"unknown nonlinearity family {family!r}")
    try:
        mats = [np.asarray(A, dtype=float) for A in params["matrices"]]
        if not all(np.all(np.isfinite(A)) for A in mats):
            raise ValueError("matrix entries must be finite")
        g = quadratic_nonlinearity(mats)
    except (KeyError, TypeError, ValueError, OverflowError) as err:
        raise ConfigError(f"bad quadratic nonlinearity: {err}") from err
    frac = sec.get("scale_c2_to_fraction")
    if frac is not None:
        frac = _number(frac, "scale_c2_to_fraction")
        if not 0.0 < frac <= 1.0:
            raise ConfigError(
                f"scale_c2_to_fraction must be in (0, 1], got {frac}"
            )
    return g, frac


@np.errstate(over="ignore", invalid="ignore")
def build_problem(
    cfg: dict, eps_fraction: float | None = None
) -> BuiltProblem:
    """Build a problem from a parsed config, resolving couplings and scaling.

    ``eps_fraction`` (e.g. from the command line) overrides any coupling
    settings in the file.  Data that overflows is a :class:`ConfigError`,
    so numpy's overflow warnings are silenced here.
    """
    grid = _build_grid(cfg)
    prob_sec = _section(cfg, "problem")
    solver_sec = _section(cfg, "solver", required=False)
    margins = _build_margins(cfg)

    rho = _number(prob_sec.get("rho", 1.0), "problem.rho")
    c2_bound = _number(prob_sec.get("c2_bound", 1.0), "problem.c2_bound")
    tol = _number(solver_sec.get("tol", DEFAULT_TOL), "solver.tol")
    max_iter = _integer(solver_sec.get("max_iter", DEFAULT_MAX_ITER), "solver.max_iter")
    seed = _integer(solver_sec.get("seed", 0), "solver.seed")
    budget = _integer(solver_sec.get("budget", DEFAULT_C2_BUDGET), "solver.budget")
    check_solver_settings(tol, max_iter)
    if budget < 1:
        raise ConfigError(f"solver.budget must be >= 1, got {budget}")
    if seed < 0:
        raise ConfigError(f"solver.seed must be >= 0, got {seed}")

    kernel_specs = _field_specs(cfg, "kernels")
    forcing_specs = _field_specs(cfg, "forcings")
    if len(kernel_specs) != len(forcing_specs):
        raise ConfigError(
            f"{len(kernel_specs)} kernels vs {len(forcing_specs)} forcings; "
            "need one of each per component"
        )
    _check_grid_size(grid, len(kernel_specs))
    kernels = tuple(build_field(grid, s) for s in kernel_specs)
    forcings = tuple(build_field(grid, s) for s in forcing_specs)
    g, c2_fraction = _build_nonlinearity(cfg)
    if g.N != len(kernels):
        raise ConfigError(
            f"nonlinearity has {g.N} components but {len(kernels)} kernels given"
        )

    warnings: list[str] = []

    # The background (and hence the state-ball radius and eps_max) depends
    # only on the grid and forcings, so it can be resolved before couplings.
    try:
        base = Problem(
            grid=grid,
            eps=(0.0,) * g.N,
            kernels=kernels,
            forcings=forcings,
            nonlinearity=g,
            rho=rho,
            c2_bound=c2_bound,
        )
    except ValueError as err:
        raise ConfigError(str(err)) from err
    try:
        background_h4 = base.background_h4
        if not math.isfinite(background_h4):
            raise ValueError(f"its H^4 norm is {background_h4}")
    except ValueError as err:
        raise ConfigError(f"the forcings give no finite background: {err}") from err

    scale_applied = None
    if c2_fraction is not None:
        radius = image_ball_radius(
            background_h4, sobolev_embedding_constant(grid.d)
        )
        current = c2_norm(g, radius, budget=budget, seed=seed)
        # an inf norm would give the finite scale 0 and silently drop g
        if not math.isfinite(current.value):
            raise ConfigError(
                f"cannot rescale a nonlinearity of C^2 norm {current.value}"
            )
        if current.value <= 0.0:
            raise ConfigError("cannot rescale a vanishing nonlinearity")
        scale_applied = c2_fraction * c2_bound / current.value
        if not math.isfinite(scale_applied):
            raise ConfigError(
                f"cannot rescale a nonlinearity of C^2 norm {current.value:.3g}: "
                f"the scale {scale_applied} is not finite"
            )
        g = scale_nonlinearity(g, scale_applied)

    data = validate_problem_data(base)
    eps_max = coupling_threshold_raw(
        grid.d, rho, c2_bound, data.kernel_l1_rss, data.kernel_l2_rss, background_h4
    )

    cfg_fraction = prob_sec.get("eps_fraction")
    cfg_eps = prob_sec.get("eps")
    # (q, eps_source prefix, name in errors, adjective in warnings)
    fraction = None
    if eps_fraction is not None:
        fraction = (eps_fraction, "cli", "eps fraction", "requested")
    elif cfg_fraction is not None and cfg_eps is not None:
        raise ConfigError("give either 'eps' or 'eps_fraction', not both")
    elif cfg_fraction is not None:
        q = _number(cfg_fraction, "eps_fraction")
        fraction = (q, "config", "eps_fraction", "configured")
    if fraction is not None:
        q, origin, name, adjective = fraction
        if not q > 0.0:
            raise ConfigError(f"{name} must be positive, got {q}")
        if not 0.0 < eps_max < math.inf:
            raise ConfigError(f"{name} needs a positive finite eps_max, got {eps_max}")
        eps = (float(q) * eps_max,) * g.N
        eps_source = f"{origin}_fraction={q:g}"
        if q > 1.0:
            warnings.append(
                f"{adjective} coupling fraction {q:g} exceeds 1; "
                "the solve is outside the certified regime"
            )
    elif cfg_eps is not None:
        if np.isscalar(cfg_eps):
            eps = (_number(cfg_eps, "eps"),) * g.N
        else:
            eps = tuple(_number(e, "eps") for e in cfg_eps)
            if len(eps) != g.N:
                raise ConfigError(
                    f"eps list has {len(eps)} entries for {g.N} components"
                )
        eps_source = "config_eps"
    else:
        eps = (0.0,) * g.N
        eps_source = "default_zero"

    try:
        problem = base.with_nonlinearity(g).with_eps(eps)
    except ValueError as err:
        raise ConfigError(str(err)) from err
    # |eps_m (2 pi)^(d/2) H^_m| <= eps_m |H_m|_L1 bounds the coupling coefficients
    scale = (2.0 * math.pi) ** (grid.d / 2.0)
    for m, (e, l1) in enumerate(zip(eps, data.kernel_l1)):
        if not (math.isfinite(e * scale) and math.isfinite(e * l1)):
            raise ConfigError(
                f"coupling {m} overflows: eps = {e:g} on a kernel of L1 norm {l1:g}"
            )

    resolved = {
        "version": __version__,
        "grid": {"d": grid.d, "n": grid.n, "L": grid.L},
        "n_components": g.N,
        "rho": rho,
        "c2_bound": c2_bound,
        "eps": list(eps),
        "eps_source": eps_source,
        "eps_max_at_build": eps_max,
        "background_h4": background_h4,
        "nonlinearity": {
            "family": "quadratic",
            "label": g.label,
            "scale_applied": scale_applied,
        },
        "kernels": cfg.get("kernels"),
        "forcings": cfg.get("forcings"),
        "solver": {
            "tol": tol,
            "max_iter": max_iter,
            "seed": seed,
            "budget": budget,
        },
        "margins": margins,
    }
    return BuiltProblem(
        problem=problem,
        resolved=resolved,
        tol=tol,
        max_iter=max_iter,
        seed=seed,
        budget=budget,
        margins=margins,
        warnings=tuple(warnings),
    )
