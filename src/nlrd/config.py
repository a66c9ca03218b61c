"""JSON configuration: schema, construction, and coupling resolution.

A config file has seven sections::

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
``center``), ``bfx1`` (``path``, from the config's directory; same grid), ``zero``.
A ``gaussian`` or ``zero`` field is a source the problem samples each time
a pass reads it; a ``bfx1`` field is read once, at build time.

A key not shown is an error in any object, and so is a boolean or a
string where a number belongs.  A key with a default may be left out,
and a null section is an absent one.  ``solver.seed`` is the contraction
probe's default seed.  ``solver.budget`` (an integer >= 1) is read and
checked, so configs that give it still load, and has no effect: a C^2
norm is certified only in closed form, which the only family,
``quadratic``, has.

Coupling resolution: at most one of ``eps`` and ``eps_fraction`` is given,
and with neither every coupling is 0.  ``eps`` gives the amplitudes
directly (scalar or one per component); ``eps_fraction`` q sets every
amplitude to q * eps_max.  ``scale_c2_to_fraction`` rescales the
nonlinearity so its exact C^2 norm over the state ball equals that
fraction of ``c2_bound``.

``build_problem`` reads eps_max and the C^2 norm of g over the state ball
from the :class:`~nlrd.bounds.BoundsReport` of its uncoupled problem
(uncertified when a requirement fails: the build certifies nothing), as
:mod:`nlrd.bounds` is the one place a certified constant is derived.  The
background and data report are cached on the problem (see
:class:`nlrd.model.Problem`), so the kernel and forcing norms are measured
once per build and shared by the problem it returns, together with the
fully resolved configuration dictionary that reports embed.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, fields
from functools import partial
from pathlib import Path
from typing import Any

import numpy as np

from . import __version__
from .bounds import compute_bounds
from .fieldio import read_field
from .lattice import Grid, RealField, VectorField, real_number
from .model import (
    GaussianSource,
    GaussianSpec,
    Nonlinearity,
    Problem,
    quadratic_nonlinearity,
    scale_nonlinearity,
    validate_problem_data,
)
from .solver import DEFAULT_MAX_ITER, DEFAULT_TOL

#: peak resident bytes of a CLI run per grid point per component, above the
#: interpreter's own: 1.4x the largest traced peak of a subcommand, 91 B
#: when first measured.  `continuity` at d = 7, n = 8 on the shipped
#: instance, traced with tracemalloc, peaks at 83 B with every kernel and
#: forcing held as samples, as bfx1 inputs are, and at 57 B when all are
#: gaussian sources, whose coupling is folded into the transforms (65 B
#: while full-size spectral weights were cached)
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
    budget: int  # solver.budget, read and ignored (see the module docstring)
    margins: dict
    warnings: tuple[str, ...]

    @property
    def background(self) -> VectorField:
        return self.problem.background

    @property
    def background_h4(self) -> float:
        return self.problem.background_h4


def load_config(path: str | Path) -> dict:
    """Read and parse a JSON config file, whose relative bfx1 paths name files beside it."""
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
    for spec in [s for k in ("kernels", "forcings") if isinstance(cfg.get(k), list) for s in cfg[k]]:
        params = spec.get("params") if isinstance(spec, dict) else None
        if isinstance(params, dict) and isinstance(params.get("path"), str):
            params["path"] = os.path.join(os.path.dirname(path), params["path"])
    return cfg


#: a numeric setting; booleans and numeric strings are not numbers
_number = partial(real_number, error=ConfigError)


def _integer(value: Any, what: str) -> int:
    """An integral setting; 4.9 is rejected, not truncated to 4."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    number = _number(value, what)
    if not number.is_integer():
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    return int(number)


#: the default of a key that must be given
_REQUIRED = object()


def _read(obj: Any, where: str, keys: dict) -> dict:
    """Read a config object by its table of ``key: (reader, default)``.

    ``reader(value, "where.key")`` reads each value, defaults included; a
    null is left as None where the default is None.  An absent ``_REQUIRED``
    key and a key the table lacks are errors.  The top level has no
    ``where``, and a null section there is an absent one.
    """
    if not isinstance(obj, dict):
        raise ConfigError(f"{where or 'config'} must be an object, got {obj!r}")
    prefix = f"{where}." if where else ""
    unknown = [key for key in obj if key not in keys]
    if unknown:
        raise ConfigError(f"unknown key '{prefix}{unknown[0]}'; expected one of {sorted(keys)}")
    settings = {}
    for key, (reader, default) in keys.items():
        value = obj.get(key, default)
        if value is None and not where:
            value = default
        if value is _REQUIRED:
            raise ConfigError(f"{where} section is missing {key!r}" if where
                              else f"missing config section {key!r}")
        settings[key] = None if value is default is None else reader(value, prefix + key)
    return settings


def _as_is(value: Any, where: str) -> Any:
    """A setting that the code using it checks."""
    return value


def _one_of(names, what: str):
    """A reader that accepts a name in ``names`` and calls anything else an unknown ``what``."""
    def read(value: Any, where: str) -> str:
        if not isinstance(value, str) or value not in names:
            raise ConfigError(f"unknown {what} {value!r}")
        return value
    return read


def _checked(read, ok, rule: str):
    """A reader that applies ``read`` and then requires ``ok`` of the setting."""
    def check(value: Any, where: str) -> Any:
        setting = read(value, where)
        if not ok(setting):
            raise ConfigError(f"{where} must be {rule}, got {value!r}")
        return setting
    return check


#: readers of the solver settings that the command line can override too
read_tol = _checked(_number, lambda tol: 0.0 < tol < math.inf, "finite and positive")
read_max_iter = _checked(_integer, lambda n: n >= 1, ">= 1")
read_seed = _checked(_integer, lambda seed: seed >= 0, ">= 0")


def _eps(value: Any, where: str) -> float | list[float]:
    """One coupling for every component, or a list of one per component."""
    if isinstance(value, list):
        return [_number(e, where) for e in value]
    return _number(value, where)


def _grid(value: Any, where: str) -> Grid:
    keys = {"d": (_integer, _REQUIRED), "n": (_integer, _REQUIRED), "L": (_number, _REQUIRED)}
    grid = _read(value, where, keys)
    try:
        return Grid(**grid)
    except ValueError as err:
        raise ConfigError(f"bad grid section: {err}") from err


def _quadratic(value: Any, where: str) -> Nonlinearity:
    """The quadratic family's params, built into its nonlinearity."""
    matrices = _read(value, where, {"matrices": (_as_is, _REQUIRED)})["matrices"]
    try:
        mats = [[[_number(x, "matrix entry") for x in row] for row in A] for A in matrices]
        if not all(np.all(np.isfinite(A)) for A in mats):
            raise ValueError("matrix entries must be finite")
        return quadratic_nonlinearity(mats)
    except (TypeError, ValueError, OverflowError) as err:
        raise ConfigError(f"bad quadratic nonlinearity: {err}") from err


#: the params table of each field constructor
_FIELD_PARAMS = {
    "gaussian": {f.name: (_as_is, f.default) for f in fields(GaussianSpec)},
    "zero": {},
    "bfx1": {"path": (_as_is, _REQUIRED)},
}
_FIELD = {
    "constructor": (_one_of(_FIELD_PARAMS, "field constructor"), _REQUIRED),
    "params": (_as_is, {}),
}
_FIELD_SPECS = _checked(_as_is, lambda s: isinstance(s, list) and s, "a nonempty list")
_MARGIN = _checked(_number, lambda margin: 0.0 <= margin < math.inf, "finite and >= 0")
_CONFIG = {
    "grid": (_grid, _REQUIRED),
    "problem": (partial(_read, keys={
        "rho": (_number, 1.0), "c2_bound": (_number, 1.0),
        "eps": (_eps, None), "eps_fraction": (_number, None),
    }), _REQUIRED),
    "kernels": (_FIELD_SPECS, _REQUIRED),
    "forcings": (_FIELD_SPECS, _REQUIRED),
    "nonlinearity": (partial(_read, keys={
        "family": (_one_of({"quadratic"}, "nonlinearity family"), _REQUIRED),
        "params": (_quadratic, _REQUIRED),
        "scale_c2_to_fraction": (_checked(_number, lambda q: 0.0 < q <= 1.0, "in (0, 1]"), None),
    }), _REQUIRED),
    "solver": (partial(_read, keys={
        "tol": (read_tol, DEFAULT_TOL),
        "max_iter": (read_max_iter, DEFAULT_MAX_ITER),
        "seed": (read_seed, 0),
        "budget": (_checked(_integer, lambda n: n >= 1, ">= 1"), 100_000),
    }), {}),
    "margins": (partial(_read, keys={
        "contraction": (_MARGIN, 0.05), "continuity": (_MARGIN, 0.05),
    }), {}),
}


def build_field(grid: Grid, spec: Any, where: str = "field") -> GaussianSource | RealField:
    """Construct one field source from a constructor spec found at ``where``
    in a config: a Gaussian, sampled when read, or a bfx1 file's samples."""
    spec = _read(spec, where, _FIELD)
    name = spec["constructor"]
    params = _read(spec["params"], f"{where}.params", _FIELD_PARAMS[name])
    try:
        if name == "gaussian":
            return GaussianSource(grid, GaussianSpec(**params))
        if name == "zero":  # a Gaussian of amplitude 0 samples to exact zeros
            return GaussianSource(grid, GaussianSpec(amplitude=0.0))
        f = read_field(params["path"])
    except (TypeError, ValueError, OSError, ArithmeticError) as err:
        raise ConfigError(f"cannot build {name!r} field: {err}") from err
    if f.grid != grid:
        raise ConfigError(f"field in {params['path']} has grid {f.grid}, expected {grid}")
    return f


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


@np.errstate(over="ignore", invalid="ignore")
def build_problem(
    cfg: dict, eps_fraction: float | None = None
) -> BuiltProblem:
    """Build a problem from a parsed config, resolving couplings and scaling.

    ``eps_fraction`` (e.g. from the command line) overrides any coupling
    settings in the file.  Data that overflows is a :class:`ConfigError`,
    so numpy's overflow warnings are silenced here.
    """
    settings = _read(cfg, "", _CONFIG)
    grid, prob, nl, solver = (settings[k] for k in ("grid", "problem", "nonlinearity", "solver"))
    rho, c2_bound, g = prob["rho"], prob["c2_bound"], nl["params"]

    kernel_specs, forcing_specs = settings["kernels"], settings["forcings"]
    if len(kernel_specs) != len(forcing_specs):
        raise ConfigError(
            f"{len(kernel_specs)} kernels vs {len(forcing_specs)} forcings; "
            "need one of each per component"
        )
    _check_grid_size(grid, len(kernel_specs))
    kernels = tuple(build_field(grid, s, f"kernels[{i}]") for i, s in enumerate(kernel_specs))
    forcings = tuple(build_field(grid, s, f"forcings[{i}]") for i, s in enumerate(forcing_specs))
    if g.N != len(kernels):
        raise ConfigError(
            f"nonlinearity has {g.N} components but {len(kernels)} kernels given"
        )

    warnings: list[str] = []

    # The background, the state ball and eps_max depend on the grid, the
    # data, rho and c2_bound only, so the uncoupled base problem carries them.
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
    # the build certifies nothing: a failed requirement is the commands' to report
    report = compute_bounds(base)
    eps_max = report.eps_max

    scale_applied = None
    if nl["scale_c2_to_fraction"] is not None:
        current = report.c2_norm  # g's C^2 norm over the state ball
        # an inf norm would give the finite scale 0 and silently drop g
        if not math.isfinite(current):
            raise ConfigError(f"cannot rescale a nonlinearity of C^2 norm {current}")
        if current <= 0.0:
            raise ConfigError("cannot rescale a vanishing nonlinearity")
        scale_applied = nl["scale_c2_to_fraction"] * c2_bound / current
        if not math.isfinite(scale_applied):
            raise ConfigError(
                f"cannot rescale a nonlinearity of C^2 norm {current:.3g}: "
                f"the scale {scale_applied} is not finite"
            )
        g = scale_nonlinearity(g, scale_applied)

    # (q, eps_source prefix, name in errors, adjective in warnings)
    fraction = None
    if eps_fraction is not None:
        fraction = (eps_fraction, "cli", "eps fraction", "requested")
    elif prob["eps_fraction"] is not None and prob["eps"] is not None:
        raise ConfigError("give either 'eps' or 'eps_fraction', not both")
    elif prob["eps_fraction"] is not None:
        fraction = (prob["eps_fraction"], "config", "eps_fraction", "configured")
    if fraction is not None:
        q, origin, name, adjective = fraction
        if not q > 0.0:
            raise ConfigError(f"{name} must be positive, got {q}")
        if not math.isfinite(q):
            raise ConfigError(f"{name} must be finite, got {q}")
        if not 0.0 < eps_max < math.inf:
            raise ConfigError(f"{name} needs a positive finite eps_max, got {eps_max}")
        eps = (float(q) * eps_max,) * g.N
        eps_source = f"{origin}_fraction={q:g}"
        if q > 1.0:
            warnings.append(
                f"{adjective} coupling fraction {q:g} exceeds 1; "
                "the solve is outside the certified regime"
            )
    elif prob["eps"] is not None:
        eps = tuple(prob["eps"]) if isinstance(prob["eps"], list) else (prob["eps"],) * g.N
        if len(eps) != g.N:
            raise ConfigError(f"eps list has {len(eps)} entries for {g.N} components")
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
    for m, (e, l1) in enumerate(zip(eps, validate_problem_data(base).kernel_l1)):
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
        "kernels": kernel_specs,
        "forcings": forcing_specs,
        "solver": solver,
        "margins": settings["margins"],
    }
    return BuiltProblem(
        problem=problem,
        resolved=resolved,
        margins=settings["margins"],
        warnings=tuple(warnings),
        **solver,
    )
