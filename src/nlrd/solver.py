"""Picard iteration for the nonlocal fixed-point problem, with diagnostics.

The solve splits u = u0 + v: the background u0 solves the linear problem
(-Laplacian + Laplacian^2) u0_m = f_m componentwise, and the perturbation v
is the fixed point of

    T(v)_m = L^(-1) [ eps_m (H_m * g_m(u0 + v)) ],

iterated from v = 0.

A vector field is the ``values`` stack of a :class:`VectorField`, shape
(N, *grid.shape), in natural layout, used without copying; its
coefficients are the unitary half spectra F of
:func:`nlrd.lattice.forward_coeffs`, shape (N, *grid.half_shape) in the
layout that module defines, with no index shifts.  Each kernel is
transformed once in displacement order, F(ifftshift(H_m)), which makes

    T(v)_m = F^(-1)( M_m F(g_m(u0 + v)) ),
    M_m = eps_m (2 pi)^(d/2) H^_m / (|p|^2 + |p|^4),   M_m(0) = 0,

exact for even n: two transforms per component per step.  The kernels come
from ``spectral.kernel_coeffs``, ``spectral.invert_coeffs`` drops the zero
mode and records its mass, and ``lattice.norm_h4_coeffs`` sums H^4 norms.  The
background u0 and the coefficients eps_m (2 pi)^(d/2) H^_m are cached on
the problem (:class:`nlrd.model.Problem`).  The residual transforms each
forcing component in its loop, and the H^4 norm of a converged solution
comes from its transform of u.  Step norms and the probe's denominator
are norms of coefficient differences never formed in full.  g is evaluated
on cache-sized blocks of u0 + v (:func:`_eval_stack`).  ``picard`` recycles
its arrays: v = 0 has no coefficients, the old ones are released before
each inverse transform writes v's own samples, and the last before the
residual; ``perturbation_h4`` is the norm the step that made v took.

The iteration stops when the H^4 step norm falls below
tol * max(1, |v|_H4); it aborts with :class:`DivergenceDetected` when a
step exceeds 10x the first step, and with :class:`MaxIterExceeded` when the
budget runs out.  Both carry the partial report.

``contraction_probe`` measures empirical Lipschitz ratios of T on random
ball pairs; ``continuity_experiment`` compares the fixed-point shift under
a nonlinearity perturbation against its certified bound.
"""

from __future__ import annotations

import functools
import math
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .bounds import (
    AssumptionsNotValidated,
    BoundsReport,
    compute_bounds,
    continuity_bound_raw,
)
from .lattice import (
    Grid,
    VectorField,
    forward_coeffs,
    forward_stack,
    h4_norm_sq_coeffs,
    half_squared_wavenumber,
    inverse_stack,
    inverse_values,
    l2_norm_sq_coeffs,
    norm_h4_coeffs,
    norm_h4_vector,
)
from .model import (
    DEFAULT_C2_BUDGET,
    Nonlinearity,
    Problem,
    c2_gap,
    validate_problem_data,
)
from .spectral import half_operator_symbol, invert_coeffs
from .spectral import solve_linear  # noqa: F401  (a binding perfbench/tracing.py wraps)

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 200

#: a step this many times larger than the first step aborts the iteration
DIVERGENCE_FACTOR = 10.0


class MaxIterExceeded(RuntimeError):
    """Iteration budget exhausted; carries the partial report."""

    def __init__(self, report: "SolveReport"):
        self.report = report
        super().__init__(
            f"no convergence after {report.iterations} iterations "
            f"(last step {report.trace.steps[-1].step_h4:.3e})"
        )


class DivergenceDetected(RuntimeError):
    """Step norms blew up; carries the partial report."""

    def __init__(self, report: "SolveReport"):
        self.report = report
        super().__init__(
            f"iteration diverging at step {report.iterations} "
            f"(step norm {report.trace.steps[-1].step_h4:.3e})"
        )


@dataclass(frozen=True)
class IterationStep:
    """One Picard step: norms, contraction ratio, projected mass, timing."""

    k: int
    norm_h4: float
    step_h4: float
    ratio: float | None
    dropped_mass: tuple[float, ...]
    wall_time: float


@dataclass(frozen=True)
class IterationTrace:
    steps: tuple[IterationStep, ...]

    @property
    def ratios(self) -> tuple[float, ...]:
        return tuple(s.ratio for s in self.steps if s.ratio is not None)

    def rows(self) -> list[dict]:
        return [
            {
                "k": s.k,
                "norm_h4": s.norm_h4,
                "step_h4": s.step_h4,
                "ratio": s.ratio,
                "dropped_mass": max(s.dropped_mass),
                "wall_time": s.wall_time,
            }
            for s in self.steps
        ]


@dataclass(frozen=True)
class ResidualReport:
    """L^2 residual of the full equation, zero mode excluded, and the H^4
    norm of the candidate it was taken at."""

    absolute: float
    relative: float
    forcing_l2: float
    solution_h4: float


@dataclass(frozen=True)
class SolveReport:
    """Everything one solve produced."""

    background: VectorField = field(repr=False)
    perturbation: VectorField = field(repr=False)
    solution: VectorField = field(repr=False)
    background_h4: float
    perturbation_h4: float
    solution_h4: float
    background_dropped: tuple[float, ...]
    converged: bool
    iterations: int
    tol: float
    residual: ResidualReport | None
    trace: IterationTrace
    bounds: BoundsReport
    warnings: tuple[str, ...]


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _require_match(problem: Problem, u: VectorField, what: str) -> None:
    if u.grid != problem.grid or u.n_components != problem.n_components:
        raise ValueError(
            f"{what} does not match the problem: {u.n_components} components "
            f"on {u.grid}, expected {problem.n_components} on {problem.grid}"
        )


# ---------------------------------------------------------------------------
# fixed-point map
# ---------------------------------------------------------------------------

#: most lattice points per call of g in :func:`_eval_stack`
_G_BLOCK_POINTS = 2**13


def _eval_stack(
    g: Nonlinearity, v: np.ndarray, background: np.ndarray | None = None
) -> np.ndarray:
    """g at every lattice point of the stack ``background + v`` (or of v
    alone); returns a new array, (N, P).

    g is pointwise, so it is evaluated on blocks of at most
    ``_G_BLOCK_POINTS`` points, and at most a sixteenth of the lattice,
    which with their temporaries stay in a core's L2 cache.  The sum is
    formed one block at a time and each block's values are copied out
    before the next, so g may return a view of its argument.
    """
    flat = v.reshape(len(v), -1)
    bg = None if background is None else background.reshape(flat.shape)
    out = np.empty(flat.shape)
    size = max(1, min(_G_BLOCK_POINTS, flat.shape[1] // 16))
    for s in range(0, flat.shape[1], size):
        z = flat[:, s : s + size]
        if bg is not None:
            z = z + bg[:, s : s + size]
        out[:, s : s + size] = g.eval(z.T).T
    return out


def _apply(
    problem: Problem, background: np.ndarray, v: np.ndarray
) -> tuple[np.ndarray, tuple[float, ...]]:
    """One application of T to the stack v around u0 = background.

    Returns (coeffs, dropped).  Only the coefficients are computed; callers
    that need the samples of T(v) transform them back with
    :func:`~nlrd.lattice.inverse_stack`.
    """
    out = np.empty((len(v),) + problem.grid.half_shape, dtype=np.complex128)
    return _image(problem, _eval_stack(problem.nonlinearity, v, background), out)


def _image(problem: Problem, gz: np.ndarray, out: np.ndarray) -> tuple[np.ndarray, tuple]:
    """M F(gz), written into ``out``, for values gz (N, P) of g, and the
    zero-mode masses dropped: all of T but the evaluation of g."""
    grid = problem.grid
    for m, row in enumerate(gz):
        forward_coeffs(grid, row, out=out[m])
        out[m] *= problem.coupling[m]
    return out, tuple(invert_coeffs(grid, out).tolist())


def apply_fixed_point_map(
    problem: Problem, background: VectorField, v: VectorField
) -> VectorField:
    """Apply T to a perturbation v around the given background.

    Points outside the radius-rho ball are accepted (probes need nearby
    points too) but flagged with a warning, since the certified bounds only
    speak about the ball.
    """
    _require_match(problem, v, "perturbation")
    v_norm = norm_h4_vector(v)
    if v_norm > problem.rho * (1.0 + 1e-12):
        warnings.warn(
            f"perturbation norm {v_norm:.6g} lies outside the radius-"
            f"{problem.rho:g} ball the bounds certify",
            UserWarning,
            stacklevel=2,
        )
    _require_match(problem, background, "background")
    hats, _ = _apply(problem, background.values, v.values)
    return VectorField(problem.grid, inverse_stack(problem.grid, hats))


# ---------------------------------------------------------------------------
# residual
# ---------------------------------------------------------------------------

def residual(problem: Problem, u: VectorField) -> ResidualReport:
    """L^2 residual of the full equation at u, zero mode excluded.

    The residual of component m is -(L u)_m + eps_m (H_m * g_m(u)) + f_m,
    evaluated spectrally with the p = 0 mode removed (the solve is defined
    modulo that mode).  The relative value is against the L^2 norm of the
    forcing vector (from the problem's data report), or absolute when the
    forcing vanishes.  The forcing, u and g(u) are transformed from their
    samples, one component at a time, so the check does not depend on the
    solve; the H^4 norm of u comes from the same transform of u.  A sampled
    forcing is made in g(u)'s transformed row; a held one is read in place.
    """
    _require_match(problem, u, "candidate solution")
    grid = problem.grid
    coupling = problem.coupling
    sym = half_operator_symbol(grid)
    values = u.values
    gz = _eval_stack(problem.nonlinearity, values)
    zero = (0,) * grid.d
    total_sq = 0.0
    h4_sq = 0.0
    for m in range(problem.n_components):
        r_hat = forward_coeffs(grid, gz[m])
        r_hat *= coupling[m]
        u_hat = forward_coeffs(grid, values[m])
        h4_sq += h4_norm_sq_coeffs(grid, u_hat)
        u_hat *= sym
        r_hat -= u_hat
        del u_hat  # not held through the forcing's transform
        # a sampled forcing goes into g(u)'s spent row: no new field
        r_hat += forward_coeffs(grid, problem.forcings[m].sample(out=gz[m]).values)
        r_hat[zero] = 0.0
        total_sq += l2_norm_sq_coeffs(grid, r_hat)
    absolute = float(np.sqrt(total_sq))
    f_l2 = math.sqrt(sum(v**2 for v in validate_problem_data(problem).forcing_l2))
    relative = absolute / f_l2 if f_l2 > 0.0 else absolute
    return ResidualReport(
        absolute=absolute, relative=relative, forcing_l2=f_l2,
        solution_h4=math.sqrt(h4_sq),
    )


# ---------------------------------------------------------------------------
# Picard iteration
# ---------------------------------------------------------------------------

def picard(
    problem: Problem,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    initial: VectorField | None = None,
    budget: int = DEFAULT_C2_BUDGET,
    seed: int = 0,
) -> SolveReport:
    """Iterate T from v = 0 (or ``initial``) to the fixed point.

    Returns the full report on convergence; raises
    :class:`DivergenceDetected` / :class:`MaxIterExceeded` (each carrying
    the partial report) otherwise.  Failed requirements (``bounds.failures``)
    do not stop the solve, and a coupling above the certified threshold is a
    warning -- the guard that stops runaway iterations is the divergence check.
    """
    bounds_report = compute_bounds(problem, problem.background_h4, budget=budget, seed=seed)
    return _iterate(problem, bounds_report, tol, max_iter, initial)


def _iterate(
    problem: Problem,
    bounds_report: BoundsReport,
    tol: float,
    max_iter: int,
    initial: VectorField | None = None,
) -> SolveReport:
    """The loop of :func:`picard`, given the problem's bounds report."""
    if not tol > 0.0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    if max_iter < 1:
        raise ValueError(f"iteration budget must be >= 1, got {max_iter}")
    warn = []
    if bounds_report.eps_used > bounds_report.eps_max:
        warn.append(
            f"coupling {bounds_report.eps_used:.6g} exceeds the certified threshold "
            f"{bounds_report.eps_max:.6g}; contraction is not guaranteed"
        )
    grid = problem.grid
    background = problem.background.values

    if initial is None:
        v_values = np.zeros((problem.n_components,) + grid.shape)
        v_hats, v_norm = None, 0.0
    else:
        _require_match(problem, initial, "initial perturbation")
        v_values = initial.values.copy()
        v_hats, v_norm = forward_stack(grid, v_values), None  # taken if step 1 diverges

    steps: list[IterationStep] = []
    first_step = None
    prev_step = None
    converged = diverged = False
    t0 = time.perf_counter()

    for k in range(1, max_iter + 1):
        # a step that overflows is reported by the finiteness check below
        with np.errstate(over="ignore", invalid="ignore"):
            new_hats, dropped = _apply(problem, background, v_values)
            norm_h4 = norm_h4_coeffs(grid, new_hats)
            step_h4 = norm_h4 if v_hats is None else norm_h4_coeffs(grid, new_hats, v_hats)
        ratio = None
        if prev_step is not None and prev_step > 0.0 and np.isfinite(step_h4):
            ratio = step_h4 / prev_step
        steps.append(
            IterationStep(
                k=k,
                norm_h4=norm_h4,
                step_h4=step_h4,
                ratio=ratio,
                dropped_mass=dropped,
                wall_time=time.perf_counter() - t0,
            )
        )
        finite = np.isfinite(step_h4) and np.isfinite(norm_h4)
        blown_up = (
            first_step is not None
            and step_h4 > DIVERGENCE_FACTOR * max(first_step, np.finfo(float).tiny)
        )
        if not finite or blown_up:
            # report the last finite iterate, not the runaway one
            diverged = True
            break
        v_hats = None  # released before the inverse transform
        for m in range(len(new_hats)):
            inverse_values(grid, new_hats[m], out=v_values[m])
        v_hats, v_norm = new_hats, norm_h4
        if first_step is None:
            first_step = step_h4
        prev_step = step_h4
        if step_h4 <= tol * max(1.0, norm_h4):
            converged = True
            break

    perturbation_h4 = norm_h4_coeffs(grid, v_hats) if v_norm is None else v_norm
    del v_hats, new_hats  # released before the residual
    solution = VectorField(grid, background + v_values)
    res = residual(problem, solution) if converged else None
    report = SolveReport(
        background=problem.background,
        perturbation=VectorField(grid, v_values),
        solution=solution,
        background_h4=problem.background_h4,
        perturbation_h4=perturbation_h4,
        solution_h4=res.solution_h4 if converged else norm_h4_vector(solution),
        background_dropped=problem.background_dropped,
        converged=converged,
        iterations=len(steps),
        tol=tol,
        residual=res,
        trace=IterationTrace(tuple(steps)),
        bounds=bounds_report,
        warnings=tuple(warn),
    )
    if diverged:
        raise DivergenceDetected(report)
    if not converged:
        raise MaxIterExceeded(report)
    return report


# ---------------------------------------------------------------------------
# random ball fields and probes
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=16)
def _ball_envelope(grid: Grid) -> np.ndarray:
    """(1 + |p|^8)^(-1) (-1)^(k_1 + ... + k_d) on the half spectrum.

    The sign shifts the inverse transform by n/2 on every axis, so the half
    spectrum of natural-layout noise gives the same draw as the centred
    full transform did.
    """
    sign = np.ones(grid.half_shape)
    for axis, size in enumerate(grid.half_shape):
        shape = [1] * grid.d
        shape[axis] = size
        sign = sign * (1.0 - 2.0 * (np.arange(size) % 2)).reshape(shape)
    return sign / (1.0 + half_squared_wavenumber(grid) ** 4)


def random_ball_field(
    grid: Grid,
    n_components: int,
    rng: np.random.Generator,
    target_norm: float,
) -> VectorField:
    """Random smooth vector field with exact H^4 norm ``target_norm``.

    White noise is shaped by the spectral envelope (1 + |p|^8)^(-1) and the
    whole vector is rescaled to the requested norm, so draws are H^4-generic
    but well resolved on the lattice.
    """
    hats = _ball_hats(grid, n_components, rng, target_norm)
    return VectorField(grid, inverse_stack(grid, hats))


def _ball_hats(
    grid: Grid, n_components: int, rng: np.random.Generator, target_norm: float
) -> np.ndarray:
    """Coefficients of the draw :func:`random_ball_field` makes."""
    if n_components < 1:
        raise ValueError(f"need at least one component, got {n_components}")
    if not 0.0 <= target_norm < math.inf:
        raise ValueError(f"target norm {target_norm} is not finite and nonnegative")
    hats = np.zeros((n_components,) + grid.half_shape, dtype=np.complex128)
    if target_norm == 0.0:
        return hats
    for m in range(n_components):
        forward_coeffs(grid, rng.standard_normal(grid.shape), out=hats[m])
        hats[m] *= _ball_envelope(grid)
    hats *= target_norm / norm_h4_coeffs(grid, hats)
    return hats


def _probe_ratio(
    problem: Problem, background: np.ndarray, rng: np.random.Generator
) -> float | None:
    """|T(v1) - T(v2)| / |v1 - v2| for one drawn pair; None when v1 = v2.

    M and F are linear, so T(v1) - T(v2) is the image of g(u0 + v1) -
    g(u0 + v2), a new array (g's values are not written into): one forward
    transform per component, over the coefficients of v1, spent once the
    denominator is taken from the coefficients of v1 - v2.
    """
    grid = problem.grid
    r1, r2 = problem.rho * rng.random(), problem.rho * rng.random()
    v1, v2 = (_ball_hats(grid, problem.n_components, rng, r) for r in (r1, r2))
    denom = norm_h4_coeffs(grid, v1, v2)
    if denom == 0.0:
        return None
    g2 = _g_at(problem, background, v2)
    del v2  # released before the samples of v1 are made
    image, _ = _image(problem, _g_at(problem, background, v1) - g2, out=v1)
    return norm_h4_coeffs(grid, image) / denom


def _g_at(problem: Problem, background: np.ndarray, hats: np.ndarray) -> np.ndarray:
    """g(u0 + v) for the coefficients of v."""
    return _eval_stack(problem.nonlinearity, inverse_stack(problem.grid, hats), background)


@dataclass(frozen=True)
class ProbeReport:
    """Empirical Lipschitz ratios of T on random ball pairs."""

    pairs: int
    seed: int
    ratios: tuple[float, ...]
    max_ratio: float
    mean_ratio: float


def contraction_probe(
    problem: Problem,
    pairs: int = 50,
    seed: int = 0,
    background: VectorField | None = None,
) -> ProbeReport:
    """Measure |T(v1) - T(v2)| / |v1 - v2| on random pairs in the rho-ball.

    Each pair is drawn as :func:`random_ball_field` draws it, from the same
    random stream; a pair costs 2N forward and 2N inverse transforms for
    its draws and N forward for its image (see :func:`_probe_ratio`).  A
    given ``background`` replaces the samples of the problem's own.
    """
    if pairs < 1:
        raise ValueError("need at least one pair")
    if background is None:
        background = problem.background
    _require_match(problem, background, "background")
    rng = np.random.default_rng(seed)
    ratios = []
    for _ in range(pairs):
        ratio = _probe_ratio(problem, background.values, rng)
        if ratio is not None:
            ratios.append(ratio)
    return ProbeReport(
        pairs=pairs,
        seed=seed,
        ratios=tuple(ratios),
        max_ratio=max(ratios),
        mean_ratio=float(np.mean(ratios)),
    )


# ---------------------------------------------------------------------------
# continuity experiment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ContinuityReport:
    """Measured fixed-point shift under a nonlinearity change vs. its bound."""

    measured: float
    bound: float
    margin: float
    slack: float
    passed: bool
    nonlinearity_gap: float
    gap_method: str
    contraction_constant: float
    iterations: tuple[int, int]
    residuals: tuple[float, float]


def continuity_experiment(
    problem: Problem,
    g1: Nonlinearity,
    g2: Nonlinearity,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    margin: float = 0.05,
    budget: int = DEFAULT_C2_BUDGET,
    seed: int = 0,
) -> ContinuityReport:
    """Solve with g1 and g2 and compare |u1 - u2|_H4 to the certified bound.

    The bound assumes that both maps contract, so the problem is certified
    with each nonlinearity, once, before either solve; failed requirements,
    g1's before g2's, raise :class:`AssumptionsNotValidated`.  Each solve is
    the loop of :func:`picard` on the report already taken.  Both solves
    share the problem's background, data report and coupling coefficients.
    The shared background cancels in u1 - u2, so the shift is measured as
    |v1 - v2|_H4 of the perturbations, and while the second solve runs
    only the first one's perturbation, bounds, iteration count and
    residual are held.  The pass rule allows the stated relative margin
    plus an absolute slack of 10 * tol (two converged solves cannot be
    distinguished below that).
    """
    problems = [problem.with_nonlinearity(g) for g in (g1, g2)]
    h4 = problem.background_h4
    reports = [compute_bounds(p, h4, budget=budget, seed=seed) for p in problems]
    for report in reports:
        if report.failures:
            raise AssumptionsNotValidated(report.failures)
    first = _iterate(problems[0], reports[0], tol, max_iter)  # converged, or it raises
    shift, bounds = first.perturbation.values, first.bounds
    iterations, residual = first.iterations, first.residual.relative
    del first  # its solution is not held through the second solve
    second = _iterate(problems[1], reports[1], tol, max_iter)
    shift -= second.perturbation.values
    measured = norm_h4_vector(VectorField(problem.grid, shift))
    gap = c2_gap(g1, g2, bounds.state_ball_radius, budget=budget, seed=seed)
    bound = continuity_bound_raw(
        bounds.eps_used, bounds.lipschitz_coeff, problem.c2_bound, bounds.background_h4, gap.value
    )
    slack = 10.0 * tol
    passed = measured <= bound * (1.0 + margin) + slack
    return ContinuityReport(
        measured=measured,
        bound=bound,
        margin=margin,
        slack=slack,
        passed=passed,
        nonlinearity_gap=gap.value,
        gap_method=gap.method,
        contraction_constant=bounds.contraction_constant,
        iterations=(iterations, second.iterations),
        residuals=(residual, second.residual.relative),
    )
