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
layout that module defines, with no index shifts.  Each kernel enters in
displacement order, F(ifftshift(H_m)), which makes

    T(v)_m = F^(-1)( M_m F(g_m(u0 + v)) ),
    M_m = eps_m (2 pi)^(d/2) H^_m / (|p|^2 + |p|^4),   M_m(0) = 0,

exact for even n: two transforms per component per step.  The product
eps_m (2 pi)^(d/2) H^_m F(.) is ``Problem.coupled_coeffs``, one forward
transform with a Gaussian kernel's 1-D factors folded into it;
``spectral.invert_coeffs`` drops the zero mode, records its mass and, in
the same blocked pass over the coefficients, takes the step's H^4 norm and
step norm (:func:`_image`).  The background u0 is cached on the problem
(:class:`nlrd.model.Problem`), which is all ``bounds.compute_bounds``
reads to certify a solve.  The residual takes each forcing
component's coefficients from its source in its loop, and the H^4 norm of
a converged solution in the pass that applies the operator to its
transform of u.  Step norms and the probe's denominator are norms of
coefficient differences never formed in full.  Every multiply by a
spectral weight and every H^4 norm of coefficients here is one pass of
``lattice.scale_coeffs`` over the whole stack: the inversion of a step,
the shaping of a probe draw (by :func:`_envelope_shells`, a function of
the integer shell) and, with no weight, the norm of ``initial`` and the
probe's denominator (``lattice.h4_norm_sq_coeffs``).  g is evaluated on
cache-sized blocks of u0 + v (:func:`_eval_stack`).  ``picard`` runs in
one work area per call, 2N + 1 half spectra (N + 3 at N = 1), beside v's
samples, and no step allocates a full-size array: g is evaluated over
v's samples in place, so that v lives on as its coefficients; the new
coefficients go into the other of two stacks, the forward transforms
take the last row as their scratch, and the inverse transforms, which
write v's new samples, take two spent rows of the old stack.  A step
that diverges reports the iterate before it, rebuilt as the inverse of
its coefficients (which it was, bit for bit) or, at the first step, as
zero or ``initial``.  The residual of a converged solve runs in the same
area (:func:`_residual`), and the solution stack is formed after it;
``perturbation_h4`` is the norm the step that made v took, or that of a
given ``initial``, taken once before the first step.  This module
caches nothing.  ``contraction_probe`` allocates its stacks once per call
and reuses them for every pair.

The iteration stops when the H^4 step norm falls below
tol * max(1, |v|_H4); it aborts with :class:`DivergenceDetected` when a
step exceeds 10x the first step, and with :class:`MaxIterExceeded` when the
budget runs out.  Both carry the partial report.

``contraction_probe`` measures empirical Lipschitz ratios of T on random
ball pairs; ``continuity_experiment`` compares the fixed-point shift under
a nonlinearity perturbation against its certified bound.
"""

from __future__ import annotations

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
    h4_norm_sq_coeffs,
    h4_shells,
    inverse_stack,
    inverse_values,
    l2_norm_sq_coeffs,
    norm_h4_vector,
    scale_coeffs,
)
from .model import (
    Nonlinearity,
    Problem,
    c2_gap,
    validate_problem_data,
)
from .spectral import invert_coeffs, subtract_operator
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
    g: Nonlinearity,
    v: np.ndarray,
    background: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """g at every lattice point of the stack ``background + v`` (or of v
    alone), into ``out`` (C-contiguous, N x P values; it may be v itself)
    or a new array; returns it, shape (N, P).

    g is pointwise, so it is evaluated on blocks of at most
    ``_G_BLOCK_POINTS`` points, and at most a sixteenth of the lattice,
    which with their temporaries stay in a core's L2 cache.  The sum is
    formed one block at a time and each block's values are copied out
    before the next, so g may return a view of its argument, and a block
    of v is read before its values overwrite it.
    """
    flat = v.reshape(len(v), -1)
    bg = None if background is None else background.reshape(flat.shape)
    out = np.empty(flat.shape) if out is None else out.reshape(flat.shape)
    size = max(1, min(_G_BLOCK_POINTS, flat.shape[1] // 16))
    for s in range(0, flat.shape[1], size):
        z = flat[:, s : s + size]
        if bg is not None:
            z = z + bg[:, s : s + size]
        out[:, s : s + size] = g.eval(z.T).T
    return out


def _image(
    problem: Problem,
    gz: np.ndarray,
    out: np.ndarray | None = None,
    minus: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> tuple[np.ndarray, tuple[float, ...], float, float]:
    """M F(gz), into ``out`` (a new array by default), for values gz (N, P)
    of g: all of T but the evaluation of g, so T(v)'s coefficients are
    ``_image(problem, _eval_stack(g, v, u0))[0]``.  Also returns the
    zero-mode masses dropped and the H^4 norms of the image and of the
    image minus the coefficients ``minus`` (the image's when None), taken
    in the pass that inverts the operator.  The forward transforms take
    ``scratch`` (see :meth:`Problem.coupled_coeffs`)."""
    grid = problem.grid
    if out is None:
        out = np.empty((len(gz),) + grid.half_shape, dtype=np.complex128)
    for m, row in enumerate(gz):
        problem.coupled_coeffs(m, row, out=out[m], scratch=scratch)
    dropped, norm_sq, diff_sq = invert_coeffs(grid, out, minus)
    return out, tuple(dropped.tolist()), math.sqrt(norm_sq), math.sqrt(diff_sq)


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
    hats = _image(problem, _eval_stack(problem.nonlinearity, v.values, background.values))[0]
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
    forcing vanishes.  u and g(u) are transformed from their samples, and
    the forcing's coefficients come from its source (``coeffs``), so the
    check does not depend on the solve; the H^4 norm of u is taken in the
    pass that applies the operator to the same transform of u.  It runs in
    one work area of 2N + 1 half spectra (see :func:`_residual`).
    """
    _require_match(problem, u, "candidate solution")
    work = np.empty(
        (2 * problem.n_components + 1,) + problem.grid.half_shape, dtype=np.complex128
    )
    return _residual(problem, work, u.values)


def _residual(
    problem: Problem,
    work: np.ndarray,
    values: np.ndarray,
    background: np.ndarray | None = None,
) -> ResidualReport:
    """:func:`residual` at u = ``background + values`` (``values`` alone
    when ``background`` is None), in the work area ``work``: at least
    2N + 1 half spectra, and N + 3 with a background, its last row the
    forward transforms' scratch.  The values of g(u) are written over the
    float view of rows N .. 2N - 1 and the N coupled images made from them
    into rows 0 .. N - 1; then, per component, u's samples are formed in
    row N + 1 (or read from ``values``), transformed into row N, and that
    row, spent once the operator is applied, takes the forcing's
    coefficients."""
    grid, n = problem.grid, problem.n_components
    scratch = work[-1]
    gz = work[n : 2 * n].reshape(-1).view(np.float64)[: n * grid.npoints].reshape(n, -1)
    _eval_stack(problem.nonlinearity, values, background, out=gz)
    for m in range(n):
        problem.coupled_coeffs(m, gz[m], out=work[m], scratch=scratch)
    u_hat = work[n]
    zero = (0,) * grid.d
    total_sq = 0.0
    h4_sq = 0.0
    for m, r_hat in enumerate(work[:n]):
        u = values[m]
        if background is not None:
            row = work[n + 1].reshape(-1).view(np.float64)[: grid.npoints]
            u = np.add(background[m], u, out=row.reshape(grid.shape))
        forward_coeffs(grid, u, out=u_hat, scratch=scratch)
        h4_sq += subtract_operator(grid, r_hat, u_hat)
        r_hat += problem.forcings[m].coeffs(out=u_hat)  # into the spent u_hat
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
    budget: int | None = None,
    seed: int | None = None,
) -> SolveReport:
    """Iterate T from v = 0 (or ``initial``) to the fixed point.

    Returns the full report on convergence; raises
    :class:`DivergenceDetected` / :class:`MaxIterExceeded` (each carrying
    the partial report) otherwise.  Failed requirements (``bounds.failures``)
    do not stop the solve, and a coupling above the certified threshold is a
    warning -- the guard that stops runaway iterations is the divergence check.
    ``budget`` and ``seed`` are accepted and ignored, as by
    :func:`~nlrd.bounds.compute_bounds`.
    """
    bounds_report = compute_bounds(problem)
    return _iterate(problem, bounds_report, tol, max_iter, initial)


def _iterate(
    problem: Problem,
    bounds_report: BoundsReport,
    tol: float,
    max_iter: int,
    initial: VectorField | None = None,
) -> SolveReport:
    """The loop of :func:`picard`, given the problem's bounds report."""
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tolerance must be finite and positive, got {tol}")
    if max_iter < 1:
        raise ValueError(f"iteration budget must be >= 1, got {max_iter}")
    warn = []
    if bounds_report.eps_used > bounds_report.eps_max:
        warn.append(
            f"coupling {bounds_report.eps_used:.6g} exceeds the certified threshold "
            f"{bounds_report.eps_max:.6g}; contraction is not guaranteed"
        )
    grid, g, n = problem.grid, problem.nonlinearity, problem.n_components
    background = problem.background.values
    # the work area: two coefficient stacks, the old and the new in turn,
    # and the forward transforms' scratch (the last row); N = 1 takes one
    # row more for the residual (see _residual)
    work = np.empty((max(2 * n + 1, n + 3),) + grid.half_shape, dtype=np.complex128)
    old, new = work[:n], work[n : 2 * n]
    if initial is None:
        v_values = np.zeros((n,) + grid.shape)
        minus, v_norm = None, 0.0
    else:
        _require_match(problem, initial, "initial perturbation")
        v_values = initial.values.copy()
        for m in range(n):
            forward_coeffs(grid, v_values[m], out=old[m], scratch=work[-1])
        minus, v_norm = old, math.sqrt(h4_norm_sq_coeffs(grid, old))

    steps: list[IterationStep] = []
    converged = diverged = False
    t0 = time.perf_counter()

    for k in range(1, max_iter + 1):
        # a step that overflows is reported by the finiteness check below
        with np.errstate(over="ignore", invalid="ignore"):
            # g over v's samples, in place: v lives on as its coefficients
            gz = _eval_stack(g, v_values, background, out=v_values)
            dropped, norm_h4, step_h4 = _image(
                problem, gz, out=new, minus=minus, scratch=work[-1]
            )[1:]
        ratio = None
        if steps and steps[-1].step_h4 > 0.0 and np.isfinite(step_h4):
            ratio = step_h4 / steps[-1].step_h4
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
        # at k = 1 the step is compared with itself, which never blows up
        blown_up = step_h4 > DIVERGENCE_FACTOR * max(steps[0].step_h4, np.finfo(float).tiny)
        if not finite or blown_up:
            # report the last finite iterate, not the runaway one: the start
            # at the first step, else the inverse of its coefficients, which
            # it was, bit for bit
            diverged = True
            if k == 1:
                v_values[...] = 0.0 if initial is None else initial.values
            else:
                for m in range(n):
                    inverse_values(grid, old[m], out=v_values[m], scratch=(*new, work[-1])[:2])
            break
        # the old coefficients are spent: two of their rows (or, at N = 1,
        # their row and the scratch row) are the inverse transform's scratch
        for m in range(n):
            inverse_values(grid, new[m], out=v_values[m], scratch=(*old, work[-1])[:2])
        old, new, minus, v_norm = new, old, new, norm_h4
        if step_h4 <= tol * max(1.0, norm_h4):
            converged = True
            break

    res = _residual(problem, work, v_values, background) if converged else None
    del work, old, new, minus  # released before the solution stack is formed
    solution = VectorField(grid, background + v_values)
    report = SolveReport(
        background=problem.background,
        perturbation=VectorField(grid, v_values),
        solution=solution,
        background_h4=problem.background_h4,
        perturbation_h4=v_norm,
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

def _envelope_shells(grid: Grid, s: np.ndarray) -> np.ndarray:
    """(1 + |p|^8)^(-1) (-1)^(k_1 + ... + k_d) on the shells s = sum_j k_j^2.

    The sign is (-1)^s, since k and k^2 have one parity.  It shifts the
    inverse transform by n/2 on every axis, so the half spectrum of
    natural-layout noise gives the same draw as the centred full transform
    did.
    """
    return (1.0 - 2.0 * (s % 2)) / h4_shells(grid, s)


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
    grid: Grid,
    n_components: int,
    rng: np.random.Generator,
    target_norm: float,
    out: np.ndarray | None = None,
    noise: np.ndarray | None = None,
) -> np.ndarray:
    """Coefficients of the draw :func:`random_ball_field` makes, into ``out``
    (N x ``grid.half_shape`` complex values) or a new array, the noise
    drawn into ``noise`` (``grid.shape`` values) or a new array.  The
    draw is shaped by the envelope and reduced to its H^4 norm in one pass
    of ``lattice.scale_coeffs``."""
    if n_components < 1:
        raise ValueError(f"need at least one component, got {n_components}")
    if not 0.0 <= target_norm < math.inf:
        raise ValueError(f"target norm {target_norm} is not finite and nonnegative")
    if out is None:
        out = np.empty((n_components,) + grid.half_shape, dtype=np.complex128)
    if target_norm == 0.0:
        out[...] = 0.0
        return out
    for m in range(n_components):
        noise = rng.standard_normal(grid.shape, out=noise)
        forward_coeffs(grid, noise, out=out[m])
    out *= target_norm / math.sqrt(scale_coeffs(grid, out, _envelope_shells)[0])
    return out


def _probe_ratio(
    problem: Problem,
    background: np.ndarray,
    rng: np.random.Generator,
    v1: np.ndarray,
    work: np.ndarray,
    samples: np.ndarray,
) -> float | None:
    """|T(v1) - T(v2)| / |v1 - v2| for one drawn pair; None when v1 = v2.

    The caller's arrays are reused from pair to pair: ``v1`` holds the
    coefficients of v1, ``work`` (float64) those of v2 and then, once v2
    is sampled, the values of g at u0 + v2; ``samples`` (N x
    ``grid.shape``) holds the noise of each draw and then the samples of
    v2 and of v1, which the values of g at u0 + v1 overwrite.  M and F are
    linear, so T(v1) - T(v2) is the image of g(u0 + v1) - g(u0 + v2), taken
    into the coefficients of v1, spent once the denominator is taken from
    the coefficients of v1 - v2.
    """
    grid, n = problem.grid, problem.n_components
    v2 = work.view(np.complex128).reshape(v1.shape)
    r1, r2 = problem.rho * rng.random(), problem.rho * rng.random()
    for hats, r in ((v1, r1), (v2, r2)):
        _ball_hats(grid, n, rng, r, out=hats, noise=samples[0])
    denom = math.sqrt(h4_norm_sq_coeffs(grid, v1, v2))
    if denom == 0.0:
        return None
    g = problem.nonlinearity
    inverse_stack(grid, v2, out=samples)
    g2 = _eval_stack(g, samples, background, out=work[: samples.size])  # over the spent v2
    inverse_stack(grid, v1, out=samples)
    gz = _eval_stack(g, samples, background, out=samples)
    gz -= g2
    return _image(problem, gz, out=v1)[2] / denom


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
    its draws and N forward for its image (see :func:`_probe_ratio`).  Its
    stacks are allocated once per call and reused by every pair.  A given
    ``background`` replaces the samples of the problem's own.
    """
    if pairs < 1:
        raise ValueError("need at least one pair")
    if background is None:
        background = problem.background
    _require_match(problem, background, "background")
    rng = np.random.default_rng(seed)
    grid, n = problem.grid, problem.n_components
    v1 = np.empty((n,) + grid.half_shape, dtype=np.complex128)
    work = np.empty(2 * v1.size)  # v2's coefficients, then g at u0 + v2
    samples = np.empty((n,) + grid.shape)
    ratios = []
    for _ in range(pairs):
        ratio = _probe_ratio(problem, background.values, rng, v1, work, samples)
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
    budget: int | None = None,
    seed: int | None = None,
) -> ContinuityReport:
    """Solve with g1 and g2 and compare |u1 - u2|_H4 to the certified bound.

    The bound assumes that both maps contract, so the problem is certified
    with each nonlinearity, once, before either solve; failed requirements,
    g1's before g2's, raise :class:`AssumptionsNotValidated`.  Each solve is
    the loop of :func:`picard` on the report already taken.  Both solves
    share the problem's one cache: its background, data report and any
    sampled kernel's half spectrum.
    The shared background cancels in u1 - u2, so the shift is measured as
    |v1 - v2|_H4 of the perturbations, and while the second solve runs
    only the first one's perturbation, bounds, iteration count and
    residual are held.  The pass rule allows the stated relative margin
    plus an absolute slack of 10 * tol (two converged solves cannot be
    distinguished below that).  The C^2 gap of g1 and g2 is exact for two
    quadratics and the triangle bound otherwise (:func:`nlrd.model.c2_gap`).
    ``budget`` and ``seed`` are accepted and ignored, as by
    :func:`~nlrd.bounds.compute_bounds`.
    """
    problems = [problem.with_nonlinearity(g) for g in (g1, g2)]
    reports = [compute_bounds(p) for p in problems]
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
    gap = c2_gap(g1, g2, bounds.state_ball_radius)
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
