"""Fixed-point iteration, probes, and the continuity experiment."""

import dataclasses
import functools
import gc
import math
import sys
import tracemalloc

import numpy as np
import pytest
from conftest import small_config, traced_peak

import nlrd.config
import nlrd.lattice
import nlrd.model
import nlrd.solver
from nlrd.bounds import compute_bounds
from nlrd.config import build_field, build_problem
from nlrd.lattice import (
    Grid,
    RealField,
    VectorField,
    forward_coeffs,
    h4_weight,
    norm_h4_vector,
)
from nlrd.model import (
    GaussianSpec,
    Nonlinearity,
    Problem,
    c2_gap,
    quadratic_nonlinearity,
    scale_nonlinearity,
    validate_problem_data,
)
from nlrd.solver import (
    DivergenceDetected,
    MaxIterExceeded,
    apply_fixed_point_map,
    contraction_probe,
    continuity_experiment,
    picard,
    random_ball_field,
    residual,
)
from nlrd.spectral import apply_operator, convolve, solve_linear

TWO_PI = 2.0 * np.pi


def stacked(u: VectorField) -> np.ndarray:
    """(npoints, N) array of per-component samples."""
    return np.stack([c.values for c in u.components], axis=1)


REFERENCE_MATRICES = [
    np.array([[1.0, 0.3], [0.3, 0.5]]),
    np.array([[0.2, -0.4], [-0.4, 1.0]]),
]


def tiny_problem(n=4, eps=0.0, d=5, **overrides) -> Problem:
    g = Grid(d=d, n=n, L=4.0)
    fields = dict(
        grid=g,
        eps=(eps,) * 2,
        kernels=(GaussianSpec(1.0, 1.0).sample(g), GaussianSpec(0.9, 0.8).sample(g)),
        forcings=(GaussianSpec(1.2, 0.05).sample(g), GaussianSpec(1.1, -0.03).sample(g)),
        nonlinearity=quadratic_nonlinearity(REFERENCE_MATRICES),
    )
    fields.update(overrides)
    return Problem(**fields)


@pytest.fixture(scope="module")
def small_solution(small_built):
    return picard(small_built.problem, tol=small_built.tol, max_iter=small_built.max_iter)


def vector_diff_norm(a: VectorField, b: VectorField) -> float:
    diff = VectorField(
        tuple(RealField(a.grid, x.values - y.values)
              for x, y in zip(a.components, b.components))
    )
    return norm_h4_vector(diff)


# ---------------------------------------------------------------------------
# background solve
# ---------------------------------------------------------------------------

def test_solve_background_inverts_the_operator():
    g = Grid(d=5, n=4, L=4.0)
    rng = np.random.default_rng(2)
    w = random_ball_field(g, 2, rng, target_norm=0.5)
    forcings = tuple(apply_operator(c) for c in w.components)
    p = tiny_problem(forcings=forcings)
    assert max(p.background_dropped) <= 1e-12
    for got, ref in zip(p.background.components, w.components):
        expected = ref.values - ref.values.mean()
        err = np.linalg.norm(got.values - expected)
        assert err <= 1e-10 * max(np.linalg.norm(expected), 1.0)


def test_solve_background_of_zero_forcing_is_zero():
    g = Grid(d=5, n=4, L=4.0)
    zero = build_field(g, {"constructor": "zero"})
    p = tiny_problem(forcings=(zero, zero))
    assert norm_h4_vector(p.background) == 0.0
    assert p.background_h4 == 0.0
    assert p.background_dropped == (0.0, 0.0)


# ---------------------------------------------------------------------------
# the fixed-point map
# ---------------------------------------------------------------------------

def test_map_vanishes_without_coupling_or_nonlinearity():
    p = tiny_problem(eps=0.0)
    bg = p.background
    rng = np.random.default_rng(3)
    v = random_ball_field(p.grid, 2, rng, target_norm=0.4)
    out = apply_fixed_point_map(p, bg, v)
    assert norm_h4_vector(out) == 0.0

    zero_g = quadratic_nonlinearity([np.zeros((2, 2)), np.zeros((2, 2))])
    p2 = tiny_problem(eps=0.05, nonlinearity=zero_g)
    out2 = apply_fixed_point_map(p2, bg, v)
    assert norm_h4_vector(out2) == 0.0


def test_map_matches_manual_convolve_and_solve():
    p = tiny_problem(eps=0.03)
    bg = p.background
    rng = np.random.default_rng(4)
    v = random_ball_field(p.grid, 2, rng, target_norm=0.3)
    out = apply_fixed_point_map(p, bg, v)

    z = stacked(bg) + stacked(v)
    gz = p.nonlinearity.eval(z)
    for m in range(2):
        rhs = convolve(p.kernels[m], RealField(p.grid, gz[:, m]))
        manual, _ = solve_linear(RealField(p.grid, p.eps[m] * rhs.values))
        scale = max(np.max(np.abs(manual.values)), 1e-30)
        assert np.max(np.abs(out.components[m].values - manual.values)) <= 1e-12 * scale


def full_complex_map(problem, background, v):
    """T(v) on the full complex spectrum with shifted transforms: plain numpy,
    one fftn per component with ifftshift/fftshift, as a reference for the
    solver's half-spectrum path."""
    grid = problem.grid
    d = grid.d
    fwd = TWO_PI ** (-d / 2.0) * grid.h**d
    inv = TWO_PI ** (-d / 2.0) * grid.dp**d * grid.npoints
    q2 = functools.reduce(np.add.outer, [grid.axis_wavenumbers() ** 2] * d)
    sym = q2 + q2**2
    inv_sym = np.divide(1.0, sym, out=np.zeros_like(sym), where=sym > 0.0)
    gz = problem.nonlinearity.eval(stacked(background) + stacked(v))
    out = []
    for m in range(problem.n_components):
        k_hat = fwd * np.fft.fftn(np.fft.ifftshift(problem.kernels[m].reshaped()))
        g_hat = fwd * np.fft.fftn(np.fft.ifftshift(gz[:, m].reshape(grid.shape)))
        u_hat = problem.eps[m] * TWO_PI ** (d / 2.0) * k_hat * g_hat * inv_sym
        out.append(inv * np.fft.fftshift(np.fft.ifftn(u_hat)).real.reshape(-1))
    return out


@pytest.mark.parametrize("d,n", [(5, 2), (5, 6), (6, 4), (7, 2), (7, 4)])
def test_map_matches_full_complex_reference(d, n):
    p = tiny_problem(n=n, eps=0.03, d=d)
    bg = p.background
    v = random_ball_field(p.grid, 2, np.random.default_rng(d * 10 + n), 0.3)
    out = apply_fixed_point_map(p, bg, v)
    for got, ref in zip(out.components, full_complex_map(p, bg, v)):
        assert np.max(np.abs(got.values - ref)) <= 1e-13 * np.max(np.abs(ref))


BLOCK = nlrd.solver._G_BLOCK_POINTS


@pytest.mark.parametrize("with_background", [True, False], ids=["u0+v", "v"])
@pytest.mark.parametrize("view", [False, True], ids=["quadratic", "view"])
@pytest.mark.parametrize("N", [1, 2, 3])
@pytest.mark.parametrize("points", [1, 7, 1000, 16 * BLOCK, 16 * BLOCK + 5])
def test_eval_stack_matches_one_evaluation_of_g(points, N, view, with_background):
    """g on blocks of the stack background + v, each block formed and its
    values copied out on its own, equals g at every point at once: point
    counts below the block, a multiple of it and not a multiple.  A g whose
    values view its argument catches a block written before it is read."""
    rng = np.random.default_rng(points + N)
    if view:
        g = reversed_components(N)
    else:
        g = quadratic_nonlinearity(list(rng.uniform(-1.0, 1.0, (N, N, N))))
    v = rng.standard_normal((N, points))
    background = rng.standard_normal((N, points)) if with_background else None
    inputs = v.copy(), None if background is None else background.copy()
    got = nlrd.solver._eval_stack(g, v, background)
    oracle = g.eval((v if background is None else background + v).T).T
    assert got.shape == (N, points)
    assert np.max(np.abs(got - oracle)) <= 1e-15 * np.max(np.abs(oracle))
    assert not np.may_share_memory(got, v)
    assert np.array_equal(v, inputs[0])
    assert background is None or np.array_equal(background, inputs[1])


def test_map_warns_outside_certified_ball():
    p = tiny_problem(eps=0.01)
    bg = p.background
    rng = np.random.default_rng(5)
    v = random_ball_field(p.grid, 2, rng, target_norm=2.0 * p.rho)
    with pytest.warns(UserWarning, match="outside the radius"):
        apply_fixed_point_map(p, bg, v)


def test_map_rejects_mismatched_perturbations():
    p = tiny_problem()
    bg = p.background
    other = Grid(d=5, n=6, L=4.0)
    rng = np.random.default_rng(6)
    bad = random_ball_field(other, 2, rng, target_norm=0.1)
    with pytest.raises(ValueError, match="does not match"):
        apply_fixed_point_map(p, bg, bad)
    with pytest.raises(ValueError, match="background does not match"):
        apply_fixed_point_map(p, VectorField.zeros(other, 2), VectorField.zeros(p.grid, 2))


@pytest.mark.parametrize("n_bg", [1, 3])
def test_background_with_wrong_component_count_is_rejected(small_built, n_bg):
    """One component would broadcast against the problem's two into a wrong
    answer, and three would fail inside numpy."""
    p = small_built.problem
    bg = VectorField.zeros(p.grid, n_bg)
    v = VectorField.zeros(p.grid, p.n_components)
    with pytest.raises(ValueError, match=f"background does not match.*{n_bg} components"):
        apply_fixed_point_map(p, bg, v)
    with pytest.raises(ValueError, match=f"background does not match.*{n_bg} components"):
        contraction_probe(p, pairs=1, seed=0, background=bg)


def test_single_mode_linear_response_matches_hand_multiplier():
    """With a linear nonlinearity and zero background the map acts on a
    single lattice mode by multiplication with
    eps * c * (2 pi)^(d/2) K(k) / (|k|^2 + |k|^4)."""
    g = Grid(d=5, n=4, L=4.0)
    # narrower along sample axis 0, the axis the mode varies on, so that the
    # kernel coefficient of a mode on another axis would not match
    x0 = g.coordinate_arrays()[0]
    kernel = RealField(g, np.exp(-x0**2) * GaussianSpec(1.0, 1.0).sample(g).reshaped())
    c = 0.7

    def lin_eval(z):
        return c * np.asarray(z, dtype=float)

    def lin_grad(z):
        out = np.zeros(np.shape(z)[:-1] + (1, 1))
        out[..., 0, 0] = c
        return out

    glin = Nonlinearity(N=1, eval=lin_eval, grad=lin_grad)
    with pytest.warns(UserWarning, match="N = 1"):
        p = Problem(
            grid=g, eps=(0.3,), kernels=(kernel,),
            forcings=(GaussianSpec(1.2, 0.05).sample(g),),
            nonlinearity=glin, c2_bound=1000.0,
        )

    x = g.axis_coords()
    mode = np.cos(g.dp * x).reshape((g.n,) + (1,) * 4)
    raw = RealField(g, np.broadcast_to(mode, g.shape).reshape(-1).copy())
    v1 = VectorField((raw,))
    scale = 0.5 * p.rho / norm_h4_vector(v1)  # keep the probe inside the ball
    v = VectorField((RealField(g, scale * raw.values),))

    bg = VectorField.zeros(g, 1)
    out = apply_fixed_point_map(p, bg, v)
    ratio = norm_h4_vector(out) / norm_h4_vector(v)

    # the half-spectrum index of the mode (+-dp on sample axis 0)
    at = np.argmax(np.abs(forward_coeffs(g, raw.values)))
    k_hat = forward_coeffs(g, kernel.values).reshape(-1)[at]
    k2 = g.dp**2
    expected = p.eps[0] * c * TWO_PI ** (g.d / 2.0) * abs(k_hat) / (k2 + k2**2)
    assert ratio == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------------------
# Picard iteration
# ---------------------------------------------------------------------------

def test_picard_without_coupling_returns_background(small_built):
    p = small_built.problem.with_eps(0.0)
    rep = picard(p, tol=1e-10, max_iter=10)
    assert rep.converged
    assert rep.iterations == 1
    assert rep.perturbation_h4 == 0.0
    assert vector_diff_norm(rep.solution, rep.background) == 0.0
    assert rep.residual.relative <= 1e-12


def test_picard_zero_forcing_converges_with_requirement_warning():
    g = Grid(d=5, n=4, L=4.0)
    zero = build_field(g, {"constructor": "zero"})
    p = tiny_problem(eps=0.01, forcings=(zero, zero))
    rep = picard(p, tol=1e-10, max_iter=10)
    assert rep.converged
    assert rep.solution_h4 == 0.0
    assert "forcing_nontrivial" in rep.bounds.failures


def test_picard_zero_kernels_converge_with_requirement_warning():
    """kappa = 0: the uncertified report gives eps_max = inf, no division."""
    g = Grid(d=5, n=4, L=4.0)
    zero = build_field(g, {"constructor": "zero"})
    p = tiny_problem(eps=0.01, kernels=(zero, zero))
    rep = picard(p, tol=1e-10, max_iter=10)
    assert rep.converged
    assert rep.perturbation_h4 == 0.0
    assert "kernel_nontrivial" in rep.bounds.failures
    assert rep.bounds.lipschitz_coeff == 0.0
    assert rep.bounds.eps_max == np.inf


def test_picard_reaches_a_fixed_point(small_built, small_solution):
    rep = small_solution
    assert rep.converged
    assert rep.residual.relative <= 1e-8
    assert rep.residual.solution_h4 == rep.solution_h4
    image = apply_fixed_point_map(
        small_built.problem, rep.background, rep.perturbation
    )
    assert vector_diff_norm(image, rep.perturbation) <= 10.0 * rep.tol
    # trace bookkeeping
    assert rep.iterations == len(rep.trace.steps)
    assert rep.trace.steps[-1].step_h4 <= rep.tol * max(1.0, rep.perturbation_h4)
    assert all(s.wall_time >= 0.0 for s in rep.trace.steps)


def test_picard_restarts_agree(small_built, small_solution):
    rng = np.random.default_rng(99)
    p = small_built.problem
    start = random_ball_field(p.grid, p.n_components, rng, 0.5 * p.rho)
    rep = picard(p, tol=small_built.tol, max_iter=50, initial=start)
    assert rep.converged
    gap = vector_diff_norm(rep.perturbation, small_solution.perturbation)
    assert gap <= 100.0 * small_built.tol


def test_picard_iteration_budget_is_enforced(small_built):
    with pytest.raises(MaxIterExceeded) as err:
        picard(small_built.problem, tol=1e-14, max_iter=1)
    rep = err.value.report
    assert not rep.converged
    assert rep.iterations == 1
    assert rep.residual is None
    assert rep.solution_h4 == pytest.approx(norm_h4_vector(rep.solution), rel=1e-13)


def test_picard_detects_divergence():
    p = tiny_problem(eps=1e6)
    with pytest.raises(DivergenceDetected) as err:
        picard(p, tol=1e-10, max_iter=100)
    rep = err.value.report
    assert not rep.converged
    assert np.isfinite(rep.perturbation_h4)
    assert all(np.isfinite(s.norm_h4) for s in rep.trace.steps[:-1])
    assert rep.solution_h4 == pytest.approx(norm_h4_vector(rep.solution), rel=1e-13)


@pytest.mark.parametrize("problem", ["tiny", "small"])
def test_a_diverged_report_holds_the_iterate_before_the_runaway_step(problem):
    """A run that diverges at step k >= 2 reports v_(k-1), rebuilt from its
    coefficients over the values of g: bit for bit the iterate, and the
    norm, that a budget of k - 1 steps returns."""
    if problem == "tiny":
        p, kwargs = tiny_problem(eps=1e6), dict(tol=1e-10)
    else:
        built = build_problem(small_config(n=4, problem={"eps_fraction": 1000}))
        p, kwargs = built.problem, dict(tol=built.tol)
    with pytest.raises(DivergenceDetected) as diverged:
        picard(p, max_iter=100, **kwargs)
    k = diverged.value.report.iterations
    assert k >= 2
    with pytest.raises(MaxIterExceeded) as budget:
        picard(p, max_iter=k - 1, **kwargs)
    a, b = diverged.value.report, budget.value.report
    assert np.array_equal(a.perturbation.values, b.perturbation.values)
    assert np.array_equal(a.solution.values, b.solution.values)
    assert a.perturbation_h4 == b.perturbation_h4 == a.trace.steps[-2].norm_h4


@pytest.mark.parametrize("start", ["zero", "initial"])
def test_a_first_step_divergence_returns_the_start(start):
    """A first step that is not finite reports the iterate it started from:
    zero, or the given ``initial``'s values, bit for bit."""
    p = tiny_problem(eps=1e300 if start == "zero" else 1e6)
    initial = None
    if start == "initial":  # g of samples ~1e100 makes a step of norm inf
        initial = random_ball_field(p.grid, 2, np.random.default_rng(3), 1e100)
    with pytest.raises(DivergenceDetected) as err:
        picard(p, tol=1e-10, max_iter=100, initial=initial)
    rep = err.value.report
    assert rep.iterations == 1 and not np.isfinite(rep.trace.steps[0].step_h4)
    expected = np.zeros_like(rep.perturbation.values) if initial is None else initial.values
    assert np.array_equal(rep.perturbation.values, expected)
    assert rep.perturbation.values is not expected


def test_picard_ratios_are_quotients_of_consecutive_steps(small_solution):
    steps = small_solution.trace.steps
    assert len(steps) >= 3 and steps[0].ratio is None
    for prev, step in zip(steps, steps[1:]):
        assert step.ratio == step.step_h4 / prev.step_h4


@pytest.mark.parametrize("scale", [1.0, 1.5])
@pytest.mark.parametrize("large", [False, True])
def test_picard_stops_at_the_first_step_within_tolerance(large, scale):
    """The loop stops at the first step with step_h4 <= tol max(1, |v|_H4),
    |v|_H4 that step's norm.  The tolerance is put just above step 2's own
    quotient (scale 1), where the run stops at step 2, or 1.5 times below
    it, where it stops at step 3.  A perturbation of norm about 1.4 (a
    large forcing, a small fixed eps) tells max(1, |v|) from 1 and from
    1 / |v|, and one of norm 2.5e-3 tells it from max(2, |v|)."""
    if large:
        g = Grid(d=5, n=4, L=4.0)
        big = (GaussianSpec(1.2, 15.0).sample(g), GaussianSpec(1.1, -9.0).sample(g))
        p = tiny_problem(eps=6e-4, forcings=big)
    else:
        p = tiny_problem(eps=0.1)
    with pytest.raises(MaxIterExceeded) as err:
        picard(p, tol=1e-300, max_iter=3)
    second = err.value.report.trace.steps[1]
    tol = second.step_h4 / max(1.0, second.norm_h4) * (1.0 + 1e-9) / scale
    rep = picard(p, tol=tol, max_iter=10)
    *_, before, last = rep.trace.steps
    assert rep.iterations == (2 if scale == 1.0 else 3)
    assert last.step_h4 <= tol * max(1.0, last.norm_h4)
    assert before.step_h4 > tol * max(1.0, before.norm_h4)
    assert (rep.perturbation_h4 > 1.0) == large


@pytest.mark.parametrize(
    "exit", ["converged", "max_iter", "diverged", "diverged_from_initial", "converged_from_initial"]
)
def test_perturbation_norm_is_the_one_its_step_took(monkeypatch, small_built, exit):
    """``perturbation_h4`` is the norm picard already took for the iterate
    it returns: the last accepted step's ``norm_h4``, or that of a given
    ``initial`` when the first step diverges.  No final pass of N norms:
    each of k steps takes its norms in the pass that inverts its image (k
    inversions), so a run from v = 0 takes no separate norm, one from
    ``initial`` one norm of its N-field stack, and a report that did not
    converge one more, of its solution's stack, for ``solution_h4``.  The
    norms are counted through both bindings of ``h4_norm_sq_coeffs``: the
    solver's, and the one ``norm_h4_vector`` calls."""
    p, kwargs, initial = small_built.problem, dict(tol=small_built.tol), None
    if exit == "max_iter":
        kwargs = dict(tol=1e-14, max_iter=2)
    elif exit.startswith("diverged"):
        p, kwargs = tiny_problem(eps=1e6), dict(tol=1e-10, max_iter=100)
    if exit == "diverged_from_initial":  # g of samples ~1e100 makes a step of norm inf
        initial = random_ball_field(p.grid, 2, np.random.default_rng(3), 1e100)
    if exit == "converged_from_initial":
        initial = random_ball_field(p.grid, 2, np.random.default_rng(3), 0.5 * p.rho)
    p.background_h4  # fills the problem's caches
    calls, inversions = [], []

    def counted(*args, _original=nlrd.lattice.h4_norm_sq_coeffs):
        calls.append((len(inversions), args))  # with the steps inverted before it
        return _original(*args)

    def inverted(*args, _original=nlrd.solver.invert_coeffs):
        inversions.append(args)
        return _original(*args)

    monkeypatch.setattr(nlrd.lattice, "h4_norm_sq_coeffs", counted)
    monkeypatch.setattr(nlrd.solver, "h4_norm_sq_coeffs", counted)
    monkeypatch.setattr(nlrd.solver, "invert_coeffs", inverted)
    raised = {"converged": None, "converged_from_initial": None, "max_iter": MaxIterExceeded}.get(
        exit, DivergenceDetected
    )
    try:
        rep = picard(p, initial=initial, **kwargs)
        assert raised is None
    except (MaxIterExceeded, DivergenceDetected) as err:
        assert type(err) is raised
        rep = err.report
    steps, N = rep.trace.steps, p.n_components
    assert len(inversions) == len(steps)
    if exit == "diverged_from_initial":
        assert len(steps) == 1 and not np.isfinite(steps[0].norm_h4)
        assert rep.perturbation_h4 == norm_h4_vector(initial)
        return
    assert all(len(args[1]) == N for _, args in calls)
    if exit == "converged_from_initial":
        assert rep.converged and [k for k, _ in calls] == [0]
        assert rep.perturbation_h4 == steps[-1].norm_h4
        return
    assert len(calls) == (0 if rep.converged else 1)
    accepted = steps[-2] if exit == "diverged" else steps[-1]
    assert rep.perturbation_h4 == accepted.norm_h4 > 0.0
    assert rep.perturbation_h4 == pytest.approx(norm_h4_vector(rep.perturbation), rel=1e-12)


def test_picard_warns_above_certified_threshold(small_built, small_solution):
    eps_max = small_solution.bounds.eps_max
    rep = picard(small_built.problem.with_eps(10.0 * eps_max), tol=1e-8, max_iter=100)
    assert rep.converged
    assert any("exceeds the certified threshold" in w for w in rep.warnings)


def test_picard_rejects_bad_arguments(small_built):
    with pytest.raises(ValueError, match="tolerance"):
        picard(small_built.problem, tol=0.0)
    with pytest.raises(ValueError, match="tolerance"):
        picard(small_built.problem, tol=float("nan"))
    with pytest.raises(ValueError, match="tolerance"):
        picard(small_built.problem, tol=math.inf)
    with pytest.raises(ValueError, match="budget"):
        picard(small_built.problem, max_iter=0)
    other = Grid(d=5, n=4, L=4.0)
    rng = np.random.default_rng(1)
    with pytest.raises(ValueError, match="initial perturbation"):
        picard(small_built.problem, initial=random_ball_field(other, 2, rng, 0.1))


# ---------------------------------------------------------------------------
# residual
# ---------------------------------------------------------------------------

def test_residual_of_zero_candidate_is_the_forcing():
    g = Grid(d=5, n=4, L=4.0)
    x = g.axis_coords()
    mode = np.sin(g.dp * x).reshape((g.n,) + (1,) * 4)
    sine = np.broadcast_to(mode, g.shape).reshape(-1).copy()
    forcings = (RealField(g, sine), RealField(g, 0.5 * sine))
    p = tiny_problem(forcings=forcings, eps=0.02)
    rep = residual(p, VectorField.zeros(g, 2))
    assert rep.relative == pytest.approx(1.0, rel=1e-12)


def test_residual_vanishes_at_linear_solution():
    p = tiny_problem(eps=0.0)
    rep = residual(p, p.background)
    assert rep.relative <= 1e-12
    assert rep.forcing_l2 > 0.0


@pytest.mark.parametrize("n", [6, 8])
def test_warm_picard_holds_few_half_spectra(n):
    """A solve holds v's samples (over which g is evaluated) and one work
    area of 2N + 1 half spectra: the old and the new coefficients and one
    transform's scratch, the old rows the inverse transform's scratch.
    The residual runs in the same area, and the solution stack is formed
    after it is released: fewer than 8.5 one-component half spectra."""
    built = build_problem(small_config(n=n))
    p = built.problem
    kwargs = dict(tol=built.tol, max_iter=built.max_iter)
    picard(p, **kwargs)  # fills the caches
    half_spectrum = 16 * (n // 2 + 1) * n ** (p.grid.d - 1)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        picard(p, **kwargs)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 8.5 * half_spectrum


@pytest.mark.parametrize("n", [6, 8])
def test_warm_picard_peaks_below_its_work_area_and_samples(n):
    """No step allocates a full-size array of its own, and the residual
    forms u's samples in the work area: a warm solve on d5 peaks at its
    work area (5 half spectra at N = 2) and v's samples (1.5), below 7.5
    one-component half spectra.  A separate stack for the values of g, or
    new coefficients per step, would add 1.5 or 2."""
    built = build_problem(small_config(n=n))
    p = built.problem
    kwargs = dict(tol=built.tol, max_iter=built.max_iter)
    picard(p, **kwargs)  # fills the caches
    half_spectrum = 16 * (n // 2 + 1) * n ** (p.grid.d - 1)
    assert traced_peak(lambda: picard(p, **kwargs)) < 7.5 * half_spectrum


@pytest.mark.parametrize("n", [6, 8])
def test_residual_holds_few_half_spectra(n):
    """The residual transforms one component of the forcing, u and g(u) at
    a time, so its working set stays a few one-component half spectra."""
    built = build_problem(small_config(n=n))
    p = built.problem
    # a converged solve has called the residual once, filling the caches
    solution = picard(p, tol=built.tol, max_iter=built.max_iter).solution
    half_spectrum = 16 * (n // 2 + 1) * n ** (p.grid.d - 1)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        residual(p, solution)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 5.5 * half_spectrum


def test_caches_hold_no_full_size_array():
    """A picard, a probe, compute_bounds and a residual on d5 n8, run warm
    (with the problem's own caches and every lazy import filled) after
    nlrd's memo caches are emptied, leave those caches (shell tables,
    transform matrices) holding under a quarter of one real half spectrum:
    no cache holds a weight of the size of the spectrum.  The problem's
    background is made before the count starts."""
    n = 8
    built = build_problem(small_config(n=n))
    p = built.problem

    def run():
        solution = picard(p, tol=built.tol, max_iter=built.max_iter).solution
        contraction_probe(p, pairs=2)
        compute_bounds(p)
        residual(p, solution)

    run()
    for name, module in list(sys.modules.items()):
        if name == "nlrd" or name.startswith("nlrd."):
            for value in vars(module).values():
                getattr(value, "cache_clear", lambda: None)()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run()
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    real_half_spectrum = 8 * (n // 2 + 1) * n ** (p.grid.d - 1)
    assert held < 0.25 * real_half_spectrum


@pytest.mark.filterwarnings("ignore:the system is intended for N >= 2")
@pytest.mark.parametrize("n_components", [1, 2])
def test_a_solve_takes_the_residual_of_its_solution(n_components):
    """A converged solve takes its residual in its own work area, from u0
    and v, before it forms the solution: bit for bit the report that
    ``residual`` gives at that solution.  N = 1 takes a row more."""
    p = tiny_problem(n=6, eps=0.05)
    if n_components == 1:
        p = Problem(grid=p.grid, eps=p.eps[:1], kernels=p.kernels[:1], forcings=p.forcings[:1],
                    nonlinearity=quadratic_nonlinearity([np.array([[1.0]])]))
    rep = picard(p, tol=1e-12, max_iter=20)
    assert rep.iterations >= 3 and rep.residual.relative <= 1e-12
    assert rep.residual == residual(p, rep.solution)


def test_residual_rejects_mismatched_candidates():
    p = tiny_problem()
    with pytest.raises(ValueError, match="does not match"):
        residual(p, VectorField.zeros(Grid(d=5, n=6, L=4.0), 2))


# ---------------------------------------------------------------------------
# random ball fields
# ---------------------------------------------------------------------------

def test_random_ball_field_hits_target_norm_exactly():
    g = Grid(d=5, n=4, L=4.0)
    rng = np.random.default_rng(8)
    for target in (1e-3, 0.5, 1.0):
        v = random_ball_field(g, 2, rng, target)
        assert norm_h4_vector(v) == pytest.approx(target, rel=1e-12)


def test_random_ball_field_determinism_and_edge_cases():
    g = Grid(d=5, n=4, L=4.0)
    a = random_ball_field(g, 2, np.random.default_rng(11), 0.3)
    b = random_ball_field(g, 2, np.random.default_rng(11), 0.3)
    assert vector_diff_norm(a, b) == 0.0
    z = random_ball_field(g, 2, np.random.default_rng(11), 0.0)
    assert norm_h4_vector(z) == 0.0
    with pytest.raises(ValueError, match="nonnegative"):
        random_ball_field(g, 2, np.random.default_rng(11), -1.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "n_components,target,message",
    [(0, 0.5, "at least one component"), (-1, 0.5, "at least one component"),
     (2, np.inf, "not finite"), (2, np.nan, "not finite")],
)
def test_random_ball_field_rejects_bad_inputs_before_drawing(n_components, target, message):
    g = Grid(d=5, n=4, L=4.0)
    rng = np.random.default_rng(11)
    with pytest.raises(ValueError, match=message):
        random_ball_field(g, n_components, rng, target)
    assert rng.random() == np.random.default_rng(11).random()  # nothing drawn


@pytest.mark.parametrize("d,n", [(5, 2), (5, 4), (6, 4), (7, 2)])
def test_random_ball_field_reproduces_full_complex_draw(d, n):
    """Same RNG stream and the same field as the full complex FFT-order draw."""
    g = Grid(d=d, n=n, L=4.0)
    w = h4_weight(g)
    rng = np.random.default_rng(5)
    hats = [np.fft.fftn(rng.standard_normal(g.shape)) * (1.0 / w) for _ in range(2)]
    total = sum(g.dp**g.d * np.sum(w * np.abs(h) ** 2) for h in hats)
    scale = 0.4 / np.sqrt(total)
    inv = TWO_PI ** (-d / 2.0) * g.dp**d * g.npoints
    expected = [inv * np.fft.fftshift(np.fft.ifftn(scale * h)).real for h in hats]

    got = random_ball_field(g, 2, np.random.default_rng(5), 0.4)
    for comp, ref in zip(got.components, expected):
        assert np.max(np.abs(comp.values - ref.reshape(-1))) <= 1e-14 * np.max(np.abs(ref))


# ---------------------------------------------------------------------------
# contraction probe
# ---------------------------------------------------------------------------

#: contraction_probe(pairs=8, seed=0) ratios on the small fixture, recorded
#: from the full complex FFT-order implementation
PINNED_PROBE_RATIOS = (
    3.368038452605062e-05, 4.181875390895998e-05, 2.6688180655934896e-05,
    5.2878937041907755e-05, 4.9679077714826995e-05, 4.268875546310574e-05,
    5.084365499247296e-05, 3.693744802387738e-05,
)


def test_probe_ratios_are_pinned(small_built):
    rep = contraction_probe(small_built.problem, pairs=8, seed=0)
    assert rep.ratios == pytest.approx(PINNED_PROBE_RATIOS, rel=1e-10)
    # the background the config build solved gives the same ratios
    again = contraction_probe(
        small_built.problem, pairs=8, seed=0, background=small_built.background
    )
    assert again.ratios == pytest.approx(rep.ratios, rel=1e-13)


def reversed_components(N: int = 2) -> Nonlinearity:
    """g(z) = (z_N, ..., z_1), whose values are a view of its argument."""
    swap = np.eye(N)[::-1]
    return Nonlinearity(
        N=N,
        eval=lambda z: z[..., ::-1],
        grad=lambda z: np.broadcast_to(swap, np.shape(z)[:-1] + (N, N)),
    )


@pytest.mark.parametrize("view", [False, True], ids=["quadratic", "view"])
def test_probe_ratio_is_that_of_two_images_of_the_map(small_built, view):
    """The probe transforms g(u0 + v1) - g(u0 + v2) once; its ratio is
    |T(v1) - T(v2)| / |v1 - v2| with T applied to each draw of its stream.
    A g whose values view its argument catches a probe that writes into
    u0 + v, or into what g returned, while it still needs the values."""
    p = small_built.problem
    if view:
        p = p.with_nonlinearity(reversed_components())
    rep = contraction_probe(p, pairs=3, seed=4)
    rng = np.random.default_rng(4)
    for ratio in rep.ratios:
        radii = [p.rho * rng.random() for _ in range(2)]
        v1, v2 = (random_ball_field(p.grid, p.n_components, rng, r) for r in radii)
        t1, t2 = (apply_fixed_point_map(p, p.background, v) for v in (v1, v2))
        assert ratio == pytest.approx(
            vector_diff_norm(t1, t2) / vector_diff_norm(v1, v2), rel=1e-12
        )


@pytest.mark.parametrize("n", [6, 8])
def test_probe_holds_few_half_spectra(n):
    """A probe pair holds its two draws' coefficients, the values of g at
    both and their difference, and the work arrays of one transform at a
    time: fewer than 9.5 one-component half spectra."""
    p = build_problem(small_config(n=n)).problem
    contraction_probe(p, pairs=1)  # fills the caches
    half_spectrum = 16 * (n // 2 + 1) * n ** (p.grid.d - 1)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        contraction_probe(p, pairs=1, seed=1)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 9.5 * half_spectrum


def test_probe_is_deterministic_and_bounded(small_built, small_solution):
    p = small_built.problem
    rep1 = contraction_probe(p, pairs=8, seed=3)
    rep2 = contraction_probe(p, pairs=8, seed=3)
    assert rep1.ratios == rep2.ratios
    assert len(rep1.ratios) == 8
    assert rep1.max_ratio >= rep1.mean_ratio
    ek = small_solution.bounds.contraction_constant
    assert rep1.max_ratio <= ek * 1.05


def test_probe_of_uncoupled_problem_is_zero(small_built):
    rep = contraction_probe(small_built.problem.with_eps(0.0), pairs=4, seed=0)
    assert rep.max_ratio == 0.0


def count_transforms(monkeypatch) -> dict:
    """Count forward/inverse transforms through every binding that makes them."""
    counts = {"forward": 0, "inverse": 0}
    for module in (nlrd.lattice, nlrd.solver):
        for name, key in (("forward_coeffs", "forward"), ("inverse_values", "inverse")):
            def counted(*args, _original=getattr(module, name), _key=key, **kwargs):
                counts[_key] += 1
                return _original(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)
    return counts


def test_repeated_calls_transform_no_kernel_and_no_background(monkeypatch):
    """After the first call on a problem, a probe transforms only its draws
    and images, and a solve only its iterates and its residual: the
    background is cached, the Gaussian kernels are folded into the
    transforms of g, and the residual takes the Gaussian forcings'
    coefficients in closed form."""
    built = build_problem(small_config())
    p = built.problem
    N = p.n_components
    counts = count_transforms(monkeypatch)
    contraction_probe(p, pairs=2, seed=0)
    for seed in (1, 2):
        counts.update(forward=0, inverse=0)
        contraction_probe(p, pairs=2, seed=seed)
        # per pair: 2 draws forward, 2 draws inverse, and the difference of
        # g at the two draws forward once
        assert counts == {"forward": 3 * N * 2, "inverse": 2 * N * 2}
    for _ in range(2):
        counts.update(forward=0, inverse=0)
        rep = picard(p, tol=built.tol, max_iter=built.max_iter)
        k = rep.iterations
        # per step N forward and N inverse; then the residual's g(u) and u
        assert counts == {"forward": N * (k + 2), "inverse": N * k}


def count_norms(monkeypatch) -> dict:
    """Count sampled L^1 and L^2 norms (``nlrd.lattice``) and the closed-form
    norms of Gaussian sources."""
    calls = {"norm_l1": 0, "norm_l2": 0, "gaussian": 0}
    for name in ("norm_l1", "norm_l2"):
        def counted(f, _original=getattr(nlrd.lattice, name), _name=name):
            calls[_name] += 1
            return _original(f)
        monkeypatch.setattr(nlrd.lattice, name, counted)

    def gaussian(source, _original=nlrd.model.GaussianSource.norms):
        calls["gaussian"] += 1
        return _original(source)
    monkeypatch.setattr(nlrd.model.GaussianSource, "norms", gaussian)
    return calls


def test_data_norms_are_measured_once_per_problem(monkeypatch):
    """build_problem measures each kernel and forcing once, a Gaussian in
    closed form with no sampled norm; the problem it returns and the
    problems derived from it reuse that measurement, and a problem with
    other (sampled) kernels measures its own."""
    calls = count_norms(monkeypatch)
    built = build_problem(small_config(n=4))
    p = built.problem
    N = p.n_components
    assert calls == {"norm_l1": 0, "norm_l2": 0, "gaussian": 2 * N}
    calls.update(gaussian=0)
    g2 = scale_nonlinearity(p.nonlinearity, 1.01)
    for q in (p, p.with_eps(0.5 * max(p.eps)), p.with_nonlinearity(g2)):
        compute_bounds(q)
        rep = picard(q, tol=built.tol, max_iter=built.max_iter)
        residual(q, rep.solution)
        contraction_probe(q, pairs=2)
    continuity_experiment(p, p.nonlinearity, g2)
    assert calls == {"norm_l1": 0, "norm_l2": 0, "gaussian": 0}

    doubled = dataclasses.replace(
        p, kernels=tuple(RealField(p.grid, 2.0 * H.values) for H in p.kernels)
    )
    data = validate_problem_data(doubled)
    assert calls == {"norm_l1": N, "norm_l2": N, "gaussian": N}
    before = validate_problem_data(p)
    assert data.kernel_l1 == pytest.approx([2.0 * v for v in before.kernel_l1], rel=1e-14)
    assert data.kernel_l2 == pytest.approx([2.0 * v for v in before.kernel_l2], rel=1e-14)
    assert data.forcing_l2 == before.forcing_l2


def test_a_sampled_kernel_gives_the_gaussian_results():
    """Kernel 1 held as its samples, the rest Gaussian sources: the solve,
    the residual and the seeded probe agree with the all-Gaussian problem,
    and the problem holds one half spectrum, for that kernel only: the
    Gaussian kernel's d 1-D factors are made per transform, not held."""
    built = build_problem(small_config(n=6))
    p = built.problem
    mixed = dataclasses.replace(p, kernels=(p.kernels[0], RealField(p.grid, p.kernels[1].values)))
    kwargs = dict(tol=built.tol, max_iter=built.max_iter)
    reps = [picard(q, **kwargs) for q in (p, mixed)]
    assert reps[1].iterations == reps[0].iterations
    assert reps[1].perturbation_h4 == pytest.approx(reps[0].perturbation_h4, rel=1e-12)
    assert reps[1].solution_h4 == pytest.approx(reps[0].solution_h4, rel=1e-12)
    u = reps[0].solution
    r0, r1 = residual(p, u), residual(mixed, u)
    assert r0.relative < 1e-9
    assert r1.relative == pytest.approx(r0.relative, abs=1e-12)
    probes = [contraction_probe(q, pairs=3, seed=4).ratios for q in (p, mixed)]
    assert probes[1] == pytest.approx(probes[0], rel=1e-12)
    spectra = [v for v in mixed._data.values() if isinstance(v, np.ndarray)]
    assert [(a.shape, a.dtype) for a in spectra] == [(p.grid.half_shape, np.complex128)]


def test_probe_rejects_empty_request(small_built):
    with pytest.raises(ValueError, match="at least one"):
        contraction_probe(small_built.problem, pairs=0)


# ---------------------------------------------------------------------------
# continuity experiment
# ---------------------------------------------------------------------------

def test_continuity_experiment_identical_nonlinearities(small_built):
    g1 = small_built.problem.nonlinearity
    rep = continuity_experiment(small_built.problem, g1, g1, tol=1e-10, max_iter=50)
    assert rep.measured == 0.0
    assert rep.bound == 0.0
    assert rep.nonlinearity_gap == 0.0
    assert rep.passed


def test_continuity_experiment_small_scaling(small_built):
    g1 = small_built.problem.nonlinearity
    g2 = scale_nonlinearity(g1, 1.01)
    rep = continuity_experiment(small_built.problem, g1, g2, tol=1e-10, max_iter=50)
    assert rep.passed
    assert rep.gap_method == "analytic"
    assert rep.measured <= rep.bound * 1.05 + rep.slack
    assert rep.measured > 0.0
    assert max(rep.residuals) <= 1e-8


@pytest.mark.parametrize("n", [6, 8])
def test_continuity_holds_one_perturbation_beside_a_solve(n):
    """While the second solve runs, the experiment holds the first one's
    perturbation and none of its solution, and it takes the shift from the
    two perturbations: its peak is at most one picard's plus 1.25 stacks."""
    built = build_problem(small_config(n=n))
    p = built.problem
    kwargs = dict(tol=built.tol, max_iter=built.max_iter)
    g1, g2 = p.nonlinearity, scale_nonlinearity(p.nonlinearity, 1.01)
    continuity_experiment(p, g1, g2, **kwargs)  # fills the caches
    stack = 8 * p.n_components * p.grid.npoints
    solve_peak = traced_peak(lambda: picard(p, **kwargs))
    assert traced_peak(lambda: continuity_experiment(p, g1, g2, **kwargs)) <= (
        solve_peak + 1.25 * stack
    )


def test_continuity_certifies_each_problem_once(monkeypatch, small_built):
    """The experiment certifies the problem with g1 and with g2 up front, and
    its two solves reuse those reports: 2 compute_bounds calls, not 4."""
    calls = []

    def counted(*args, _original=nlrd.solver.compute_bounds, **kwargs):
        calls.append(args[0].nonlinearity)
        return _original(*args, **kwargs)

    monkeypatch.setattr(nlrd.solver, "compute_bounds", counted)
    p = small_built.problem
    g2 = scale_nonlinearity(p.nonlinearity, 1.01)
    rep = continuity_experiment(p, p.nonlinearity, g2)
    assert rep.passed
    assert calls == [p.nonlinearity, g2]


def test_continuity_experiment_requires_both_nonlinearities_valid(small_built):
    from nlrd.bounds import AssumptionsNotValidated

    g1 = small_built.problem.nonlinearity
    big = scale_nonlinearity(g1, 2.5)  # C^2 norm 1.25 > c2_bound = 1
    for pair in ((g1, big), (big, g1)):
        with pytest.raises(AssumptionsNotValidated) as err:
            continuity_experiment(small_built.problem, *pair, tol=1e-10, max_iter=50)
        assert err.value.failures == ("c2_within_bound",)


@pytest.mark.parametrize("side,passed", [(-1.0, False), (1.0, True)])
def test_continuity_verdict_compares_the_shift_with_bound_margin_and_slack(
    monkeypatch, small_built, side, passed
):
    """With the bound set so that bound (1 + margin) + slack sits tol below
    (above) the measured shift, the experiment fails (passes): the verdict
    is that comparison, with the slack 10 tol and the factor 1 + margin."""
    p, tol, margin = small_built.problem, 1e-10, 0.05
    g1, g2 = p.nonlinearity, scale_nonlinearity(p.nonlinearity, 1.01)
    measured = continuity_experiment(p, g1, g2, tol=tol, margin=margin).measured
    assert measured > 1e3 * tol  # a doubled slack moves the verdict
    target = measured + side * tol
    bound = (target - 10.0 * tol) / (1.0 + margin)
    monkeypatch.setattr(nlrd.solver, "continuity_bound_raw", lambda *args: bound)
    rep = continuity_experiment(p, g1, g2, tol=tol, margin=margin)
    assert rep.measured == measured and rep.bound == bound and rep.slack == 10.0 * tol
    assert rep.passed is passed


def test_continuity_of_custom_nonlinearities_uses_the_triangle_gap(small_built):
    """Two g's with closed-form C^2 norms but no matrices: the gap is the
    triangle bound |g1|_C2 + |g2|_C2, no smaller than the exact quadratic
    gap, and the experiment still certifies and passes."""
    p = small_built.problem
    quadratic = p.nonlinearity
    g1 = dataclasses.replace(quadratic, matrices=None)
    g2 = scale_nonlinearity(g1, 1.01)
    rep = continuity_experiment(p, g1, g2, tol=1e-10, max_iter=50)
    assert rep.gap_method == "triangle"
    radius = compute_bounds(p).state_ball_radius
    exact = c2_gap(quadratic, scale_nonlinearity(quadratic, 1.01), radius).value
    assert rep.nonlinearity_gap >= exact
    assert rep.passed


def test_a_custom_nonlinearity_of_values_gradient_and_c2_norm_certifies_and_solves(
    ref_built, ref_report
):
    """A g is ``eval``, ``grad`` and a closed-form ``c2_ball_norm``, and no
    second derivative: the shipped g written out by hand that way
    certifies on the shipped problem and solves to its fixed point."""
    p = ref_built.problem
    mats = np.stack(p.nonlinearity.matrices)
    custom = Nonlinearity(
        N=p.n_components,
        eval=lambda z: np.einsum("...i,mij,...j->...m", z, mats, z),
        grad=lambda z: 2.0 * np.einsum("mij,...j->...mi", mats, z),
        c2_ball_norm=p.nonlinearity.c2_ball_norm,
    )
    q = p.with_nonlinearity(custom)
    assert compute_bounds(q).failures == ()
    rep = picard(q, tol=ref_built.tol, max_iter=ref_built.max_iter)
    assert rep.converged and rep.bounds.failures == () and rep.residual.relative < 1e-9
    shift = VectorField(p.grid, rep.perturbation.values - ref_report.perturbation.values)
    assert norm_h4_vector(shift) <= 10.0 * ref_built.tol * rep.perturbation_h4


def same_solve(a, b) -> bool:
    """Two solve reports agree in every field but the steps' wall times."""
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, VectorField):
            x, y = x.values.tobytes(), y.values.tobytes()
        elif f.name == "trace":
            x, y = ([dataclasses.replace(s, wall_time=0.0) for s in t.steps] for t in (x, y))
        if x != y:
            return False
    return True


def test_ignored_arguments_change_no_report(small_built):
    """The calls the benchmark and the acceptance tests make, with the
    problem's own background norm and the config's budget and seed, give
    the reports of the calls without them."""
    b = small_built
    p, ignored = b.problem, dict(budget=b.budget, seed=b.seed)
    assert compute_bounds(b.problem, b.background_h4, **ignored) == compute_bounds(p)
    for q in (p, p.with_eps(0.5 * max(p.eps))):
        assert same_solve(picard(q, tol=1e-10, max_iter=b.max_iter, **ignored),
                          picard(q, tol=1e-10, max_iter=b.max_iter))
    start = random_ball_field(p.grid, p.n_components, np.random.default_rng(1234), 0.5 * p.rho)
    kwargs = dict(tol=b.tol, max_iter=b.max_iter)
    assert same_solve(picard(p, initial=start, **kwargs, **ignored),
                      picard(p, initial=start, **kwargs))
    g2 = scale_nonlinearity(p.nonlinearity, 1.01)
    assert continuity_experiment(p, p.nonlinearity, g2, margin=0.05, **kwargs, **ignored) == (
        continuity_experiment(p, p.nonlinearity, g2, margin=0.05, **kwargs)
    )
