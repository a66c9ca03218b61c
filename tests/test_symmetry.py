"""Lattice symmetries as oracles that need no oracle, at d = 5, 6 and 7.

Each relation maps the fields of a problem by one lattice map and predicts
the answer of the mapped problem exactly from the answer of the first: the
certified constants stay put and the solution moves with the data.

* an axis permutation of every kernel and forcing permutes v*;
* a roll of the forcings by a lattice vector rolls v*, the kernels staying
  in displacement order;
* the reflection j -> (n - j) mod n of every field, which is x -> -x on
  x_j = -L + j h, reflects v*;
* a permutation of the components (couplings, kernels, forcings, and the
  quadratic matrices on all three indices) permutes v*;
* (f, eps) -> (a f, eps / a) maps (u0, v*) to a (u0, v*), as g is quadratic.

The fields are held samples of off-centre Gaussians with a different centre
on each axis, so a permutation moves them across the half-spectrum axis, the
one axis whose transform and Hermitian weights differ from the others.
"""

import functools

import numpy as np
import pytest

from nlrd.bounds import compute_bounds
from nlrd.lattice import Grid, RealField
from nlrd.model import GaussianSpec, Problem, quadratic_nonlinearity
from nlrd.solver import picard

GRIDS = [(5, 8), (6, 6), (7, 4)]
RTOL = 1e-12
MATRICES = [np.array([[1.0, 0.3], [0.3, 0.5]]), np.array([[0.2, -0.4], [-0.4, 1.0]])]


def fields(grid: Grid):
    """Kernels and forcings as arrays of ``grid.shape``."""
    d = grid.d
    kernels = [GaussianSpec(1.0, 1.0, tuple(np.linspace(-0.3, 0.4, d))),
               GaussianSpec(0.9, 0.8, tuple(np.linspace(0.2, -0.5, d)))]
    forcings = [GaussianSpec(1.2, 0.05, tuple(np.linspace(0.5, -0.2, d))),
                GaussianSpec(1.1, -0.03, tuple(np.linspace(-0.6, 0.1, d)))]
    return ([s.sample(grid).reshaped() for s in kernels],
            [s.sample(grid).reshaped() for s in forcings])


def problem(grid: Grid, kernels, forcings, eps, matrices=MATRICES) -> Problem:
    return Problem(
        grid=grid, eps=tuple(eps),
        kernels=tuple(RealField(grid, k) for k in kernels),
        forcings=tuple(RealField(grid, f) for f in forcings),
        nonlinearity=quadratic_nonlinearity(matrices), c2_bound=10.0,
    )


def solve(grid: Grid, kernels, forcings, eps, matrices=MATRICES, tol=1e-12):
    """(eps_max, background_h4, perturbation_h4), and v* as a stack."""
    rep = picard(problem(grid, kernels, forcings, eps, matrices), tol=tol)
    assert rep.converged and not rep.warnings and not rep.bounds.failures
    constants = (rep.bounds.eps_max, rep.background_h4, rep.perturbation_h4)
    return constants, rep.perturbation.values


@functools.lru_cache(maxsize=None)
def base(d: int, n: int):
    """The unmapped problem's coupling, answer and fields on one grid."""
    grid = Grid(d=d, n=n, L=4.0)
    kernels, forcings = fields(grid)
    uncoupled = problem(grid, kernels, forcings, (0.0, 0.0))
    eps_max = compute_bounds(uncoupled).eps_max
    eps = (0.5 * eps_max, 0.3 * eps_max)
    return grid, kernels, forcings, eps, solve(grid, kernels, forcings, eps)


def permute(d, n):
    return (lambda a: np.transpose(a, tuple(range(1, d)) + (0,))), True


def roll(d, n):
    shift = tuple((j + 1) % n for j in range(d))
    return (lambda a: np.roll(a, shift, axis=tuple(range(d)))), False


def reflect(d, n):
    return (lambda a: np.roll(np.flip(a), 1, axis=tuple(range(d)))), True


@pytest.mark.parametrize("relation", [permute, roll, reflect])
@pytest.mark.parametrize("d,n", GRIDS)
def test_lattice_symmetry_moves_the_solution_with_the_data(d, n, relation):
    grid, kernels, forcings, eps, (constants, v) = base(d, n)
    move, moves_kernels = relation(d, n)
    if moves_kernels:
        kernels = [move(k) for k in kernels]
    mapped, v_mapped = solve(grid, kernels, [move(f) for f in forcings], eps)
    np.testing.assert_allclose(mapped, constants, rtol=RTOL, atol=0.0)
    expected = np.stack([move(vm) for vm in v])
    assert np.max(np.abs(v_mapped - expected)) <= RTOL * np.max(np.abs(v))


@pytest.mark.parametrize("d,n", GRIDS)
def test_permuting_the_components_permutes_the_solution(d, n):
    grid, kernels, forcings, eps, (constants, v) = base(d, n)
    matrices = np.stack(MATRICES)[::-1, ::-1, ::-1]
    mapped, v_mapped = solve(grid, kernels[::-1], forcings[::-1], eps[::-1], matrices)
    np.testing.assert_allclose(mapped, constants, rtol=RTOL, atol=0.0)
    assert np.max(np.abs(v_mapped - v[::-1])) <= RTOL * np.max(np.abs(v))


@pytest.mark.parametrize("d,n", GRIDS)
def test_scaling_forcing_against_coupling_scales_the_solution(d, n):
    """|v| < 1, so the solve stops once a step is below tol: a tol scaled by
    a stops the scaled solve after as many steps."""
    a = 3.0
    grid, kernels, forcings, eps, ((_, u0_h4, v_h4), v) = base(d, n)
    scaled = [a * f for f in forcings], [e / a for e in eps]
    (_, u0_h4_a, v_h4_a), v_a = solve(grid, kernels, *scaled, tol=a * 1e-12)
    np.testing.assert_allclose((u0_h4_a, v_h4_a), (a * u0_h4, a * v_h4), rtol=RTOL, atol=0.0)
    assert np.max(np.abs(v_a - a * v)) <= RTOL * a * np.max(np.abs(v))
    u0, u0_a = (problem(grid, kernels, *data).background.values
                for data in ((forcings, eps), scaled))
    assert np.max(np.abs(u0_a - a * u0)) <= RTOL * a * np.max(np.abs(u0))
