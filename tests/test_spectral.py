"""Diffusion-operator application/inversion and periodic convolution."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import blocked_weight
from nlrd.lattice import Grid, RealField, forward_coeffs, norm_l1, norm_l2
from nlrd.model import GaussianSpec
from nlrd.spectral import (
    DIRECT_CONV_MAX_POINTS,
    GridTooLarge,
    apply_operator,
    convolve,
    convolve_direct,
    invert_coeffs,
    symbol_shells,
    kernel_coeffs,
    kernel_factors,
    solve_linear,
)

TWO_PI = 2.0 * np.pi


def random_field(grid: Grid, seed: int, mean_zero: bool = False) -> RealField:
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(grid.npoints)
    if mean_zero:
        vals -= vals.mean()
    return RealField(grid, vals)


def reflect(values: np.ndarray, grid: Grid) -> np.ndarray:
    """Physical-space reflection x -> -x (lattice index j -> n - j mod n)."""
    out = values.reshape(grid.shape)
    for axis in range(grid.d):
        out = np.roll(np.flip(out, axis=axis), 1, axis=axis)
    return out.reshape(-1)


def cosine_mode(grid: Grid) -> RealField:
    """cos(dp * x_0), a single +/- mode pair on the first axis."""
    x = grid.axis_coords()
    vals = np.cos(grid.dp * x).reshape((grid.n,) + (1,) * (grid.d - 1))
    return RealField(grid, np.broadcast_to(vals, grid.shape).reshape(-1).copy())


# ---------------------------------------------------------------------------
# operator and inverse
# ---------------------------------------------------------------------------

def test_symbol_vanishes_only_at_zero():
    g = Grid(d=2, n=8, L=2.0)
    sym = blocked_weight(g, symbol_shells)
    assert sym.shape == g.half_shape
    assert sym[0, 0] == 0.0
    rest = np.delete(sym.reshape(-1), 0)
    assert np.all(rest > 0.0)


def test_apply_operator_annihilates_constants():
    g = Grid(d=2, n=8, L=2.0)
    out = apply_operator(RealField(g, np.full(g.npoints, 3.0)))
    assert np.max(np.abs(out.values)) <= 1e-13


@pytest.mark.parametrize("n", [8, 10, 12])
def test_apply_operator_of_a_constant_is_exactly_zero(n):
    g = Grid(d=2, n=n, L=2.0)
    out = apply_operator(RealField(g, np.full(g.npoints, 3.0)))
    assert not np.any(out.values)


def test_apply_and_solve_on_single_mode():
    g = Grid(d=3, n=8, L=2.0)
    f = cosine_mode(g)
    factor = g.dp**2 + g.dp**4
    out = apply_operator(f)
    assert_allclose(out.values, factor * f.values, rtol=0, atol=1e-12 * factor)
    u, dropped = solve_linear(f)
    assert dropped <= 1e-13
    assert_allclose(u.values, f.values / factor, rtol=0, atol=1e-13)


@pytest.mark.parametrize("d,n", [(2, 16), (3, 6), (5, 4)])
def test_solve_then_apply_recovers_mean_removed_input(d, n):
    g = Grid(d=d, n=n, L=2.0)
    for seed in range(5):
        f = random_field(g, seed)
        u, _ = solve_linear(f)
        back = apply_operator(u)
        expected = f.values - f.values.mean()
        err = np.linalg.norm(back.values - expected)
        assert err <= 1e-10 * np.linalg.norm(expected)


def test_solve_linear_is_linear():
    g = Grid(d=2, n=8, L=1.5)
    f1 = random_field(g, seed=1)
    f2 = random_field(g, seed=2)
    a, b = 1.75, -0.5
    combined = RealField(g, a * f1.values + b * f2.values)
    lhs, _ = solve_linear(combined)
    u1, _ = solve_linear(f1)
    u2, _ = solve_linear(f2)
    rhs = a * u1.values + b * u2.values
    assert_allclose(lhs.values, rhs, rtol=0, atol=1e-12 * np.max(np.abs(rhs)))


def test_solve_linear_preserves_evenness():
    # a Gaussian centered at the origin is even on the lattice
    g = Grid(d=2, n=12, L=4.0)
    coords = g.coordinate_arrays()
    r2 = sum(np.broadcast_to(x, g.shape) ** 2 for x in coords)
    f = RealField(g, np.exp(-r2.reshape(-1)))
    assert_allclose(f.values, reflect(f.values, g), rtol=0, atol=5e-15)
    u, _ = solve_linear(f)
    scale = np.max(np.abs(u.values))
    assert np.max(np.abs(u.values - reflect(u.values, g))) <= 1e-10 * scale


def test_zero_field_solves_to_zero():
    g = Grid(d=2, n=6, L=1.0)
    u, dropped = solve_linear(RealField(g, np.zeros(g.npoints)))
    assert np.all(u.values == 0.0)
    assert dropped == 0.0


# ---------------------------------------------------------------------------
# zero mode
# ---------------------------------------------------------------------------

def test_project_policy_reports_dropped_mass():
    g = Grid(d=2, n=8, L=2.0)
    f = random_field(g, seed=5)
    _, dropped = solve_linear(f)
    expected = TWO_PI ** (-g.d / 2.0) * g.h**g.d * abs(f.values.sum())
    assert dropped == pytest.approx(expected, rel=1e-13)
    # mean-zero input carries no zero-mode mass
    u, dropped = solve_linear(random_field(g, seed=6, mean_zero=True))
    assert dropped <= 1e-14
    assert np.all(np.isfinite(u.values))


@pytest.mark.parametrize("d,n", [(2, 8), (5, 4)])
def test_invert_coeffs_on_a_stack_matches_single_calls(d, n):
    """One call on an (N, *half_shape) stack equals N single-array calls,
    and a single field drops the mass ``solve_linear`` reports."""
    g = Grid(d=d, n=n, L=2.0)
    fields = [random_field(g, seed) for seed in range(3)]
    stack = np.stack([forward_coeffs(g, f.values) for f in fields])
    singles = [forward_coeffs(g, f.values) for f in fields]
    dropped = invert_coeffs(g, stack)[0]
    assert dropped.shape == (3,)
    assert np.array_equal(dropped, [invert_coeffs(g, hat)[0] for hat in singles])
    assert np.array_equal(stack, np.stack(singles))
    assert stack[(0,) + (0,) * d] == 0.0
    for f, mass in zip(fields, dropped):
        assert solve_linear(f)[1] == mass


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------

def test_convolution_with_unit_delta_is_identity():
    g = Grid(d=2, n=6, L=1.5)
    H = random_field(g, seed=7)
    delta = np.zeros(g.shape)
    delta[(g.n // 2,) * g.d] = 1.0 / g.h**g.d  # unit-mass spike at x = 0
    out = convolve(H, RealField(g, delta.reshape(-1)))
    assert_allclose(out.values, H.values, rtol=0, atol=1e-12 * np.max(np.abs(H.values)))


def test_convolution_with_constant_kernel_gives_total_mass():
    g = Grid(d=2, n=6, L=1.5)
    G = random_field(g, seed=8)
    c = 2.0
    H = RealField(g, np.full(g.npoints, c))
    out = convolve(H, G)
    mass = c * g.h**g.d * G.values.sum()
    assert_allclose(out.values, np.full(g.npoints, mass), rtol=0, atol=1e-12 * max(abs(mass), 1.0))


def test_convolution_is_symmetric_and_bilinear():
    g = Grid(d=2, n=8, L=2.0)
    H = random_field(g, seed=9)
    G1 = random_field(g, seed=10)
    G2 = random_field(g, seed=11)
    sym_gap = convolve(H, G1).values - convolve(G1, H).values
    assert np.max(np.abs(sym_gap)) <= 1e-12 * np.max(np.abs(convolve(H, G1).values))
    a, b = 3.0, -0.5
    combo = RealField(g, a * G1.values + b * G2.values)
    lhs = convolve(H, combo).values
    rhs = a * convolve(H, G1).values + b * convolve(H, G2).values
    assert_allclose(lhs, rhs, rtol=0, atol=1e-12 * np.max(np.abs(rhs)))


@pytest.mark.parametrize("d,n", [(1, 10), (2, 6), (3, 4), (5, 4)])
def test_spectral_convolution_matches_direct_sum(d, n):
    g = Grid(d=d, n=n, L=1.5)
    for seed in range(3):
        H = random_field(g, seed=100 + seed)
        G = random_field(g, seed=200 + seed)
        fast = convolve(H, G)
        slow = convolve_direct(H, G)
        scale = max(np.max(np.abs(slow.values)), 1.0)
        assert np.max(np.abs(fast.values - slow.values)) <= 1e-12 * scale


def test_direct_convolution_refuses_large_grids():
    g = Grid(d=5, n=8, L=1.0)  # 32768 points
    assert g.npoints > DIRECT_CONV_MAX_POINTS
    f = RealField(g, np.zeros(g.npoints))
    with pytest.raises(GridTooLarge):
        convolve_direct(f, f)


def test_convolution_operands_must_share_grid():
    H = RealField(Grid(d=2, n=6, L=1.0), np.zeros(36))
    G = RealField(Grid(d=2, n=8, L=1.0), np.zeros(64))
    with pytest.raises(ValueError, match="share"):
        convolve(H, G)
    with pytest.raises(ValueError, match="share"):
        convolve_direct(H, G)


@pytest.mark.parametrize("d,n,pairs", [(2, 8, 10), (3, 4, 5)])
def test_young_inequality_for_convolution(d, n, pairs):
    g = Grid(d=d, n=n, L=2.0)
    rng = np.random.default_rng(42)
    for _ in range(pairs):
        H = RealField(g, rng.standard_normal(g.npoints))
        G = RealField(g, rng.standard_normal(g.npoints))
        lhs = norm_l2(convolve(H, G))
        rhs = norm_l2(H) * norm_l1(G)
        assert lhs <= rhs * (1.0 + 1e-10)


#: grids of the closed-form Gaussian checks: d = 5, 6, 7
CLOSED_FORM_GRIDS = [(5, 8, 3.0), (6, 6, 2.5), (7, 4, 2.0)]


def off_centre_gaussian(d: int) -> GaussianSpec:
    """An odd width, a negative amplitude and a different centre per axis."""
    return GaussianSpec(0.77, -1.3, center=[0.31 * j - 0.45 for j in range(d)])


@pytest.mark.parametrize("d,n,L", CLOSED_FORM_GRIDS)
@pytest.mark.parametrize("eps", [0.37, 0.0])
def test_folded_kernel_transform_is_the_coupling_times_the_transform(d, n, L, eps):
    """forward_coeffs with a Gaussian's kernel factors is
    eps kernel_coeffs(H) forward_coeffs(x), to 1e-14 of its largest entry,
    and exactly 0 for eps = 0 or a zero kernel."""
    g = Grid(d=d, n=n, L=L)
    x = random_field(g, seed=d).values
    for spec in (off_centre_gaussian(d), GaussianSpec(1.3, 0.6, center=0.45),
                 GaussianSpec(amplitude=0.0)):
        expected = forward_coeffs(g, x) * eps * kernel_coeffs(spec.sample(g))
        folded = forward_coeffs(g, x, factors=kernel_factors(g, spec._factors(g), eps))
        if eps == 0.0 or spec.amplitude == 0.0:
            assert not np.any(folded)
        else:
            top = np.max(np.abs(expected))
            assert np.max(np.abs(folded - expected)) <= 1e-14 * top
