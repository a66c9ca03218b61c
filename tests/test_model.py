"""Problem data: Gaussian profiles, nonlinearities, validators."""

import dataclasses
import functools
import warnings

import numpy as np
import pytest
from conftest import BAD_CENTERS, traced_peak
from numpy.testing import assert_allclose

from nlrd.cli import _jsonable
from nlrd.config import build_field
from nlrd.lattice import Grid, RealField, forward_coeffs, norm_h4_vector, norm_l1, norm_l2
from nlrd.model import (
    C2Norm,
    GaussianSource,
    GaussianSpec,
    Nonlinearity,
    Problem,
    c2_gap,
    c2_norm,
    image_ball_radius,
    quadratic_nonlinearity,
    scale_nonlinearity,
    validate_nonlinearity,
    validate_problem_data,
)
from nlrd.spectral import solve_linear

TWO_PI = 2.0 * np.pi


def small_problem(d=5, n=4, L=4.0, eps=0.0, **overrides) -> Problem:
    g = Grid(d=d, n=n, L=L)
    fields = dict(
        kernels=(GaussianSpec(1.0, 1.0).sample(g), GaussianSpec(0.9, 0.8).sample(g)),
        forcings=(GaussianSpec(1.2, 0.05).sample(g), GaussianSpec(1.1, -0.03).sample(g)),
        nonlinearity=quadratic_nonlinearity(
            [np.array([[1.0, 0.3], [0.3, 0.5]]), np.array([[0.2, -0.4], [-0.4, 1.0]])]
        ),
    )
    fields.update(overrides)
    return Problem(grid=g, eps=(eps,) * 2, **fields)


def cubic_nonlinearity(N: int) -> Nonlinearity:
    """Componentwise z_m^3, with hand-written batched derivatives."""

    def _eval(z):
        return np.asarray(z, dtype=float) ** 3

    def _grad(z):
        z = np.asarray(z, dtype=float)
        out = np.zeros(z.shape[:-1] + (N, N))
        for m in range(N):
            out[..., m, m] = 3.0 * z[..., m] ** 2
        return out

    def _hess(z):
        z = np.asarray(z, dtype=float)
        out = np.zeros(z.shape[:-1] + (N, N, N))
        for m in range(N):
            out[..., m, m, m] = 6.0 * z[..., m]
        return out

    return Nonlinearity(N=N, eval=_eval, grad=_grad, hess=_hess, label="cubic")


# ---------------------------------------------------------------------------
# Gaussian profiles
# ---------------------------------------------------------------------------

def test_gaussian_spec_rejects_bad_parameters():
    with pytest.raises(ValueError, match="width"):
        GaussianSpec(width=0.0)
    with pytest.raises(ValueError, match="width"):
        GaussianSpec(width=-1.0)
    with pytest.raises(ValueError, match="amplitude"):
        GaussianSpec(amplitude=np.inf)
    with pytest.raises(ValueError, match="center"):
        GaussianSpec(center=(1.0, 2.0, 3.0)).sample(Grid(d=2, n=4, L=1.0))
    for key in ("width", "amplitude"):
        with pytest.raises(ValueError, match=key):
            GaussianSpec(**{key: True})


@pytest.mark.parametrize("center", BAD_CENTERS)
def test_gaussian_spec_rejects_bad_centers(center):
    with pytest.raises(ValueError, match="center"):
        GaussianSpec(center=center).sample(Grid(d=5, n=4, L=1.0))


def test_gaussian_spec_reads_its_center_as_floats():
    assert GaussianSpec(center=1).center == (1.0,)
    assert GaussianSpec(center=[0.5, -1]).center == (0.5, -1.0)
    assert GaussianSpec(center=np.array([0.5, 2.0])).center == (0.5, 2.0)


def test_gaussian_peak_and_linf():
    g = Grid(d=2, n=16, L=4.0)
    spec = GaussianSpec(width=0.7, amplitude=-2.5)
    f = spec.sample(g)
    # x = 0 is a lattice point, so the discrete sup hits the amplitude
    assert np.min(f.values) == pytest.approx(-2.5, rel=1e-14)
    assert np.max(np.abs(f.values)) == pytest.approx(2.5, rel=1e-14)


def test_gaussian_closed_form_norms_match_discrete_sums():
    # wide box + fine lattice: midpoint sums converge to the R^d integrals
    g = Grid(d=2, n=64, L=8.0)
    spec = GaussianSpec(width=1.1, amplitude=0.8)
    f = spec.sample(g)
    assert norm_l1(f) == pytest.approx(spec.l1(g.d), rel=1e-10)
    assert norm_l2(f) == pytest.approx(spec.l2(g.d), rel=1e-10)


def test_gaussian_closed_form_norms_in_dimension_five():
    g = Grid(d=5, n=24, L=8.0)
    spec = GaussianSpec(width=1.0, amplitude=1.0)
    f = spec.sample(g)
    assert norm_l1(f) == pytest.approx(spec.l1(5), rel=1e-6)
    assert norm_l2(f) == pytest.approx(spec.l2(5), rel=1e-6)


@pytest.mark.parametrize("d", range(1, 8))
@pytest.mark.parametrize("where", ["scalar", "per_axis", "off_lattice"])
def test_separable_sample_matches_the_radius_formula(d, where):
    """The product of 1-D factors is a exp(-|x - c|^2 / (2 w^2)) formed
    from r^2, to roundoff, for a scalar, a per-axis and an off-lattice centre."""
    g = Grid(d=d, n=8 if d > 5 else 10, L=4.0)
    center = {
        "scalar": 0.8,
        "per_axis": tuple(g.axis_coords()[(3 * np.arange(d)) % g.n]),
        "off_lattice": tuple(np.linspace(-0.93, 1.41, d)),
    }[where]
    spec = GaussianSpec(width=1.3, amplitude=-1.7, center=center)
    c = np.broadcast_to(center, (d,))
    r2 = sum((x - cj) ** 2 for x, cj in zip(g.coordinate_arrays(), c))
    expected = -1.7 * np.exp(-r2 / (2.0 * 1.3**2))
    # relative to the peak: in the tails exp(-r^2 / (2 w^2)) carries the
    # rounding of its argument, about r^2 / (2 w^2) ulps
    assert_allclose(spec.sample(g).reshaped(), expected, rtol=0, atol=1e-14 * 1.7)


def test_gaussian_sample_holds_the_field_and_its_factors_only():
    """No |x - c|^2 or exp temporary of full size: the peak is the result
    plus factors of at most n^(d-1) points and the finiteness check."""
    g = Grid(d=7, n=8, L=4.0)
    spec = GaussianSpec(width=1.3, amplitude=0.7, center=0.25)
    spec.sample(g)
    assert traced_peak(lambda: spec.sample(g)) < 1.3 * 8 * g.npoints


@pytest.mark.parametrize("d", [5, 6, 7])
def test_gaussian_source_samples_the_spec_bit_for_bit(d):
    """A source's values, read twice, are the product of the 1-D factors in
    their order, bit for bit."""
    g = Grid(d=d, n=4, L=3.0)
    spec = GaussianSpec(width=0.9, amplitude=-1.3, center=tuple(np.linspace(-0.4, 0.7, d)))
    x = g.axis_coords()
    factors = [np.exp(-((x - c) ** 2) / (2.0 * 0.9**2)) for c in spec.center]
    factors[0] *= -1.3
    expected = functools.reduce(np.multiply.outer, factors).reshape(-1)
    source = GaussianSource(g, spec)
    for values in (source.values, source.values, spec.sample(g).values, source.sample().values):
        assert np.array_equal(values, expected)


def test_a_real_field_is_its_own_source():
    """A held field is returned, never copied."""
    f = GaussianSpec(width=0.8).sample(Grid(d=5, n=4, L=3.0))
    assert f.sample() is f


@pytest.mark.parametrize("params", [{"width": 1e-300}, {"width": 1e200}])
def test_gaussian_source_refuses_non_finite_samples_quietly(params):
    """A width whose square underflows samples 0/0 at a centre on the
    lattice, and one whose square overflows cannot be sampled: either is
    refused when the source is made, from its 1-D factors, with no numpy
    warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises((ValueError, OverflowError)):
            GaussianSource(Grid(d=5, n=4, L=3.0), GaussianSpec(**params))


def test_gaussian_norms_are_shift_invariant():
    g = Grid(d=2, n=32, L=8.0)
    centered = GaussianSpec(width=1.0, amplitude=1.0).sample(g)
    shifted = GaussianSpec(width=1.0, amplitude=1.0, center=(1.0, -0.5)).sample(g)
    assert norm_l1(shifted) == pytest.approx(norm_l1(centered), rel=1e-10)
    assert norm_l2(shifted) == pytest.approx(norm_l2(centered), rel=1e-10)


# ---------------------------------------------------------------------------
# quadratic nonlinearity and derivatives
# ---------------------------------------------------------------------------

def test_quadratic_hand_example():
    A0 = np.array([[1.0, 2.0], [2.0, 3.0]])
    A1 = np.array([[0.0, 1.0], [1.0, 0.0]])
    g = quadratic_nonlinearity([A0, A1])
    z = np.array([[1.0, -1.0]])
    # z^T A0 z = 1 - 4 + 3 = 0, z^T A1 z = -2
    assert_allclose(g.eval(z), [[0.0, -2.0]], atol=1e-14)
    assert_allclose(g.grad(z)[0, 0], 2.0 * A0 @ z[0], atol=1e-14)
    assert_allclose(g.hess(z)[0, 1], 2.0 * A1, atol=1e-14)


def test_quadratic_symmetrizes_input_matrices():
    asym = np.array([[0.0, 2.0], [0.0, 0.0]])
    g = quadratic_nonlinearity([asym, np.eye(2)])
    assert_allclose(g.matrices[0], np.array([[0.0, 1.0], [1.0, 0.0]]))
    z = np.array([[1.0, 1.0]])
    assert g.eval(z)[0, 0] == pytest.approx(2.0)  # form unchanged


@pytest.mark.parametrize("N", [1, 2, 3])
@pytest.mark.parametrize("lead", [(), (7,), (3, 4)], ids=["point", "P", "a-b"])
def test_quadratic_product_form_matches_double_sum(lead, N):
    """eval sums the pair products z_i z_j (i <= j) against packed
    matrices; the double sum of z_i [A_m]_ij z_j is its oracle."""
    rng = np.random.default_rng(N)
    mats = rng.uniform(-1.0, 1.0, (N, N, N))
    sym = 0.5 * (mats + mats.transpose(0, 2, 1))
    z = rng.standard_normal(lead + (N,))
    got = quadratic_nonlinearity(list(mats)).eval(z)
    oracle = np.einsum("...i,mij,...j->...m", z, sym, z)
    assert got.shape == oracle.shape == lead + (N,)
    assert np.max(np.abs(got - oracle)) <= 1e-14 * np.max(np.abs(oracle))


def test_quadratic_rejects_non_square_stack():
    with pytest.raises(ValueError, match="square"):
        quadratic_nonlinearity([np.ones((2, 3)), np.ones((2, 3))])
    with pytest.raises(ValueError, match="per component"):
        quadratic_nonlinearity([np.ones((3, 3))])


def test_quadratic_c2_closed_form_single_component():
    g = quadratic_nonlinearity([np.array([[1.0]])])
    for r in (0.0, 0.5, 2.0):
        assert c2_norm(g, r).value == pytest.approx(r**2 + 2.0 * r + 2.0, rel=1e-14)


@pytest.mark.parametrize("maker", [lambda: quadratic_nonlinearity(
    [np.array([[1.0, 0.3, 0.0], [0.3, -0.5, 0.2], [0.0, 0.2, 2.0]]),
     np.array([[0.0, 1.0, 0.0], [1.0, 0.0, -1.0], [0.0, -1.0, 0.0]]),
     np.array([[0.4, 0.0, 0.0], [0.0, 0.4, 0.0], [0.0, 0.0, 0.4]])]),
    lambda: cubic_nonlinearity(3)])
def test_finite_differences_confirm_derivatives(maker):
    g = maker()
    rng = np.random.default_rng(3)
    z = rng.standard_normal((4, g.N))
    h = 1e-4
    grad = g.grad(z)
    hess = g.hess(z)
    for i in range(g.N):
        zp, zm = z.copy(), z.copy()
        zp[:, i] += h
        zm[:, i] -= h
        fd_grad = (g.eval(zp) - g.eval(zm)) / (2.0 * h)
        scale = max(np.max(np.abs(grad)), 1.0)
        assert np.max(np.abs(fd_grad - grad[:, :, i])) <= 1e-6 * scale
        fd_hess = (g.grad(zp) - g.grad(zm)) / (2.0 * h)
        hscale = max(np.max(np.abs(hess)), 1.0)
        assert np.max(np.abs(fd_hess - hess[:, :, :, i])) <= 1e-6 * hscale


def test_scale_nonlinearity_quadratic_path():
    g = quadratic_nonlinearity([np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]])])
    s = scale_nonlinearity(g, -2.0)
    assert s.matrices is not None
    assert_allclose(s.matrices[0], -2.0 * np.eye(2))
    z = np.array([[0.3, -0.7]])
    assert_allclose(s.eval(z), -2.0 * g.eval(z), atol=1e-15)
    assert c2_norm(s, 0.8).value == pytest.approx(2.0 * c2_norm(g, 0.8).value, rel=1e-14)
    assert "*-2" in s.label


def test_scale_nonlinearity_generic_path():
    g = cubic_nonlinearity(2)
    s = scale_nonlinearity(g, 0.5)
    assert s.matrices is None
    z = np.array([[1.0, 2.0], [-0.5, 0.25]])
    assert_allclose(s.eval(z), 0.5 * g.eval(z), atol=1e-15)
    assert_allclose(s.grad(z), 0.5 * g.grad(z), atol=1e-15)
    assert_allclose(s.hess(z), 0.5 * g.hess(z), atol=1e-15)


# ---------------------------------------------------------------------------
# C^2 ball norms
# ---------------------------------------------------------------------------

def test_c2_norm_analytic_for_quadratic_and_monotone_in_radius():
    g = quadratic_nonlinearity([np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]])])
    values = [c2_norm(g, r) for r in (0.1, 0.5, 1.0, 2.0)]
    assert all(c.method == "analytic" for c in values)
    assert all(a.value < b.value for a, b in zip(values, values[1:]))


def test_c2_norm_rejects_bad_arguments():
    g = quadratic_nonlinearity([np.eye(2), np.eye(2)])
    with pytest.raises(ValueError, match="radius"):
        c2_norm(g, -0.1)
    stripped = dataclasses.replace(g, c2_ball_norm=None)
    assert c2_norm(stripped, 0.5) == C2Norm(np.inf, 0.5, "unavailable")


def test_c2_gap_exact_for_quadratic_families():
    mats = [np.array([[1.0, 0.3], [0.3, 0.5]]), np.array([[0.2, -0.4], [-0.4, 1.0]])]
    g1 = quadratic_nonlinearity(mats)
    for delta in (0.01, 0.1):
        g2 = scale_nonlinearity(g1, 1.0 + delta)
        gap = c2_gap(g2, g1, 0.8)
        assert gap.method == "analytic"
        assert gap.value == pytest.approx(delta * c2_norm(g1, 0.8).value, rel=1e-12)
    assert c2_gap(g1, g1, 0.8).value == 0.0


def test_c2_gap_of_other_pairs_is_the_triangle_bound():
    g = quadratic_nonlinearity([np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]])])
    custom = dataclasses.replace(g, matrices=None)
    gap = c2_gap(custom, scale_nonlinearity(custom, 1.1), 0.8)
    assert gap.method == "triangle"
    assert gap.value == pytest.approx(2.1 * c2_norm(g, 0.8).value, rel=1e-14)
    stripped = dataclasses.replace(custom, c2_ball_norm=None)
    assert c2_gap(custom, stripped, 0.8) == C2Norm(np.inf, 0.8, "triangle")


def test_c2_gap_rejects_mismatched_component_counts():
    g1 = quadratic_nonlinearity([np.eye(2), np.eye(2)])
    g2 = quadratic_nonlinearity([np.eye(3), np.eye(3), np.eye(3)])
    with pytest.raises(ValueError, match="components"):
        c2_gap(g1, g2, 0.5)


def test_image_ball_radius():
    assert image_ball_radius(0.0, 0.25) == 0.25
    assert image_ball_radius(3.0, 0.5) == 2.0
    with pytest.raises(ValueError, match="background"):
        image_ball_radius(-1.0, 0.5)
    with pytest.raises(ValueError, match="embedding"):
        image_ball_radius(1.0, 0.0)


# ---------------------------------------------------------------------------
# problem container
# ---------------------------------------------------------------------------

def test_problem_rejects_unsupported_dimension():
    g4 = Grid(d=4, n=4, L=2.0)
    with pytest.raises(ValueError, match="d in"):
        Problem(
            grid=g4,
            eps=(0.0, 0.0),
            kernels=(build_field(g4, {"constructor": "zero"}),) * 2,
            forcings=(build_field(g4, {"constructor": "zero"}),) * 2,
            nonlinearity=quadratic_nonlinearity([np.eye(2), np.eye(2)]),
        )


def test_problem_warns_on_single_component():
    g = Grid(d=5, n=4, L=2.0)
    with pytest.warns(UserWarning, match="N = 1") as record:
        Problem(
            grid=g,
            eps=(0.0,),
            kernels=(GaussianSpec().sample(g),),
            forcings=(GaussianSpec().sample(g),),
            nonlinearity=quadratic_nonlinearity([np.array([[1.0]])]),
        )
    # the warning names the caller, not the generated __init__
    assert record[0].filename == __file__


def test_problem_validates_parameters():
    with pytest.raises(ValueError, match=">= 0"):
        small_problem(eps=-0.1)
    with pytest.raises(ValueError, match="positive"):
        small_problem(rho=0.0)
    with pytest.raises(ValueError, match="<= 1"):
        small_problem(rho=1.5)
    with pytest.raises(ValueError, match="positive"):
        small_problem(c2_bound=0.0)
    with pytest.raises(ValueError, match="counts disagree"):
        g = Grid(d=5, n=4, L=4.0)
        Problem(
            grid=g,
            eps=(0.0, 0.0, 0.0),
            kernels=(GaussianSpec().sample(g),) * 2,
            forcings=(GaussianSpec().sample(g),) * 2,
            nonlinearity=quadratic_nonlinearity([np.eye(2), np.eye(2)]),
        )
    with pytest.raises(ValueError, match="problem grid"):
        other = Grid(d=5, n=6, L=4.0)
        small_problem(kernels=(GaussianSpec().sample(other), GaussianSpec().sample(other)))


@pytest.mark.parametrize("eps", [-0.1, np.inf, np.nan])
def test_problem_rejects_couplings_that_are_negative_or_not_finite(eps):
    with pytest.raises(ValueError, match=r"^coupling amplitudes must be finite and >= 0, got "):
        small_problem().with_eps(eps)


def test_problem_helpers():
    p = small_problem()
    assert p.d == 5
    assert p.n_components == 2
    q = p.with_eps(0.25)
    assert q.eps == (0.25, 0.25)
    assert max(q.eps) == 0.25
    r = p.with_eps([0.1, 0.3])
    assert r.eps == (0.1, 0.3)
    g2 = quadratic_nonlinearity([np.eye(2), np.eye(2)], label="other")
    assert p.with_nonlinearity(g2).nonlinearity.label == "other"
    # original untouched
    assert p.eps == (0.0, 0.0)


def gaussian_kernels(g: Grid) -> tuple[GaussianSource, GaussianSource]:
    """The kernels of :func:`small_problem` as sources, not samples."""
    return GaussianSource(g, GaussianSpec(1.0, 1.0)), GaussianSource(g, GaussianSpec(0.9, 0.8))


def test_derived_problems_share_the_spectral_cache():
    base = small_problem(eps=0.03)
    for p in (base, small_problem(eps=0.03, kernels=gaussian_kernels(base.grid))):
        check_derived_problems_share_the_spectral_cache(p)


def check_derived_problems_share_the_spectral_cache(p: Problem) -> None:
    g2 = quadratic_nonlinearity([np.eye(2), np.eye(2)], label="other")
    same_eps = p.with_nonlinearity(g2)
    doubled = p.with_eps(0.06)
    # computed on a derived problem, the background exists once for all
    assert doubled.background is p.background
    assert same_eps.background is p.background
    assert same_eps.background_h4 == p.background_h4
    assert same_eps.background_dropped == p.background_dropped
    x = np.random.default_rng(0).standard_normal(p.grid.npoints)
    for m, H in enumerate(p.kernels):
        first = p.coupled_coeffs(m, x)
        # made on first use and held: a Gaussian's d factors, a sample's half spectrum
        factors, row = held = p._coupling[m]
        if isinstance(H, GaussianSource):
            assert row is None and [f.shape for f in factors] == [(n,) for n in p.grid.half_shape]
        else:
            assert factors is None and row.shape == p.grid.half_shape
            # shared arrays cannot be changed through one of the problems
            assert not row.flags.writeable
        assert np.array_equal(same_eps.coupled_coeffs(m, x), first)
        assert same_eps._coupling[m] is held
        # the coupling scales with eps, so with_eps must not reuse it
        assert np.array_equal(doubled.coupled_coeffs(m, x), 2.0 * first)
        assert doubled._coupling[m] is not held
    assert not p.background.values.flags.writeable


@pytest.mark.parametrize("d,n,L", [(5, 8, 3.0), (6, 6, 2.5), (7, 4, 2.0)])
def test_gaussian_coeffs_and_norms_are_those_of_its_samples(d, n, L):
    """A Gaussian source's closed-form coefficients and L^1/L^2 norms equal
    forward_coeffs, norm_l1 and norm_l2 of its samples to 1e-14, off
    centre and at odd widths; a zero source's are exactly 0."""
    g = Grid(d=d, n=n, L=L)
    specs = (GaussianSpec(0.77, -1.3, center=[0.31 * j - 0.45 for j in range(d)]),
             GaussianSpec(1.3, 0.6, center=0.45))
    for spec in specs:
        source = GaussianSource(g, spec)
        samples = source.sample()
        expected = forward_coeffs(g, samples.values)
        out = np.empty(g.half_shape, dtype=np.complex128)
        assert source.coeffs(out=out) is out
        assert np.max(np.abs(out - expected)) <= 1e-14 * np.max(np.abs(expected))
        l1, l2 = source.norms()
        assert l1 == pytest.approx(norm_l1(samples), rel=1e-14)
        assert l2 == pytest.approx(norm_l2(samples), rel=1e-14)
        assert samples.norms() == (norm_l1(samples), norm_l2(samples))
        assert np.array_equal(samples.coeffs(), expected)
    zero = GaussianSource(g, GaussianSpec(amplitude=0.0))
    assert not np.any(zero.coeffs())
    assert zero.norms() == (0.0, 0.0)


def test_derived_problems_share_the_data_report():
    p = small_problem(eps=0.03)
    g2 = quadratic_nonlinearity([np.eye(2), np.eye(2)], label="other")
    # measured on a derived problem before any background exists
    report = validate_problem_data(p.with_eps(0.06))
    assert validate_problem_data(p) is report
    assert validate_problem_data(p.with_nonlinearity(g2)) is report
    # the cached report does not stand in for the background
    assert p.background_h4 == pytest.approx(norm_h4_vector(p.background), rel=1e-13)
    # dataclasses.replace starts with empty caches
    halved = dataclasses.replace(p, forcings=tuple(
        RealField(p.grid, 0.5 * f.values) for f in p.forcings
    ))
    assert validate_problem_data(halved).forcing_l2 == pytest.approx(
        [0.5 * v for v in report.forcing_l2], rel=1e-15
    )
    assert halved.background_h4 == pytest.approx(0.5 * p.background_h4, rel=1e-13)


def test_background_and_coupling_match_their_definitions():
    """Both for samples and for Gaussian sources (closed-form coefficients
    and folded kernel factors)."""
    base = small_problem(eps=0.03)
    g = base.grid
    forcings = (GaussianSource(g, GaussianSpec(1.2, 0.05)),
                GaussianSource(g, GaussianSpec(1.1, -0.03)))
    x = np.random.default_rng(1).standard_normal(g.npoints)
    for p in (base, small_problem(eps=0.03, kernels=gaussian_kernels(g), forcings=forcings)):
        for m in range(2):
            u0, dropped = solve_linear(p.forcings[m].sample())
            scale = np.max(np.abs(u0.values))
            assert_allclose(p.background.values[m], u0.reshaped(), rtol=0, atol=1e-14 * scale)
            assert p.background_dropped[m] == pytest.approx(dropped, rel=1e-15)
            k_hat = forward_coeffs(g, np.fft.ifftshift(p.kernels[m].sample().reshaped()))
            expected = 0.03 * TWO_PI ** (g.d / 2.0) * k_hat * forward_coeffs(g, x)
            got = p.coupled_coeffs(m, x)
            assert_allclose(got, expected, rtol=0, atol=1e-15 * np.max(np.abs(expected)))
        assert p.background_h4 == pytest.approx(norm_h4_vector(p.background), rel=1e-13)


def test_validate_problem_data_aggregates_constant_kernels():
    g = Grid(d=5, n=4, L=1.0)
    vol = (2.0 * g.L) ** g.d
    k1 = RealField(g, np.full(g.npoints, 3.0))
    k2 = RealField(g, np.full(g.npoints, -4.0))
    rep = validate_problem_data(small_problem(L=1.0, kernels=(k1, k2), forcings=(k1, k2)))
    assert rep.kernel_l1_rss == pytest.approx(vol * 5.0, rel=1e-13)  # hypot(3, 4) * vol
    assert rep.kernel_l2_rss == pytest.approx(np.sqrt(vol) * 5.0, rel=1e-13)


# ---------------------------------------------------------------------------
# validators
# ---------------------------------------------------------------------------

def test_validate_problem_data_passes_on_reference_style_instance():
    rep = validate_problem_data(small_problem())
    assert rep.failures == ()
    assert rep.kernel_l1_rss == pytest.approx(
        np.hypot(rep.kernel_l1[0], rep.kernel_l1[1]), rel=1e-14
    )
    d = _jsonable(rep)
    assert d["failures"] == []
    assert len(d["forcing_l2"]) == 2


def test_validate_problem_data_flags_trivial_data():
    """All forcings (kernels) zero is trivial; one zero beside a Gaussian is not."""
    g = Grid(d=5, n=4, L=4.0)
    zero = build_field(g, {"constructor": "zero"})
    rep = validate_problem_data(small_problem(forcings=(zero, zero)))
    assert rep.failures == ("forcing_nontrivial",)
    rep = validate_problem_data(small_problem(kernels=(zero, zero)))
    assert rep.failures == ("kernel_nontrivial",)
    p = small_problem()
    for fields in (dict(forcings=(zero, p.forcings[1])), dict(kernels=(p.kernels[0], zero))):
        assert validate_problem_data(small_problem(**fields)).failures == ()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("amplitude", [1e153, 1e160])
def test_validate_problem_data_flags_overflowing_norms(amplitude):
    """1e153: finite norms whose squares overflow the aggregate; 1e160: the
    L^2 norm itself overflows.  Flagged, with no numpy warning."""
    p = small_problem()
    big = GaussianSpec(1.0, amplitude).sample(p.grid)
    rep = validate_problem_data(small_problem(kernels=(big, p.kernels[1])))
    assert rep.failures == ("norms_finite",)
    assert rep.kernel_l1_rss == np.inf
    assert np.isfinite(rep.kernel_l1[0])


def test_validate_nonlinearity_passes_with_ample_bound():
    g = quadratic_nonlinearity([np.eye(2), np.eye(2)])
    rep = validate_nonlinearity(g, radius=0.5, c2_bound=100.0)
    assert rep.failures == ()
    assert rep.value_at_zero == 0.0
    assert rep.gradient_at_zero == 0.0
    assert _jsonable(rep)["c2_method"] == "analytic"


def test_validate_nonlinearity_failure_clauses():
    N = 2

    def zeros_grad(z):
        return np.zeros(np.shape(z)[:-1] + (N, N))

    def zeros_hess(z):
        return np.zeros(np.shape(z)[:-1] + (N, N, N))

    constant = Nonlinearity(
        N=N, eval=lambda z: np.ones_like(np.asarray(z, dtype=float)),
        grad=zeros_grad, hess=zeros_hess,
    )
    rep = validate_nonlinearity(constant, 0.5, 100.0)
    assert "vanishes_at_origin" in rep.failures

    def identity_grad(z):
        out = np.zeros(np.shape(z)[:-1] + (N, N))
        out[...] = np.eye(N)
        return out

    identity = Nonlinearity(
        N=N, eval=lambda z: np.asarray(z, dtype=float),
        grad=identity_grad, hess=zeros_hess,
    )
    rep = validate_nonlinearity(identity, 0.5, 100.0)
    # no closed-form C^2 norm: inf, and no certificate
    assert rep.failures == ("gradient_vanishes_at_origin", "c2_analytic", "c2_within_bound")
    assert rep.c2_norm == np.inf and rep.c2_method == "unavailable"

    zero = quadratic_nonlinearity([np.zeros((N, N))] * N)
    rep = validate_nonlinearity(zero, 0.5, 100.0)
    assert rep.failures == ("nontrivial_on_ball",)

    big = quadratic_nonlinearity([100.0 * np.eye(2), 100.0 * np.eye(2)])
    rep = validate_nonlinearity(big, 0.5, c2_bound=1.0)
    assert rep.failures == ("c2_within_bound",)
