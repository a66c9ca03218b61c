"""Certified constants: geometry, split optimum, contraction thresholds."""

import math

import mpmath
import numpy as np
import pytest
from scipy import integrate, optimize

import nlrd.model
from nlrd.bounds import (
    BadDimension,
    ContractionNotStrict,
    NonPositiveAlpha,
    apriori_bound_raw,
    compute_bounds,
    continuity_bound_raw,
    coupling_threshold_raw,
    frequency_split_minimum,
    lattice_embedding_constant,
    lipschitz_coefficient_raw,
    radial_weight_integral,
    sobolev_embedding_constant,
    sphere_measure,
)
from nlrd.cli import _jsonable
from nlrd.config import build_field
from nlrd.lattice import Grid, h4_norm_sq_coeffs, half_squared_wavenumber, inverse_values
from nlrd.model import GaussianSpec, Problem, quadratic_nonlinearity
from nlrd.solver import picard

TWO_PI = 2.0 * np.pi


def random_raw_instance(rng) -> dict:
    return dict(
        d=int(rng.choice([5, 6, 7])),
        c2_bound=float(10.0 ** rng.uniform(-1, 1)),
        kernel_l1_rss=float(10.0 ** rng.uniform(-1, 2)),
        kernel_l2_rss=float(10.0 ** rng.uniform(-1, 2)),
        background_h4=float(rng.uniform(0.0, 3.0)),
    )


def tiny_problem(g: Grid = Grid(d=5, n=4, L=4.0), **overrides) -> Problem:
    fields = dict(
        grid=g,
        eps=(0.0, 0.0),
        kernels=(GaussianSpec(1.0, 1.0).sample(g), GaussianSpec(0.9, 0.8).sample(g)),
        forcings=(GaussianSpec(1.2, 0.05).sample(g), GaussianSpec(1.1, -0.03).sample(g)),
        nonlinearity=quadratic_nonlinearity(
            [np.array([[1.0, 0.3], [0.3, 0.5]]), np.array([[0.2, -0.4], [-0.4, 1.0]])]
        ),
    )
    fields.update(overrides)
    return Problem(**fields)


# ---------------------------------------------------------------------------
# geometric constants
# ---------------------------------------------------------------------------

def test_sphere_measures_match_closed_forms():
    assert sphere_measure(5) == pytest.approx(8.0 * np.pi**2 / 3.0, abs=1e-12)
    assert sphere_measure(6) == pytest.approx(np.pi**3, abs=1e-12)
    assert sphere_measure(7) == pytest.approx(16.0 * np.pi**3 / 15.0, abs=1e-12)
    assert sphere_measure(1) == pytest.approx(2.0, abs=1e-14)
    assert sphere_measure(2) == pytest.approx(TWO_PI, abs=1e-14)
    assert sphere_measure(3) == pytest.approx(4.0 * np.pi, abs=1e-13)
    with pytest.raises(BadDimension):
        sphere_measure(0)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6, 7])
def test_radial_weight_integral_against_quadrature(d):
    closed = radial_weight_integral(d)
    quad, err = integrate.quad(
        lambda r: r ** (d - 1) / (1.0 + r**8), 0.0, np.inf, limit=200
    )
    assert closed == pytest.approx(quad, rel=1e-10)
    assert closed == pytest.approx((np.pi / 8.0) / np.sin(np.pi * d / 8.0), rel=1e-14)


def test_radial_weight_integral_domain():
    for d in (0, 8, 9):
        with pytest.raises(BadDimension):
            radial_weight_integral(d)


def test_sobolev_embedding_constant_values():
    for d in (5, 6, 7):
        c = sobolev_embedding_constant(d)
        expected = TWO_PI ** (-d / 2.0) * math.sqrt(
            sphere_measure(d) * radial_weight_integral(d)
        )
        assert c == pytest.approx(expected, rel=1e-14)
        assert 0.0 < c < 1.0
    with pytest.raises(BadDimension):
        sobolev_embedding_constant(8)


@pytest.mark.parametrize("d,n,L", [(5, 8, 1.5), (6, 6, 4.0), (7, 4, 8.0)])
def test_lattice_embedding_constant_is_attained(d, n, L):
    """F_k = 1 / (1 + |p_k|^8) meets max |u| <= c_h |u|_H4 with equality."""
    grid = Grid(d=d, n=n, L=L)
    hats = (1.0 / (1.0 + half_squared_wavenumber(grid) ** 4)).astype(complex)
    sup = np.max(np.abs(inverse_values(grid, hats)))
    h4 = math.sqrt(h4_norm_sq_coeffs(grid, hats))
    assert sup == pytest.approx(lattice_embedding_constant(grid) * h4, rel=1e-13)


@pytest.mark.parametrize("L,lattice_wins", [(1.5, True), (8.0, False)])
def test_state_ball_takes_the_larger_embedding_constant(L, lattice_wins):
    """On a small box the lattice constant c_h exceeds c_e and sizes the state
    ball; on a large box the ball is c_e (|u0|_H4 + 1), bit for bit."""
    p = tiny_problem(Grid(d=5, n=4, L=L), c2_bound=100.0)
    rep = compute_bounds(p, p.background_h4, budget=500)
    c_e, c_h = rep.sobolev_constant, rep.lattice_sobolev_constant
    assert (c_h > c_e) == lattice_wins
    if lattice_wins:
        assert rep.state_ball_radius == pytest.approx(c_h * (rep.background_h4 + 1.0), rel=1e-14)
    else:
        assert rep.state_ball_radius == c_e * (rep.background_h4 + 1.0)


# ---------------------------------------------------------------------------
# frequency-split optimum
# ---------------------------------------------------------------------------

def test_split_minimum_plugin_values():
    r, v = frequency_split_minimum(4.0, 5)
    assert r == pytest.approx(1.0, abs=1e-12)
    assert v == pytest.approx(5.0, abs=1e-12)
    r, v = frequency_split_minimum(2.0, 6)
    assert r == pytest.approx(1.0, abs=1e-12)
    assert v == pytest.approx(3.0, abs=1e-12)


def test_split_minimum_stationarity_and_value_formula():
    rng = np.random.default_rng(0)
    for _ in range(50):
        alpha = float(10.0 ** rng.uniform(-2, 1))
        d = int(rng.choice([5, 6, 7]))
        r, v = frequency_split_minimum(alpha, d)
        # stationarity: alpha (d-4) r^d = 4
        assert alpha * (d - 4) * r**d == pytest.approx(4.0, rel=1e-12)
        assert v == pytest.approx(alpha * r ** (d - 4) + r ** (-4.0), rel=1e-14)


def test_split_minimum_agrees_with_golden_section_search():
    rng = np.random.default_rng(1)
    for _ in range(20):
        alpha = float(10.0 ** rng.uniform(-2, 1))
        d = int(rng.choice([5, 6, 7]))
        r_star, v_star = frequency_split_minimum(alpha, d)

        def objective(r):
            return alpha * r ** (d - 4) + r ** (-4.0)

        xs = np.geomspace(1e-2, 50.0, 400)
        i = int(np.argmin(objective(xs)))
        assert 0 < i < len(xs) - 1, "scan bracket missed the optimum"
        xmin = optimize.golden(objective, brack=(xs[i - 1], xs[i], xs[i + 1]), tol=1e-12)
        # double-precision golden section localizes a minimum only to about
        # sqrt(machine eps) relative, so allow that floor on the position
        assert abs(xmin - r_star) <= 5e-8 * max(1.0, r_star)
        assert abs(objective(xmin) - v_star) <= 1e-10 * max(1.0, abs(v_star))


def test_split_minimum_rejects_bad_inputs():
    with pytest.raises(NonPositiveAlpha):
        frequency_split_minimum(0.0, 5)
    with pytest.raises(NonPositiveAlpha):
        frequency_split_minimum(-1.0, 5)
    with pytest.raises(BadDimension):
        frequency_split_minimum(1.0, 4)
    with pytest.raises(BadDimension):
        frequency_split_minimum(1.0, 5.5)


# ---------------------------------------------------------------------------
# raw contraction constants
# ---------------------------------------------------------------------------

def test_frozen_unit_instance():
    # independently derived 50-digit evaluations of the closed forms
    kappa = lipschitz_coefficient_raw(5, 1.0, 1.0, 1.0, 0.0)
    eps_max = coupling_threshold_raw(5, 1.0, 1.0, 1.0, 1.0, 0.0)
    assert kappa == pytest.approx(1.0072147863074816958, rel=1e-12)
    assert eps_max == pytest.approx(0.99283689397180953239, rel=1e-12)
    assert kappa * eps_max == pytest.approx(1.0, rel=1e-14)  # rho / b with b = 1


def test_threshold_identity_and_apriori_scaling():
    rng = np.random.default_rng(7)
    for _ in range(30):
        inst = random_raw_instance(rng)
        rho = float(rng.uniform(0.1, 1.0))
        b = inst["background_h4"] + 1.0
        kappa = lipschitz_coefficient_raw(**inst)
        eps_max = coupling_threshold_raw(
            inst["d"], rho, inst["c2_bound"], inst["kernel_l1_rss"],
            inst["kernel_l2_rss"], inst["background_h4"],
        )
        assert eps_max * kappa == pytest.approx(rho / b, rel=1e-12)
        eps = 0.5 * eps_max
        apriori = apriori_bound_raw(
            inst["d"], eps, inst["c2_bound"], inst["kernel_l1_rss"],
            inst["kernel_l2_rss"], inst["background_h4"],
        )
        assert apriori == pytest.approx(eps * kappa * b, rel=1e-12)
        # at the threshold itself the map is non-expanding on the unit ball
        assert eps_max * kappa <= 1.0 + 1e-14


def test_lipschitz_collapses_without_distributed_kernel_mass():
    # with zero L^1 aggregate only the L^2 term survives the bracket
    for d in (5, 6, 7):
        got = lipschitz_coefficient_raw(d, 1.5, 0.0, 2.0, 0.5)
        assert got == pytest.approx(1.5 * 1.5 * 2.0, rel=1e-14)


def test_lipschitz_monotonicity():
    base = dict(d=5, c2_bound=1.0, kernel_l1_rss=1.0, kernel_l2_rss=1.0,
                background_h4=0.5)
    kappa0 = lipschitz_coefficient_raw(**base)
    for key, factor in [("c2_bound", 2.0), ("kernel_l1_rss", 2.0),
                        ("kernel_l2_rss", 2.0), ("background_h4", 3.0)]:
        bumped = dict(base, **{key: base[key] * factor})
        assert lipschitz_coefficient_raw(**bumped) > kappa0
    # threshold moves the other way, and is linear in rho
    args = (base["c2_bound"], base["kernel_l1_rss"], base["kernel_l2_rss"],
            base["background_h4"])
    t1 = coupling_threshold_raw(5, 0.25, *args)
    t2 = coupling_threshold_raw(5, 0.5, *args)
    assert t2 == pytest.approx(2.0 * t1, rel=1e-14)
    worse = coupling_threshold_raw(5, 0.25, args[0], 2.0 * args[1], args[2], args[3])
    assert worse < t1


def test_raw_layer_rejects_underived_dimensions():
    for d in (4, 8):
        with pytest.raises(BadDimension):
            lipschitz_coefficient_raw(d, 1.0, 1.0, 1.0, 0.0)


def test_continuity_bound_raw_values_and_guard():
    assert continuity_bound_raw(0.5, 1.0, 1.0, 0.0, 0.0) == 0.0
    # eps kappa = 1/2, c2 = 1, b = 1, gap = 1 -> (1/2) / (1/2) * 1 * 1 = 1
    assert continuity_bound_raw(0.5, 1.0, 1.0, 0.0, 1.0) == pytest.approx(1.0, rel=1e-14)
    with pytest.raises(ContractionNotStrict):
        continuity_bound_raw(1.0, 1.0, 1.0, 0.0, 1.0)
    with pytest.raises(ContractionNotStrict):
        continuity_bound_raw(2.0, 1.0, 1.0, 0.0, 1.0)


def test_raw_formulas_against_high_precision_arithmetic():
    rng = np.random.default_rng(21)
    with mpmath.workdps(50):
        for _ in range(10):
            inst = random_raw_instance(rng)
            rho = float(rng.uniform(0.1, 1.0))
            gap = float(rng.uniform(0.0, 0.5))
            d = inst["d"]
            q, l1, l2, u0 = (inst["c2_bound"], inst["kernel_l1_rss"],
                             inst["kernel_l2_rss"], inst["background_h4"])
            md, mq, ml1, ml2, mu0 = map(mpmath.mpf, (d, q, l1, l2, u0))
            b = mu0 + 1
            two_pi = 2 * mpmath.pi
            s_d = 2 * mpmath.pi ** (md / 2) / mpmath.gamma(md / 2)
            bracket = (
                ml1**2 * b ** (mpmath.mpf(8) / md - 2)
                * (s_d / 4) ** (mpmath.mpf(4) / md)
                * md / ((md - 4) * two_pi**4)
                + ml2**2
            )
            kappa_hp = mq * b * mpmath.sqrt(bracket)
            eps_max_hp = mpmath.mpf(rho) / (b * kappa_hp)
            eps_hp = eps_max_hp / 2
            apriori_hp = eps_hp * kappa_hp * b
            ek = eps_hp * kappa_hp
            cont_hp = ek / (mq * (1 - ek)) * b * mpmath.mpf(gap)

            kappa = lipschitz_coefficient_raw(d, q, l1, l2, u0)
            eps_max = coupling_threshold_raw(d, rho, q, l1, l2, u0)
            apriori = apriori_bound_raw(d, eps_max / 2.0, q, l1, l2, u0)
            cont = continuity_bound_raw(eps_max / 2.0, kappa, q, u0, gap)
            assert kappa == pytest.approx(float(kappa_hp), rel=1e-12)
            assert eps_max == pytest.approx(float(eps_max_hp), rel=1e-12)
            assert apriori == pytest.approx(float(apriori_hp), rel=1e-12)
            assert cont == pytest.approx(float(cont_hp), rel=1e-12, abs=1e-300)


# ---------------------------------------------------------------------------
# validated problem-level layer
# ---------------------------------------------------------------------------

def test_compute_bounds_report_consistency():
    # c2_bound must dominate the C^2 norm of the raw matrices on the state ball
    p = tiny_problem(eps=(0.01, 0.02), c2_bound=100.0)
    rep = compute_bounds(p, background_h4=0.3, budget=2000)
    assert rep.d == 5
    assert rep.eps == (0.01, 0.02)
    assert rep.eps_used == 0.02
    assert rep.contraction_constant == pytest.approx(0.02 * rep.lipschitz_coeff, rel=1e-14)
    assert rep.contractive == (rep.contraction_constant < 1.0)
    assert rep.eps_max * rep.lipschitz_coeff == pytest.approx(
        rep.rho / (rep.background_h4 + 1.0), rel=1e-13
    )
    assert rep.state_ball_radius == pytest.approx(
        rep.sobolev_constant * (rep.background_h4 + 1.0), rel=1e-14
    )
    assert rep.apriori_bound == pytest.approx(
        0.02 * rep.lipschitz_coeff * (rep.background_h4 + 1.0), rel=1e-14
    )
    d = _jsonable(rep)
    for key in ("eps_max", "lipschitz_coeff", "contraction_constant",
                "apriori_bound", "sobolev_constant", "kernel_l1_rss"):
        assert key in d
    assert d["eps"] == [0.01, 0.02]


def test_validated_layer_requires_sound_data():
    g = Grid(d=5, n=4, L=4.0)
    zero = build_field(g, {"constructor": "zero"})
    p = tiny_problem(forcings=(zero, zero))
    rep = compute_bounds(p, background_h4=0.0, budget=500)
    assert "forcing_nontrivial" in rep.failures
    # the failed validation still carries the formulas' values, uncertified
    assert rep.eps_max > 0.0


@pytest.mark.parametrize(
    "amplitude,clause,eps_max",
    [(0.0, "kernel_nontrivial", math.inf), (1e200, "norms_finite", 0.0)],
)
def test_degenerate_kernels_fail_validation_not_arithmetic(amplitude, clause, eps_max):
    g = Grid(d=5, n=4, L=4.0)
    p = tiny_problem(kernels=(GaussianSpec(1.0, amplitude).sample(g),) * 2, c2_bound=10.0)
    with np.errstate(over="ignore"):
        rep = compute_bounds(p, p.background_h4, budget=500)
    assert clause in rep.failures
    assert rep.eps_max == eps_max


def test_each_norm_is_taken_once_per_certification(monkeypatch):
    """compute_bounds measures each kernel and forcing once (2N calls of
    norm_l1 and of norm_l2), and so does picard on a problem that fails
    validation: the uncertified report reuses the failed pass."""
    calls = {"norm_l1": 0, "norm_l2": 0}
    for name in calls:
        def counted(f, _original=getattr(nlrd.model, name), _name=name):
            calls[_name] += 1
            return _original(f)
        monkeypatch.setattr(nlrd.model, name, counted)
    p = tiny_problem(eps=(0.01, 0.01), c2_bound=10.0)
    N = p.n_components
    compute_bounds(p, p.background_h4, budget=500)
    assert calls == {"norm_l1": 2 * N, "norm_l2": 2 * N}
    zero = build_field(p.grid, {"constructor": "zero"})
    failing = tiny_problem(eps=(0.01, 0.01), c2_bound=10.0, kernels=(zero, zero))
    calls.update(norm_l1=0, norm_l2=0)
    rep = picard(failing, tol=1e-10, max_iter=10, budget=500)
    assert "kernel_nontrivial" in rep.bounds.failures
    assert calls == {"norm_l1": 2 * N, "norm_l2": 2 * N}


def test_validated_wrappers_agree_with_report():
    """compute_bounds evaluates the same formulas as the raw layer."""
    p = tiny_problem(eps=(0.01, 0.01), c2_bound=10.0)
    rep = compute_bounds(p, background_h4=0.2, budget=2000)
    raw = (p.d, p.c2_bound, rep.kernel_l1_rss, rep.kernel_l2_rss, 0.2)
    kappa = lipschitz_coefficient_raw(*raw)
    assert kappa == pytest.approx(rep.lipschitz_coeff, rel=1e-14)
    eps_max = coupling_threshold_raw(p.d, p.rho, *raw[1:])
    assert eps_max == pytest.approx(rep.eps_max, rel=1e-14)
    apriori = apriori_bound_raw(p.d, rep.eps_used, *raw[1:])
    assert apriori == pytest.approx(rep.apriori_bound, rel=1e-14)
