"""Lattice geometry, unitary transforms, and spectral norms."""

import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose
from conftest import blocked_weight, traced_peak
from scipy import integrate

from nlrd.lattice import (
    Grid,
    RealField,
    VectorField,
    forward_coeffs,
    h4_norm_sq_coeffs,
    h4_shells,
    h4_weight,
    half_squared_wavenumber,
    hermitian_weight,
    inverse_stack,
    inverse_values,
    l2_norm_sq_coeffs,
    norm_h4_coeffs,
    norm_h4_vector,
    norm_l1,
    norm_l2,
    shell_blocks,
)
from nlrd.model import GaussianSpec
from nlrd.bounds import sphere_measure
from nlrd.solver import _envelope_shells
from nlrd.spectral import inverse_shells, symbol_shells

TWO_PI = 2.0 * np.pi


def random_field(grid: Grid, seed: int) -> RealField:
    rng = np.random.default_rng(seed)
    return RealField(grid, rng.standard_normal(grid.npoints))


def dft_oracle(grid: Grid, f: RealField) -> np.ndarray:
    """Brute-force centered DFT straight from the definition (O(P^2))."""
    x = grid.axis_coords()
    p = grid.axis_wavenumbers()
    vals = f.reshaped()
    coeffs = np.zeros(grid.shape, dtype=complex)
    for k_idx in np.ndindex(grid.shape):
        pk = np.array([p[i] for i in k_idx])
        acc = 0.0 + 0.0j
        for j_idx in np.ndindex(grid.shape):
            xj = np.array([x[i] for i in j_idx])
            acc += vals[j_idx] * np.exp(-1j * np.dot(pk, xj))
        coeffs[k_idx] = acc
    return TWO_PI ** (-grid.d / 2.0) * grid.h**grid.d * coeffs


def half_of(grid: Grid, F: np.ndarray) -> np.ndarray:
    """Natural-layout half spectrum of a centred FFT-order spectrum F.

    ``forward_coeffs`` keeps the last-axis modes 0 .. n/2 of F, moved to
    the front, each times (-1)^(k_1 + ... + k_d) (see the lattice module
    docstring).
    """
    k = np.indices(grid.half_shape).sum(axis=0)
    return np.moveaxis(F[..., : grid.n // 2 + 1], -1, 0) * (-1.0) ** k


# ---------------------------------------------------------------------------
# grid geometry
# ---------------------------------------------------------------------------

def test_grid_spacings():
    g = Grid(d=3, n=8, L=2.0)
    assert g.h == pytest.approx(0.5)
    assert g.dp == pytest.approx(np.pi / 2.0)
    assert g.h * g.dp == pytest.approx(TWO_PI / g.n)
    assert g.shape == (8, 8, 8)
    assert g.npoints == 512
    x = g.axis_coords()
    assert x[0] == pytest.approx(-2.0)
    assert x[-1] == pytest.approx(2.0 - g.h)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"d": 0, "n": 4, "L": 1.0},
        {"d": 2, "n": 5, "L": 1.0},
        {"d": 2, "n": 0, "L": 1.0},
        {"d": 2, "n": 4, "L": 0.0},
        {"d": 2, "n": 4, "L": -3.0},
        {"d": 2, "n": 4, "L": float("inf")},
        # dp^d overflows, h^d underflows
        {"d": 5, "n": 4, "L": 1e-300},
        # h^d overflows
        {"d": 5, "n": 4, "L": 1e160},
        # booleans are not numbers
        {"d": True, "n": 4, "L": 1.0},
        {"d": 5, "n": 4, "L": True},
        {"d": 5, "n": 4, "L": np.bool_(True)},
    ],
)
def test_grid_rejects_bad_parameters(kwargs):
    with pytest.raises(ValueError):
        Grid(**kwargs)


def test_field_containers_validate():
    g = Grid(d=2, n=4, L=1.0)
    with pytest.raises(ValueError):
        RealField(g, np.zeros(7))
    with pytest.raises(ValueError):
        RealField(g, np.full(16, np.nan))
    with pytest.raises(ValueError):
        VectorField(())
    other = Grid(d=2, n=6, L=1.0)
    with pytest.raises(ValueError):
        VectorField((RealField(g, np.zeros(g.npoints)), RealField(other, np.zeros(other.npoints))))


@pytest.mark.parametrize(
    "shape",
    [(0, 4, 4), (4, 4), (2, 16), (2, 4, 6), (2, 4, 4, 1), (1, 2, 4, 4)],
)
def test_vector_field_rejects_wrong_stack_shapes(shape):
    g = Grid(d=2, n=4, L=1.0)
    with pytest.raises(ValueError, match="shape"):
        VectorField(g, np.zeros(shape))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_vector_field_rejects_non_finite_values(bad):
    g = Grid(d=2, n=4, L=1.0)
    values = np.zeros((2,) + g.shape)
    values[1, 2, 3] = bad
    with pytest.raises(ValueError, match="finite"):
        VectorField(g, values)


def test_vector_field_is_one_stack_with_component_views():
    g = Grid(d=2, n=4, L=1.0)
    values = np.arange(3.0 * g.npoints).reshape((3,) + g.shape)
    u = VectorField(g, values)
    assert u.values is values  # float64 and contiguous: taken without a copy
    assert u.n_components == 3
    for m, comp in enumerate(u.components):
        assert comp.grid == g
        assert np.shares_memory(comp.values, u.values)
        assert np.array_equal(comp.values, values[m].reshape(-1))
    # a sequence of components is stacked into the same layout
    again = VectorField(u.components)
    assert again.grid == g
    assert np.array_equal(again.values, values)
    assert not np.shares_memory(again.values, values)
    z = VectorField.zeros(g, 2)
    assert z.values.shape == (2,) + g.shape and not z.values.any()


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("d,n", [(1, 6), (2, 4)])
def test_forward_matches_direct_dft(d, n):
    g = Grid(d=d, n=n, L=1.7)
    f = random_field(g, seed=10 * d + n)
    half = forward_coeffs(g, f.values)
    assert half.shape == g.half_shape
    assert_allclose(half, half_of(g, dft_oracle(g, f)), rtol=0, atol=1e-12)


def test_constant_field_transforms_to_zero_mode():
    c = 0.8
    g = Grid(d=1, n=8, L=3.0)
    F = forward_coeffs(g, np.full(g.npoints, c))
    expected0 = TWO_PI ** (-0.5) * 2.0 * g.L * c
    assert F[0] == pytest.approx(expected0, rel=1e-14)
    assert np.max(np.abs(F[1:])) <= 1e-14 * abs(expected0)


def test_single_cosine_splits_into_two_modes():
    # the half spectrum keeps the +dp mode; its -dp partner is its conjugate
    g = Grid(d=1, n=8, L=2.0)
    x = g.axis_coords()
    F = forward_coeffs(g, np.cos(g.dp * x))
    expected = TWO_PI ** (-0.5) * (2.0 * g.L) / 2.0
    assert F[1] == pytest.approx(-expected, rel=1e-13)  # sign (-1)^1
    others = np.delete(F, 1)
    assert np.max(np.abs(others)) <= 1e-13 * expected
    assert l2_norm_sq_coeffs(g, F) == pytest.approx(2.0 * g.dp * expected**2, rel=1e-13)


@pytest.mark.parametrize("d,n", [(1, 16), (2, 8), (3, 6), (5, 4)])
def test_round_trip_identity(d, n):
    g = Grid(d=d, n=n, L=2.5)
    f = random_field(g, seed=d * 100 + n)
    back = inverse_values(g, forward_coeffs(g, f.values))
    assert back.shape == g.shape
    err = np.max(np.abs(back.reshape(-1) - f.values))
    assert err <= 1e-12 * np.max(np.abs(f.values))


def test_transform_is_linear():
    g = Grid(d=2, n=8, L=1.0)
    f1 = random_field(g, seed=1)
    f2 = random_field(g, seed=2)
    a, b = 2.5, -1.25
    lhs = forward_coeffs(g, a * f1.values + b * f2.values)
    rhs = a * forward_coeffs(g, f1.values) + b * forward_coeffs(g, f2.values)
    assert_allclose(lhs, rhs, rtol=0, atol=1e-12 * np.max(np.abs(rhs)))


@pytest.mark.parametrize("d,n", [(1, 32), (2, 12), (3, 8)])
def test_parseval_identity(d, n):
    g = Grid(d=d, n=n, L=3.0)
    f = random_field(g, seed=d + n)
    phys = g.h**g.d * np.sum(f.values**2)
    spec = l2_norm_sq_coeffs(g, forward_coeffs(g, f.values))
    assert abs(phys - spec) <= 1e-12 * phys


@pytest.mark.parametrize("d,n", [(5, 2), (5, 6), (6, 2), (6, 4), (7, 2), (7, 4)])
def test_half_spectrum_norms_match_full_complex(d, n):
    """Hermitian-weighted half-spectrum sums equal the full-lattice sums."""
    g = Grid(d=d, n=n, L=2.5)
    f = random_field(g, seed=d * 10 + n)
    # centred full spectrum in FFT order, straight from numpy
    F = TWO_PI ** (-d / 2.0) * g.h**d * np.fft.fftn(np.fft.ifftshift(f.reshaped()))
    half = forward_coeffs(g, f.values)
    assert half.shape == g.half_shape
    full_h4 = g.dp**g.d * np.sum(h4_weight(g) * np.abs(F) ** 2)
    full_l2 = g.dp**g.d * np.sum(np.abs(F) ** 2)
    assert h4_norm_sq_coeffs(g, half) == pytest.approx(full_h4, rel=1e-13)
    assert l2_norm_sq_coeffs(g, half) == pytest.approx(full_l2, rel=1e-13)
    assert_allclose(half, half_of(g, F), rtol=0, atol=1e-13 * np.max(np.abs(F)))
    back = inverse_values(g, half)
    assert back.shape == g.shape
    assert_allclose(back.reshape(-1), f.values, rtol=0, atol=1e-12 * np.max(np.abs(f.values)))


# every d = 1 .. 7 with n in {2, 4, 6, 8, 10, 12}, up to 300 000 points
KERNEL_CASES = [
    (d, n) for d in range(1, 8) for n in (2, 4, 6, 8, 10, 12) if n**d <= 300_000
]


def strided_copy(a: np.ndarray) -> np.ndarray:
    """The values of ``a`` as a non-contiguous view into a larger array."""
    big = np.zeros(a.shape + (2,), dtype=a.dtype)
    big[..., 0] = a
    view = big[..., 0]
    assert not view.flags.c_contiguous
    return view


@pytest.mark.parametrize("d,n", KERNEL_CASES)
def test_forward_kernel_matches_numpy_rfftn(d, n):
    g = Grid(d=d, n=n, L=2.5)
    x = np.random.default_rng(d * 100 + n).standard_normal(g.shape)
    oracle = TWO_PI ** (-d / 2.0) * g.h**d * np.moveaxis(np.fft.rfftn(x), -1, 0)
    tol = 1e-13 * np.max(np.abs(oracle))
    for values in (x.reshape(-1), x, strided_copy(x)):
        got = forward_coeffs(g, values)
        assert got.shape == g.half_shape
        assert got.flags.c_contiguous
        assert_allclose(got, oracle, rtol=0, atol=tol)


@pytest.mark.parametrize("d,n", KERNEL_CASES)
def test_inverse_kernel_matches_numpy_irfftn(d, n):
    # random half spectra, not Hermitian-consistent: the imaginary parts of
    # the self-conjugate modes must be discarded as irfftn discards them
    g = Grid(d=d, n=n, L=2.5)
    rng = np.random.default_rng(d * 100 + n + 1)
    hat = rng.standard_normal(g.half_shape) + 1j * rng.standard_normal(g.half_shape)
    oracle = (
        TWO_PI ** (-d / 2.0) * g.dp**d * g.npoints
        * np.fft.irfftn(np.moveaxis(hat, 0, -1), s=g.shape, axes=tuple(range(d)))
    )
    tol = 1e-13 * np.max(np.abs(oracle))
    before = hat.copy()
    for coeffs in (hat, strided_copy(hat)):
        got = inverse_values(g, coeffs)
        assert got.shape == g.shape
        assert_allclose(got, oracle, rtol=0, atol=tol)
    assert np.array_equal(hat, before)


@pytest.mark.parametrize("d,n", [(1, 8), (2, 6), (3, 4), (4, 4), (5, 4), (6, 4), (7, 2)])
def test_transforms_write_into_out(d, n):
    """With ``out`` the transforms return it, holding exactly the result of
    the allocating call, and leave their input as it was."""
    g = Grid(d=d, n=n, L=2.5)
    rng = np.random.default_rng(d * 10 + n)
    x = rng.standard_normal((2,) + g.shape)
    hat = rng.standard_normal((2,) + g.half_shape) + 1j * rng.standard_normal((2,) + g.half_shape)
    inputs = x.copy(), hat.copy()
    for transform, source, shape, dtype in (
        (forward_coeffs, x[0], g.half_shape, complex),
        (inverse_values, hat[0], g.shape, float),
    ):
        out = np.full(shape, np.nan, dtype=dtype)
        assert transform(g, source, out=out) is out
        assert np.array_equal(out, transform(g, source))
    assert np.array_equal(inverse_stack(g, hat), np.stack([inverse_values(g, r) for r in hat]))
    assert np.array_equal(x, inputs[0]) and np.array_equal(hat, inputs[1])


@pytest.mark.parametrize("d,n", [(5, 6), (6, 4), (7, 4)])
def test_transforms_into_out_hold_their_scratch_arrays_only(d, n):
    """Into ``out``, the forward transform's d products alternate between
    out and one scratch array, and the inverse's d - 1 complex products
    between two: one and two one-component half spectra at the peak."""
    g = Grid(d=d, n=n, L=2.5)
    x = np.random.default_rng(d).standard_normal(g.shape)
    hat, back = np.empty(g.half_shape, dtype=complex), np.empty(g.shape)
    inverse_values(g, forward_coeffs(g, x, out=hat), out=back)  # fills the caches
    for transform, source, out, limit in (
        (forward_coeffs, x, hat, 1.1), (inverse_values, hat, back, 2.1)
    ):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            transform(g, source, out=out)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < limit * hat.nbytes
    assert_allclose(back, x, rtol=0, atol=1e-12)


@pytest.mark.parametrize("d,n", [(1, 8), (3, 4), (5, 4)])
def test_transforms_reject_unusable_out(d, n):
    """An ``out`` of the wrong shape or dtype, a non-contiguous view, or one
    that overlaps the input is refused; reshaping a strided view would
    otherwise write the result into a copy."""
    g = Grid(d=d, n=n, L=2.5)
    hat = forward_coeffs(g, np.random.default_rng(d).standard_normal(g.shape))
    # the samples share the first bytes of the coefficients' buffer
    real = hat.view(np.float64).reshape(-1)[: g.npoints].reshape(g.shape)
    before = hat.copy()
    for transform, source, shape, dtype in (
        (forward_coeffs, real, g.half_shape, np.complex128),
        (inverse_values, hat, g.shape, np.float64),
    ):
        padded = np.zeros(shape[:-1] + (2 * shape[-1],), dtype=dtype)
        for out in (
            padded[..., : shape[-1] + 1],
            np.empty(shape[::-1] + (1,), dtype=dtype),
            np.empty(shape, dtype=np.float32),
            np.empty(shape, dtype=np.complex128 if dtype is np.float64 else np.float64),
            padded[..., ::2],
        ):
            with pytest.raises(ValueError, match="C-contiguous"):
                transform(g, source, out=out)
        with pytest.raises(ValueError, match="overlap"):
            transform(g, source, out=real if transform is inverse_values else hat)
        assert np.array_equal(hat, before)


@pytest.mark.parametrize("d,n", [(5, 6), (6, 4), (7, 4)])
def test_transforms_take_their_scratch_from_the_caller(d, n):
    """Given ``scratch``, the forward transform takes its one scratch half
    spectrum and the inverse its two from the caller: the same bits as
    without, and no half spectrum allocated.  A scratch that overlaps the
    input, ``out`` or the other scratch is refused."""
    g = Grid(d=d, n=n, L=2.5)
    x = np.random.default_rng(d).standard_normal(g.shape)
    hat = forward_coeffs(g, x)
    back = inverse_values(g, hat)
    spare = np.empty((2,) + g.half_shape, dtype=complex)
    hat_out, back_out = np.empty_like(hat), np.empty_like(back)

    def both():
        forward_coeffs(g, x, out=hat_out, scratch=spare[0])
        inverse_values(g, hat, out=back_out, scratch=spare)

    both()  # fills the caches
    assert traced_peak(both) < 0.1 * hat.nbytes
    assert np.array_equal(hat_out, hat) and np.array_equal(back_out, back)
    for bad in (hat_out, np.empty(g.half_shape), spare[0].T):
        with pytest.raises(ValueError, match="scratch"):
            forward_coeffs(g, x, out=hat_out, scratch=bad)
    for bad in ((spare[0], spare[0]), (hat, spare[1]), (spare[0], spare[1][..., ::2])):
        with pytest.raises(ValueError, match="scratch"):
            inverse_values(g, hat, out=back_out, scratch=bad)


@pytest.mark.parametrize("d,n", [(1, 8), (2, 6), (3, 4), (5, 6)])
def test_self_conjugate_modes_are_exactly_real(d, n):
    """Modes with every index 0 or n/2 carry no imaginary part, exactly.

    The forward transform of real samples gives them none, and the inverse
    discards what a half spectrum puts there.
    """
    g = Grid(d=d, n=n, L=2.5)
    corners = list(itertools.product((0, n // 2), repeat=d))
    x = np.random.default_rng(d + n).standard_normal(g.shape)
    hat = forward_coeffs(g, x)
    assert all(hat[c].imag == 0.0 for c in corners)
    imaginary = np.zeros(g.half_shape, dtype=complex)
    for i, c in enumerate(corners):
        imaginary[c] = 1j * (i + 1)
    assert not np.any(inverse_values(g, imaginary))


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

def test_norms_of_zero_and_constant_fields():
    g = Grid(d=2, n=8, L=2.0)
    z = RealField(g, np.zeros(g.npoints))
    assert norm_l1(z) == norm_l2(z) == norm_h4_vector(VectorField((z,))) == 0.0
    c = -1.5
    f = RealField(g, np.full(g.npoints, c))
    box = (2.0 * g.L) ** g.d
    assert norm_l1(f) == pytest.approx(abs(c) * box, rel=1e-14)
    assert norm_l2(f) == pytest.approx(abs(c) * np.sqrt(box), rel=1e-14)
    # constant field concentrates on p = 0 where the H^4 weight is 1
    assert norm_h4_vector(VectorField((f,))) == pytest.approx(norm_l2(f), rel=1e-13)


@pytest.mark.parametrize("seed", range(5))
def test_h4_dominates_l2(seed):
    g = Grid(d=2, n=10, L=1.5)
    f = random_field(g, seed)
    assert norm_h4_vector(VectorField((f,))) >= norm_l2(f)


def test_single_mode_h4_weight():
    # with dp = 1 (L = pi) the |p| = 1 mode has weight 1 + 1 = 2
    g = Grid(d=2, n=8, L=np.pi)
    coords = g.coordinate_arrays()
    f = RealField(g, np.broadcast_to(np.cos(coords[0]), g.shape).reshape(-1).copy())
    assert norm_h4_vector(VectorField((f,))) == pytest.approx(np.sqrt(2.0) * norm_l2(f), rel=1e-12)


def test_h4_matches_radial_quadrature():
    # exp(-|x|^2 / 2) transforms to itself under the unitary convention, so
    # its squared H^4 norm is S_d * int (1 + r^8) exp(-r^2) r^(d-1) dr
    g = Grid(d=5, n=20, L=6.0)
    f = GaussianSpec(width=1.0, amplitude=1.0).sample(g)
    val, _ = integrate.quad(
        lambda r: (1.0 + r**8) * np.exp(-r * r) * r**4, 0.0, np.inf
    )
    oracle = np.sqrt(sphere_measure(5) * val)
    assert norm_h4_vector(VectorField((f,))) == pytest.approx(oracle, rel=1e-6)


def random_coeffs(grid: Grid, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal(grid.half_shape) + 1j * rng.standard_normal(grid.half_shape)


@pytest.mark.parametrize("d,n", [(1, 16), (2, 12), (3, 8), (4, 6), (5, 12), (6, 10), (7, 4), (7, 8)])
def test_blocked_norms_match_plain_sums(d, n):
    """The blocked H^4 sum, the row-wise L^2 sum and the H^4 norm of a
    difference equal dp^d sum w |c|^2 in plain numpy.  At d6 n10 (6 * 10^5
    coefficients) and d7 n4 the last block is a partial one."""
    g = Grid(d=d, n=n, L=2.5)
    a, b = random_coeffs(g, 2 * d * n), random_coeffs(g, 2 * d * n + 1)

    def plain(weight, c):
        return g.dp**d * np.sum(np.broadcast_to(weight, c.shape) * np.abs(c) ** 2)

    h4 = hermitian_weight(g) * (1.0 + half_squared_wavenumber(g) ** 4)
    h4_diff = plain(h4, a - b)
    assert h4_norm_sq_coeffs(g, a) == pytest.approx(plain(h4, a), rel=1e-13)
    assert l2_norm_sq_coeffs(g, a) == pytest.approx(plain(hermitian_weight(g), a), rel=1e-13)
    assert h4_norm_sq_coeffs(g, a, b) == pytest.approx(h4_diff, rel=1e-13)
    assert norm_h4_coeffs(g, [a, b], [b, a]) == pytest.approx(math.sqrt(2 * h4_diff), rel=1e-13)
    # an infinite coefficient gives an infinite norm, not inf * 0 = nan
    a[(0,) * d] = complex(np.inf, 1.0)
    assert h4_norm_sq_coeffs(g, a) == l2_norm_sq_coeffs(g, a) == math.inf


def direct_weights(grid: Grid) -> dict:
    """Each shell weight as a full-size formula on the half spectrum, with
    |p|^2 = dp^2 sum_j k_j^2 from full-size integer wavenumbers and the
    probe's sign as a product of per-axis signs (-1)^k_j."""
    k = np.rint(grid.axis_wavenumbers() / grid.dp).astype(int)
    axes = [k[: grid.n // 2 + 1]] + [k] * (grid.d - 1)
    p2 = grid.dp**2 * functools.reduce(np.add.outer, [a * a for a in axes])
    sign = functools.reduce(np.multiply.outer, [1 - 2 * (a % 2) for a in axes])
    sym = p2 + p2**2
    inverse = np.zeros_like(sym)
    inverse[sym > 0.0] = 1.0 / sym[sym > 0.0]
    return {
        h4_shells: hermitian_weight(grid) * (1.0 + p2**4),
        symbol_shells: sym,
        inverse_shells: inverse,
        _envelope_shells: sign / (1.0 + p2**4),
    }


@pytest.mark.parametrize("d,n", [(1, 2), (2, 6), (5, 10), (5, 12), (6, 10), (7, 8)])
def test_shell_blocks_give_the_full_size_weights(d, n):
    """The blocks of ``shell_blocks`` put together are each weight's
    full-size formula to 1e-15 relative, the H^4 weight with each block's
    Hermitian multiplicity: the H^4 norm weight, the operator symbol, its
    inverse (0 on the zero mode) and the probe's signed envelope.  Blocks
    are whole tail rows of one half-axis mode, in order, with a scratch of
    two floats per coefficient; at d5 n10 a slab (10^4 coefficients) is
    not a whole number of blocks."""
    g = Grid(d=d, n=n, L=2.5)
    for weight, direct in direct_weights(g).items():
        got = blocked_weight(g, weight, hermitian=weight is h4_shells)
        assert_allclose(got, direct, rtol=1e-15, atol=0.0)
    slab = n ** (d - 1)
    spans, last = [], 0
    for lo, hi, mult, scratch, w in shell_blocks(g, h4_shells):
        assert lo == last and len(w) == hi - lo and len(scratch) == 2 * (hi - lo)
        assert lo // slab == (hi - 1) // slab and (hi - lo) % (n if d > 1 else 1) == 0
        assert mult == hermitian_weight(g).reshape(-1)[lo // slab]
        spans.append(hi - lo)
        last = hi
    assert last == math.prod(g.half_shape)
    if (d, n) == (5, 10):
        assert slab % max(spans) != 0


@pytest.mark.parametrize("d,n", [(5, 16), (6, 10), (7, 8)])
def test_norms_hold_no_full_size_temporary(d, n):
    """Each norm, and the H^4 norm of a difference, works through one
    block buffer: its peak stays below 0.05 real half spectra."""
    g = Grid(d=d, n=n, L=2.5)
    a, b = random_coeffs(g, d), random_coeffs(g, d + 1)
    for norm in (
        lambda: h4_norm_sq_coeffs(g, a), lambda: h4_norm_sq_coeffs(g, a, b),
        lambda: l2_norm_sq_coeffs(g, a),
    ):
        norm()  # fills the weight caches
        assert traced_peak(norm) < 0.05 * a.real.nbytes


def test_norm_l2_holds_no_squared_copy():
    g = Grid(d=5, n=12, L=2.5)
    f = random_field(g, seed=5)
    assert traced_peak(lambda: norm_l2(f)) < 0.01 * f.values.nbytes
    assert norm_l2(f) == pytest.approx(math.sqrt(g.h**g.d * np.sum(f.values**2)), rel=1e-14)


@pytest.mark.parametrize("d,n", [(5, 12), (6, 10)])
def test_norm_l1_sums_blocks_through_one_buffer(d, n):
    """h^d sum |f| in blocks, with no full-size |f|, on grids whose point
    counts are not multiples of the block, so the last block is a partial one."""
    g = Grid(d=d, n=n, L=2.5)
    f = random_field(g, seed=d)
    assert norm_l1(f) == pytest.approx(g.h**d * np.sum(np.abs(f.values)), rel=1e-14)
    assert traced_peak(lambda: norm_l1(f)) < 0.1 * f.values.nbytes


def test_vector_norms_are_root_sum_square():
    g = Grid(d=2, n=8, L=2.0)
    f = random_field(g, seed=3)
    u = VectorField((f, f))
    assert norm_h4_vector(u) == pytest.approx(
        np.sqrt(2.0) * norm_h4_vector(VectorField((f,))), rel=1e-14
    )
    z = VectorField.zeros(g, 3)
    assert norm_h4_vector(z) == 0.0


def test_gaussian_l2_matches_closed_form_in_2d():
    # fine grid, wide box: the discrete norm approaches the closed form
    g = Grid(d=2, n=64, L=8.0)
    w, a = 1.3, 0.7
    f = GaussianSpec(width=w, amplitude=a).sample(g)
    exact = a * np.pi ** (2.0 / 4.0) * w ** (2.0 / 2.0)
    assert norm_l2(f) == pytest.approx(exact, rel=1e-8)
