"""Periodic lattices, sampled fields, unitary Fourier transforms, norms.

The computational domain is the periodic box [-L, L)^d sampled at n points
per axis:

    x_j = -L + j h,          h = 2 L / n,        j = 0 .. n-1,
    p_k = (pi / L) k,        k = -n/2 .. n/2 - 1,

with frequency spacing dp = pi / L, so h * dp = 2 pi / n.  n must be even.

Transforms use the unitary convention

    F(p_k) = (2 pi)^(-d/2) h^d  sum_j f(x_j) exp(-i p_k . x_j)
    f(x_j) = (2 pi)^(-d/2) dp^d sum_k F(p_k) exp(+i p_k . x_j)

under which the discrete Parseval identity

    h^d sum_j |f(x_j)|^2 = dp^d sum_k |F(p_k)|^2

holds exactly.  Physical samples are stored flat (row-major over axes) in
their natural layout, j = 0 .. n-1; a :class:`VectorField` is one
component-major stack of shape (N, *grid.shape), which the solver uses.

Coefficients (``forward_coeffs`` / ``inverse_values`` /
``h4_norm_sq_coeffs``) are the unitary half spectrum of the natural-layout
samples, with no index shifts, in the order the transform makes them:
shape ``grid.half_shape`` = (n/2 + 1, n, ..., n), the modes 0 .. n/2 of
the last sample axis (the half axis) first, then sample axes 0 .. d-2.
That is numpy's ``rfftn`` with its last axis moved to the front.  Since
x_j = -L + j h and p_k L = pi k, entry k equals F(p_k) times
(-1)^(k_1 + ... + k_d).  The sign cancels in every norm, and in a
convolution once the kernel is put in displacement order (the half
spectrum of ``ifftshift(K)``, see :mod:`nlrd.spectral`).  Norms sum over
the full lattice through Hermitian weights: 1 on the half-axis modes 0
and n/2, 2 on the others, which stand for their conjugate partners.

The transforms are dense per-axis DFTs done as BLAS matrix products, not
FFTs: one real product for the half axis and one complex n x n product
per other axis, with the matrices cached per n.  That costs O(n^(d+1))
instead of O(n^d log n), but on small grids a matrix product beats an
FFT's per-line overhead.  Timed against numpy's ``rfftn``/``irfftn`` on
two cores with numpy's default BLAS threading, each transform was faster
on every grid tried (d = 5 with n = 12 .. 32, d = 6 with n = 10 .. 16,
d = 7 with n = 8 and 10): 2 to 7 times at n <= 12, 1.4 to 3 times on
the larger grids.  With one BLAS thread the inverse is on par at d = 5,
n = 24 and 32, and 13% slower at d = 6, n = 16.  Larger grids were not
timed.  Results agree with numpy's ``rfftn``/``irfftn`` to about 1e-15
relative.  Angles are reduced to j k mod n and are exact (0 or +-1) at
multiples of pi/2, so the inverse discards the imaginary parts of
self-conjugate modes exactly as ``irfftn`` does.  Both transforms take an
``out`` that their last product writes into, C-contiguous, of the exact
shape and dtype and apart from the input (else ``ValueError``), so a
stack fills its own rows with no temporary and no copy.

H^4 norms are computed spectrally with the weight 1 + |p|^8.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

_TWO_PI = 2.0 * np.pi


def real_number(value: object, what: str, error: type[ValueError] = ValueError) -> float:
    """``value`` as a float, or ``error``: booleans, strings and None are not numbers."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise error(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError as err:
        raise error(f"{what} is too large for a float") from err


@dataclass(frozen=True)
class Grid:
    """Uniform periodic lattice on [-L, L)^d with n points per axis."""

    d: int
    n: int
    L: float

    def __post_init__(self) -> None:
        if isinstance(self.d, bool) or not isinstance(self.d, int) or self.d < 1:
            raise ValueError(f"dimension must be a positive integer, got {self.d}")
        if not isinstance(self.n, int) or self.n < 2 or self.n % 2 != 0:
            raise ValueError(f"points per axis must be even and >= 2, got {self.n}")
        object.__setattr__(self, "L", real_number(self.L, "box half-width"))
        if not (self.L > 0.0 and np.isfinite(self.L)):
            raise ValueError(f"box half-width must be positive and finite, got {self.L}")
        if max(abs(self.d * np.log10(s)) for s in (self.h, self.dp)) > 300.0:
            raise ValueError(
                f"box half-width {self.L} puts the transform scales h^d and "
                f"dp^d outside 1e-300 .. 1e300 for d = {self.d}, n = {self.n}"
            )

    @property
    def h(self) -> float:
        """Lattice spacing 2L / n."""
        return 2.0 * self.L / self.n

    @property
    def dp(self) -> float:
        """Frequency spacing pi / L."""
        return np.pi / self.L

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n,) * self.d

    @property
    def half_shape(self) -> tuple[int, ...]:
        """Shape of the half spectrum: (n/2 + 1, n, ..., n), the half axis first."""
        return (self.n // 2 + 1,) + (self.n,) * (self.d - 1)

    @property
    def npoints(self) -> int:
        return self.n**self.d

    def axis_coords(self) -> np.ndarray:
        """Physical coordinates -L + j h along one axis."""
        return -self.L + self.h * np.arange(self.n)

    def axis_wavenumbers(self) -> np.ndarray:
        """Wavenumbers p_k = dp * k along one axis, in FFT order."""
        return self.dp * self.n * np.fft.fftfreq(self.n)

    def coordinate_arrays(self) -> tuple[np.ndarray, ...]:
        """d coordinate arrays of shape ``grid.shape`` (sparse broadcast)."""
        x = self.axis_coords()
        return tuple(np.meshgrid(*([x] * self.d), indexing="ij", sparse=True))


@functools.lru_cache(maxsize=16)
def h4_weight(grid: Grid) -> np.ndarray:
    """Spectral H^4 weight 1 + |p|^8 on the full lattice, FFT order."""
    q = grid.axis_wavenumbers() ** 2
    return 1.0 + functools.reduce(np.add.outer, [q] * grid.d) ** 4


def half_squared_wavenumber(grid: Grid) -> np.ndarray:
    """|p|^2 on the half spectrum, shape ``grid.half_shape``."""
    q = grid.axis_wavenumbers() ** 2
    return functools.reduce(np.add.outer, [q[: grid.n // 2 + 1]] + [q] * (grid.d - 1))


@functools.lru_cache(maxsize=16)
def hermitian_weight(grid: Grid) -> np.ndarray:
    """Multiplicity of each half-axis mode, shape (n/2 + 1, 1, ..., 1).

    1 on the modes 0 and n/2, their own conjugate partners, and 2 on the
    others, which also stand for the partners the half spectrum leaves out.
    """
    w = np.full((grid.n // 2 + 1,) + (1,) * (grid.d - 1), 2.0)
    w[0] = w[-1] = 1.0
    return w


@functools.lru_cache(maxsize=16)
def half_h4_weight(grid: Grid) -> np.ndarray:
    """H^4 weight 1 + |p|^8 times the Hermitian multiplicity, half spectrum."""
    return hermitian_weight(grid) * (1.0 + half_squared_wavenumber(grid) ** 4)


@dataclass(frozen=True)
class RealField:
    """Real scalar field sampled on a grid; values flat, row-major."""

    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=np.float64).reshape(-1)
        if vals.size != self.grid.npoints:
            raise ValueError(
                f"expected {self.grid.npoints} samples, got {vals.size}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("field values must be finite")
        object.__setattr__(self, "values", vals)

    @classmethod
    def zeros(cls, grid: Grid) -> "RealField":
        return cls(grid, np.zeros(grid.npoints))

    def reshaped(self) -> np.ndarray:
        """Values as a d-dimensional array (view when possible)."""
        return self.values.reshape(self.grid.shape)


@dataclass(frozen=True, init=False)
class VectorField:
    """N real fields on one grid as one stack ``values``, shape (N, *grid.shape).

    Built as ``VectorField(grid, values)``, copying only to make ``values``
    contiguous float64, or as ``VectorField(components)``, which stacks a
    sequence of :class:`RealField` on one grid.
    """

    grid: Grid
    values: np.ndarray = field(repr=False)

    def __init__(self, grid, values=None) -> None:
        if values is None:
            comps = tuple(grid)
            values = np.stack([c.reshaped() for c in comps])  # ValueError if empty
            grid = comps[0].grid
            if any(c.grid != grid for c in comps):
                raise ValueError("all components must share one grid")
        vals = np.ascontiguousarray(values, dtype=np.float64)
        if vals.shape[1:] != grid.shape or len(vals) < 1:
            raise ValueError(f"need shape (N >= 1, *{grid.shape}), got {vals.shape}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("field values must be finite")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", vals)

    @classmethod
    def zeros(cls, grid: Grid, n_components: int) -> "VectorField":
        return cls(grid, np.zeros((n_components,) + grid.shape))

    @property
    def n_components(self) -> int:
        return len(self.values)

    @property
    def components(self) -> tuple[RealField, ...]:
        """One :class:`RealField` per row, each a view of ``values``."""
        return tuple(RealField(self.grid, row.reshape(-1)) for row in self.values)


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------

def _forward_scale(grid: Grid) -> float:
    return _TWO_PI ** (-grid.d / 2.0) * grid.h**grid.d


def _inverse_scale(grid: Grid) -> float:
    return _TWO_PI ** (-grid.d / 2.0) * grid.dp**grid.d


@functools.lru_cache(maxsize=16)
def _dft_matrices(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Unnormalised length-n DFT matrices ``(r2c, c2c, c2c_inv, c2r)``.

    With h = n/2 + 1 and angles 2 pi (j k mod n) / n, exact (0 or +-1) at
    multiples of pi/2:

    - ``r2c``, n x 2h real: columns cos, -sin interleaved per mode k < h, so
      ``x @ r2c`` viewed as complex is the half spectrum of each row x;
    - ``c2c``, n x n: exp(-2 pi i j k / n), and ``c2c_inv`` its conjugate;
    - ``c2r``, 2h x n real: rows w_k cos, -w_k sin with the Hermitian
      weights w_k, so a row of half-spectrum coefficients viewed as real
      times ``c2r`` is its full inverse sum.  The sin rows of the modes 0
      and n/2 are exactly zero: their imaginary parts are discarded.
    """
    m = np.arange(n)
    cos = np.cos(_TWO_PI * m / n)
    sin = np.sin(_TWO_PI * m / n)
    quarter = (4 * m) % n == 0
    cos[quarter] = np.rint(cos[quarter])
    sin[quarter] = np.rint(sin[quarter])
    phase = np.outer(m, m) % n
    c2c = cos[phase] - 1j * sin[phase]
    half = phase[:, : n // 2 + 1]
    r2c = np.stack([cos[half], -sin[half]], axis=-1).reshape(n, -1)
    w = hermitian_weight(Grid(1, n, 1.0))
    c2r = np.stack([w * cos[half], -w * sin[half]], axis=-1).reshape(n, -1).T
    return r2c, c2c, c2c.conj(), c2r


def _out(out, shape: tuple[int, ...], dtype, source) -> np.ndarray:
    """``out`` checked as a transform's destination, or a new array when None."""
    if out is None:
        return np.empty(shape, dtype)
    if not (isinstance(out, np.ndarray) and out.shape == shape and out.dtype == dtype
            and out.flags.c_contiguous) or np.may_share_memory(out, source):
        raise ValueError(f"out must be a C-contiguous {np.dtype(dtype)} array of shape "
                         f"{shape} that does not overlap the input")
    return out


def forward_coeffs(grid: Grid, values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Unitary half-spectrum coefficients of one component's samples.

    ``values`` holds ``grid.npoints`` samples in natural layout, flat or of
    shape ``grid.shape``.  Returns ``out``, or a new C-contiguous array, of
    shape ``grid.half_shape``, unshifted (see the module docstring).

    One real product transforms the last sample axis to its half spectrum;
    each of d - 1 complex products then transforms the leading axis and
    rotates it to the end, which leaves the half axis leading.
    """
    n = grid.n
    r2c, c2c, _, _ = _dft_matrices(n)
    rows = np.reshape(np.asarray(values, dtype=np.float64), (-1, n))
    hats = (rows @ (_forward_scale(grid) * r2c)).view(np.complex128)
    for _ in range(grid.d - 2):
        hats = hats.reshape(n, -1).T @ c2c
    # made last, so that a new result adds nothing to the products' peak
    out = _out(out, grid.half_shape, np.complex128, values)
    if grid.d == 1:  # the one product is done
        out[...] = hats.reshape(grid.half_shape)
    else:
        np.matmul(hats.reshape(n, -1).T, c2c, out=out.reshape(-1, n))
    return out


def inverse_values(grid: Grid, coeffs: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Samples, shape ``grid.shape``, of half-spectrum coefficients.

    The mirror image of :func:`forward_coeffs`, leaving ``coeffs`` as it
    is and writing into ``out`` when given: d - 1 complex products each
    transform the trailing axis and rotate it to the front, and one real
    product against ``c2r`` sums the half axis with its Hermitian weights.
    """
    n = grid.n
    _, _, c2c_inv, c2r = _dft_matrices(n)
    # contiguous for the float64 view below, which at d = 1 sees the input
    hats = np.ascontiguousarray(coeffs, dtype=np.complex128).reshape(grid.half_shape)
    for _ in range(grid.d - 1):
        hats = c2c_inv @ hats.reshape(-1, n).T
    rows = hats.view(np.float64).reshape(-1, c2r.shape[0])
    out = _out(out, grid.shape, np.float64, coeffs)
    np.matmul(rows, _inverse_scale(grid) * c2r, out=out.reshape(-1, n))
    return out


def forward_stack(grid: Grid, stack) -> np.ndarray:
    """:func:`forward_coeffs` of each of N sample arrays, shape (N, *grid.half_shape)."""
    out = np.empty((len(stack),) + grid.half_shape, dtype=np.complex128)
    for m, values in enumerate(stack):
        forward_coeffs(grid, values, out=out[m])
    return out


def inverse_stack(grid: Grid, hats: np.ndarray) -> np.ndarray:
    """:func:`inverse_values` of each row of ``hats``, shape (N, *grid.shape)."""
    out = np.empty((len(hats),) + grid.shape)
    for m, hat in enumerate(hats):
        inverse_values(grid, hat, out=out[m])
    return out


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

def norm_l1(f: RealField) -> float:
    """Discrete L^1 norm h^d sum |f|."""
    return float(f.grid.h**f.grid.d * np.sum(np.abs(f.values)))


def norm_l2(f: RealField) -> float:
    """Discrete L^2 norm (h^d sum f^2)^(1/2)."""
    return float(np.sqrt(f.grid.h**f.grid.d * np.sum(f.values**2)))


@np.errstate(over="ignore")  # callers check the result for finiteness
def _weighted_sum_sq(grid: Grid, weight: np.ndarray, coeffs: np.ndarray) -> float:
    abs_sq = coeffs.real**2
    abs_sq += coeffs.imag**2
    return float(grid.dp**grid.d * np.vdot(np.broadcast_to(weight, abs_sq.shape), abs_sq))


def h4_norm_sq_coeffs(grid: Grid, coeffs: np.ndarray) -> float:
    """Squared H^4 norm dp^d sum_k (1 + |p_k|^8) |F_k|^2 over the full lattice.

    ``coeffs`` are half-spectrum coefficients from :func:`forward_coeffs`;
    the sum over the missing half comes in through the Hermitian weights.
    """
    return _weighted_sum_sq(grid, half_h4_weight(grid), coeffs)


def l2_norm_sq_coeffs(grid: Grid, coeffs: np.ndarray) -> float:
    """Squared L^2 norm dp^d sum_k |F_k|^2 from half-spectrum coefficients."""
    return _weighted_sum_sq(grid, hermitian_weight(grid), coeffs)


def norm_h4(f: RealField) -> float:
    """Sobolev H^4 norm, computed spectrally."""
    return float(np.sqrt(h4_norm_sq_coeffs(f.grid, forward_coeffs(f.grid, f.values))))


def norm_h4_coeffs(grid: Grid, hats) -> float:
    """Root-sum-square H^4 norm of an iterable of half-spectrum coefficients."""
    return math.sqrt(sum(h4_norm_sq_coeffs(grid, hat) for hat in hats))


def norm_h4_vector(u: VectorField) -> float:
    """Root-sum-square of component H^4 norms."""
    return norm_h4_coeffs(u.grid, (forward_coeffs(u.grid, row) for row in u.values))
