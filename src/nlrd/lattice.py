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
stack fills its own rows with no temporary and no copy.  The forward
products alternate between ``out`` and one scratch half spectrum, the last
landing in ``out``; the inverse's complex products alternate between two,
the spent one released before a new ``out`` is made.  A caller with spent
half spectra passes them as ``scratch``, checked as ``out`` is, and the
transform allocates nothing.

A rank-one field f_1 (x) ... (x) f_d (a Gaussian) needs no d-dimensional
transform: the DFT of a product is the product of the 1-D DFTs, so
``axis_coeffs`` gives its coefficients as d 1-D arrays and
``outer_coeffs`` their outer product.  ``forward_coeffs`` takes such
per-axis ``factors`` too and returns the coefficients of its input times
their outer product, folded into its axis matrices: a convolution with a
Gaussian kernel costs one transform and holds no kernel spectrum.

Every spectral multiplier of the solver (the H^4 weight 1 + |p|^8, the
operator symbol and its inverse, the probe's envelope) depends on |p|^2
alone, and on the lattice |p|^2 = dp^2 s with s = k_1^2 + ... + k_d^2 an
integer shell, at most d (n/2)^2 + 1 of them.  No weight is held at the
size of the spectrum: ``shell_blocks`` walks the flat half spectrum in
cache-sized blocks of whole tail rows (the last axis) of one half-axis
mode, and gathers each block's weights from a small table per grid and
weight, one tail row per row shell, at most d (n/2)^2 + 1 rows of n
values.  A block's Hermitian multiplicity is one number.  Callers multiply
and reduce a block while it is in cache, so a multiply and the norms of
its result are one pass.  Per grid, this module caches the walk (the row
shells of one slab, n^(d-2) integers) and the tables; per n, the DFT
matrices.  H^4 norms are computed spectrally in that blocked pass, with
no full-size temporary, not even for the norm of a difference.
"""

from __future__ import annotations

import functools
import itertools
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


def h4_weight(grid: Grid) -> np.ndarray:
    """Spectral H^4 weight 1 + |p|^8 on the full lattice, FFT order: the
    full-size formula, for checks (the solver reads :func:`shell_blocks`)."""
    q = grid.axis_wavenumbers() ** 2
    return 1.0 + functools.reduce(np.add.outer, [q] * grid.d) ** 4


def half_squared_wavenumber(grid: Grid) -> np.ndarray:
    """|p|^2 on the half spectrum, shape ``grid.half_shape``: the full-size
    formula, for checks (the solver reads :func:`shell_blocks`)."""
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

    def sample(self) -> "RealField":
        """This field, never copied: a field is its own source."""
        return self

    def coeffs(self, out: np.ndarray | None = None) -> np.ndarray:
        """:func:`forward_coeffs` of the samples, into ``out`` when given."""
        return forward_coeffs(self.grid, self.values, out=out)

    def norms(self) -> tuple[float, float]:
        """:func:`norm_l1` and :func:`norm_l2` of the samples."""
        return norm_l1(self), norm_l2(self)

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


def _out(out, shape: tuple[int, ...], dtype, *sources, what: str = "out") -> np.ndarray:
    """``out`` checked as a transform's destination (or, named ``what``,
    its scratch) apart from each of ``sources``, or a new array when None."""
    if out is None:
        return np.empty(shape, dtype)
    if not (isinstance(out, np.ndarray) and out.shape == shape and out.dtype == dtype
            and out.flags.c_contiguous) or any(np.may_share_memory(out, s) for s in sources):
        raise ValueError(f"{what} must be a C-contiguous {np.dtype(dtype)} array of shape "
                         f"{shape} that does not overlap the input or another buffer")
    return out


def forward_coeffs(
    grid: Grid, values: np.ndarray, out: np.ndarray | None = None, factors=None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """Unitary half-spectrum coefficients of one component's samples.

    ``values`` holds ``grid.npoints`` samples in natural layout, flat or of
    shape ``grid.shape``.  Returns ``out``, or a new C-contiguous array, of
    shape ``grid.half_shape``, unshifted (see the module docstring).

    One real product transforms the last sample axis to its half spectrum;
    each of d - 1 complex products then transforms the leading axis and
    rotates it to the end, which leaves the half axis leading.

    ``factors``, when given, is d complex 1-D arrays, one per axis of the
    half spectrum (lengths ``grid.half_shape``), and the result is the
    coefficients times their outer product, with no full-size multiply:
    the half-axis factor is mixed into the cos / -sin columns of the real
    product's matrix, and each other axis's factor scales the columns of
    its complex product's matrix, O(d n^2) work on top of the transform.

    ``scratch``, when given, is the half spectrum the products alternate
    with (checked as ``out`` is, apart from the input and ``out``); its
    contents are overwritten.  Otherwise one is allocated.
    """
    n = grid.n
    r2c, c2c, _, _ = _dft_matrices(n)
    rows = np.reshape(np.asarray(values, dtype=np.float64), (-1, n))
    out = _out(out, grid.half_shape, np.complex128, values)
    scale = _forward_scale(grid)
    if factors is None:
        r2c, c2cs = scale * r2c, [c2c] * (grid.d - 1)
    else:
        r2c = (r2c.view(np.complex128) * (scale * factors[0])).view(np.float64)
        c2cs = [c2c * f for f in factors[1:]]
    # the d products alternate between out and one scratch array, so that
    # the last lands in out
    if grid.d > 1:
        scratch = _out(scratch, grid.half_shape, np.complex128, values, out, what="scratch")
    bufs = (out, scratch) if grid.d % 2 else (scratch, out)
    first = bufs[0].view(np.float64).reshape(rows.shape[0], -1)
    np.matmul(rows, r2c, out=first)
    for k in range(1, grid.d):
        np.matmul(bufs[1 - k % 2].reshape(n, -1).T, c2cs[k - 1], out=bufs[k % 2].reshape(-1, n))
    return out


def axis_coeffs(grid: Grid, factors) -> list[np.ndarray]:
    """Per-axis coefficients of the rank-one samples f_1 (x) ... (x) f_d.

    ``factors`` is d real arrays of n samples, one per sample axis.  Returns
    d complex 1-D arrays in half-spectrum axis order: the half spectrum of
    f_d, then the full 1-D DFTs of f_1 .. f_(d-1), the transform scale
    folded into the first.  Their outer product is ``forward_coeffs`` of
    the samples (a DFT of a product is the product of the DFTs), for
    O(d n^2) work.
    """
    r2c, c2c, _, _ = _dft_matrices(grid.n)
    *head, last = factors
    return [_forward_scale(grid) * (last @ r2c.view(np.complex128))] + [f @ c2c for f in head]


def outer_coeffs(grid: Grid, factors, out: np.ndarray | None = None) -> np.ndarray:
    """``forward_coeffs`` of the rank-one samples f_1 (x) ... (x) f_d (see
    :func:`axis_coeffs`), formed as an outer product into ``out`` (checked
    as a transform's destination) or a new array: no samples, no transform.
    Each outer product is a rank-one matrix product, which, unlike a
    broadcast multiply, takes no iterator buffers (up to 8192 elements per
    operand)."""
    *head, last = axis_coeffs(grid, factors)
    out = _out(out, grid.half_shape, np.complex128)
    outer = np.ones(1)
    for f in head:
        outer = np.matmul(outer.reshape(-1, 1), f.reshape(1, -1))
    np.matmul(outer.reshape(-1, 1), last.reshape(1, -1), out=out.reshape(-1, last.size))
    return out


def inverse_values(
    grid: Grid, coeffs: np.ndarray, out: np.ndarray | None = None,
    scratch: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Samples, shape ``grid.shape``, of half-spectrum coefficients.

    The mirror image of :func:`forward_coeffs`, leaving ``coeffs`` as it
    is and writing into ``out`` when given: d - 1 complex products each
    transform the trailing axis and rotate it to the front, and one real
    product against ``c2r`` sums the half axis with its Hermitian weights.
    The complex products alternate between two scratch half spectra:
    ``scratch``, when given, is that pair (each checked as ``out`` is,
    apart from the input, ``out`` and each other), overwritten; otherwise
    they are allocated and the spent one is released before a new ``out``
    is made.
    """
    n = grid.n
    _, _, c2c_inv, c2r = _dft_matrices(n)
    # contiguous for the float64 view below, which at d = 1 sees the input
    hats = np.ascontiguousarray(coeffs, dtype=np.complex128).reshape(grid.half_shape)
    bufs = [None, None]
    if scratch is not None:
        out = _out(out, grid.shape, np.float64, coeffs)
        for i, buf in enumerate(scratch):
            bufs[i] = _out(buf, grid.half_shape, np.complex128, coeffs, out, *bufs[:i],
                           what="scratch")
    for k in range(grid.d - 1):
        if bufs[k % 2] is None:
            bufs[k % 2] = np.empty(grid.half_shape, np.complex128)
        np.matmul(c2c_inv, hats.reshape(-1, n).T, out=bufs[k % 2].reshape(n, -1))
        hats = bufs[k % 2]
    bufs[(grid.d - 1) % 2] = None  # spent: released before out is made
    rows = hats.view(np.float64).reshape(-1, c2r.shape[0])
    out = _out(out, grid.shape, np.float64, coeffs)
    np.matmul(rows, _inverse_scale(grid) * c2r, out=out.reshape(-1, n))
    return out


def inverse_stack(grid: Grid, hats: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """:func:`inverse_values` of each row of ``hats``, shape (N, *grid.shape),
    into ``out`` when given."""
    if out is None:
        out = np.empty((len(hats),) + grid.shape)
    for m, hat in enumerate(hats):
        inverse_values(grid, hat, out=out[m])
    return out


# ---------------------------------------------------------------------------
# shell tables
# ---------------------------------------------------------------------------

#: most coefficients per block of a shell walk or a norm: block and buffers stay in L2 cache
_NORM_BLOCK = 2**13


@dataclass(frozen=True)
class _Shells:
    """How :func:`shell_blocks` walks one grid's flat half spectrum.

    The half spectrum is one slab per half-axis mode k_0, each slab
    ``len(middle)`` tail rows of ``len(tail)`` coefficients (the last axis;
    at d = 1 a slab is one coefficient).  The integer shell s = |p|^2 / dp^2
    of a coefficient is ``k_0^2 + middle[row] + tail[col]``.
    """

    middle: np.ndarray  # sum of k_j^2 over the axes between the half and the last axis, per row
    tail: np.ndarray  # k^2 along the last axis
    slabs: tuple[tuple[int, float], ...]  # (k_0^2, Hermitian multiplicity) per slab
    block_rows: int  # rows per block


@functools.lru_cache(maxsize=16)
def _shells(grid: Grid) -> _Shells:
    n = grid.n
    k = np.concatenate([np.arange(n // 2), np.arange(-(n // 2), 0)])
    q = (k * k).astype(np.intp)
    middle = functools.reduce(np.add.outer, [q] * (grid.d - 2), np.zeros((), np.intp))
    middle = np.ravel(middle)
    tail = q if grid.d > 1 else np.zeros(1, np.intp)
    mult = hermitian_weight(grid).reshape(-1)
    slabs = tuple((k0 * k0, float(w)) for k0, w in enumerate(mult))
    # blocks of whole rows inside one slab, of at most _NORM_BLOCK coefficients
    # and a sixteenth of the half spectrum (at least one row), split evenly
    size = math.prod(grid.half_shape)
    cap = max(1, min(_NORM_BLOCK, size // 16) // len(tail))
    blocks = -(-len(middle) // cap)
    return _Shells(middle, tail, slabs, -(-len(middle) // blocks))


@functools.lru_cache(maxsize=64)
def _shell_table(grid: Grid, weight) -> np.ndarray:
    """``weight`` on every tail row a slab can hold: entry [s, col] is its
    value at the shell s + tail[col], for each row shell s = k_0^2 + middle."""
    sh = _shells(grid)
    rows = np.arange((grid.n // 2) ** 2 + sh.middle.max() + 1)
    shells = np.arange(rows[-1] + sh.tail.max() + 1)
    table = np.asarray(weight(grid, shells), dtype=np.float64)[rows[:, None] + sh.tail]
    table.flags.writeable = False
    return table


def shell_blocks(grid: Grid, *weights):
    """Walk the flat half spectrum in blocks, giving each block's weights.

    Each weight is a function ``weight(grid, s)`` of the integer shells
    s = |p|^2 / dp^2 = sum_j k_j^2 (an int array 0 .. d (n/2)^2), since every
    multiplier here depends on |p|^2 alone.  Per grid and weight a table
    of one tail row per row shell is cached, at most d (n/2)^2 + 1 rows of
    n values, and a block's weights are gathered from it.

    Yields ``(lo, hi, mult, scratch, *blocks)`` per block: the block is
    coefficients lo .. hi of the flat half spectrum, whole tail rows of one
    half-axis mode, so ``mult``, that mode's Hermitian multiplicity (see
    :func:`hermitian_weight`), is one number per block; ``scratch`` is a
    float64 work array of 2 (hi - lo) values, a complex block's float
    view; ``blocks`` hold each weight at the block's coefficients.  The
    arrays are reused from block to block.  Blocks hold at most
    ``_NORM_BLOCK`` coefficients and a sixteenth of the half spectrum, or
    one row where a row is more.
    """
    sh = _shells(grid)
    tables = [_shell_table(grid, w) for w in weights]
    rows, width, b = len(sh.middle), len(sh.tail), sh.block_rows
    bufs = [np.empty((b, width)) for _ in tables]
    scratch = np.empty(2 * b * width)
    lo = 0
    for k0_sq, mult in sh.slabs:
        for r in range(0, rows, b):
            keys = sh.middle[r : r + b]
            hi = lo + len(keys) * width
            # rows k0_sq + keys of each table; every key is in range, and
            # mode="raise" would copy through a temporary instead of into buf
            blocks = [
                np.take(t[k0_sq:], keys, axis=0, out=buf[: len(keys)], mode="clip").reshape(-1)
                for t, buf in zip(tables, bufs)
            ]
            yield (lo, hi, mult, scratch[: 2 * (hi - lo)], *blocks)
            lo = hi


def h4_shells(grid: Grid, s: np.ndarray) -> np.ndarray:
    """The H^4 weight 1 + |p|^8 on the shells s = |p|^2 / dp^2."""
    return 1.0 + (grid.dp**2 * s) ** 4


def weighted_sum_sq(weights: np.ndarray, floats: np.ndarray, scratch: np.ndarray) -> float:
    """sum_k weights_k |F_k|^2 over one block, given as the flat float64 view
    of its coefficients F and squared into ``scratch``: one BLAS product
    gives the real and the imaginary parts' sums, added as Python floats
    (a numpy reduction of two numbers costs as much as the product)."""
    squares = np.square(floats, out=scratch[: len(floats)])
    re, im = np.dot(weights, squares.reshape(-1, 2)).tolist()
    return re + im


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

def norm_l1(f: RealField) -> float:
    """Discrete L^1 norm h^d sum |f|, summed in blocks of ``_NORM_BLOCK``
    through one buffer, with no full-size |f|."""
    x = f.values
    buf = np.empty(min(_NORM_BLOCK, len(x)))
    total = 0.0
    for s in range(0, len(x), len(buf)):
        block = x[s : s + len(buf)]
        total += np.abs(block, out=buf[: len(block)]).sum()
    return float(f.grid.h**f.grid.d * total)


def norm_l2(f: RealField) -> float:
    """Discrete L^2 norm (h^d sum f^2)^(1/2)."""
    return float(np.sqrt(f.grid.h**f.grid.d * np.dot(f.values, f.values)))


def _floats(grid: Grid, coeffs: np.ndarray) -> np.ndarray:
    """Half-spectrum coefficients as one flat float64 view (a copy if not contiguous)."""
    hats = np.ascontiguousarray(coeffs, dtype=np.complex128).reshape(grid.half_shape)
    return hats.view(np.float64).reshape(-1)


@np.errstate(over="ignore")  # callers check the result for finiteness
def h4_norm_sq_coeffs(grid: Grid, coeffs: np.ndarray, minus: np.ndarray | None = None) -> float:
    """Squared H^4 norm dp^d sum_k (1 + |p_k|^8) |F_k|^2 over the full lattice.

    ``coeffs`` are half-spectrum coefficients from :func:`forward_coeffs`;
    the sum over the missing half comes in through the Hermitian weights.
    With ``minus`` (same shape), F is ``coeffs - minus``.  The sum runs over
    the blocks of :func:`shell_blocks`, squaring each into its scratch: |F|^2,
    F itself and the weight are never formed in full.
    """
    x = _floats(grid, coeffs)
    y = None if minus is None else _floats(grid, minus)
    total = 0.0
    for lo, hi, mult, scratch, w in shell_blocks(grid, h4_shells):
        block = x[2 * lo : 2 * hi]
        if y is not None:
            block = np.subtract(block, y[2 * lo : 2 * hi], out=scratch)
        total += mult * weighted_sum_sq(w, block, scratch)
    return float(grid.dp**grid.d * total)


@np.errstate(over="ignore")  # callers check the result for finiteness
def l2_norm_sq_coeffs(grid: Grid, coeffs: np.ndarray) -> float:
    """Squared L^2 norm dp^d sum_k |F_k|^2 from half-spectrum coefficients: one
    BLAS dot per half-axis row, on which the Hermitian weight is constant."""
    rows = _floats(grid, coeffs).reshape(grid.n // 2 + 1, -1)
    w = hermitian_weight(grid).reshape(-1)
    return float(grid.dp**grid.d * sum(wr * np.dot(x, x) for wr, x in zip(w, rows)))


def norm_h4_coeffs(grid: Grid, hats, minus=None) -> float:
    """Root-sum-square H^4 norm of an iterable of half-spectrum coefficients,
    or with ``minus``, a matching iterable, of their differences."""
    pairs = zip(hats, itertools.repeat(None) if minus is None else minus)
    return math.sqrt(sum(h4_norm_sq_coeffs(grid, a, b) for a, b in pairs))


def norm_h4_vector(u: VectorField) -> float:
    """Root-sum-square of component H^4 norms."""
    return norm_h4_coeffs(u.grid, (forward_coeffs(u.grid, row) for row in u.values))
