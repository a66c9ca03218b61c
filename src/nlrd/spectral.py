"""Spectral application and inversion of the diffusion operator, convolution.

The linear operator is L = -Laplacian + Laplacian^2, diagonal in Fourier
space with symbol |p|^2 + |p|^4.  The symbol vanishes only at p = 0, so
inversion is defined up to the zero mode; ``invert_coeffs``, the one place
the zero mode is projected out, records its mass for every inversion.

Every routine here runs on the half-spectrum path of :mod:`nlrd.lattice`
(``forward_coeffs`` / ``inverse_values``), where the operator is a
multiplication by the symbol on ``grid.half_shape``, in the coefficient
layout of that module.  The symbol and its inverse are functions of the
integer shell (``symbol_shells``, ``inverse_shells``), applied block by
block; this module caches no array.  ``apply_operator`` and
``invert_coeffs`` are ``lattice.scale_coeffs`` with the symbol and with
its inverse, which takes the H^4 norms of the quotient in the same pass;
``subtract_operator``, which reduces its operand while it subtracts the
product from another array, walks ``lattice.shell_blocks`` itself.  A
caller that inverts or applies the operator and then measures reads the
coefficients once.
Periodic convolution is evaluated spectrally:

    (H * G)^(p) = (2 pi)^(d/2) H^(p) G^(p)

under the unitary transform convention.  ``kernel_coeffs`` and
``kernel_factors`` are the one place a kernel H is put in displacement
order, ``forward_coeffs(ifftshift(H))`` scaled by (2 pi)^(d/2): its
coefficients carry no (-1)^k sign, so the product with the natural-layout
coefficients of G transforms back to samples.  ``kernel_coeffs`` transforms
samples; ``kernel_factors`` takes a rank-one kernel (a Gaussian) as its d
1-D factors and returns d 1-D arrays, whose outer product is those
coefficients and which ``forward_coeffs(..., factors=...)`` folds into its
axis matrices, so the product with F(G) is one transform.  The
brute-force counterpart ``convolve_direct`` computes the defining lattice
sum h^d sum_y H(x - y) G(y) with wrap-around and is intended as a
cross-check on tiny grids only.
"""

from __future__ import annotations

import numpy as np

from . import lattice
from .lattice import (
    Grid,
    RealField,
    coeff_rows,
    h4_shells,
    scale_coeffs,
    shell_blocks,
    weighted_sum_sq,
)

_TWO_PI = 2.0 * np.pi

#: largest grid (total points) accepted by ``convolve_direct``
DIRECT_CONV_MAX_POINTS = 10_000


class GridTooLarge(ValueError):
    """Raised when the O(P^2) direct convolution would be too expensive."""


def symbol_shells(grid: Grid, s: np.ndarray) -> np.ndarray:
    """Symbol |p|^2 + |p|^4 on the shells s = |p|^2 / dp^2 (see
    ``lattice.shell_blocks``)."""
    p2 = grid.dp**2 * s
    return p2 + p2**2


def inverse_shells(grid: Grid, s: np.ndarray) -> np.ndarray:
    """1 / (|p|^2 + |p|^4) on the shells s, 0 on the zero mode."""
    sym = symbol_shells(grid, s)
    return np.divide(1.0, sym, out=np.zeros_like(sym), where=sym > 0.0)


def apply_operator(u: RealField) -> RealField:
    """Apply -Laplacian + Laplacian^2 spectrally.

    The operator annihilates constants, so the mean is removed before the
    transform: its roundoff would otherwise leak out of the zero mode and
    be amplified by the symbol.
    """
    g = u.grid
    coeffs = lattice.forward_coeffs(g, u.values - np.mean(u.values))
    scale_coeffs(g, coeffs, symbol_shells, norm=False)
    return RealField(g, lattice.inverse_values(g, coeffs))


def invert_coeffs(
    grid: Grid, hats: np.ndarray, minus: np.ndarray | None = None
) -> tuple[np.ndarray, float, float]:
    """Divide C-contiguous coefficients of shape (..., *grid.half_shape) by
    the symbol in place, zero mode projected out.

    Returns each field's dropped |F(0)|, and the squared H^4 norms, summed
    over the fields, of the quotient and of the quotient minus ``minus``
    (C-contiguous, same shape; the quotient itself when None), taken in
    the pass that divides: ``lattice.scale_coeffs`` with
    :func:`inverse_shells`.
    """
    dropped = np.abs(hats[(Ellipsis,) + (0,) * grid.d])
    return (dropped, *scale_coeffs(grid, hats, inverse_shells, minus))


@np.errstate(over="ignore")  # callers check the norm for finiteness
def subtract_operator(grid: Grid, out: np.ndarray, hats: np.ndarray) -> float:
    """``out -= (|p|^2 + |p|^4) hats`` in place, both of shape
    ``grid.half_shape``, ``hats`` left as it is; returns the squared H^4 norm
    of ``hats``, each block of ``lattice.shell_blocks`` reduced as it is
    multiplied."""
    dest, src = coeff_rows(grid, out)[0], coeff_rows(grid, hats)[0]
    floats = src.view(np.float64)
    total = 0.0
    for lo, hi, mult, scratch, sym, w in shell_blocks(grid, symbol_shells, h4_shells):
        total += mult * weighted_sum_sq(w, floats[2 * lo : 2 * hi], scratch)
        dest[lo:hi] -= np.multiply(src[lo:hi], sym, out=scratch.view(np.complex128))
    return float(grid.dp**grid.d * total)


def kernel_coeffs(H: RealField) -> np.ndarray:
    """(2 pi)^(d/2) times the half spectrum of H in displacement order."""
    coeffs = lattice.forward_coeffs(H.grid, np.fft.ifftshift(H.reshaped()))
    coeffs *= _TWO_PI ** (H.grid.d / 2.0)
    return coeffs


def kernel_factors(grid: Grid, factors, scale: float) -> list[np.ndarray]:
    """Per-axis factors of scale (2 pi)^(d/2) times the displacement-order
    half spectrum of the rank-one kernel f_1 (x) ... (x) f_d, one real
    n-sample factor per sample axis.  The shift of a product is the product
    of the shifted factors, so ``forward_coeffs(grid, G, factors=...)`` is
    ``scale * kernel_coeffs(H) * forward_coeffs(grid, G)`` with no
    full-size array but the result."""
    axes = lattice.axis_coeffs(grid, [np.fft.ifftshift(f) for f in factors])
    axes[0] *= scale * _TWO_PI ** (grid.d / 2.0)
    return axes


def solve_linear(f: RealField) -> tuple[RealField, float]:
    """Solve (-Laplacian + Laplacian^2) u = f on the periodic box, the zero
    mode of f projected out; returns u and the dropped mass |f^(0)|."""
    g = f.grid
    coeffs = lattice.forward_coeffs(g, f.values)
    dropped = float(invert_coeffs(g, coeffs)[0])
    return RealField(g, lattice.inverse_values(g, coeffs)), dropped


def convolve(H: RealField, G: RealField) -> RealField:
    """Periodic convolution via the spectral product rule."""
    if H.grid != G.grid:
        raise ValueError("convolution operands must share one grid")
    g = H.grid
    coeffs = kernel_coeffs(H)
    coeffs *= lattice.forward_coeffs(g, G.values)
    return RealField(g, lattice.inverse_values(g, coeffs))


def convolve_direct(H: RealField, G: RealField) -> RealField:
    """Brute-force periodic convolution h^d sum_y H(x - y) G(y).

    Quadratic in the number of lattice points; grids above
    ``DIRECT_CONV_MAX_POINTS`` total points are refused.
    """
    if H.grid != G.grid:
        raise ValueError("convolution operands must share one grid")
    g = H.grid
    if g.npoints > DIRECT_CONV_MAX_POINTS:
        raise GridTooLarge(
            f"direct convolution on {g.npoints} points exceeds the "
            f"{DIRECT_CONV_MAX_POINTS}-point guard; use convolve()"
        )
    # Reindex H so that displacement x_j - x_j' maps to lattice index
    # (j - j') mod n on every axis: H_disp[w] = H_periodic(w * h).
    h_disp = np.fft.ifftshift(H.reshaped())
    out = circular_convolve(h_disp, G.reshaped())
    return RealField(g, g.h**g.d * out.reshape(-1))


def circular_convolve(h_disp: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Direct circular convolution out[j] = sum_{j'} h_disp[j - j'] g[j'].

    Both arrays are d-dimensional with matching shape; indices wrap on every
    axis.  O(P^2) by construction - this is the oracle, not the fast path.
    """
    axes = tuple(range(h_disp.ndim))
    out = np.zeros_like(h_disp)
    for src in np.ndindex(g.shape):
        w = g[src]
        if w != 0.0:
            out += w * np.roll(h_disp, shift=src, axis=axes)
    return out
