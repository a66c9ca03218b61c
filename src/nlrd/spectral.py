"""Spectral application and inversion of the diffusion operator, convolution.

The linear operator is L = -Laplacian + Laplacian^2, diagonal in Fourier
space with symbol |p|^2 + |p|^4.  The symbol vanishes only at p = 0, so
inversion is defined up to the zero mode; ``invert_coeffs``, the one place
the zero mode is projected out, records its mass for every inversion.

Every routine here runs on the half-spectrum path of :mod:`nlrd.lattice`
(``forward_coeffs`` / ``inverse_values``), where the operator is a
multiplication by the symbol on ``grid.half_shape``, in the coefficient
layout of that module.  Periodic convolution is evaluated spectrally:

    (H * G)^(p) = (2 pi)^(d/2) H^(p) G^(p)

under the unitary transform convention.  ``kernel_coeffs`` is the one place
a kernel H is put in displacement order, ``forward_coeffs(ifftshift(H))``
scaled by (2 pi)^(d/2): its coefficients carry no (-1)^k sign, so the product
with the natural-layout coefficients of G transforms back to samples.  The
brute-force counterpart ``convolve_direct`` computes the defining lattice
sum h^d sum_y H(x - y) G(y) with wrap-around and is intended as a
cross-check on tiny grids only.
"""

from __future__ import annotations

import functools

import numpy as np

from . import lattice
from .lattice import Grid, RealField, half_squared_wavenumber

_TWO_PI = 2.0 * np.pi

#: largest grid (total points) accepted by ``convolve_direct``
DIRECT_CONV_MAX_POINTS = 10_000


class GridTooLarge(ValueError):
    """Raised when the O(P^2) direct convolution would be too expensive."""


@functools.lru_cache(maxsize=16)
def half_operator_symbol(grid: Grid) -> np.ndarray:
    """Symbol |p|^2 + |p|^4 on the half spectrum, shape ``grid.half_shape``."""
    q2 = half_squared_wavenumber(grid)
    return q2 + q2**2


@functools.lru_cache(maxsize=16)
def inverse_symbol(grid: Grid) -> np.ndarray:
    """1 / (|p|^2 + |p|^4) with the zero mode set to 0, half spectrum."""
    sym = half_operator_symbol(grid)
    return np.divide(1.0, sym, out=np.zeros_like(sym), where=sym > 0.0)


def apply_operator(u: RealField) -> RealField:
    """Apply -Laplacian + Laplacian^2 spectrally.

    The operator annihilates constants, so the mean is removed before the
    transform: its roundoff would otherwise leak out of the zero mode and
    be amplified by the symbol.
    """
    g = u.grid
    coeffs = lattice.forward_coeffs(g, u.values - np.mean(u.values))
    coeffs *= half_operator_symbol(g)
    return RealField(g, lattice.inverse_values(g, coeffs))


def invert_coeffs(grid: Grid, hats: np.ndarray) -> np.ndarray:
    """Divide coefficients of shape (..., *grid.half_shape) by the symbol in
    place, zero mode projected out; returns each field's dropped |F(0)|."""
    dropped = np.abs(hats[(Ellipsis,) + (0,) * grid.d])
    hats *= inverse_symbol(grid)
    return dropped


def kernel_coeffs(H: RealField) -> np.ndarray:
    """(2 pi)^(d/2) times the half spectrum of H in displacement order."""
    coeffs = lattice.forward_coeffs(H.grid, np.fft.ifftshift(H.reshaped()))
    coeffs *= _TWO_PI ** (H.grid.d / 2.0)
    return coeffs


def solve_linear(f: RealField) -> tuple[RealField, float]:
    """Solve (-Laplacian + Laplacian^2) u = f on the periodic box, the zero
    mode of f projected out; returns u and the dropped mass |f^(0)|."""
    g = f.grid
    coeffs = lattice.forward_coeffs(g, f.values)
    dropped = float(invert_coeffs(g, coeffs))
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
