"""Non-FFT numeric kernels in plain numpy.

Batched quadratic-form evaluation over lattice points (the quadratic
nonlinearity's values and gradients) and the brute-force periodic
convolution oracle.
"""

from __future__ import annotations

import numpy as np


def quadratic_values(z: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """Evaluate z^T A_m z for every point and component.

    z: (P, N) points, mats: (N, N, N) stack of symmetric matrices.  Returns
    (P, N), as the transpose of a component-major (N, P) array, so each
    component's values are contiguous.  The form is summed term by term
    over the products z_i z_j with i <= j, each off-diagonal term counted
    twice; one product is live at a time, which bounds the extra memory.
    """
    P, N = z.shape
    out = np.zeros((N, P))
    zz = np.empty(P)
    for i in range(N):
        for j in range(i, N):
            np.multiply(z[:, i], z[:, j], out=zz)
            for m in range(N):
                coef = mats[m, i, i] if i == j else 2.0 * mats[m, i, j]
                out[m] += coef * zz
    return out.T


def quadratic_gradients(z: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """Gradients 2 A_m z of the quadratic forms; returns (P, N, N).

    Entry [p, m, i] is 2 sum_j A_m[i, j] z[p, j].
    """
    P, N = z.shape
    return 2.0 * (z @ mats.reshape(N * N, N).T).reshape(P, N, N)


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
