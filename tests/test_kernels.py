"""Non-FFT numeric kernels (the quadratic family of :mod:`nlrd.model`, the
direct convolution of :mod:`nlrd.spectral`) against plain-loop references."""

import numpy as np
from numpy.testing import assert_allclose

from nlrd.model import quadratic_nonlinearity
from nlrd.spectral import circular_convolve


def random_mats(rng, N):
    mats = rng.standard_normal((N, N, N))
    return 0.5 * (mats + np.transpose(mats, (0, 2, 1)))


def quadratic_oracle(z, mats):
    """Plain-python reference for z^T A_m z."""
    P, N = z.shape
    out = np.zeros((P, N))
    for p in range(P):
        for m in range(N):
            out[p, m] = z[p] @ mats[m] @ z[p]
    return out


def test_numpy_quadratic_matches_plain_loops():
    rng = np.random.default_rng(0)
    z = rng.standard_normal((40, 3))
    mats = random_mats(rng, 3)
    g = quadratic_nonlinearity(mats)
    assert_allclose(g.eval(z), quadratic_oracle(z, mats), rtol=1e-13)
    # gradient of z^T A z with symmetric A is 2 A z
    grads = g.grad(z)
    for p in range(5):
        for m in range(3):
            assert_allclose(grads[p, m], 2.0 * mats[m] @ z[p], rtol=1e-13)
    # other component counts, on component-major (transposed) input as the
    # solver passes it
    for N in (1, 2, 4):
        stack = rng.standard_normal((N, 40))
        z = stack.T
        mats = random_mats(rng, N)
        g = quadratic_nonlinearity(mats)
        values = g.eval(z)
        assert_allclose(values, quadratic_oracle(z, mats), rtol=1e-13)
        assert_allclose(
            g.grad(z), 2.0 * np.einsum("mij,pj->pmi", mats, z), rtol=1e-13
        )
        # a single point, and points with two leading axes
        assert_allclose(g.eval(z[7]), quadratic_oracle(z[7:8], mats)[0], rtol=1e-13)
        assert_allclose(g.grad(z[7]), g.grad(z[7:8])[0], rtol=1e-13)
        grid_points = stack.T.reshape(5, 8, N)
        assert_allclose(
            g.eval(grid_points),
            quadratic_oracle(z, mats).reshape(5, 8, N),
            rtol=1e-13,
        )
        assert g.grad(grid_points).shape == (5, 8, N, N)
        # the solver's view of a field stack: component rows stay contiguous
        fields = rng.standard_normal((N, 3, 4, 5))
        assert g.eval(fields.reshape(N, -1).T).T.flags.c_contiguous


def test_numpy_convolve_matches_plain_loops():
    rng = np.random.default_rng(1)
    h = rng.standard_normal((4, 5))
    g = rng.standard_normal((4, 5))
    out = circular_convolve(h, g)
    expected = np.zeros_like(h)
    for j0 in range(4):
        for j1 in range(5):
            acc = 0.0
            for k0 in range(4):
                for k1 in range(5):
                    acc += h[(j0 - k0) % 4, (j1 - k1) % 5] * g[k0, k1]
            expected[j0, j1] = acc
    assert_allclose(out, expected, rtol=0, atol=1e-13)
