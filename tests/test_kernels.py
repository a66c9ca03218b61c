"""Non-FFT numeric kernels (the quadratic forms of :mod:`nlrd.model`, the
direct convolution of :mod:`nlrd.spectral`) against plain-loop references."""

import numpy as np
from numpy.testing import assert_allclose

from nlrd.model import _quadratic_gradients, _quadratic_values
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
    assert_allclose(
        _quadratic_values(z, mats),
        quadratic_oracle(z, mats),
        rtol=1e-13,
    )
    # gradient of z^T A z with symmetric A is 2 A z
    grads = _quadratic_gradients(z, mats)
    for p in range(5):
        for m in range(3):
            assert_allclose(grads[p, m], 2.0 * mats[m] @ z[p], rtol=1e-13)
    # other component counts, on component-major (transposed) input as the
    # solver passes it
    for N in (1, 2, 4):
        z = np.ascontiguousarray(rng.standard_normal((N, 40))).T
        mats = random_mats(rng, N)
        assert_allclose(
            _quadratic_values(z, mats),
            quadratic_oracle(z, mats),
            rtol=1e-13,
        )
        assert_allclose(
            _quadratic_gradients(z, mats),
            2.0 * np.einsum("mij,pj->pmi", mats, z),
            rtol=1e-13,
        )


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
