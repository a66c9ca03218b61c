"""Problem data: kernels, forcings, nonlinearities, and their validation.

A :class:`Problem` bundles everything that defines one instance of the
stationary nonlocal reaction-diffusion system

    (-Laplacian + Laplacian^2) u_m = eps_m (H_m * g_m(u)) + f_m,
        m = 1 .. N,  x in R^d,  d in {5, 6, 7},

truncated to the periodic box carried by its grid: the coupling amplitudes
eps_m, the convolution kernels H_m, the forcings f_m, and the nonlinearity
g.  It holds each kernel and forcing as a source: a field's samples
(:class:`~nlrd.lattice.RealField`), or a Gaussian from a config
(:class:`GaussianSource`), which gives its coefficients and norms in closed
form from its 1-D factors and is sampled only where a caller asks for
``values``.  It caches the linear background u0 = L^(-1) f, inverted by
``spectral.invert_coeffs``, which takes its H^4 norm in the same pass, the
report on its data and, per kernel, what
:meth:`Problem.coupled_coeffs` needs: d 1-D factors for a Gaussian
(``spectral.kernel_factors``), a half spectrum for a sampled kernel
(``spectral.kernel_coeffs``).  The
certified-bounds layer (:mod:`nlrd.bounds`) consumes these through the
validators defined here:

* ``validate_problem_data`` checks integrability and nontriviality of the
  kernels and forcings and reports their norms and the aggregate kernel
  norms; it is the one place these norms are measured, once per problem.
* ``validate_nonlinearity`` checks g(0) = 0, grad g(0) = 0, and that the
  C^2 norm of g over the relevant ball of state values stays within the
  declared bound.

C^2 ball norms come either from a closed form (the quadratic family ships
one) or from a seeded boundary-biased Monte Carlo estimate.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from . import lattice
from .lattice import Grid, RealField, VectorField, real_number
from .spectral import invert_coeffs, kernel_coeffs, kernel_factors

#: dimensions for which the certified bounds are derived
SUPPORTED_DIMENSIONS = (5, 6, 7)

#: absolute tolerance for "vanishes at the origin" checks
ZERO_POINT_TOL = 1e-12

#: default sample budget for Monte Carlo C^2 estimates
DEFAULT_C2_BUDGET = 100_000


# ---------------------------------------------------------------------------
# Gaussian library fields
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GaussianSpec:
    """Isotropic Gaussian bump a * exp(-|x - c|^2 / (2 w^2)).

    Sampled as a product of 1-D factors.  Carries closed-form norms of the
    untruncated profile on R^d, which the discrete norms of a sampled field
    approach when the box is wide and the lattice fine relative to the width.
    """

    width: float = 1.0
    amplitude: float = 1.0
    center: tuple[float, ...] | float = 0.0

    def __post_init__(self) -> None:
        center = self.center.tolist() if isinstance(self.center, np.ndarray) else self.center
        center = center if isinstance(center, (list, tuple)) else (center,)
        center = tuple(real_number(c, "gaussian center") for c in center)
        object.__setattr__(self, "center", center)
        for name in ("width", "amplitude"):
            object.__setattr__(self, name, real_number(getattr(self, name), f"gaussian {name}"))
        if not (self.width > 0.0 and np.isfinite(self.width)):
            raise ValueError(f"gaussian width must be positive, got {self.width}")
        if self.width * self.width == math.inf:  # a profile needs 2 w^2
            raise ValueError(f"gaussian width {self.width} is too large: its square overflows")
        if not np.isfinite(self.amplitude):
            raise ValueError("gaussian amplitude must be finite")

    def _center_for(self, d: int) -> np.ndarray:
        c = np.asarray(self.center, dtype=float).reshape(-1)
        if c.size == 1:
            return np.full(d, c[0])
        if c.size != d:
            raise ValueError(f"center has {c.size} entries for dimension {d}")
        return c

    @np.errstate(divide="ignore", over="ignore", invalid="ignore")  # callers check finiteness
    def _factors(self, grid: Grid) -> list[np.ndarray]:
        """Factors a e_1, e_2, ..., e_d, e_j = exp(-(x - c_j)^2 / (2 w^2)) in [0, 1]."""
        x, two_w2 = grid.axis_coords(), 2.0 * self.width**2
        factors = [np.exp(-((x - c) ** 2) / two_w2) for c in self._center_for(grid.d)]
        factors[0] *= self.amplitude
        return factors

    def sample(self, grid: Grid) -> RealField:
        """a e_1 (x) ... (x) e_d: exp at d n points, and no full-size array but
        the result."""
        return RealField(grid, functools.reduce(np.multiply.outer, self._factors(grid)))

    def l1(self, d: int) -> float:
        """Exact L^1 norm on R^d: |a| (2 pi)^(d/2) w^d."""
        return abs(self.amplitude) * (2.0 * np.pi) ** (d / 2.0) * self.width**d

    def l2(self, d: int) -> float:
        """Exact L^2 norm on R^d: |a| pi^(d/4) w^(d/2)."""
        return abs(self.amplitude) * np.pi ** (d / 4.0) * self.width ** (d / 2.0)


@dataclass(frozen=True)
class GaussianSource:
    """A field source: ``grid``, ``values`` and ``sample()``, the samples as
    a :class:`RealField`; ``coeffs(out=None)``, their half spectrum, made
    in ``out`` when given; and ``norms()``, their lattice L^1 and L^2
    norms.  A RealField is its own source, and transforms and sums its
    samples.  A Gaussian is the rank-one tensor of its 1-D factors, so its
    coefficients are the outer product of their 1-D transforms and its
    norms products of 1-D sums: neither samples it.  Each read of
    ``values`` samples the spec afresh, to the same bits; finite factors
    (each e_j in [0, 1]) give finite ones."""

    grid: Grid
    spec: GaussianSpec

    def __post_init__(self) -> None:
        if not all(np.all(np.isfinite(f)) for f in self.spec._factors(self.grid)):
            raise ValueError("gaussian samples must be finite")

    values = property(lambda self: self.sample().values)

    def sample(self) -> RealField:
        return self.spec.sample(self.grid)

    def coeffs(self, out: np.ndarray | None = None) -> np.ndarray:
        return lattice.outer_coeffs(self.grid, self.spec._factors(self.grid), out=out)

    def norms(self) -> tuple[float, float]:
        """h^d prod_j sum_i |f_j(x_i)| and (h^d prod_j sum_i f_j(x_i)^2)^(1/2)
        for the factors f_j, the sums over samples in closed form."""
        factors = self.spec._factors(self.grid)
        volume = self.grid.h**self.grid.d
        l1 = volume * math.prod(float(np.abs(f).sum()) for f in factors)
        return l1, math.sqrt(volume * math.prod(float(np.dot(f, f)) for f in factors))


# ---------------------------------------------------------------------------
# nonlinearities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Nonlinearity:
    """Vector nonlinearity g: R^N -> R^N with batched derivatives.

    ``eval`` maps (P, N) -> (P, N); ``grad`` maps (P, N) -> (P, N, N) with
    grad[p, m, i] = d g_m / d z_i; ``hess`` maps (P, N) -> (P, N, N, N).
    ``c2_ball_norm``, when present, returns the exact C^2 norm over the
    closed ball |z| <= r.  ``matrices`` is set for the quadratic family and
    enables exact difference/scaling arithmetic.
    """

    N: int
    eval: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    grad: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    hess: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    c2_ball_norm: Callable[[float], float] | None = field(default=None, repr=False)
    matrices: tuple[np.ndarray, ...] | None = field(default=None, repr=False)
    label: str = "custom"

    def __post_init__(self) -> None:
        if self.N < 1:
            raise ValueError("a nonlinearity needs at least one component")


@np.errstate(over="ignore")  # only a norm beyond the float range is inf
def _quadratic_c2_ball_norm(mats: np.ndarray, radius: float) -> float:
    """Exact C^2 norm of z -> (z^T A_m z)_m over the ball |z| <= radius."""
    r = float(radius)
    total = 0.0
    for A in mats:
        eig = np.linalg.eigvalsh(A)
        total += (
            r**2 * float(np.max(np.abs(eig)))
            + 2.0 * r * float(np.sum(np.hypot.reduce(A, axis=1)))
            + 2.0 * float(np.sum(np.abs(A)))
        )
    return total


def quadratic_nonlinearity(
    matrices: Sequence[np.ndarray], label: str = "quadratic"
) -> Nonlinearity:
    """Quadratic family g_m(z) = z^T A_m z with symmetric A_m.

    Asymmetric input matrices are replaced by their symmetric part, which
    leaves the quadratic forms unchanged and makes the derivative formulas
    (grad = 2 A z, hess = 2 A) exact.  ``eval``, ``grad`` and ``hess``
    accept points of any leading shape (..., N).
    """
    mats = np.stack([np.asarray(A, dtype=np.float64) for A in matrices])
    if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
        raise ValueError(f"expected a stack of square matrices, got shape {mats.shape}")
    N = mats.shape[0]
    if mats.shape[1] != N:
        raise ValueError(
            f"need one {N}x{N} matrix per component, got {mats.shape[1]}x{mats.shape[2]}"
        )
    mats = 0.5 * (mats + np.transpose(mats, (0, 2, 1)))
    twice = 2.0 * mats
    mats.setflags(write=False)
    twice.setflags(write=False)
    # g_m(z) = sum over i <= j of z_i z_j [A_m]_ij (2 if i < j else 1)
    iu, ju = np.triu_indices(N)
    packed = mats[:, iu, ju] * np.where(iu < ju, 2.0, 1.0)

    # the pair products and the matmul run component-major, so the
    # solver's component rows (the transpose of the values) are contiguous
    def _eval(z: np.ndarray) -> np.ndarray:
        zt = np.asarray(z).T
        pairs = zt[iu]
        pairs *= zt[ju]
        return (packed @ pairs.reshape(len(iu), -1)).reshape(zt.shape).T

    def _grad(z: np.ndarray) -> np.ndarray:
        return (z @ twice.reshape(N * N, N).T).reshape(np.shape(z)[:-1] + (N, N))

    def _hess(z: np.ndarray) -> np.ndarray:
        return np.broadcast_to(twice, np.shape(z)[:-1] + (N, N, N))

    return Nonlinearity(
        N=N,
        eval=_eval,
        grad=_grad,
        hess=_hess,
        c2_ball_norm=lambda r: _quadratic_c2_ball_norm(mats, r),
        matrices=tuple(mats[m] for m in range(N)),
        label=label,
    )


def scale_nonlinearity(g: Nonlinearity, factor: float) -> Nonlinearity:
    """Pointwise rescaling factor * g; C^2 norms scale by |factor|."""
    s = float(factor)
    if g.matrices is not None:
        # an overflowing entry is reported by the C^2 check, as an inf norm
        with np.errstate(over="ignore"):
            return quadratic_nonlinearity(
                [s * A for A in g.matrices], label=f"{g.label}*{s:g}"
            )
    c2 = None
    if g.c2_ball_norm is not None:
        base = g.c2_ball_norm
        c2 = lambda r: abs(s) * base(r)  # noqa: E731
    return Nonlinearity(
        N=g.N,
        eval=lambda z: s * g.eval(z),
        grad=lambda z: s * g.grad(z),
        hess=lambda z: s * g.hess(z),
        c2_ball_norm=c2,
        label=f"{g.label}*{s:g}",
    )


# ---------------------------------------------------------------------------
# C^2 ball norms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class C2Norm:
    """A C^2 ball norm together with how it was obtained."""

    value: float
    radius: float
    method: str  # "analytic" or "sampled"
    samples: int = 0


def ball_samples(
    n_components: int, radius: float, budget: int, seed: int
) -> np.ndarray:
    """Seeded points in the closed ball |z| <= radius, biased to the boundary.

    Directions are isotropic; radii are radius * U^(1/N) so the sup estimates
    concentrate where quadratic-like quantities attain their maxima.
    """
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((budget, n_components))
    norms = np.linalg.norm(dirs, axis=1)
    norms[norms == 0.0] = 1.0
    radii = radius * rng.random(budget) ** (1.0 / n_components)
    return dirs / norms[:, None] * radii[:, None]


def _sampled_c2(
    g: Nonlinearity, radius: float, budget: int, seed: int
) -> float:
    z = ball_samples(g.N, radius, budget, seed)
    vals = np.max(np.abs(g.eval(z)), axis=0)
    grads = np.max(np.abs(g.grad(z)), axis=0)
    hesses = np.max(np.abs(g.hess(z)), axis=0)
    return float(np.sum(vals) + np.sum(grads) + np.sum(hesses))


def c2_norm(
    g: Nonlinearity,
    radius: float,
    budget: int = DEFAULT_C2_BUDGET,
    seed: int = 0,
) -> C2Norm:
    """C^2 norm of g over the ball |z| <= radius.

    Uses the closed form when the nonlinearity carries one; otherwise sums
    per-term sampled suprema of |g_m|, |d g_m / d z_i| and the second
    derivatives over a seeded ball sample.  The sampled estimate is a lower
    bound that converges from below as the budget grows.
    """
    if radius < 0.0 or not np.isfinite(radius):
        raise ValueError(f"ball radius must be finite and nonnegative, got {radius}")
    if g.c2_ball_norm is not None:
        return C2Norm(float(g.c2_ball_norm(radius)), float(radius), "analytic")
    if budget < 1:
        raise ValueError("sample budget must be positive")
    value = _sampled_c2(g, radius, budget, seed)
    return C2Norm(value, float(radius), "sampled", samples=budget)


def c2_gap(
    g1: Nonlinearity,
    g2: Nonlinearity,
    radius: float,
    budget: int = DEFAULT_C2_BUDGET,
    seed: int = 0,
) -> C2Norm:
    """C^2 norm of the difference g1 - g2 over the ball |z| <= radius."""
    if g1.N != g2.N:
        raise ValueError("nonlinearities act on different numbers of components")
    if g1.matrices is not None and g2.matrices is not None:
        diff = quadratic_nonlinearity(
            [A - B for A, B in zip(g1.matrices, g2.matrices)],
            label=f"{g1.label}-{g2.label}",
        )
        return c2_norm(diff, radius)
    diff = Nonlinearity(
        N=g1.N,
        eval=lambda z: g1.eval(z) - g2.eval(z),
        grad=lambda z: g1.grad(z) - g2.grad(z),
        hess=lambda z: g1.hess(z) - g2.hess(z),
        label=f"{g1.label}-{g2.label}",
    )
    return c2_norm(diff, radius, budget=budget, seed=seed)


def image_ball_radius(background_h4: float, embedding_constant: float) -> float:
    """Radius c (|u0|_H4 + 1) of the ball of state values seen by g.

    Solution candidates live in the H^4 ball of radius 1 around the
    background u0; the sup-norm embedding of constant c maps them here.
    """
    if background_h4 < 0.0 or not np.isfinite(background_h4):
        raise ValueError("background norm must be finite and nonnegative")
    if embedding_constant <= 0.0:
        raise ValueError("embedding constant must be positive")
    return embedding_constant * (background_h4 + 1.0)


# ---------------------------------------------------------------------------
# problem container
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Problem:
    """One instance of the truncated nonlocal reaction-diffusion system.

    Kernels and forcings are sources (a :class:`RealField` or a
    :class:`GaussianSource`), read by each pass that needs their norms or
    coefficients: the data report of :func:`validate_problem_data` and the
    background u0, computed on first use and cached, and each residual.
    The coupling eps_m (2 pi)^(d/2) H^_m is not held as an array for a
    Gaussian kernel: :meth:`coupled_coeffs` folds its d 1-D factors,
    cached, into the transform.  A sampled kernel's coupling is one cached
    half spectrum.  Derived problems share the caches by reference, so each
    array exists once: :meth:`with_nonlinearity` shares all three,
    :meth:`with_eps` u0 and the data report, as the coupling scales with
    eps.  ``dataclasses.replace`` starts with empty caches.
    """

    grid: Grid
    eps: tuple[float, ...]
    kernels: tuple[RealField | GaussianSource, ...]
    forcings: tuple[RealField | GaussianSource, ...]
    nonlinearity: Nonlinearity
    rho: float = 1.0
    c2_bound: float = 1.0
    _data: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _coupling: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.grid.d not in SUPPORTED_DIMENSIONS:
            raise ValueError(
                f"certified bounds require d in {SUPPORTED_DIMENSIONS}, "
                f"got d = {self.grid.d}"
            )
        eps = tuple(float(e) for e in self.eps)
        kernels = tuple(self.kernels)
        forcings = tuple(self.forcings)
        object.__setattr__(self, "eps", eps)
        object.__setattr__(self, "kernels", kernels)
        object.__setattr__(self, "forcings", forcings)
        N = self.nonlinearity.N
        if not (len(eps) == len(kernels) == len(forcings) == N):
            raise ValueError(
                f"component counts disagree: eps={len(eps)}, kernels={len(kernels)}, "
                f"forcings={len(forcings)}, nonlinearity={N}"
            )
        if N < 2:
            warnings.warn(
                "the system is intended for N >= 2 components; N = 1 is untested "
                "territory for the certified bounds",
                UserWarning,
                stacklevel=3,
            )
        for e in eps:
            if e < 0.0 or not np.isfinite(e):
                raise ValueError(f"coupling amplitudes must be finite and >= 0, got {e}")
        for f in (*kernels, *forcings):
            if f.grid != self.grid:
                raise ValueError("kernels and forcings must live on the problem grid")
        # H^4 norms square coefficients far below rho; for smaller balls
        # they underflow to 0 and the probe cannot tell its pairs apart
        if not (1e-100 <= self.rho and np.isfinite(self.rho)):
            raise ValueError(
                "perturbation ball radius must be positive, at least 1e-100, "
                f"got {self.rho}"
            )
        if self.rho > 1.0:
            raise ValueError(
                f"perturbation ball radius must be <= 1, got {self.rho}"
            )
        if not (self.c2_bound > 0.0 and np.isfinite(self.c2_bound)):
            raise ValueError(f"C^2 bound must be positive, got {self.c2_bound}")

    @property
    def d(self) -> int:
        return self.grid.d

    @property
    def n_components(self) -> int:
        return self.nonlinearity.N

    def with_eps(self, eps: Sequence[float] | float) -> "Problem":
        if np.isscalar(eps):
            eps = (float(eps),) * self.n_components
        derived = replace(self, eps=tuple(float(e) for e in eps))
        object.__setattr__(derived, "_data", self._data)
        return derived

    def with_nonlinearity(self, g: Nonlinearity) -> "Problem":
        derived = replace(self, nonlinearity=g)
        object.__setattr__(derived, "_data", self._data)
        object.__setattr__(derived, "_coupling", self._coupling)
        return derived

    @property
    def background(self) -> VectorField:
        """Samples of u0, the zero-mode-free solution of L u0_m = f_m."""
        return self._background()["background"]

    @property
    def background_h4(self) -> float:
        return self._background()["h4"]

    @property
    def background_dropped(self) -> tuple[float, ...]:
        """Zero-mode masses |f^_m(0)| the background solve projects out."""
        return self._background()["dropped"]

    def _background(self) -> dict:
        if "background" not in self._data:
            grid = self.grid
            hats = np.empty((self.n_components,) + grid.half_shape, dtype=np.complex128)
            for m, f in enumerate(self.forcings):
                f.coeffs(out=hats[m])
            dropped, h4_sq, _ = invert_coeffs(grid, hats)
            u0 = VectorField(grid, lattice.inverse_stack(grid, hats))  # checks finiteness
            u0.values.flags.writeable = False  # shared by every derived problem
            h4 = math.sqrt(h4_sq)
            dropped = tuple(dropped.tolist())
            self._data.update(background=u0, h4=h4, dropped=dropped)
        return self._data

    def coupled_coeffs(
        self, m: int, values: np.ndarray, out: np.ndarray | None = None,
        scratch: np.ndarray | None = None,
    ) -> np.ndarray:
        """eps_m (2 pi)^(d/2) H^_m F(values), H_m in displacement order (see
        :mod:`nlrd.spectral`): the coefficients of eps_m H_m * values, into
        ``out`` (a new array by default), in one forward transform, which
        takes ``scratch`` as :func:`nlrd.lattice.forward_coeffs` does.

        A Gaussian kernel's per-axis factors are folded into the transform;
        a sampled kernel's half spectrum multiplies it.  Either is made on
        first use and cached: d 1-D arrays, or one read-only half spectrum.
        """
        if m not in self._coupling:
            H = self.kernels[m]
            if isinstance(H, GaussianSource):
                factors = kernel_factors(self.grid, H.spec._factors(self.grid), self.eps[m])
                self._coupling[m] = (factors, None)
            else:
                row = kernel_coeffs(H)
                row *= self.eps[m]
                row.flags.writeable = False
                self._coupling[m] = (None, row)
        factors, row = self._coupling[m]
        out = lattice.forward_coeffs(
            self.grid, values, out=out, factors=factors, scratch=scratch
        )
        if row is not None:
            out *= row
        return out


def _rss(norms: Sequence[float]) -> float:
    """(sum of squares)^(1/2); inf when a square overflows."""
    try:
        return float(np.sqrt(sum(v**2 for v in norms)))
    except OverflowError:
        return math.inf


# ---------------------------------------------------------------------------
# validators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DataReport:
    """Integrability/nontriviality report for kernels and forcings."""

    failures: tuple[str, ...]  # the failed clauses; passed when empty
    forcing_l1: tuple[float, ...]
    forcing_l2: tuple[float, ...]
    kernel_l1: tuple[float, ...]
    kernel_l2: tuple[float, ...]
    kernel_l1_rss: float
    kernel_l2_rss: float


@np.errstate(over="ignore")
def validate_problem_data(problem: Problem) -> DataReport:
    """Check the integrability and nontriviality requirements on the data.

    Every kernel and forcing must have finite L^1 and L^2 norms, and so
    must the root-sum-square aggregates kernel_l1_rss and kernel_l2_rss
    that enter every certified bound (a finite norm can still overflow its
    square; the check replaces numpy's overflow warning); at least one
    forcing and at least one kernel must be nontrivial, so the
    certified-bound formulas are meaningful.

    The report depends on the kernels and forcings only, so it is
    measured once per problem and cached beside the background, where
    the problems derived from it find it too.  Each source gives its own
    norms (``norms()``): a sampled field sums its samples, a Gaussian
    multiplies 1-D sums.
    """
    if "report" in problem._data:
        return problem._data["report"]
    # (L^1 norms, L^2 norms) of each kind
    f_l1, f_l2 = zip(*[s.norms() for s in problem.forcings])
    k_l1, k_l2 = zip(*[s.norms() for s in problem.kernels])
    l1_rss, l2_rss = _rss(k_l1), _rss(k_l2)

    failures: list[str] = []
    if not all(np.isfinite(v) for v in (*f_l1, *f_l2, *k_l1, *k_l2, l1_rss, l2_rss)):
        failures.append("norms_finite")
    if max(f_l2, default=0.0) == 0.0:
        failures.append("forcing_nontrivial")
    if max(k_l2, default=0.0) == 0.0:
        failures.append("kernel_nontrivial")
    report = problem._data["report"] = DataReport(
        failures=tuple(failures),
        forcing_l1=f_l1,
        forcing_l2=f_l2,
        kernel_l1=k_l1,
        kernel_l2=k_l2,
        kernel_l1_rss=l1_rss,
        kernel_l2_rss=l2_rss,
    )
    return report


@dataclass(frozen=True)
class NonlinearityReport:
    """Origin and C^2-bound report for a nonlinearity on a state ball."""

    failures: tuple[str, ...]  # the failed clauses; passed when empty
    value_at_zero: float
    gradient_at_zero: float
    c2_norm: float
    c2_method: str  # "analytic" or "sampled"
    c2_samples: int
    ball_radius: float
    c2_bound: float
    sampled_sup: float


@np.errstate(over="ignore", invalid="ignore")  # the clauses check the values
def validate_nonlinearity(
    g: Nonlinearity,
    radius: float,
    c2_bound: float,
    budget: int = DEFAULT_C2_BUDGET,
    seed: int = 0,
) -> NonlinearityReport:
    """Check g(0) = 0, grad g(0) = 0, nontriviality, and the C^2 bound.

    ``radius`` is the state-ball radius (see :func:`image_ball_radius`) and
    ``c2_bound`` the declared bound the C^2 norm must not exceed.
    """
    zero = np.zeros((1, g.N))
    v0 = float(np.max(np.abs(g.eval(zero))))
    g0 = float(np.max(np.abs(g.grad(zero))))
    c2 = c2_norm(g, radius, budget=budget, seed=seed)
    probe = ball_samples(g.N, radius, min(budget, 4096), seed + 1)
    sup = float(np.max(np.abs(g.eval(probe)))) if radius > 0 else 0.0

    failures: list[str] = []
    if v0 > ZERO_POINT_TOL:
        failures.append("vanishes_at_origin")
    if g0 > ZERO_POINT_TOL:
        failures.append("gradient_vanishes_at_origin")
    if sup == 0.0:
        failures.append("nontrivial_on_ball")
    if not (c2.value <= c2_bound):
        failures.append("c2_within_bound")
    return NonlinearityReport(
        failures=tuple(failures),
        value_at_zero=v0,
        gradient_at_zero=g0,
        c2_norm=c2.value,
        c2_method=c2.method,
        c2_samples=c2.samples,
        ball_radius=c2.radius,
        c2_bound=float(c2_bound),
        sampled_sup=sup,
    )
