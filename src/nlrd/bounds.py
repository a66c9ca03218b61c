"""Certified contraction and perturbation bounds for the fixed-point map.

With u = u0 + v and u0 the solution of the linear problem, candidates v live
in the closed H^4 ball of radius rho <= 1, so every state value u(x) lies in
the ball of radius max(c_e, c_h) (|u0|_H4 + 1) in R^N, with c_e and c_h the
sup-norm embedding constants of H^4(R^d), d < 8, and of H^4 on the lattice
(:func:`lattice_embedding_constant`).  On that ball the fixed-point map is
Lipschitz with constant eps * kappa, where eps = max_m eps_m and

    kappa = c2 (|u0|_H4 + 1) [ l1^2 (|u0|_H4 + 1)^(8/d - 2)
                (S_d / 4)^(4/d) d / ((d - 4) (2 pi)^4) + l2^2 ]^(1/2),

with c2 the C^2 bound on the nonlinearity, l1/l2 the root-sum-square
aggregates of the kernel L^1/L^2 norms, and S_d the unit-sphere measure.
The map contracts strictly for eps below

    eps_max = rho / ((|u0|_H4 + 1) kappa),

and the fixed point v* then satisfies the a-priori bound
|v*|_H4 <= eps kappa (|u0|_H4 + 1).

The exponent 8/d - 2 comes from optimizing the low/high frequency split in
the convolution estimate (:func:`frequency_split_minimum`); a d-independent
8/2 - 2 variant sometimes quoted for this estimate is not used here.

``*_raw`` functions evaluate the formulas on plain numbers with no
preconditions (useful for algebraic checks); :func:`compute_bounds`
validates the data and nonlinearity requirements and reports every
constant for one problem, certified only when its ``failures`` are empty.
It is the one place a certified constant is derived: ``config.build_problem``
reads eps_max and the C^2 norm of g over the state ball from the report on
its uncoupled problem, and :func:`validate_problem` holds the one state-ball rule.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .lattice import Grid, h4_shells, shell_blocks
from .model import (
    SUPPORTED_DIMENSIONS,
    DataReport,
    NonlinearityReport,
    Problem,
    image_ball_radius,
    validate_nonlinearity,
    validate_problem_data,
)

_TWO_PI = 2.0 * np.pi


class BadDimension(ValueError):
    """Raised for dimensions outside the range a formula is derived for."""


class NonPositiveAlpha(ValueError):
    """Raised when the frequency-split weight is not positive."""


class ContractionNotStrict(ValueError):
    """Raised when a bound requires eps * kappa < 1 but it is not."""


class AssumptionsNotValidated(RuntimeError):
    """Raised by a caller that cannot go on without a certificate, naming
    the failed requirement clauses of a :class:`BoundsReport`."""

    def __init__(self, failures: tuple[str, ...]):
        self.failures = failures
        super().__init__(
            "problem requirements failed: " + ", ".join(failures)
        )


# ---------------------------------------------------------------------------
# geometric constants
# ---------------------------------------------------------------------------

def sphere_measure(d: int) -> float:
    """Surface measure of the unit sphere in R^d: 2 pi^(d/2) / Gamma(d/2)."""
    if d < 1:
        raise BadDimension(f"dimension must be >= 1, got {d}")
    return 2.0 * np.pi ** (d / 2.0) / math.gamma(d / 2.0)


def radial_weight_integral(d: int) -> float:
    """Closed form of the integral of r^(d-1) / (1 + r^8) over r > 0.

    Equals (pi / 8) / sin(pi d / 8), finite for 0 < d < 8.
    """
    if not 0 < d < 8:
        raise BadDimension(f"the radial integral diverges unless 0 < d < 8, got {d}")
    return (np.pi / 8.0) / np.sin(np.pi * d / 8.0)


def sobolev_embedding_constant(d: int) -> float:
    """Constant c_e with sup |u| <= c_e |u|_H4, valid for d < 8.

    c_e = (2 pi)^(-d/2) (S_d I_d)^(1/2) where S_d is the unit-sphere measure
    and I_d the radial weight integral; follows from Cauchy-Schwarz against
    the spectral weight 1 + |p|^8.
    """
    if not 0 < d < 8:
        raise BadDimension(f"the sup-norm embedding of H^4 needs d < 8, got {d}")
    return float(
        _TWO_PI ** (-d / 2.0) * np.sqrt(sphere_measure(d) * radial_weight_integral(d))
    )


@functools.lru_cache(maxsize=16)
def lattice_embedding_constant(grid: Grid) -> float:
    """Sharp constant c_h = (2 pi)^(-d/2) dp^(d/2) (sum_k 1 / (1 + |p_k|^8))^(1/2)
    with max |u| <= c_h |u|_H4 on the lattice: Cauchy-Schwarz against the H^4
    weight, an equality for F_k = 1 / (1 + |p_k|^8).  Summed over the half
    spectrum as w / W per block of ``lattice.shell_blocks`` (w the block's
    Hermitian multiplicity, W the H^4 weight)."""
    total = sum(
        mult * np.reciprocal(w, out=scratch[: len(w)]).sum()
        for _, _, mult, scratch, w in shell_blocks(grid, h4_shells)
    )
    return float(_TWO_PI ** (-grid.d / 2.0) * grid.dp ** (grid.d / 2.0) * math.sqrt(total))


def frequency_split_minimum(alpha: float, d: int) -> tuple[float, float]:
    """Minimize alpha R^(d-4) + R^(-4) over R > 0, in closed form.

    Returns (R_min, minimum value) with R_min = (4 / (alpha (d - 4)))^(1/d).
    This is the low/high frequency trade-off behind the kernel estimate.
    """
    if alpha <= 0.0 or not np.isfinite(alpha):
        raise NonPositiveAlpha(f"split weight must be positive, got {alpha}")
    if not isinstance(d, (int, np.integer)) or d <= 4:
        raise BadDimension(f"the split optimum needs integer d > 4, got {d}")
    r_star = (4.0 / (alpha * (d - 4.0))) ** (1.0 / d)
    value = alpha * r_star ** (d - 4.0) + r_star ** (-4.0)
    return float(r_star), float(value)


# ---------------------------------------------------------------------------
# raw formula layer (no validation)
# ---------------------------------------------------------------------------

def _kernel_bracket(
    d: int, kernel_l1_rss: float, kernel_l2_rss: float, shifted_norm: float
) -> float:
    """The bracketed kernel factor [ l1^2 b^(8/d-2) ... + l2^2 ]; inf when
    a square overflows."""
    try:
        low = (
            kernel_l1_rss**2
            * shifted_norm ** (8.0 / d - 2.0)
            * (sphere_measure(d) / 4.0) ** (4.0 / d)
            * d
            / ((d - 4.0) * _TWO_PI**4)
        )
        return low + kernel_l2_rss**2
    except OverflowError:
        return math.inf


def lipschitz_coefficient_raw(
    d: int,
    c2_bound: float,
    kernel_l1_rss: float,
    kernel_l2_rss: float,
    background_h4: float,
) -> float:
    """Lipschitz constant of the fixed-point map per unit coupling."""
    if d not in SUPPORTED_DIMENSIONS:
        raise BadDimension(f"bounds are derived for d in {SUPPORTED_DIMENSIONS}, got {d}")
    b = background_h4 + 1.0
    return c2_bound * b * math.sqrt(
        _kernel_bracket(d, kernel_l1_rss, kernel_l2_rss, b)
    )


def coupling_threshold_raw(
    d: int,
    rho: float,
    c2_bound: float,
    kernel_l1_rss: float,
    kernel_l2_rss: float,
    background_h4: float,
) -> float:
    """Largest coupling for which the map contracts the radius-rho ball;
    inf when kappa = 0 (no coupling reaches the nonlinearity)."""
    b = background_h4 + 1.0
    kappa = lipschitz_coefficient_raw(
        d, c2_bound, kernel_l1_rss, kernel_l2_rss, background_h4
    )
    return rho / (b * kappa) if kappa != 0.0 else math.inf


def apriori_bound_raw(
    d: int,
    eps: float,
    c2_bound: float,
    kernel_l1_rss: float,
    kernel_l2_rss: float,
    background_h4: float,
) -> float:
    """A-priori H^4 bound eps kappa (|u0| + 1) on the fixed-point perturbation."""
    b = background_h4 + 1.0
    kappa = lipschitz_coefficient_raw(
        d, c2_bound, kernel_l1_rss, kernel_l2_rss, background_h4
    )
    return eps * kappa * b


def continuity_bound_raw(
    eps: float,
    lipschitz_coeff: float,
    c2_bound: float,
    background_h4: float,
    nonlinearity_gap: float,
) -> float:
    """Bound on the fixed-point shift under a nonlinearity perturbation.

    |u1 - u2|_H4 <= eps kappa / (c2 (1 - eps kappa)) (|u0| + 1) |g1 - g2|_C2,
    requiring the shared contraction constant eps kappa < 1.
    """
    ek = eps * lipschitz_coeff
    if not ek < 1.0:
        raise ContractionNotStrict(
            f"continuity bound needs eps * kappa < 1, got {ek:.6g}"
        )
    return ek / (c2_bound * (1.0 - ek)) * (background_h4 + 1.0) * nonlinearity_gap


# ---------------------------------------------------------------------------
# validated problem-level layer
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundsReport:
    """Every constant for one problem instance, certified only when ``failures``
    is empty, and the C^2 norm of g over the state ball with its method:
    ``"analytic"``, g's closed form, for every certified report; a g without
    one reports an inf norm, ``"unavailable"``, and the ``c2_analytic``
    failure."""

    failures: tuple[str, ...]
    d: int
    rho: float
    c2_bound: float
    kernel_l1_rss: float
    kernel_l2_rss: float
    background_h4: float
    sobolev_constant: float
    lattice_sobolev_constant: float
    state_ball_radius: float
    c2_norm: float
    c2_method: str  # "analytic" (exact) or "unavailable" (no closed form)
    eps: tuple[float, ...]
    eps_used: float
    eps_max: float
    lipschitz_coeff: float
    contraction_constant: float
    contractive: bool
    apriori_bound: float


def validate_problem(
    problem: Problem, background_h4: float
) -> tuple[DataReport, NonlinearityReport]:
    """Run both validators for a problem around its background norm.

    ``background_h4`` must be ``problem.background_h4``, else
    ``ValueError``: the state ball, and every constant certified on it,
    grows with that norm, so a smaller one would certify a ball the
    solution does not stay in.
    """
    if background_h4 != problem.background_h4:
        raise ValueError(f"background H^4 norm {background_h4!r} is not the problem's "
                         f"{problem.background_h4!r}")
    data = validate_problem_data(problem)
    embedding = max(sobolev_embedding_constant(problem.d), lattice_embedding_constant(problem.grid))
    radius = image_ball_radius(background_h4, embedding)
    nl = validate_nonlinearity(problem.nonlinearity, radius, problem.c2_bound)
    return data, nl


def compute_bounds(
    problem: Problem,
    background_h4: float,
    budget: int | None = None,
    seed: int | None = None,
) -> BoundsReport:
    """Assemble the full certified-bounds report for a problem.

    Validates the data and nonlinearity requirements and evaluates every
    constant from the kernel norms and state-ball radius the validators
    measured, at eps_used = max_m eps_m, the coupling the contraction
    argument sees.  It always returns the report: when a requirement
    fails, ``failures`` names it and the constants certify nothing.
    ``background_h4`` must be ``problem.background_h4`` (see
    :func:`validate_problem`).  ``budget`` and ``seed`` are accepted and
    ignored, so callers that pass them keep working: the C^2 norm comes
    from g's closed form, which draws no sample.
    """
    data, nl = validate_problem(problem, background_h4)
    l1_rss, l2_rss = data.kernel_l1_rss, data.kernel_l2_rss
    d = problem.d
    c2 = problem.c2_bound
    kappa = lipschitz_coefficient_raw(d, c2, l1_rss, l2_rss, background_h4)
    eps_used = max(problem.eps)
    return BoundsReport(
        failures=data.failures + nl.failures,
        d=d,
        rho=problem.rho,
        c2_bound=problem.c2_bound,
        kernel_l1_rss=l1_rss,
        kernel_l2_rss=l2_rss,
        background_h4=float(background_h4),
        sobolev_constant=sobolev_embedding_constant(d),
        lattice_sobolev_constant=lattice_embedding_constant(problem.grid),
        state_ball_radius=nl.ball_radius,
        c2_norm=nl.c2_norm,
        c2_method=nl.c2_method,
        eps=problem.eps,
        eps_used=eps_used,
        eps_max=coupling_threshold_raw(
            d, problem.rho, c2, l1_rss, l2_rss, background_h4
        ),
        lipschitz_coeff=kappa,
        contraction_constant=eps_used * kappa,
        contractive=bool(eps_used * kappa < 1.0),
        apriori_bound=apriori_bound_raw(
            d, eps_used, c2, l1_rss, l2_rss, background_h4
        ),
    )
