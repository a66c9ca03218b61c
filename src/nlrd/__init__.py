"""Pseudo-spectral solver and certified-bounds engine for stationary
nonlocal reaction-diffusion systems with Laplace + bi-Laplace diffusion.

The package solves

    (-Laplacian + Laplacian^2) u_m = eps_m (H_m * g_m(u)) + f_m,
        m = 1 .. N,  d in {5, 6, 7},

on a periodic box truncating R^d, by Picard iteration around the linear
background, and evaluates the quantitative constants (coupling threshold,
contraction rate, a-priori and continuity bounds) that certify the fixed
point -- every one of which is checked empirically by the test suite.
"""

__version__ = "0.1.0"

from .lattice import (
    Grid,
    RealField,
    VectorField,
    norm_h4,
    norm_h4_vector,
    norm_l1,
    norm_l2,
)
from .fieldio import read_field, write_field
from .spectral import (
    DIRECT_CONV_MAX_POINTS,
    GridTooLarge,
    apply_operator,
    convolve,
    convolve_direct,
    solve_linear,
)
from .model import (
    C2Norm,
    DataReport,
    GaussianSpec,
    Nonlinearity,
    NonlinearityReport,
    Problem,
    ball_samples,
    c2_gap,
    c2_norm,
    gaussian_field,
    image_ball_radius,
    quadratic_nonlinearity,
    scale_nonlinearity,
    validate_nonlinearity,
    validate_problem_data,
)
from .bounds import (
    AssumptionsNotValidated,
    BadDimension,
    BoundsReport,
    ContractionNotStrict,
    NonPositiveAlpha,
    apriori_bound_raw,
    compute_bounds,
    continuity_bound_raw,
    coupling_threshold_raw,
    frequency_split_minimum,
    lipschitz_coefficient_raw,
    radial_weight_integral,
    sobolev_embedding_constant,
    sphere_measure,
    validate_problem,
)
from .solver import (
    ContinuityReport,
    DivergenceDetected,
    IterationStep,
    IterationTrace,
    MaxIterExceeded,
    ProbeReport,
    ResidualReport,
    SolveReport,
    apply_fixed_point_map,
    continuity_experiment,
    contraction_probe,
    picard,
    random_ball_field,
    residual,
)
from .config import BuiltProblem, ConfigError, build_field, build_problem, load_config

__all__ = [
    "__version__",
    # lattice
    "Grid", "RealField", "VectorField",
    "norm_l1", "norm_l2", "norm_h4", "norm_h4_vector",
    # io
    "read_field", "write_field",
    # spectral
    "DIRECT_CONV_MAX_POINTS", "GridTooLarge",
    "apply_operator", "convolve", "convolve_direct", "solve_linear",
    # model
    "C2Norm", "DataReport", "GaussianSpec", "Nonlinearity",
    "NonlinearityReport", "Problem", "ball_samples", "c2_gap", "c2_norm",
    "gaussian_field", "image_ball_radius", "quadratic_nonlinearity",
    "scale_nonlinearity", "validate_nonlinearity", "validate_problem_data",
    # bounds
    "AssumptionsNotValidated", "BadDimension", "BoundsReport",
    "ContractionNotStrict", "NonPositiveAlpha",
    "apriori_bound_raw", "compute_bounds", "continuity_bound_raw",
    "coupling_threshold_raw", "frequency_split_minimum",
    "lipschitz_coefficient_raw", "radial_weight_integral",
    "sobolev_embedding_constant", "sphere_measure", "validate_problem",
    # solver
    "ContinuityReport", "DivergenceDetected", "IterationStep",
    "IterationTrace", "MaxIterExceeded", "ProbeReport", "ResidualReport",
    "SolveReport", "apply_fixed_point_map", "continuity_experiment",
    "contraction_probe", "picard", "random_ball_field", "residual",
    # config
    "BuiltProblem", "ConfigError", "build_field", "build_problem",
    "load_config",
]
