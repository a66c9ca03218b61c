"""The public API: exported names, and the bindings the benchmark tracer wraps."""

import ast
import dataclasses
import importlib
import inspect
import re
from pathlib import Path

import numpy as np
import pytest

import nlrd

REPO = Path(__file__).resolve().parent.parent
TRACING = REPO / "perfbench" / "tracing.py"

#: names that once duplicated live code and were deleted; none may come back
DELETED = (
    "SpectralField", "forward_transform", "inverse_transform",
    "SYMMETRY_RTOL", "operator_symbol", "TOL_ZERO_MODE", "ZeroModePolicy",
    "ZeroModeRejected", "coupling_threshold", "lipschitz_coefficient",
    "apriori_bound", "continuity_bound", "solve_background", "kernel_aggregates",
    "norm_linf", "norm_l2_vector", "norm_h4", "gaussian_field", "ball_samples",
    "norm_h4_coeffs", "_floats", "_stack",
)

#: methods deleted for the same reason, as (class, attribute)
DELETED_METHODS = ((nlrd.RealField, "zeros"), (nlrd.GaussianSpec, "linf"))


def traced_bindings() -> tuple[tuple[str, str], ...]:
    """(module, attribute) of every row of ``BINDINGS`` in the tracer.

    The file is parsed, not imported, so the check does not depend on the
    tracer's own imports.
    """
    tree = ast.parse(TRACING.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "BINDINGS" for t in node.targets
        ):
            return tuple(
                (row.elts[0].value, row.elts[1].value) for row in node.value.elts
            )
    raise AssertionError("BINDINGS not found in the tracer")


def test_every_exported_name_resolves():
    assert len(set(nlrd.__all__)) == len(nlrd.__all__)
    for name in nlrd.__all__:
        assert hasattr(nlrd, name), name


@pytest.mark.parametrize("name", DELETED)
def test_deleted_names_are_not_exported(name):
    assert name not in nlrd.__all__
    for module in (nlrd, nlrd.lattice, nlrd.spectral, nlrd.model, nlrd.bounds):
        assert not hasattr(module, name), module.__name__


@pytest.mark.parametrize("cls,name", DELETED_METHODS)
def test_deleted_methods_are_gone(cls, name):
    assert not hasattr(cls, name)


def test_a_nonlinearity_and_a_c2_norm_hold_only_what_is_read():
    """No code evaluates a Hessian of g, and a C^2 norm does not echo the
    radius it was taken on."""
    assert [f.name for f in dataclasses.fields(nlrd.Nonlinearity)] == [
        "N", "eval", "grad", "c2_ball_norm", "matrices", "label",
    ]
    assert [f.name for f in dataclasses.fields(nlrd.C2Norm)] == ["value", "method"]


def test_sources_have_no_sample_and_certification_takes_the_problem():
    grid = nlrd.Grid(d=5, n=4, L=3.0)
    for source in (nlrd.RealField(grid, np.zeros(grid.npoints)),
                   nlrd.GaussianSource(grid, nlrd.GaussianSpec())):
        assert not hasattr(source, "sample"), type(source).__name__
    assert list(inspect.signature(nlrd.validate_problem).parameters) == ["problem"]


def test_traced_bindings_exist():
    bindings = traced_bindings()
    assert bindings
    for module, attr in bindings:
        assert module.startswith("nlrd.")
        assert callable(getattr(importlib.import_module(module), attr)), (module, attr)


def test_one_transform_implementation():
    """The package transforms only through ``lattice`` and imports no scipy."""
    for path in sorted((REPO / "src" / "nlrd").glob("*.py")):
        text = path.read_text()
        assert not re.search(r"np\.fft\.i?r?fftn?\(", text), path.name
        assert not re.search(r"^\s*(import|from)\s+scipy", text, re.M), path.name


def test_one_blocked_spectral_pass():
    """Every multiply by a shell weight that reduces an H^4 norm of the
    product is ``lattice.scale_coeffs``: ``solver`` names neither
    ``shell_blocks`` nor ``weighted_sum_sq``, and outside ``lattice`` only
    ``spectral.subtract_operator`` and ``bounds.lattice_embedding_constant``,
    which reduce something else, walk the shell blocks.  ``solver`` calls
    ``h4_norm_sq_coeffs``, so its import of it is no lint-silenced binding."""
    walks = {}
    for path in sorted((REPO / "src" / "nlrd").glob("*.py")):
        if path.name != "lattice.py":
            walks[path.name] = len(re.findall(r"\bshell_blocks\(", path.read_text()))
    assert {k: v for k, v in walks.items() if v} == {"spectral.py": 1, "bounds.py": 1}
    solver = (REPO / "src" / "nlrd" / "solver.py").read_text()
    assert not re.search(r"shell_blocks|weighted_sum_sq|h4_norm_sq_coeffs\s*#\s*noqa", solver)
    assert re.search(r"\bh4_norm_sq_coeffs\(", solver)


def test_one_spectral_step_implementation():
    """Only ``spectral`` inverts the operator or puts a kernel in displacement
    order; every other module goes through ``invert_coeffs`` and
    ``kernel_coeffs``/``kernel_factors``."""
    for path in sorted((REPO / "src" / "nlrd").glob("*.py")):
        if path.name != "spectral.py":
            text = path.read_text()
            assert not re.search(r"inverse_shells|np\.fft\.ifftshift\(", text), path.name
