"""The public API: exported names, and the bindings the benchmark tracer wraps."""

import ast
import importlib
import re
from pathlib import Path

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
    "norm_linf", "norm_l2_vector",
)


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


def test_one_spectral_step_implementation():
    """Only ``spectral`` inverts the operator or puts a kernel in displacement
    order; every other module goes through ``invert_coeffs``/``kernel_coeffs``."""
    for path in sorted((REPO / "src" / "nlrd").glob("*.py")):
        if path.name != "spectral.py":
            text = path.read_text()
            assert not re.search(r"inverse_symbol\(|np\.fft\.ifftshift\(", text), path.name
