"""Shared fixtures: the shipped reference instance and cheap derived builds.

The expensive objects (the n = 12 build and its Picard solve) are
session-scoped so the acceptance tests and the CLI tests share one copy.
``small_config`` shrinks the same instance to a cheap grid for unit tests.
"""

from __future__ import annotations

import copy
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from nlrd.config import build_problem
from nlrd.lattice import shell_blocks
from nlrd.solver import picard

REPO_ROOT = Path(__file__).resolve().parent.parent
REFERENCE_CONFIG = REPO_ROOT / "configs" / "d5_n2.json"

#: gaussian centres that are neither a number nor a flat list of 1 or d = 5 numbers
BAD_CENTERS = [True, "0.5", [[0.1] * 5], None, [0.1, 0.2], [0.1, False]]


def traced_peak(call) -> int:
    """Bytes that ``call()`` allocates at its peak, its result included."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def blocked_weight(grid, weight, hermitian: bool = False) -> np.ndarray:
    """The blocks ``shell_blocks(grid, weight)`` gives, put together into one
    array of shape ``grid.half_shape``, times each block's Hermitian
    multiplicity when ``hermitian``."""
    out = np.full(int(np.prod(grid.half_shape)), np.nan)
    for lo, hi, mult, _, w in shell_blocks(grid, weight):
        out[lo:hi] = mult * w if hermitian else w
    return out.reshape(grid.half_shape)


def load_reference_config() -> dict:
    return json.loads(REFERENCE_CONFIG.read_text())


def small_config(n: int = 6, **overrides) -> dict:
    """The reference instance shrunk to a cheap grid for unit tests.

    ``overrides`` patches whole sections (lists replace, dicts update).
    """
    cfg = load_reference_config()
    cfg["grid"]["n"] = n
    for section, patch in overrides.items():
        if isinstance(patch, dict) and isinstance(cfg.get(section), dict):
            cfg[section].update(patch)
        else:
            cfg[section] = patch
    return cfg


@pytest.fixture(scope="session")
def ref_cfg() -> dict:
    return load_reference_config()


@pytest.fixture(scope="session")
def ref_built(ref_cfg):
    return build_problem(copy.deepcopy(ref_cfg))


@pytest.fixture(scope="session")
def ref_report(ref_built):
    return picard(
        ref_built.problem,
        tol=ref_built.tol,
        max_iter=ref_built.max_iter,
        budget=ref_built.budget,
        seed=ref_built.seed,
    )


@pytest.fixture(scope="session")
def small_built():
    return build_problem(small_config())
