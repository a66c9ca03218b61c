"""Config loading and problem building."""

import dataclasses
import json
import math
import warnings

import numpy as np
import pytest
from conftest import small_config

import nlrd.bounds
import nlrd.config
import nlrd.model
from nlrd import __version__
from nlrd.bounds import compute_bounds, sobolev_embedding_constant, validate_problem
from nlrd.config import ConfigError, build_field, build_problem, load_config
from nlrd.fieldio import write_field
from nlrd.lattice import Grid
from nlrd.model import GaussianSpec, c2_norm, image_ball_radius
from nlrd.solver import contraction_probe, picard, residual


# ---------------------------------------------------------------------------
# file loading
# ---------------------------------------------------------------------------

def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "nope.json")


def test_load_config_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    for content, message in [
        (b"{not json", "not valid JSON"),
        (b'{"grid": "\xff"}', "cannot read config"),  # not UTF-8
        (b"[" * 100000, "not valid JSON"),  # nesting past the recursion limit
        (b'{"rho": ' + b"1" * 4301 + b"}", "not valid JSON"),  # past the int digit limit
    ]:
        path.write_bytes(content)
        with pytest.raises(ConfigError, match=message):
            load_config(path)


def test_load_config_non_object(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2, 3]")
    with pytest.raises(ConfigError, match="JSON object"):
        load_config(path)


def test_load_reference_config(tmp_path):
    cfg = small_config()
    path = tmp_path / "ok.json"
    path.write_text(json.dumps(cfg))
    assert load_config(path) == cfg


# ---------------------------------------------------------------------------
# the reference build
# ---------------------------------------------------------------------------

def test_build_resolves_reference_instance(small_built):
    built = small_built
    resolved = built.resolved
    assert resolved["version"] == __version__
    assert resolved["grid"] == {"d": 5, "n": 6, "L": 8.0}
    assert resolved["n_components"] == 2
    assert built.background_h4 > 0.0
    assert resolved["background_h4"] == built.background_h4

    # coupling resolved as the configured fraction of the built threshold
    assert resolved["eps_source"] == "config_fraction=0.5"
    assert resolved["eps"][0] == 0.5 * resolved["eps_max_at_build"]
    assert built.problem.eps == tuple(resolved["eps"])

    # nonlinearity rescaled so its C^2 norm uses half the declared budget
    scale = resolved["nonlinearity"]["scale_applied"]
    assert scale is not None and 0.0 < scale < 1.0
    radius = image_ball_radius(built.background_h4, sobolev_embedding_constant(5))
    c2 = c2_norm(built.problem.nonlinearity, radius)
    assert c2.method == "analytic"
    assert c2.value == pytest.approx(0.5 * built.problem.c2_bound, rel=1e-12)

    assert built.margins == {"contraction": 0.05, "continuity": 0.05}
    assert resolved["solver"] == {
        "tol": 1e-10, "max_iter": 200, "seed": 0, "budget": 100000,
    }
    assert built.warnings == ()


def test_solver_budget_is_read_and_has_no_effect(small_built):
    """solver.budget is kept and checked, and changes no constant or build."""
    built = build_problem(small_config(solver={"budget": 7}))
    assert built.budget == 7 and built.resolved["solver"]["budget"] == 7
    assert built.resolved["eps"] == small_built.resolved["eps"]
    assert compute_bounds(built.problem, built.background_h4, budget=7, seed=3) == (
        compute_bounds(small_built.problem, small_built.background_h4)
    )


def test_build_reads_its_constants_from_the_bounds_report(monkeypatch):
    """With the state-ball rule and the threshold changed in ``nlrd.bounds``
    alone, the build still normalises g on the ball the validators check and
    scales the coupling from the threshold the bounds report."""
    radius, threshold = nlrd.bounds.image_ball_radius, nlrd.bounds.coupling_threshold_raw
    monkeypatch.setattr(nlrd.bounds, "image_ball_radius", lambda *a: 1.5 * radius(*a))
    monkeypatch.setattr(nlrd.bounds, "coupling_threshold_raw", lambda *a: 0.75 * threshold(*a))
    cfg = small_config()
    built = build_problem(cfg)
    p = built.problem
    c2 = validate_problem(p, built.background_h4)[1].c2_norm
    fraction = cfg["nonlinearity"]["scale_c2_to_fraction"]
    assert c2 == pytest.approx(fraction * p.c2_bound, rel=1e-12)
    eps_max = compute_bounds(p, built.background_h4).eps_max
    assert built.resolved["eps"] == [cfg["problem"]["eps_fraction"] * eps_max] * 2


def test_build_takes_the_c2_norm_of_g_once(monkeypatch):
    """scale_c2_to_fraction reads g's C^2 norm from the bounds report of the
    base problem, so a build evaluates c2_norm once, through every binding."""
    calls = []
    for module in (nlrd.model, nlrd.config):
        if hasattr(module, "c2_norm"):
            def counted(*args, _original=getattr(module, "c2_norm"), **kwargs):
                calls.append(args)
                return _original(*args, **kwargs)
            monkeypatch.setattr(module, "c2_norm", counted)
    cfg = small_config(n=4)
    built = build_problem(cfg)
    assert len(calls) == 1
    g, radius = calls[0][:2]
    scale = cfg["nonlinearity"]["scale_c2_to_fraction"] * built.problem.c2_bound / c2_norm(
        g, radius).value
    assert built.resolved["nonlinearity"]["scale_applied"] == scale


def test_cli_fraction_overrides_config():
    built = build_problem(small_config(), eps_fraction=0.25)
    assert built.resolved["eps_source"] == "cli_fraction=0.25"
    assert built.resolved["eps"][0] == 0.25 * built.resolved["eps_max_at_build"]


def test_cli_fraction_validation():
    with pytest.raises(ConfigError, match="^eps fraction must be positive, got 0.0$"):
        build_problem(small_config(), eps_fraction=0.0)
    with pytest.raises(ConfigError, match="positive"):
        build_problem(small_config(), eps_fraction=-1.0)
    built = build_problem(small_config(), eps_fraction=2.0)
    assert built.warnings == (
        "requested coupling fraction 2 exceeds 1; "
        "the solve is outside the certified regime",
    )
    assert built.resolved["eps_source"] == "cli_fraction=2"
    assert built.resolved["eps"][0] == 2.0 * built.resolved["eps_max_at_build"]


# ---------------------------------------------------------------------------
# coupling resolution from the file
# ---------------------------------------------------------------------------

def test_config_rejects_both_eps_and_fraction():
    cfg = small_config(problem={"eps": 0.01})  # fraction already present
    with pytest.raises(ConfigError, match="not both"):
        build_problem(cfg)


def drop_fraction(cfg):
    del cfg["problem"]["eps_fraction"]
    return cfg


def test_config_scalar_eps():
    cfg = drop_fraction(small_config(problem={"eps": 0.01}))
    built = build_problem(cfg)
    assert built.problem.eps == (0.01, 0.01)
    assert built.resolved["eps_source"] == "config_eps"


def test_config_eps_list_and_length_check():
    cfg = drop_fraction(small_config(problem={"eps": [0.01, 0.02]}))
    assert build_problem(cfg).problem.eps == (0.01, 0.02)
    cfg = drop_fraction(small_config(problem={"eps": [0.01]}))
    with pytest.raises(ConfigError, match="entries for"):
        build_problem(cfg)


def test_config_default_zero_coupling():
    cfg = drop_fraction(small_config())
    built = build_problem(cfg)
    assert built.problem.eps == (0.0, 0.0)
    assert built.resolved["eps_source"] == "default_zero"


def test_infinite_cli_fraction_is_named_as_not_finite():
    """An infinite fraction is a config error that says so, not a coupling
    that the problem rejects as negative."""
    with pytest.raises(ConfigError, match="^eps fraction must be finite, got inf$"):
        build_problem(small_config(), eps_fraction=math.inf)


@pytest.mark.parametrize("literal", ["1e400", "Infinity"])
def test_infinite_config_fraction_is_named_as_not_finite(tmp_path, literal):
    """Both JSON spellings of an infinite ``eps_fraction`` (an overflowing
    literal, which parses to inf, and Infinity) give one message."""
    text = json.dumps(small_config(problem={"eps_fraction": 0.125}))
    path = tmp_path / "cfg.json"
    path.write_text(text.replace('"eps_fraction": 0.125', f'"eps_fraction": {literal}'))
    with pytest.raises(ConfigError, match="^eps_fraction must be finite, got inf$"):
        build_problem(load_config(path))


def test_config_fraction_validation():
    cfg = small_config(problem={"eps_fraction": -0.5})
    with pytest.raises(ConfigError, match="^eps_fraction must be positive, got -0.5$"):
        build_problem(cfg)
    built = build_problem(small_config(problem={"eps_fraction": 1.5}))
    assert built.warnings == (
        "configured coupling fraction 1.5 exceeds 1; "
        "the solve is outside the certified regime",
    )
    assert built.resolved["eps_source"] == "config_fraction=1.5"


# ---------------------------------------------------------------------------
# structural validation
# ---------------------------------------------------------------------------

def test_missing_sections_rejected():
    cfg = small_config()
    del cfg["problem"]
    with pytest.raises(ConfigError, match="missing config section"):
        build_problem(cfg)
    cfg = small_config()
    del cfg["grid"]["n"]
    with pytest.raises(ConfigError, match="grid section is missing"):
        build_problem(cfg)


def test_bad_grid_rejected():
    with pytest.raises(ConfigError, match="bad grid section"):
        build_problem(small_config(n=7))  # odd lattice


def test_unknown_field_constructor_rejected():
    cfg = small_config()
    cfg["forcings"][0] = {"constructor": "sine", "params": {}}
    with pytest.raises(ConfigError, match="unknown field constructor"):
        build_problem(cfg)
    with pytest.raises(ConfigError, match="must be an object"):
        build_field(Grid(d=5, n=4, L=1.0), "gaussian")


def test_unknown_nonlinearity_family_rejected():
    cfg = small_config(nonlinearity={"family": "cubic", "params": {}})
    with pytest.raises(ConfigError, match="unknown nonlinearity family"):
        build_problem(cfg)


def test_component_count_mismatches_rejected():
    cfg = small_config()
    cfg["forcings"] = cfg["forcings"][:1]
    with pytest.raises(ConfigError, match="one of each per component"):
        build_problem(cfg)
    cfg = small_config()
    cfg["nonlinearity"]["params"]["matrices"] = [[[1.0]]]
    with pytest.raises(ConfigError, match="components but"):
        build_problem(cfg)


def test_scale_fraction_domain():
    cfg = small_config()
    cfg["nonlinearity"]["scale_c2_to_fraction"] = 1.5
    with pytest.raises(ConfigError, match="scale_c2_to_fraction"):
        build_problem(cfg)
    cfg = small_config()
    cfg["nonlinearity"]["params"]["matrices"] = [
        [[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]
    ]
    with pytest.raises(ConfigError, match="vanishing nonlinearity"):
        build_problem(cfg)


# ---------------------------------------------------------------------------
# stored fields
# ---------------------------------------------------------------------------

def test_bfx1_constructor_round_trips(tmp_path):
    cfg = small_config()
    grid = Grid(d=5, n=6, L=8.0)
    stored = GaussianSpec(width=1.2, amplitude=0.05).sample(grid)
    path = tmp_path / "forcing.bfx1"
    write_field(path, stored)
    cfg["forcings"][0] = {"constructor": "bfx1", "params": {"path": str(path)}}
    built = build_problem(cfg)
    assert np.array_equal(built.problem.forcings[0].values, stored.values)


def test_bfx1_constructor_checks_grid(tmp_path):
    cfg = small_config()
    other = GaussianSpec().sample(Grid(d=5, n=4, L=8.0))
    path = tmp_path / "wrong.bfx1"
    write_field(path, other)
    cfg["forcings"][0] = {"constructor": "bfx1", "params": {"path": str(path)}}
    with pytest.raises(ConfigError, match="expected"):
        build_problem(cfg)


def test_relative_bfx1_path_is_beside_the_config(tmp_path, monkeypatch):
    """A config file's relative bfx1 path names a file in the config's own
    directory, from any working directory; a config dict keeps paths
    relative to the working directory."""
    cfg = small_config()
    stored = GaussianSpec(width=1.2, amplitude=0.05).sample(Grid(d=5, n=6, L=8.0))
    (tmp_path / "cfgs").mkdir()
    (tmp_path / "elsewhere").mkdir()
    write_field(tmp_path / "cfgs" / "forcing.bfx1", stored)
    cfg["forcings"][0] = {"constructor": "bfx1", "params": {"path": "forcing.bfx1"}}
    (tmp_path / "cfgs" / "cfg.json").write_text(json.dumps(cfg))
    monkeypatch.chdir(tmp_path / "elsewhere")
    for path in ("../cfgs/cfg.json", tmp_path / "cfgs" / "cfg.json"):
        built = build_problem(load_config(path))
        assert np.array_equal(built.problem.forcings[0].values, stored.values)
    with pytest.raises(ConfigError, match="cannot build 'bfx1' field"):
        build_problem(cfg)
    monkeypatch.chdir(tmp_path / "cfgs")
    assert np.array_equal(build_problem(cfg).problem.forcings[0].values, stored.values)
    assert load_config("cfg.json")["forcings"][0]["params"]["path"] == "forcing.bfx1"


def test_margins_merge_with_defaults():
    cfg = small_config()
    cfg["margins"] = {"contraction": 0.1}  # replace the whole section
    built = build_problem(cfg)
    assert built.margins == {"contraction": 0.1, "continuity": 0.05}


def test_null_optional_sections_are_absent():
    nulls = build_problem(small_config(solver=None, margins=None))
    cfg = small_config()
    del cfg["solver"], cfg["margins"]
    absent = build_problem(cfg)
    assert nulls.resolved["solver"] == absent.resolved["solver"]
    assert nulls.margins == absent.margins == {"contraction": 0.05, "continuity": 0.05}


# ---------------------------------------------------------------------------
# field sources
# ---------------------------------------------------------------------------

def count_samples(monkeypatch) -> list:
    """Record every call of ``GaussianSpec.sample``."""
    calls = []
    original = GaussianSpec.sample

    def counted(self, grid):
        calls.append(self)
        return original(self, grid)

    monkeypatch.setattr(GaussianSpec, "sample", counted)
    return calls


def test_each_pass_samples_each_field_once(monkeypatch):
    """A config's Gaussian and zero fields are never sampled by a pass:
    the build takes their norms and the background's coefficients in
    closed form, a solve folds the kernels into its transforms and each
    residual takes the forcing's coefficients from its source.  Only a
    caller that asks for ``values`` samples one."""
    calls = count_samples(monkeypatch)
    cfg = small_config(n=4)
    cfg["forcings"][1] = {"constructor": "zero"}
    built = build_problem(cfg)
    p = built.problem
    assert calls == []
    rep = picard(p.with_nonlinearity(p.nonlinearity), tol=built.tol, max_iter=built.max_iter,
                 budget=500)
    residual(p, rep.solution)
    contraction_probe(p, pairs=1)
    assert calls == []
    p.forcings[0].values
    assert calls == [p.forcings[0].spec]


def arrays_reachable(obj, found: dict) -> dict:
    """``id -> nbytes`` of each array reachable from ``obj`` through
    dataclass fields, dicts, lists and tuples."""
    if isinstance(obj, np.ndarray):
        found[id(obj)] = obj.nbytes
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            arrays_reachable(getattr(obj, f.name), found)
    elif isinstance(obj, dict):
        for value in obj.values():
            arrays_reachable(value, found)
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            arrays_reachable(item, found)
    return found


def test_a_warm_problem_holds_no_samples_of_its_data():
    """After a solve has filled its caches, a built problem's sources and
    caches hold exactly the background (N fields) and, per Gaussian
    kernel, its d 1-D coupling factors, one per half-spectrum axis: no
    kernel or forcing samples and no half spectrum."""
    built = build_problem(small_config(n=4))
    p = built.problem
    picard(p, tol=built.tol, max_iter=built.max_iter, budget=500)
    held = arrays_reachable([p.kernels, p.forcings, p._data, p._coupling], {})
    N, grid = p.n_components, p.grid
    factors = 16 * sum(grid.half_shape)
    assert sum(held.values()) == N * 8 * grid.npoints + N * factors


@pytest.mark.parametrize("section", ["kernels", "forcings"])
@pytest.mark.parametrize("param,value", [("width", 1e-300), ("width", 1e200), ("amplitude", 1e308)])
def test_extreme_gaussian_params_fail_when_built(section, param, value):
    """A Gaussian is refused at build time although it is sampled only when
    used: a width of 1e-300 (a NaN at its centre) or 1e200 by its 1-D
    factors, an amplitude of 1e308 by the norms or the background; and
    with no numpy warning."""
    cfg = small_config(n=4)
    cfg[section][0]["params"][param] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError):
            build_problem(cfg)
