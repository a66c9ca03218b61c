"""End-to-end command-line interface tests (in-process)."""

import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import BAD_CENTERS, REFERENCE_CONFIG, small_config
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import nlrd
from nlrd.cli import main
from nlrd.config import build_problem
from nlrd.fieldio import read_field
from nlrd.solver import picard


def write_cfg(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strict_json(text):
    """Parse RFC 8259 JSON: NaN and Infinity are not part of it."""
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")
    return json.loads(text, parse_constant=reject)


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, strict_json(out), err


ZERO_FORCINGS = [{"constructor": "zero"}, {"constructor": "zero"}]


def gaussian(width, amplitude):
    return {"constructor": "gaussian", "params": {"width": width, "amplitude": amplitude}}


def centred(center):
    """The first shipped forcing with the given gaussian ``center``."""
    spec = gaussian(1.2, 0.05)
    spec["params"]["center"] = center
    return spec


#: a misspelt key in each config object: the path the error names, and the
#: overrides that put the key there
MISSPELT = {
    "solvers": {"solvers": {"tol": 1e-10}},
    "grid.nn": {"grid": {"nn": 4}},
    "problem.epsilon": {"problem": {"epsilon": 0.5}},
    "solver.max_itr": {"solver": {"max_itr": 10}},
    "nonlinearity.scale_c2_to_fracton": {"nonlinearity": {"scale_c2_to_fracton": 0.5}},
    "nonlinearity.params.matrix": {"nonlinearity": {"params": {
        "matrices": [[[1.0, 0.3], [0.3, 0.5]], [[0.2, -0.4], [-0.4, 1.0]]],
        "matrix": [],
    }}},
    "forcings[0].parms": {"forcings": [{**gaussian(1.2, 0.05), "parms": {}}, gaussian(1.1, -0.03)]},
    "forcings[0].params.widht": {"forcings": [
        {"constructor": "gaussian", "params": {"amplitude": 0.05, "widht": 1.2}},
        gaussian(1.1, -0.03),
    ]},
    "forcings[0].params.pth": {"forcings": [
        {"constructor": "bfx1", "params": {"path": "forcing.bfx1", "pth": "forcing.bfx1"}},
        gaussian(1.1, -0.03),
    ]},
    "forcings[0].params.amplitud": {"forcings": [
        {"constructor": "zero", "params": {"amplitud": 0.0}}, gaussian(1.1, -0.03),
    ]},
    "kernels[1].params.widht": {"kernels": [
        gaussian(1.0, 1.0), {"constructor": "gaussian", "params": {"widht": 0.9}},
    ]},
}


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def test_validate_passes_on_reference_instance(tmp_path, capsys):
    cfg = write_cfg(tmp_path, small_config())
    code, payload, err = run_json(capsys, "validate", cfg)
    assert code == 0
    assert payload["command"] == "validate"
    assert payload["passed"] is True
    assert payload["data"]["failures"] == []
    assert payload["nonlinearity"]["failures"] == []
    assert payload["config"]["grid"] == {"d": 5, "n": 6, "L": 8.0}


def test_validate_names_failing_clause(tmp_path, capsys):
    cfg = write_cfg(tmp_path, small_config(forcings=ZERO_FORCINGS))
    code, payload, err = run_json(capsys, "validate", cfg)
    assert code == 1
    assert payload["passed"] is False
    assert "forcing_nontrivial" in payload["data"]["failures"]
    assert "validation failed" in err
    assert "forcing_nontrivial" in err


# ---------------------------------------------------------------------------
# config errors
# ---------------------------------------------------------------------------

def test_missing_config_file_is_a_config_error(tmp_path, capsys):
    code, out, err = run(capsys, "validate", str(tmp_path / "absent.json"))
    assert code == 2
    assert "config error" in err


def test_unparsable_config_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{oops")
    code, out, err = run(capsys, "solve", str(path))
    assert code == 2
    assert "config error" in err


def test_nonpositive_eps_fraction_is_a_config_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, small_config())
    code, out, err = run(capsys, "solve", cfg, "--eps-fraction", "0")
    assert code == 2
    assert "config error" in err


@pytest.mark.parametrize("fraction", ["1e400", "inf"])
def test_infinite_eps_fraction_is_a_config_error(tmp_path, capsys, fraction):
    """Both spellings of an infinite fraction exit 2 and say it is not finite."""
    cfg = write_cfg(tmp_path, small_config())
    code, out, err = run(capsys, "solve", cfg, "--eps-fraction", fraction)
    assert code == 2
    assert err.strip() == "config error: eps fraction must be finite, got inf"


@pytest.mark.parametrize(
    "command,solver,extra",
    [
        ("solve", {"tol": -1}, ()),
        ("solve", {"max_iter": 0}, ()),
        ("bounds", {"budget": 0}, ()),
        ("solve", {}, ("--tol", "-1")),
        ("solve", {}, ("--tol", "0")),
        ("solve", {}, ("--max-iter", "0")),
        ("probe-contraction", {}, ("--seed", "-1")),
        ("probe-contraction", {"seed": -1}, ()),
        # validate_nonlinearity draws with seed + 1
        ("bounds", {"seed": -2}, ()),
        # an infinite tolerance would stop any run after one step
        ("solve", {}, ("--tol", "inf")),
        ("solve", {"tol": float("inf")}, ()),
    ],
)
def test_bad_solver_settings_are_config_errors(tmp_path, capsys, command, solver, extra):
    cfg = write_cfg(tmp_path, small_config(solver=solver))
    code, out, err = run(capsys, command, cfg, *extra)
    assert code == 2
    assert "config error" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "overrides,named",
    [
        *(pytest.param(case, "", id=f"overrides{i}") for i, case in enumerate([
            {"problem": {"eps_fraction": "abc"}},
            {"problem": {"eps_fraction": None, "eps": [0.01, "x"]}},
            {"nonlinearity": {"scale_c2_to_fraction": "x"}},
            {"problem": {"rho": 0}},
            {"grid": {"d": 4}},
            {"margins": {"contraction": "abc"}},
            {"margins": {"continuity": -0.1}},
            {"margins": {"contraction": float("inf")}},
            # integral settings are not truncated
            {"grid": {"n": 4.9}},
            {"grid": {"d": 5.5}},
            {"solver": {"max_iter": 2.5}},
            {"solver": {"seed": 0.5}},
            {"solver": {"budget": 1000.5}},
            # booleans and numeric strings are not numbers
            {"solver": {"budget": True}},
            {"solver": {"max_iter": True}},
            {"solver": {"seed": False}},
            {"solver": {"tol": True}},
            {"problem": {"rho": True}},
            {"problem": {"rho": "0.5"}},
            {"grid": {"L": True}},
            {"forcings": [gaussian(1.2, True), gaussian(1.1, "-0.03")]},
            # integers too large for a float
            {"problem": {"eps_fraction": None, "eps": 10**399}},
            {"problem": {"rho": 10**399}},
            {"grid": {"L": 10**399}},
            {"margins": {"contraction": 10**399}},
            {"nonlinearity": {"params": {"matrices": [[[10**399, 0], [0, 0]], [[1, 0], [0, 0]]]}}},
            # a misspelt margin is not a silent default
            {"margins": {"contration": 0.5}},
            # matrix entries and gaussian centres are read as numbers too
            {"nonlinearity": {"params": {"matrices": [[[True, 0], [0, 0]], [[1, 0], [0, 0]]]}}},
            {"nonlinearity": {"params": {"matrices": [[["1.0", 0], [0, 0]], [[1, 0], [0, 0]]]}}},
            *({"forcings": [centred(c), gaussian(1.1, -0.03)]} for c in BAD_CENTERS),
        ])),
        # a misspelt key is not a silent default, in any object
        *(pytest.param(case, f"unknown key '{key}'", id=key) for key, case in MISSPELT.items()),
    ],
)
def test_bad_config_values_are_config_errors(tmp_path, capsys, overrides, named):
    cfg = small_config(**overrides)
    # a None override removes the key (eps replaces eps_fraction)
    cfg["problem"] = {k: v for k, v in cfg["problem"].items() if v is not None}
    code, out, err = run(capsys, "bounds", write_cfg(tmp_path, cfg))
    assert code == 2
    assert err.startswith(f"config error: {named}")
    assert len(err.splitlines()) == 1
    assert out == ""


@pytest.mark.parametrize("center", BAD_CENTERS)
def test_bad_gaussian_center_is_named(tmp_path, capsys, center):
    cfg = small_config(forcings=[centred(center), gaussian(1.1, -0.03)])
    code, _, err = run(capsys, "bounds", write_cfg(tmp_path, cfg))
    assert code == 2
    assert "center" in err


@pytest.mark.parametrize("center", [0.5, [0.5], [0.1, -0.2, 0.3, 0.0, 0.25]])
def test_gaussian_center_is_a_number_or_a_list_of_1_or_d(tmp_path, capsys, center):
    cfg = small_config(forcings=[centred(center), gaussian(1.1, -0.03)])
    code, _, err = run(capsys, "validate", write_cfg(tmp_path, cfg))
    assert code == 0, err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", ["bounds", "solve"])
@pytest.mark.parametrize(
    "path,value,message",
    [
        # the background samples overflow
        (("forcings", 0, "params", "amplitude"), 1e308, "no finite background"),
        # finite samples, but their H^4 norm overflows
        (("forcings", 0, "params", "amplitude"), 1e160, "no finite background"),
        (("nonlinearity", "params", "matrices", 0, 0, 0), float("nan"), "must be finite"),
        (("nonlinearity", "params", "matrices", 1, 0, 1), float("inf"), "must be finite"),
        # kappa = 0 or inf: eps_fraction has no threshold to scale
        (("kernels",), [{"constructor": "zero"}] * 2, "positive finite eps_max"),
        (("kernels",), [gaussian(1.0, 1e-300), gaussian(0.9, 1e-300)], "positive finite eps_max"),
        (("kernels", 0, "params", "amplitude"), 1e200, "positive finite eps_max"),
        (("kernels", 0, "params", "width"), 1e200, "cannot build 'gaussian' field"),
        (("forcings", 0, "params", "width"), 1e200, "cannot build 'gaussian' field"),
        (("grid", "L"), 1e-300, "outside 1e-300 .. 1e300"),
        # finite eps, but eps * |H|_L1 (a bound on the coupling coefficients) overflows
        (("problem",), {"rho": 1.0, "c2_bound": 1.0, "eps": 1e308}, "coupling 0 overflows"),
        # subnormal matrices: scale_c2_to_fraction's scale overflows
        (
            ("nonlinearity", "params", "matrices"),
            [[[5e-324, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 5e-324]]],
            "the scale inf is not finite",
        ),
        # finite matrices whose C^2 norm overflows: the scale would be 0
        (
            ("nonlinearity", "params", "matrices"),
            [[[0.0, 1e308], [0.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]]],
            "C^2 norm inf",
        ),
    ],
)
def test_non_finite_data_is_a_config_error(tmp_path, capsys, command, path, value, message):
    cfg = small_config(n=4)
    target = cfg
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    code, out, err = run(capsys, command, write_cfg(tmp_path, cfg))
    assert code == 2
    assert err.startswith("config error:")
    assert message in err
    assert len(err.splitlines()) == 1
    assert out == ""


@pytest.mark.parametrize("section", ["kernels", "forcings"])
@pytest.mark.parametrize("width", [1e200, 1e300, 10**300], ids=["1e200", "1e300", "int"])
def test_an_overflowing_gaussian_width_is_named(tmp_path, capsys, section, width):
    """A width whose square overflows is a config error that names the
    width, not an errno tuple."""
    cfg = small_config(n=4)
    cfg[section][0]["params"]["width"] = width
    code, out, err = run(capsys, "bounds", write_cfg(tmp_path, cfg))
    assert code == 2
    assert err == (
        "config error: cannot build 'gaussian' field: gaussian width "
        f"{float(width)} is too large: its square overflows\n"
    )
    assert out == ""


@pytest.mark.parametrize(
    "option,target",
    [("--dump-fields", "a_file/fields"), ("--trace-csv", "missing_dir/trace.csv")],
)
def test_unwritable_solver_output_is_a_config_error(
    tmp_path, capsys, monkeypatch, option, target
):
    def no_solve(*args, **kwargs):
        pytest.fail("the output path must be checked before solving")

    monkeypatch.setattr("nlrd.cli.picard", no_solve)
    (tmp_path / "a_file").write_text("")
    cfg = write_cfg(tmp_path, small_config(n=4))
    code, out, err = run(capsys, "solve", cfg, option, str(tmp_path / target))
    assert code == 2
    assert err.startswith("config error: cannot write solver output")
    assert len(err.splitlines()) == 1
    assert out == ""


def closed_pipe():
    """The write end of a pipe whose read end is already closed."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    return os.fdopen(write_end, "wb")


def full_device():
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full on this system")
    return open("/dev/full", "wb")


@pytest.mark.parametrize("sink", [closed_pipe, full_device])
def test_unwritable_stdout_is_a_config_error(sink):
    """A report that cannot be written exits 2 with one stderr line, in a
    process of its own, with no traceback at the write or at shutdown.
    Its stdout is block-buffered, as it is in a pipeline, so the report
    fits in the buffer and the shutdown flush would meet the error again."""
    src = str(Path(nlrd.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    env.pop("PYTHONUNBUFFERED", None)
    with sink() as stdout:
        proc = subprocess.run(
            [sys.executable, "-m", "nlrd.cli", "bounds", str(REFERENCE_CONFIG)],
            stdout=stdout, stderr=subprocess.PIPE, env=env, text=True, timeout=60,
        )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("config error: cannot write report")
    assert len(proc.stderr.splitlines()) == 1, proc.stderr


def test_grid_beyond_physical_memory_is_a_config_error(tmp_path, capsys, monkeypatch):
    # 2 x 16^5 points need about 270 MB; pretend the machine has 100 MB
    monkeypatch.setattr("nlrd.config._physical_memory", lambda: 100e6)
    code, out, err = run(capsys, "solve", write_cfg(tmp_path, small_config(n=16)))
    assert code == 2
    assert err.startswith("config error: a solve on 16^5 points x 2 components")
    assert "physical memory" in err
    assert len(err.splitlines()) == 1
    assert out == ""


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "command,expected",
    [(["solve"], 3), (["continuity"], 3), (["probe-contraction", "--pairs", "2"], 1)],
)
def test_huge_finite_coupling_fails_in_one_line(tmp_path, capsys, command, expected):
    """eps = 1e160 passes the overflow check and then overflows the solve:
    a solver or certification failure, with no numpy warning."""
    cfg = write_cfg(tmp_path, mutated_config([(("problem", "eps"), 1e160)]))
    code, out, err = run(capsys, command[0], cfg, *command[1:])
    assert code == expected
    assert len(err.splitlines()) == 1
    assert "Warning" not in err
    if out:
        strict_json(out)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("value", [1e150, 1e200, 1e308])
@pytest.mark.parametrize(
    "command,expected",
    [
        (["validate"], 1),
        (["bounds"], 1),
        (["solve"], 3),
        (["probe-contraction", "--pairs", "2"], 1),
        (["continuity"], 1),
    ],
)
def test_huge_quadratic_matrices_fail_in_one_line(
    tmp_path, capsys, value, command, expected
):
    """Unscaled matrices far above the C^2 bound (at 1e308 their symmetric
    parts overflow): the C^2 clause fails or the solve diverges, with no
    numpy warning."""
    cfg = small_config(n=4)
    del cfg["nonlinearity"]["scale_c2_to_fraction"]
    cfg["nonlinearity"]["params"]["matrices"] = np.full((2, 2, 2), value).tolist()
    code, out, err = run(capsys, command[0], write_cfg(tmp_path, cfg), *command[1:])
    assert code == expected
    assert len(err.splitlines()) == 1
    if out:
        strict_json(out)


def test_non_finite_numbers_are_strict_json_strings(tmp_path, capsys):
    # kernels that vanish leave no coupling, so no threshold: eps_max = inf
    cfg = mutated_config([(("problem", "eps"), 0.01)])
    cfg["kernels"] = [{"constructor": "zero"}] * 2
    code, payload, err = run_json(capsys, "solve", write_cfg(tmp_path, cfg))
    assert code == 1  # the report is written, though vanishing kernels certify nothing
    assert payload["bounds"]["failures"] == ["kernel_nontrivial"]
    assert payload["bounds"]["eps_max"] == "inf"
    assert payload["config"]["eps_max_at_build"] == "inf"
    huge = write_cfg(tmp_path, mutated_config([(("problem", "eps"), 1e160)]), "huge.json")
    code, payload, err = run_json(capsys, "probe-contraction", huge, "--pairs", "2")
    assert code == 1
    assert payload["max_ratio"] == "inf"


# config entries the property tests below set to extreme values
MUTABLE_ENTRIES = [
    ("grid", "L"),
    ("kernels", 0, "params", "amplitude"),
    ("kernels", 1, "params", "width"),
    ("forcings", 0, "params", "amplitude"),
    ("forcings", 1, "params", "width"),
    ("problem", "eps"),
    ("problem", "eps_fraction"),
    ("problem", "rho"),
    ("problem", "c2_bound"),
]
EXTREMES = [0.0, 1e-300, -1e-300, 1e160, 1e200, 1e308, -1.0, float("nan")]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(
    derandomize=True, max_examples=80, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    command=st.sampled_from(["validate", "bounds"]),
    edits=st.lists(
        st.tuples(st.sampled_from(MUTABLE_ENTRIES), st.sampled_from(EXTREMES)),
        min_size=1, max_size=3,
    ),
)
def test_extreme_config_values_keep_the_exit_code_contract(tmp_path, capsys, command, edits):
    code = main([command, write_cfg(tmp_path, mutated_config(edits))])
    capsys.readouterr()
    assert code in (0, 1, 2)


def mutated_config(edits):
    cfg = small_config(n=4)
    for path, value in edits:
        if path == ("problem", "eps"):
            cfg["problem"].pop("eps_fraction", None)
        target = cfg
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
    return cfg


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(
    derandomize=True, max_examples=1000, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    command=st.sampled_from(
        [["solve"], ["continuity"], ["probe-contraction", "--pairs", "4"]]
    ),
    edits=st.lists(
        st.tuples(st.sampled_from(MUTABLE_ENTRIES), st.sampled_from(EXTREMES)),
        min_size=1, max_size=3,
    ),
)
def test_extreme_config_values_keep_the_solver_exit_code_contract(
    tmp_path, capsys, command, edits
):
    code = main([command[0], write_cfg(tmp_path, mutated_config(edits)), *command[1:]])
    capsys.readouterr()
    assert code in (0, 1, 2, 3)


def gaussians(widths, amplitudes):
    return [gaussian(w, a) for w, a in zip(widths, amplitudes)]


PAIR = functools.partial(st.lists, min_size=2, max_size=2)
WIDTHS = PAIR(st.floats(0.5, 2.0))
MATRIX_ENTRY = st.floats(-1.0, 1.0)


@st.composite
def valid_configs(draw):
    """n = 4 configs in d = 5, 6, 7 with every value in a physical range."""
    matrices = draw(
        st.lists(st.lists(PAIR(MATRIX_ENTRY), min_size=2, max_size=2),
                 min_size=2, max_size=2)
        .filter(lambda mats: np.any(mats))  # a vanishing g cannot be rescaled
    )
    return small_config(
        n=4,
        grid={"d": draw(st.sampled_from([5, 6, 7])), "L": draw(st.floats(0.5, 10.0))},
        problem={
            "rho": draw(st.floats(1e-3, 1.0)),
            "eps_fraction": draw(st.floats(0.0, 20.0, exclude_min=True)),
        },
        kernels=gaussians(
            draw(WIDTHS),
            draw(PAIR(st.floats(-2.0, 2.0).filter(lambda a: abs(a) >= 0.1))),
        ),
        forcings=gaussians(draw(WIDTHS), draw(PAIR(st.floats(-1.0, 1.0)))),
        nonlinearity={"params": {"matrices": matrices}},
    )


@settings(
    derandomize=True, max_examples=100, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(cfg=valid_configs())
def test_valid_configs_never_exit_as_config_errors(tmp_path, capsys, cfg):
    """No valid config is a config error.  One whose requirements fail exits 1
    from every command; one certified with a contractive map meets every
    certified inequality these runs can check."""
    path = write_cfg(tmp_path, cfg)
    codes, reports = {}, {}
    for command in (["solve"], ["continuity"], ["probe-contraction", "--pairs", "2"]):
        code, out, err = run(capsys, command[0], path, *command[1:])
        assert code in (0, 1, 3), (command, err)
        assert "Traceback" not in err
        codes[command[0]] = code
        reports[command[0]] = strict_json(out) if out else None
    bounds = reports["solve"]["bounds"]
    if bounds["failures"]:
        assert codes == {"solve": 1, "continuity": 1, "probe-contraction": 1}, cfg
        return
    assert codes["solve"] in (0, 3), cfg
    if bounds["contractive"]:
        kappa = bounds["contraction_constant"]
        solve = reports["solve"]
        assert codes["solve"] == 0, cfg
        assert solve["perturbation_h4"] <= bounds["apriori_bound"], cfg
        assert all(s["ratio"] is None or s["ratio"] <= kappa for s in solve["trace"]), cfg
        assert codes["probe-contraction"] == 0, cfg
        assert reports["probe-contraction"]["max_ratio"] <= kappa, cfg
        assert codes["continuity"] != 3, cfg
        if codes["continuity"] == 0:
            cont = reports["continuity"]
            assert cont["measured"] <= cont["bound"] + cont["slack"], cfg


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

def test_bounds_reports_certified_constants(tmp_path, capsys):
    cfg = write_cfg(tmp_path, small_config())
    code, payload, err = run_json(capsys, "bounds", cfg)
    assert code == 0
    b = payload["bounds"]
    for key in ("eps_max", "lipschitz_coeff", "contraction_constant",
                "apriori_bound", "sobolev_constant", "state_ball_radius"):
        assert key in b
    assert b["contractive"] is True
    assert b["eps_used"] == pytest.approx(0.5 * b["eps_max"], rel=1e-12)
    assert payload["config"]["eps_source"] == "config_fraction=0.5"


@pytest.mark.parametrize("fraction,constant", [("1.5", 1.08), ("2.5", 1.80)])
def test_bounds_above_eps_max_are_not_contractive(capsys, fraction, constant):
    """On the shipped instance eps_fraction 1 gives a contraction constant
    of 0.72, so fractions 1.5 and 2.5 give 1.08 and 1.80: above 1, not
    contractive, and still exit 0 (Q > 1 is flagged, not failed)."""
    code, payload, err = run_json(
        capsys, "bounds", str(REFERENCE_CONFIG), "--eps-fraction", fraction
    )
    assert code == 0
    b = payload["bounds"]
    assert b["contraction_constant"] == pytest.approx(constant, abs=0.005)
    assert b["contractive"] is False
    assert "outside the certified regime" in err


def test_bounds_requirements_failure(tmp_path, capsys):
    cfg = write_cfg(tmp_path, small_config(forcings=ZERO_FORCINGS))
    code, payload, err = run_json(capsys, "bounds", cfg)
    assert code == 1
    assert err == "problem requirements failed: forcing_nontrivial\n"
    # the report is written: its constants, uncertified, and what failed
    assert payload["bounds"]["failures"] == ["forcing_nontrivial"]
    assert payload["bounds"]["eps_max"] > 0.0


def test_failed_requirements_still_write_every_report(tmp_path, capsys):
    """solve writes its report, dumps and trace, and the probe its bounds
    without drawing a pair; each names the failed clause and exits 1."""
    cfg = write_cfg(tmp_path, small_config(n=4, forcings=ZERO_FORCINGS))
    line = "problem requirements failed: forcing_nontrivial\n"
    csv_path = tmp_path / "trace.csv"
    code, solve, err = run_json(
        capsys, "solve", cfg, "--dump-fields", str(tmp_path / "fields"), "--trace-csv", str(csv_path)
    )
    assert (code, err) == (1, line)
    assert solve["converged"] is True
    assert solve["bounds"]["failures"] == ["forcing_nontrivial"]
    assert len(solve["dumped_fields"]) == 6 and csv_path.exists()
    code, probe, err = run_json(capsys, "probe-contraction", cfg, "--pairs", "2")
    assert (code, err) == (1, line)
    assert probe["bounds"] == solve["bounds"]
    assert "ratios" not in probe


def test_bounds_output_is_deterministic(tmp_path, capsys):
    cfg = write_cfg(tmp_path, small_config())
    _, out1, _ = run(capsys, "bounds", cfg)
    _, out2, _ = run(capsys, "bounds", cfg)
    assert out1 == out2


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def test_solve_converges_and_reports(tmp_path, capsys):
    cfg = write_cfg(tmp_path, small_config())
    code, payload, err = run_json(capsys, "solve", cfg)
    assert code == 0
    assert payload["error"] is None
    assert payload["converged"] is True
    assert payload["residual_rel"] <= 1e-8
    assert payload["warnings"] == []
    assert payload["background_h4"] > 0.0
    assert payload["wall_time_total"] > 0.0
    trace = payload["trace"]
    assert trace and trace[0]["k"] == 1
    assert trace[-1]["step_h4"] <= 1e-10 * max(1.0, payload["perturbation_h4"])
    assert payload["config"]["solver"]["tol"] == 1e-10


def test_solve_prints_what_picard_returns(tmp_path, capsys):
    """The CLI solve is picard on the built problem, bit for bit."""
    cfg = small_config()
    code, payload, err = run_json(capsys, "solve", write_cfg(tmp_path, cfg))
    assert code == 0
    built = build_problem(cfg)
    rep = picard(built.problem, tol=built.tol, max_iter=built.max_iter,
                 budget=built.budget, seed=built.seed)
    assert payload["background_h4"] == rep.background_h4
    assert payload["perturbation_h4"] == rep.perturbation_h4
    assert payload["solution_h4"] == rep.solution_h4
    assert payload["bounds"]["eps_max"] == rep.bounds.eps_max


def test_solve_iteration_budget_exit_code(tmp_path, capsys):
    cfg = write_cfg(tmp_path, small_config())
    code, payload, err = run_json(capsys, "solve", cfg, "--max-iter", "1",
                                  "--tol", "1e-14")
    assert code == 3
    assert payload["error"] == "MaxIterExceeded"
    assert payload["converged"] is False
    assert payload["iterations"] == 1
    assert "solver failure" in err


def test_solve_far_beyond_threshold_is_never_silent(tmp_path, capsys):
    cfg = write_cfg(tmp_path, small_config())
    code, payload, err = run_json(capsys, "solve", cfg, "--eps-fraction", "10")
    assert code in (0, 3)
    if code == 0:
        assert payload["warnings"], "uncertified solve must carry a warning"
        assert any("exceeds the certified threshold" in w for w in payload["warnings"])
        assert payload["bounds"]["eps_used"] > payload["bounds"]["eps_max"]
    else:
        assert payload["error"] in ("MaxIterExceeded", "DivergenceDetected")
    assert "outside the certified regime" in err


def test_solve_dumps_fields_and_trace(tmp_path, capsys):
    cfg = write_cfg(tmp_path, small_config())
    out_dir = tmp_path / "fields"
    csv_path = tmp_path / "trace.csv"
    code, payload, err = run_json(
        capsys, "solve", cfg,
        "--dump-fields", str(out_dir), "--trace-csv", str(csv_path),
    )
    assert code == 0
    assert len(payload["dumped_fields"]) == 6
    fields = {}
    for name in ("background", "perturbation", "solution"):
        for m in (0, 1):
            f = read_field(out_dir / f"{name}_{m}.bfx1")
            assert f.grid.n == 6 and f.grid.d == 5
            fields[(name, m)] = f.values
    for m in (0, 1):
        assert np.array_equal(
            fields[("solution", m)],
            fields[("background", m)] + fields[("perturbation", m)],
        )

    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "k,norm_h4,step_h4,ratio,dropped_mass,wall_time"
    assert len(lines) - 1 == payload["iterations"]
    assert lines[1].split(",")[3] == ""  # no ratio on the first step
    assert payload["trace_csv"] == str(csv_path)


def test_solve_output_is_deterministic_up_to_wall_time(tmp_path, capsys):
    cfg = write_cfg(tmp_path, small_config())

    def canonical(payload):
        payload = dict(payload)
        payload.pop("wall_time_total")
        payload["trace"] = [
            {k: v for k, v in row.items() if k != "wall_time"}
            for row in payload["trace"]
        ]
        return payload

    _, p1, _ = run_json(capsys, "solve", cfg)
    _, p2, _ = run_json(capsys, "solve", cfg)
    assert canonical(p1) == canonical(p2)


# ---------------------------------------------------------------------------
# probe-contraction
# ---------------------------------------------------------------------------

def test_probe_contraction_within_certified_ratio(tmp_path, capsys):
    cfg = write_cfg(tmp_path, small_config())
    code, payload, err = run_json(
        capsys, "probe-contraction", cfg, "--pairs", "5", "--seed", "0"
    )
    assert code == 0
    assert payload["passed"] is True
    assert len(payload["ratios"]) == 5
    assert payload["pairs"] == 5
    assert payload["max_ratio"] <= payload["contraction_constant"] * 1.05
    assert payload["margin"] == 0.05


@pytest.mark.parametrize("fraction", ["4", "1e6"])
def test_probe_of_an_uncertified_map_passes_nothing(tmp_path, capsys, fraction):
    """Where eps kappa >= 1 (here from a fraction of about 3.1) the ratios
    have no certified bound to meet: the probe reports ``passed: null`` and
    exits 0.  At a fraction of 1e6 the largest ratio is above 1, and far
    below eps kappa."""
    cfg = write_cfg(tmp_path, small_config(n=4))
    code, payload, err = run_json(
        capsys, "probe-contraction", cfg, "--pairs", "3", "--eps-fraction", fraction
    )
    assert code == 0
    assert payload["contraction_constant"] >= 1.0
    assert payload["passed"] is None
    assert len(payload["ratios"]) == 3
    if fraction == "1e6":
        assert 1.0 < payload["max_ratio"] < 1e-3 * payload["contraction_constant"]
    assert "exceeds certified" not in err


@pytest.mark.parametrize("pairs", ["0", "-3"])
def test_probe_without_pairs_is_a_config_error(tmp_path, capsys, pairs):
    cfg = write_cfg(tmp_path, small_config())
    code, out, err = run(capsys, "probe-contraction", cfg, "--pairs", pairs)
    assert code == 2
    assert "--pairs" in err
    assert out == ""


def test_probe_on_a_vanishing_ball_is_a_config_error(tmp_path, capsys):
    # the H^4 norms of every pair difference underflow to 0 on so small a ball
    cfg = write_cfg(tmp_path, small_config(n=4, problem={"rho": 1e-300}))
    code, out, err = run(capsys, "probe-contraction", cfg, "--pairs", "4")
    assert code == 2
    assert err.startswith("config error: perturbation ball radius")
    assert out == ""


# ---------------------------------------------------------------------------
# continuity
# ---------------------------------------------------------------------------

def test_continuity_respects_certified_bound(tmp_path, capsys):
    cfg = write_cfg(tmp_path, small_config())
    code, payload, err = run_json(capsys, "continuity", cfg, "--delta", "0.01")
    assert code == 0
    assert payload["passed"] is True
    assert payload["delta"] == 0.01
    assert payload["gap_method"] == "analytic"
    assert payload["measured"] <= payload["bound"] * 1.05 + payload["slack"]
    assert max(payload["residuals"]) <= 1e-8


@pytest.mark.parametrize("delta", ["nan", "inf", "-inf"])
def test_non_finite_delta_is_a_config_error(tmp_path, capsys, delta):
    cfg = write_cfg(tmp_path, small_config())
    code, out, err = run(capsys, "continuity", cfg, f"--delta={delta}")
    assert code == 2
    assert "--delta" in err
    assert out == ""


def test_continuity_rejects_perturbation_beyond_c2_bound(tmp_path, capsys):
    # g2 = 2.5 g1 has a C^2 norm of 1.25 on the state ball, above c2_bound = 1
    cfg = write_cfg(tmp_path, small_config())
    code, out, err = run(capsys, "continuity", cfg, "--delta", "1.5")
    assert code == 1
    assert "c2_within_bound" in err
    assert out == ""


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("delta", ["10", "1e300"])
def test_continuity_perturbation_overflowing_the_matrices(tmp_path, capsys, delta):
    # (1 + delta) times the symmetric part overflows; an asymmetric entry
    # keeps the unscaled part finite
    cfg = small_config(n=4)
    cfg["nonlinearity"] = {
        "family": "quadratic",
        "params": {"matrices": [[[0.0, 1.7e308], [0.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]},
    }
    cfg = write_cfg(tmp_path, cfg)
    code, out, err = run(capsys, "continuity", cfg, "--delta", delta)
    assert code == 1
    assert err == "problem requirements failed: c2_within_bound\n"
    assert out == ""


# ---------------------------------------------------------------------------
# the shipped instance
# ---------------------------------------------------------------------------

# configs/d5_n2.json, pinned.  The fields left out are roundoff-level, so
# they are checked against their bounds: reordering the sum in a norm (as a
# new coefficient layout does) moved the residuals by 3e-3 relative (2e-16
# absolute), the step norms and ratios after the first step by 2e-10 and the
# continuity measurement by 2e-13, and every other field by at most 2e-15.
SHIPPED_BOUNDS = {
    "eps_max": 0.0388126734771414,
    "lattice_sobolev_constant": 0.03335381217464288,
    "lipschitz_coeff": 18.532885830483604,
    "apriori_bound": 0.5,
    "background_h4": 0.3902195484821371,
    "c2_norm": 0.5,
}
SHIPPED_SOLVE = {
    "perturbation_h4": 0.00013037223903941266,
    "solution_h4": 0.39029951362528165,
}
SHIPPED_TRACE_NORMS = [
    0.00013028854398496303, 0.00013037217696578035, 0.00013037223903941266
]
SHIPPED_CONTINUITY_BOUND = 0.003904148001615213
SHIPPED_PROBE_RATIOS = [
    3.556120770429542e-05, 3.297387566453136e-05,
    3.415302144747993e-05, 2.8151448205422265e-05,
]


def test_shipped_instance_is_pinned(capsys):
    cfg = str(REFERENCE_CONFIG)
    code, bounds, _ = run_json(capsys, "bounds", cfg)
    assert code == 0
    for key, value in SHIPPED_BOUNDS.items():
        assert bounds["bounds"][key] == pytest.approx(value, rel=1e-12), key
    assert bounds["bounds"]["c2_method"] == "analytic"
    assert bounds["bounds"]["failures"] == []

    code, solve, _ = run_json(capsys, "solve", cfg)
    assert code == 0
    assert solve["converged"] is True
    assert solve["iterations"] == 3
    for key, value in SHIPPED_SOLVE.items():
        assert solve[key] == pytest.approx(value, rel=1e-10), key
    trace = solve["trace"]
    assert [s["norm_h4"] for s in trace] == pytest.approx(SHIPPED_TRACE_NORMS, rel=1e-10)
    assert max(solve["residual_abs"], solve["residual_rel"]) <= 1e-12
    last = trace[-1]
    assert last["step_h4"] <= solve["tol"] * max(1.0, last["norm_h4"])
    assert all(s["ratio"] <= bounds["bounds"]["contraction_constant"] for s in trace[1:])

    code, cont, _ = run_json(capsys, "continuity", cfg)
    assert code == 0
    assert cont["passed"] is True
    assert cont["iterations"] == [3, 3]
    assert cont["bound"] == pytest.approx(SHIPPED_CONTINUITY_BOUND, rel=1e-12)
    assert cont["measured"] <= cont["bound"] * (1.0 + cont["margin"]) + cont["slack"]
    assert max(cont["residuals"]) <= 1e-12

    code, probe, _ = run_json(capsys, "probe-contraction", cfg, "--pairs", "4", "--seed", "1")
    assert code == 0
    assert probe["passed"] is True
    assert probe["ratios"] == pytest.approx(SHIPPED_PROBE_RATIOS, rel=1e-12)
