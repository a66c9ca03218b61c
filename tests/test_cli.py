"""End-to-end command-line interface tests (in-process)."""

import json

import numpy as np
import pytest
from conftest import small_config

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


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


ZERO_FORCINGS = [{"constructor": "zero"}, {"constructor": "zero"}]


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
    ],
)
def test_bad_solver_settings_are_config_errors(tmp_path, capsys, command, solver, extra):
    cfg = write_cfg(tmp_path, small_config(solver=solver))
    code, out, err = run(capsys, command, cfg, *extra)
    assert code == 2
    assert "config error" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "overrides",
    [
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
    ],
)
def test_bad_config_values_are_config_errors(tmp_path, capsys, overrides):
    cfg = small_config(**overrides)
    # a None override removes the key (eps replaces eps_fraction)
    cfg["problem"] = {k: v for k, v in cfg["problem"].items() if v is not None}
    code, out, err = run(capsys, "bounds", write_cfg(tmp_path, cfg))
    assert code == 2
    assert "config error" in err
    assert out == ""


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
    assert "config error" in err
    assert message in err
    assert "Traceback" not in err
    assert out == ""


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


def test_bounds_requirements_failure(tmp_path, capsys):
    cfg = write_cfg(tmp_path, small_config(forcings=ZERO_FORCINGS))
    code, payload, err = run_json(capsys, "bounds", cfg)
    assert code == 1
    assert payload["error"] == "requirements_failed"
    assert "forcing_nontrivial" in payload["failures"]


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


@pytest.mark.parametrize("pairs", ["0", "-3"])
def test_probe_without_pairs_is_a_config_error(tmp_path, capsys, pairs):
    cfg = write_cfg(tmp_path, small_config())
    code, out, err = run(capsys, "probe-contraction", cfg, "--pairs", pairs)
    assert code == 2
    assert "--pairs" in err
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
