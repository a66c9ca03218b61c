"""The benchmark's workloads: generated inputs, timed calls and result checks.

Each workload is a closed loop with one caller, the way nlrd is used: make
one call, wait for the report, check it, make the next.  ``setup`` writes the
workload's config and builds the problem from it, ``run`` makes the timed
calls of one operation, ``check`` verifies their results outside the timed
region, and ``finish`` runs the checks that are too heavy to repeat (an
independent residual in plain numpy) on the last operation's output files.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import time
from pathlib import Path

import numpy as np

import nlrd.bounds
import nlrd.cli
import nlrd.config
import nlrd.fieldio
import nlrd.solver
from nlrd.lattice import VectorField

SHIPPED_CONFIG = Path("configs") / "d5_n2.json"

#: largest accepted relative residual of a solve
RESIDUAL_MAX = 1e-8

# Values of the shipped d5 instance, measured when this benchmark was added:
# name -> (value, relative tolerance).  Wrong Hermitian weights in a faster
# norm or transform path move the H^4 norms by O(1) while the residual can
# stay tiny, so the norms are checked against these as well.
D5_REFERENCE = {
    "eps_max": (0.03881267347714143, 1e-12),
    "background_h4": (0.3902195484821368, 1e-10),
    "perturbation_h4": (0.0001303722390394126, 1e-8),
}

#: factor applied to the d5 eps_max reference by ``--inject-bad-reference``
BAD_REFERENCE_FACTOR = 1.0 + 1e-9


class Check:
    """Collects the failed conditions of one call."""

    def __init__(self) -> None:
        self.failures: list[str] = []

    def require(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)

    def close(self, what: str, value: float, ref: float, rtol: float) -> None:
        self.require(
            math.isfinite(value) and abs(value - ref) <= rtol * abs(ref),
            f"{what} {value!r} differs from {ref!r} (rtol {rtol:g})",
        )


def generated_config(d: int, n: int, seed: int) -> dict:
    """A two-component instance whose data are drawn from ``seed``.

    Widths, amplitudes and centres of the Gaussian kernels and forcings and
    the quadratic matrices are drawn within fixed ranges.  The couplings sit
    at half the certified threshold and the nonlinearity is rescaled to half
    the C^2 budget, so every seed gives a certifiable, contracting instance.
    """
    rng = np.random.default_rng([seed, d])

    def gaussian(width: float, amplitude: float) -> dict:
        center = [float(c) for c in rng.uniform(-0.5, 0.5, d)]
        return {
            "constructor": "gaussian",
            "params": {"width": float(width), "amplitude": float(amplitude), "center": center},
        }

    kernels = [gaussian(rng.uniform(0.8, 1.2), rng.uniform(0.6, 1.0)) for _ in range(2)]
    forcings = [
        gaussian(rng.uniform(0.9, 1.3), rng.choice([-1.0, 1.0]) * rng.uniform(0.02, 0.06))
        for _ in range(2)
    ]
    matrices = []
    for _ in range(2):
        a = rng.uniform(-1.0, 1.0, (2, 2))
        matrices.append((0.5 * (a + a.T)).tolist())
    return {
        "grid": {"d": d, "n": n, "L": 6.0},
        "problem": {"rho": 1.0, "c2_bound": 1.0, "eps_fraction": 0.5},
        "kernels": kernels,
        "forcings": forcings,
        "nonlinearity": {
            "family": "quadratic",
            "params": {"matrices": matrices},
            "scale_c2_to_fraction": 0.5,
        },
        "solver": {"tol": 1e-10, "max_iter": 200, "seed": 0, "budget": 100000},
        "margins": {"contraction": 0.05, "continuity": 0.05},
    }


def _spectral(grid):
    """Unitary forward transform of flat samples, and |p|^2, for ``grid``."""
    d = grid.d
    scale = (2.0 * np.pi) ** (-d / 2.0) * grid.h**d

    def hat(values):
        return scale * np.fft.fftn(np.fft.ifftshift(np.reshape(values, grid.shape)))

    p2 = (grid.dp * np.fft.fftfreq(grid.n, 1.0 / grid.n)) ** 2
    return hat, functools.reduce(np.add.outer, [p2] * d)


# The two functions below are written in plain numpy from the equation and
# the unitary transform convention, without nlrd's transform, norm or
# residual code, so that a wrong faster path in the program cannot hide in
# its own checks.  Fields are sequences of flat per-component sample arrays.

def independent_h4(grid, fields) -> float:
    """H^4 norm (weight 1 + |p|^8) of a vector field."""
    hat, q2 = _spectral(grid)
    return math.sqrt(sum(
        grid.dp**grid.d * float(np.sum((1.0 + q2**4) * np.abs(hat(v)) ** 2))
        for v in fields
    ))


def independent_residual(problem, solution) -> float:
    """L^2 residual of the full equation at ``solution``, zero mode removed,
    relative to the L^2 norm of the forcing."""
    grid = problem.grid
    hat, q2 = _spectral(grid)
    conv = (2.0 * np.pi) ** (grid.d / 2.0)
    mats = problem.nonlinearity.matrices
    n_comp = len(mats)
    res_sq = 0.0
    for m in range(n_comp):
        g = sum(
            mats[m][i, j] * solution[i] * solution[j]
            for i in range(n_comp)
            for j in range(n_comp)
        )
        r = (
            -(q2 + q2**2) * hat(solution[m])
            + problem.eps[m] * conv * hat(problem.kernels[m].values) * hat(g)
            + hat(problem.forcings[m].values)
        )
        r[(0,) * grid.d] = 0.0
        res_sq += grid.dp**grid.d * float(np.sum(np.abs(r) ** 2))
    f_l2 = math.sqrt(sum(grid.h**grid.d * float(np.sum(f.values**2)) for f in problem.forcings))
    return math.sqrt(res_sq) / f_l2


class Workload:
    """One workload; subclasses define the instance and the timed calls."""

    name = ""
    #: calls (attempted operations) per ``run``
    calls = 1

    def __init__(self, root: Path, workdir: Path, seed: int, smoke: bool,
                 bad_reference: bool = False) -> None:
        self.root = root
        self.workdir = workdir
        self.seed = seed
        self.smoke = smoke
        self.bad_reference = bad_reference
        self.built = None

    # -- set-up ----------------------------------------------------------

    def config(self) -> dict:
        raise NotImplementedError

    def setup(self) -> None:
        """Write the config and build the problem from it."""
        self.built = None  # free the previous build before making the next
        path = self.workdir / "instance.json"
        path.write_text(json.dumps(self.config()))
        self.config_path = path
        self.built = nlrd.config.build_problem(nlrd.config.load_config(path))

    def warm_up(self) -> None:
        """One application of the fixed-point map on the built problem."""
        problem = self.built.problem
        nlrd.solver.apply_fixed_point_map(
            problem, self.built.background,
            VectorField.zeros(problem.grid, problem.n_components),
        )

    def prepare(self) -> None:
        """Untimed work after the last set-up that the checks need."""

    def working_set(self) -> dict:
        grid = self.built.problem.grid
        n_comp = self.built.problem.n_components
        return {
            "d": grid.d,
            "n": grid.n,
            "points": grid.npoints,
            "components": n_comp,
            "complex_component_bytes": grid.npoints * 16,
            "complex_vector_bytes": grid.npoints * n_comp * 16,
            "note": "computed from array sizes",
        }

    def problem_for(self, tracer):
        problem = self.built.problem
        if tracer is None:
            return problem
        return problem.with_nonlinearity(tracer.traced_nonlinearity(problem.nonlinearity))

    # -- operations ----------------------------------------------------------

    def run(self, index: int, tracer) -> tuple[float, dict, object]:
        """Make one operation's calls: (seconds, named timings, outputs)."""
        raise NotImplementedError

    def check(self, outputs) -> list[list[str]]:
        """Failures of each call of one operation."""
        raise NotImplementedError

    def finish(self) -> list[str]:
        """Checks on the last operation's output files."""
        return []


class ShippedCli(Workload):
    """The shipped config through ``nlrd.cli.main``, four subcommands per operation.

    On this small grid per-call overhead (background solves, validation, the
    residual, JSON output) costs more than the 3 Picard steps, so this is
    where removing overhead shows.
    """

    name = "shipped-d5-cli"
    calls = 4
    PROBE_PAIRS = 4

    def config(self) -> dict:
        return json.loads((self.root / SHIPPED_CONFIG).read_text())

    def prepare(self) -> None:
        cfg = str(self.config_path)
        self.dump_dir = self.workdir / "fields"
        self.trace_csv = self.workdir / "trace.csv"
        self.argvs = {
            "cli_bounds_s": ["bounds", cfg],
            "cli_solve_s": ["solve", cfg, "--dump-fields", str(self.dump_dir),
                            "--trace-csv", str(self.trace_csv)],
            "cli_continuity_s": ["continuity", cfg],
            "cli_probe_s": ["probe-contraction", cfg, "--pairs", str(self.PROBE_PAIRS),
                            "--seed", str(self.seed)],
        }
        self.reference = dict(D5_REFERENCE)
        if self.bad_reference:
            value, rtol = self.reference["eps_max"]
            self.reference["eps_max"] = (value * BAD_REFERENCE_FACTOR, rtol)
        self.solve_checked = False

    def run(self, index, tracer):
        named = {}
        outputs = {}
        for key, argv in self.argvs.items():
            out, err = io.StringIO(), io.StringIO()
            span = (tracer.span("cli.main", command=argv[0]) if tracer is not None
                    else contextlib.nullcontext())
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                t0 = time.perf_counter()
                with span:
                    code = nlrd.cli.main(argv)
                named[key] = time.perf_counter() - t0
            outputs[key] = (code, out.getvalue(), err.getvalue())
        return sum(named.values()), named, outputs

    def _ref(self, c: Check, what: str, value: float) -> None:
        ref, rtol = self.reference[what]
        c.close(what, value, ref, rtol)

    def check(self, outputs):
        result = []
        for key, (code, out, err) in outputs.items():
            c = Check()
            c.require(code == 0, f"{key}: exit code {code}: {err.strip()[-300:]}")
            if code == 0:
                try:
                    payload = json.loads(out)
                except json.JSONDecodeError as exc:
                    c.require(False, f"{key}: report is not JSON: {exc}")
                else:
                    getattr(self, "_check_" + key)(c, payload)
            result.append(c.failures)
        return result

    def _check_cli_bounds_s(self, c: Check, p: dict) -> None:
        b = p["bounds"]
        self._ref(c, "eps_max", b["eps_max"])
        self._ref(c, "background_h4", b["background_h4"])
        c.require(b["contractive"] is True, "bounds: not contractive")

    def _check_cli_solve_s(self, c: Check, p: dict) -> None:
        c.require(p["error"] is None and p["converged"] is True, f"solve: not converged ({p['error']})")
        c.require(p["residual_rel"] is not None and p["residual_rel"] <= RESIDUAL_MAX,
                  f"solve: residual_rel {p['residual_rel']!r} > {RESIDUAL_MAX:g}")
        c.require(p["perturbation_h4"] <= p["bounds"]["apriori_bound"],
                  "solve: |v*|_H4 above the a-priori bound")
        self._ref(c, "eps_max", p["bounds"]["eps_max"])
        self._ref(c, "background_h4", p["background_h4"])
        self._ref(c, "perturbation_h4", p["perturbation_h4"])
        lines = self.trace_csv.read_text().strip().splitlines()
        c.require(len(lines) == 1 + p["iterations"],
                  f"solve: trace CSV has {len(lines) - 1} rows for {p['iterations']} iterations")
        grid = self.built.problem.grid
        n_comp = self.built.problem.n_components
        for m in range(n_comp):
            fields = {
                kind: nlrd.fieldio.read_field(self.dump_dir / f"{kind}_{m}.bfx1")
                for kind in ("background", "perturbation", "solution")
            }
            c.require(all(f.grid == grid for f in fields.values()),
                      f"solve: dumped component {m} has the wrong grid")
            u = fields["solution"].values
            total = fields["background"].values + fields["perturbation"].values
            c.require(np.max(np.abs(u - total)) <= 1e-12 * np.max(np.abs(u)),
                      f"solve: dumped solution {m} is not background + perturbation")
        self.solve_checked = True

    def _check_cli_continuity_s(self, c: Check, p: dict) -> None:
        c.require(p["passed"] is True, "continuity: not passed")
        c.require(p["measured"] <= p["bound"] * (1.0 + p["margin"]) + p["slack"],
                  "continuity: measured shift above its bound")
        c.require(all(r <= RESIDUAL_MAX for r in p["residuals"]),
                  f"continuity: residuals {p['residuals']!r}")

    def _check_cli_probe_s(self, c: Check, p: dict) -> None:
        ratios = p["ratios"]
        c.require(p["passed"] is True, "probe: not passed")
        c.require(len(ratios) == self.PROBE_PAIRS and all(0.0 < r < math.inf for r in ratios),
                  f"probe: ratios {ratios!r}")
        c.require(p["max_ratio"] <= p["contraction_constant"] * (1.0 + p["margin"]),
                  "probe: max_ratio above eps*kappa*(1+margin)")

    def finish(self):
        if not self.solve_checked:
            return ["solve: no checked solve to verify independently"]
        c = Check()
        problem = self.built.problem
        read = {
            (kind, m): nlrd.fieldio.read_field(self.dump_dir / f"{kind}_{m}.bfx1").values
            for kind in ("background", "perturbation", "solution")
            for m in range(problem.n_components)
        }
        comps = range(problem.n_components)
        res = independent_residual(problem, [read["solution", m] for m in comps])
        c.require(res <= RESIDUAL_MAX, f"independent residual {res!r} > {RESIDUAL_MAX:g}")
        for kind in ("perturbation", "background"):
            value = independent_h4(problem.grid, [read[kind, m] for m in comps])
            self._ref(c, f"{kind}_h4", value)
        return c.failures


class GeneratedInstance(Workload):
    """A seeded instance of dimension ``D`` with ``N_FULL`` points per axis."""

    D = 0
    N_FULL = 0
    N_SMOKE = 4

    def config(self) -> dict:
        return generated_config(self.D, self.N_SMOKE if self.smoke else self.N_FULL, self.seed)


class ProbeD6(GeneratedInstance):
    """Repeated ``contraction_probe`` calls on a built d = 6 instance.

    Steady-state throughput of the map T and of random ball fields; the
    timed region does no config, bounds, background or residual work.
    """

    name = "probe-d6"
    D, N_FULL = 6, 10
    PAIRS = 2

    def prepare(self) -> None:
        b = self.built
        self.theory = nlrd.bounds.compute_bounds(
            b.problem, b.background_h4, budget=b.budget, seed=b.seed
        )
        self.margin = float(b.margins["contraction"])

    def run(self, index, tracer):
        problem = self.problem_for(tracer)
        t0 = time.perf_counter()
        rep = nlrd.solver.contraction_probe(
            problem, pairs=self.PAIRS, seed=self.seed * 1000 + index,
            background=self.built.background,
        )
        dt = time.perf_counter() - t0
        return dt, {"probe_pairs_per_s": self.PAIRS / dt}, rep

    def check(self, rep):
        c = Check()
        c.require(len(rep.ratios) == self.PAIRS and all(0.0 < r < math.inf for r in rep.ratios),
                  f"probe: ratios {rep.ratios!r}")
        limit = self.theory.contraction_constant * (1.0 + self.margin)
        c.require(rep.max_ratio <= limit, f"probe: max_ratio {rep.max_ratio!r} > {limit!r}")
        return [c.failures]


class SolveD7(GeneratedInstance):
    """``picard`` to tol 1e-10 on a d = 7 instance, then a BFX1 round trip.

    Large arrays and 7-d transforms: gains limited by memory and transforms
    show here, and so do memory regressions.
    """

    name = "solve-d7"
    D, N_FULL = 7, 8

    def prepare(self) -> None:
        self.last = None

    def _path(self, m: int) -> Path:
        return self.workdir / f"solution_{m}.bfx1"

    def run(self, index, tracer):
        problem = self.problem_for(tracer)
        b = self.built
        t0 = time.perf_counter()
        rep = nlrd.solver.picard(problem, tol=1e-10, max_iter=b.max_iter,
                                 budget=b.budget, seed=b.seed)
        t1 = time.perf_counter()
        for m, comp in enumerate(rep.solution.components):
            nlrd.fieldio.write_field(self._path(m), comp)
        back = [nlrd.fieldio.read_field(self._path(m)) for m in range(problem.n_components)]
        t2 = time.perf_counter()
        return t2 - t0, {"solve_s": t1 - t0, "fieldio_s": t2 - t1}, (rep, back)

    def check(self, outputs):
        rep, back = outputs
        c = Check()
        res = rep.residual.relative if rep.residual is not None else math.inf
        c.require(rep.converged, "solve: not converged")
        c.require(res <= RESIDUAL_MAX, f"solve: residual_rel {res!r} > {RESIDUAL_MAX:g}")
        c.require(rep.perturbation_h4 <= rep.bounds.apriori_bound,
                  "solve: |v*|_H4 above the a-priori bound")
        for m, (f, comp) in enumerate(zip(back, rep.solution.components)):
            c.require(f.grid == comp.grid and np.array_equal(f.values, comp.values),
                      f"fieldio: component {m} read back differs from what was written")
        self.last = (rep.perturbation_h4, rep.bounds.apriori_bound)
        return [c.failures]

    def finish(self):
        if self.last is None:
            return ["solve: no checked solve to verify independently"]
        pert_h4, apriori = self.last
        problem = self.built.problem
        u = [nlrd.fieldio.read_field(self._path(m)).values for m in range(problem.n_components)]
        v = [u[m] - self.built.background.components[m].values for m in range(len(u))]
        res = independent_residual(problem, u)
        v_h4 = independent_h4(problem.grid, v)
        c = Check()
        c.require(res <= RESIDUAL_MAX, f"independent residual {res!r} > {RESIDUAL_MAX:g}")
        c.close("independent perturbation_h4", v_h4, pert_h4, 1e-8)
        c.require(v_h4 <= apriori, "independent |v*|_H4 above the a-priori bound")
        return c.failures


WORKLOADS = {w.name: w for w in (ShippedCli, ProbeD6, SolveD7)}
