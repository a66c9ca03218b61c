"""Outside-in tracing of nlrd, installed from the benchmark's own files.

Nothing inside ``src/nlrd`` records spans.  Instead :class:`Tracer` replaces,
for the duration of one traced operation, each binding through which one
nlrd module calls a public function of another (or, for a module's internal
calls, the module's own global) with a wrapper that records a span: name,
start, end, parent and a few attributes (bytes moved, points evaluated,
iterations).  ``nlrd.solver.forward_coeffs`` and ``nlrd.lattice.forward_coeffs``
are separate bindings, so both are wrapped.  The nonlinearity is a value,
not a binding: it is wrapped with :func:`dataclasses.replace` wherever a
problem or a scaled nonlinearity enters the program.

Spans are kept in memory; :meth:`Tracer.dump` writes them out at the end of
a run.  :func:`layer_metrics` turns the spans under one operation into the
per-layer metrics listed in ``LAYER_METRICS``.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

#: header bytes of a BFX1 file (magic, version, reserved, d, n, L)
BFX1_HEADER_BYTES = 32


@dataclasses.dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    attrs: dict = dataclasses.field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _transform_bytes(args, kwargs, out) -> dict:
    # computed from array sizes: the input buffer read plus the output written
    return {"bytes": int(args[1].nbytes + out.nbytes)}


def _iterations(args, kwargs, out) -> dict:
    return {"iterations": int(out.iterations)}


def _written_bytes(args, kwargs, out) -> dict:
    return {"bytes": BFX1_HEADER_BYTES + int(args[1].values.nbytes)}


def _read_bytes(args, kwargs, out) -> dict:
    return {"bytes": BFX1_HEADER_BYTES + int(out.values.nbytes)}


# (module, attribute, span name, attribute recorder).  Each row is one
# binding: the module named first is the caller whose global is replaced.
BINDINGS = (
    ("nlrd.lattice", "forward_coeffs", "lattice.forward", _transform_bytes),
    ("nlrd.solver", "forward_coeffs", "lattice.forward", _transform_bytes),
    ("nlrd.lattice", "inverse_values", "lattice.inverse", _transform_bytes),
    ("nlrd.solver", "inverse_values", "lattice.inverse", _transform_bytes),
    ("nlrd.lattice", "h4_norm_sq_coeffs", "lattice.h4_norm", None),
    ("nlrd.solver", "h4_norm_sq_coeffs", "lattice.h4_norm", None),
    ("nlrd.solver", "solve_linear", "spectral.solve_linear", None),
    ("nlrd.bounds", "validate_problem_data", "model.validate", None),
    ("nlrd.bounds", "validate_nonlinearity", "model.validate", None),
    ("nlrd.bounds", "validate_problem", "bounds.validate", None),
    ("nlrd.cli", "validate_problem", "bounds.validate", None),
    ("nlrd.cli", "compute_bounds", "bounds.compute", None),
    ("nlrd.solver", "compute_bounds", "bounds.compute", None),
    ("nlrd.cli", "picard", "solver.picard", _iterations),
    ("nlrd.solver", "picard", "solver.picard", _iterations),
    ("nlrd.solver", "residual", "solver.residual", None),
    ("nlrd.solver", "random_ball_field", "solver.random_field", None),
    ("nlrd.cli", "contraction_probe", "solver.probe", None),
    ("nlrd.solver", "contraction_probe", "solver.probe", None),
    ("nlrd.cli", "continuity_experiment", "solver.continuity", None),
    ("nlrd.cli", "load_config", "config.load", None),
    ("nlrd.config", "load_config", "config.load", None),
    ("nlrd.cli", "build_problem", "config.build", None),
    ("nlrd.config", "build_problem", "config.build", None),
    ("nlrd.cli", "write_field", "fieldio.write", _written_bytes),
    ("nlrd.fieldio", "write_field", "fieldio.write", _written_bytes),
    ("nlrd.config", "read_field", "fieldio.read", _read_bytes),
    ("nlrd.fieldio", "read_field", "fieldio.read", _read_bytes),
    ("nlrd.cli", "scale_nonlinearity", "model.scale", None),
)

# (metric, unit, span names, quantity).  Quantity is "calls" (span count),
# "time" (summed durations), "self" (summed durations minus child spans) or
# the name of a span attribute to sum.
LAYER_METRICS = (
    ("lattice.forward_calls", "count", ("lattice.forward",), "calls"),
    ("lattice.inverse_calls", "count", ("lattice.inverse",), "calls"),
    ("lattice.forward_s", "s", ("lattice.forward",), "time"),
    ("lattice.inverse_s", "s", ("lattice.inverse",), "time"),
    ("lattice.h4_norm_calls", "count", ("lattice.h4_norm",), "calls"),
    ("lattice.h4_norm_s", "s", ("lattice.h4_norm",), "time"),
    ("lattice.transform_bytes", "B", ("lattice.forward", "lattice.inverse"), "bytes"),
    ("model.g_eval_calls", "count", ("model.g_eval",), "calls"),
    ("model.g_eval_points", "count", ("model.g_eval",), "points"),
    ("model.g_eval_s", "s", ("model.g_eval",), "time"),
    ("model.validate_s", "s", ("model.validate",), "time"),
    ("spectral.solve_linear_calls", "count", ("spectral.solve_linear",), "calls"),
    ("spectral.solve_linear_s", "s", ("spectral.solve_linear",), "time"),
    ("bounds.compute_calls", "count", ("bounds.compute",), "calls"),
    ("bounds.compute_s", "s", ("bounds.compute",), "time"),
    ("bounds.validate_calls", "count", ("bounds.validate",), "calls"),
    ("solver.picard_iterations", "count", ("solver.picard",), "iterations"),
    ("solver.picard_self_s", "s", ("solver.picard",), "self"),
    ("solver.residual_calls", "count", ("solver.residual",), "calls"),
    ("solver.residual_s", "s", ("solver.residual",), "time"),
    ("solver.random_field_s", "s", ("solver.random_field",), "time"),
    ("solver.probe_self_s", "s", ("solver.probe",), "self"),
    ("config.build_calls", "count", ("config.build",), "calls"),
    ("config.build_s", "s", ("config.build",), "time"),
    ("fieldio.write_bytes", "B", ("fieldio.write",), "bytes"),
    ("fieldio.write_s", "s", ("fieldio.write",), "time"),
    ("fieldio.read_s", "s", ("fieldio.read",), "time"),
    ("cli.self_s", "s", ("cli.main",), "self"),
)

#: the tracer's own cost, reported next to the layer metrics
OVERHEAD_METRIC = ("trace.overhead_s", "s")


class Tracer:
    """Records spans in memory while its wrappers are installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, **attrs):
        s = Span(
            id=len(self.spans),
            name=name,
            parent=self._stack[-1] if self._stack else None,
            start=time.perf_counter(),
            attrs=attrs,
        )
        self.spans.append(s)
        self._stack.append(s.id)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name: str, record, post):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as s:
                out = fn(*args, **kwargs)
            if record is not None:
                s.attrs.update(record(args, kwargs, out))
            return post(out) if post is not None else out

        return traced

    def traced_nonlinearity(self, g):
        """The nonlinearity g with its ``eval`` recorded as model.g_eval."""
        inner = g.eval

        def eval_(z):
            shape = getattr(z, "shape", ())
            points = shape[0] if len(shape) > 1 else 1
            with self.span("model.g_eval", points=int(points)):
                return inner(z)

        return dataclasses.replace(g, eval=eval_)

    def _traced_built(self, built):
        problem = built.problem.with_nonlinearity(
            self.traced_nonlinearity(built.problem.nonlinearity)
        )
        return dataclasses.replace(built, problem=problem)

    def install(self) -> None:
        """Replace every binding in BINDINGS with a recording wrapper."""
        # problems the CLI builds and nonlinearities it rescales are values,
        # so their evaluation is wrapped on the way out
        posts = {
            ("nlrd.cli", "build_problem"): self._traced_built,
            ("nlrd.cli", "scale_nonlinearity"): self.traced_nonlinearity,
        }
        for module_name, attr, name, record in BINDINGS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            post = posts.get((module_name, attr))
            setattr(module, attr, self._wrap(original, name, record, post))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [
            {"id": s.id, "name": s.name, "parent": s.parent,
             "start": s.start, "end": s.end, "attrs": s.attrs}
            for s in self.spans
        ]
        path.write_text(json.dumps(rows))

    # ------------------------------------------------------------------
    # aggregation
    # ------------------------------------------------------------------

    def subtree(self, root: int) -> list[Span]:
        """The span ``root`` and every span below it (spans are in start order)."""
        inside = {root}
        out = [self.spans[root]]
        for s in self.spans[root + 1:]:
            if s.parent in inside:
                inside.add(s.id)
                out.append(s)
        return out


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced operation, given all its spans."""
    child_time: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration
    out: dict[str, float] = {}
    for metric, _unit, names, quantity in LAYER_METRICS:
        chosen = [s for s in spans if s.name in names]
        if quantity == "calls":
            out[metric] = len(chosen)
        elif quantity == "time":
            out[metric] = sum(s.duration for s in chosen)
        elif quantity == "self":
            out[metric] = sum(s.duration - child_time.get(s.id, 0.0) for s in chosen)
        else:
            out[metric] = sum(s.attrs.get(quantity, 0) for s in chosen)
    return out


def combine(per_op: list[dict[str, float]]) -> tuple[dict[str, float], list[str]]:
    """Counts from the first operation and median times over all of them.

    Returns the metrics and the names of count metrics that differed between
    operations (they should repeat exactly).
    """
    out: dict[str, float] = {}
    unsteady: list[str] = []
    for metric, unit, _names, _quantity in LAYER_METRICS:
        values = [op[metric] for op in per_op]
        if unit == "s":
            out[metric] = statistics.median(values)
        else:
            out[metric] = values[0]
            if any(v != values[0] for v in values):
                unsteady.append(metric)
    return out, unsteady
