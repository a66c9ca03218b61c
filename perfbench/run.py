#!/usr/bin/env python3
"""nlrd benchmark: one workload, one process, results checked.

Usage (from the root of a source checkout)::

    python3 perfbench/run.py --workload shipped-d5-cli --seed 1 --seconds 30 --trace 0

The workloads are defined in ``workloads.py`` and listed with their reasons
in ``BENCHMARK.json``.  A run imports nlrd from ``src/`` of the checkout,
sets the workload up several times (config generation, ``build_problem`` and
a warm-up application of the fixed-point map), then repeats the workload's
operation until ``--seconds`` would be exceeded, checking every result
outside the timed region.

The last line of standard output is the result::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics (``setup_s``,
``op_s``, ``peak_rss_mb``); with ``--trace 1`` every other operation runs
with the tracer of ``tracing.py`` installed, and the metrics are the
per-layer metrics of the traced operations plus the tracing overhead.  The
line before it is a JSON report with provenance, sample counts, the
workload's named timings and any failures.  With ``--trace 1`` the spans are
written to ``.perfbench-trace/`` in the checkout.

The exit code is 0 when every result was correct, 1 when a check failed and
2 when the benchmark cannot run (for example, outside a source checkout).
"""

from __future__ import annotations

import argparse
import importlib.metadata
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

from tracing import LAYER_METRICS, OVERHEAD_METRIC, Tracer, combine, layer_metrics

ROOT = Path(__file__).resolve().parent.parent

#: set-ups per run; ``setup_s`` is the import time plus their median
SETUPS = 3

THREAD_VARIABLES = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMBA_NUM_THREADS",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="shrink the generated instances (self-test only)")
    parser.add_argument("--inject-bad-reference", action="store_true",
                        help="perturb a d5 reference value (self-test only)")
    return parser.parse_args(argv)


def cache_sizes() -> dict:
    """CPU cache sizes from sysfs, as the kernel reports them for cpu0."""
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        out[f"L{level}-{kind}"] = size
    return out


def os_threads() -> int | None:
    """Threads of this process (the benchmark starts no other process)."""
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("Threads:"):
                return int(line.split()[1])
    except OSError:
        pass
    return None


def provenance(seed: int) -> dict:
    import numpy

    def version(dist: str):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": version("scipy"),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARIABLES},
        "cache": cache_sizes(),
        "threads": os_threads(),
    }


def clear_program_caches() -> None:
    """Empty the nlrd functions' memo caches so every set-up starts cold."""
    for name, module in list(sys.modules.items()):
        if name == "nlrd" or name.startswith("nlrd."):
            for value in vars(module).values():
                clear = getattr(value, "cache_clear", None)
                if callable(clear):
                    clear()


def quartiles(values: list[float]) -> dict:
    out = {"median": statistics.median(values), "samples": len(values), "values": values}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    return out


def measure(workload, seconds: float, tracer) -> dict:
    """Repeat the workload's operation for about ``seconds``.

    An operation is started only while the previous one's duration still
    fits before the deadline, so a run does not overshoot by a whole slow
    operation.  With a tracer, even-numbered operations are traced.
    """
    deadline = time.perf_counter() + seconds
    minimum = 2 if tracer is not None else 1
    timings = {True: [], False: []}
    named: dict[str, list[float]] = {}
    layers: list[dict] = []
    per_call: dict | None = None
    attempted = failed = 0
    failures: list[str] = []
    index = 0
    while True:
        started = time.perf_counter()
        traced = tracer is not None and index % 2 == 0
        try:
            if traced:
                with tracer.installed(), tracer.span("op", index=index) as root:
                    seconds_op, parts, outputs = workload.run(index, tracer)
                layers.append(layer_metrics(tracer.subtree(root.id)))
                if per_call is None:
                    per_call = {
                        s.attrs["command"]: layer_metrics(tracer.subtree(s.id))
                        for s in tracer.spans[root.id + 1:]
                        if s.parent == root.id and s.name == "cli.main"
                    }
            else:
                seconds_op, parts, outputs = workload.run(index, None)
            call_failures = workload.check(outputs)
            del outputs
        except Exception as err:  # a crash of the program is a failed operation
            traceback.print_exc(file=sys.stderr)
            call_failures = [[f"op {index}: {type(err).__name__}: {err}"]] * workload.calls
        else:
            timings[traced].append(seconds_op)
            for key, value in parts.items():
                named.setdefault(key, []).append(value)
        attempted += workload.calls
        for fails in call_failures:
            if fails:
                failed += 1
                failures.extend(f"op {index}: {f}" for f in fails)
        last_failed = any(call_failures)
        index += 1
        now = time.perf_counter()
        if index >= minimum and now + (now - started) > deadline:
            break
    return {
        "timings": timings, "named": named, "layers": layers, "per_call": per_call,
        "attempted": attempted, "failed": failed, "failures": failures,
        "last_failed": last_failed,
    }


def run(args, workload_class, import_s: float, workdir: Path) -> tuple[dict, dict]:
    workload = workload_class(ROOT, workdir, args.seed, args.smoke, args.inject_bad_reference)
    setups = []
    for _ in range(SETUPS):
        clear_program_caches()
        t0 = time.perf_counter()
        workload.setup()
        workload.warm_up()
        setups.append(time.perf_counter() - t0)
    workload.prepare()

    tracer = Tracer() if args.trace else None
    m = measure(workload, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    final = workload.finish()
    failed = m["failed"]
    if final:
        m["failures"].extend(f"final check: {f}" for f in final)
        failed += 0 if m["last_failed"] else 1

    untraced = m["timings"][False]
    report = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "provenance": provenance(args.seed),
        "working_set": workload.working_set(),
        "setup": {"import_s": import_s, "setups_s": setups},
        "op_s": quartiles(untraced) if untraced else None,
        "named": {k: quartiles(v) for k, v in m["named"].items()},
        "peak_rss_mb": peak_rss_mb,
        "failures": m["failures"][:50],
    }
    if args.trace:
        traced = m["timings"][True]
        layer, unsteady = combine(m["layers"]) if m["layers"] else ({}, [])
        overhead = (statistics.median(traced) - statistics.median(untraced)
                    if traced and untraced else 0.0)
        metrics = {name: {"value": layer.get(name, 0.0), "unit": unit}
                   for name, unit, _s, _q in LAYER_METRICS}
        metrics[OVERHEAD_METRIC[0]] = {"value": overhead, "unit": OVERHEAD_METRIC[1]}
        counts = {n for n, u, _s, _q in LAYER_METRICS if u != "s"}
        report["tracing"] = {
            "traced_op_s": quartiles(traced) if traced else None,
            "overhead_s": overhead,
            "overhead_share": overhead / statistics.median(untraced) if untraced else None,
            "counts_per_call": {
                call: {k: v for k, v in values.items() if k in counts}
                for call, values in (m["per_call"] or {}).items()
            },
            "unsteady_counts": unsteady,
            "spans_file": str(Path(".perfbench-trace") / f"{args.workload}-seed{args.seed}.json"),
        }
        tracer.dump(ROOT / report["tracing"]["spans_file"])
    else:
        metrics = {
            "setup_s": {"value": import_s + statistics.median(setups), "unit": "s"},
            "op_s": {"value": statistics.median(untraced) if untraced else 0.0, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    result = {
        "correct": failed == 0,
        "attempted": m["attempted"],
        "failed": failed,
        "metrics": metrics,
    }
    return result, report


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "nlrd" / "__init__.py").is_file():
        print(f"error: no nlrd sources under {src}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import nlrd
    import_s = time.perf_counter() - t0
    if Path(nlrd.__file__).resolve().parent != (src / "nlrd").resolve():
        print(f"error: imported nlrd from {nlrd.__file__}, not from {src}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS  # imports numpy and nlrd: after timing the import

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        result, report = run(args, WORKLOADS[args.workload], import_s, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
