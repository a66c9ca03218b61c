#!/usr/bin/env python3
"""Self-test of the benchmark, on shrunken (smoke) instances.

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json it checks that a smoke run passes its
checks and emits exactly the end-to-end metrics (``--trace 0``) or the
per-layer metrics (``--trace 1``) with their units, and that two traced runs
give the same counts.  It then injects a wrong d5 reference value, which
must be counted as a failed operation, and runs the benchmark in a directory
holding only BENCHMARK.json and the benchmark's files, where it must exit
non-zero without printing a result.  Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TIMEOUT_S = 180


def bench(workload: str, *extra: str, trace: int = 0, cwd: Path = ROOT):
    """Run one smoke benchmark; returns (exit code, result or None)."""
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), *extra]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or "correct" not in result:
        result = None
    return proc.returncode, result


def main() -> int:
    problems: list[str] = []

    def expect(ok: bool, what: str) -> None:
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            problems.append(what)

    wanted = {
        0: {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
        1: {m["name"]: m["unit"] for m in SPEC["per_layer"]},
    }
    for w in (w["name"] for w in SPEC["workloads"]):
        counts = []
        for trace in (0, 1, 1):
            code, res = bench(w, "--smoke", trace=trace)
            label = f"{w} --trace {trace}"
            expect(code == 0 and res is not None, f"{label}: exit 0 with a result")
            if res is None:
                continue
            expect(set(res) == {"correct", "attempted", "failed", "metrics"},
                   f"{label}: result keys")
            expect(res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1,
                   f"{label}: correct, no failed operations")
            units = {k: v.get("unit") for k, v in res["metrics"].items()}
            expect(units == wanted[trace], f"{label}: metric names and units")
            if trace:
                counts.append({k: v["value"] for k, v in res["metrics"].items()
                               if v["unit"] != "s"})
        if len(counts) == 2:
            expect(counts[0] == counts[1], f"{w}: counts repeat across traced runs")

    code, res = bench("shipped-d5-cli", "--inject-bad-reference")
    expect(res is not None and res["correct"] is False and res["failed"] >= 1 and code == 1,
           "shipped-d5-cli with a wrong reference: counted as failed")

    bare = Path(tempfile.mkdtemp(prefix=".perfbench-selftest-", dir=ROOT))
    try:
        shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        code, res = bench(SPEC["workloads"][0]["name"], cwd=bare)
        expect(code != 0 and res is None, "bare directory: non-zero exit, no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
