#!/usr/bin/env python3
"""Self-test of the benchmark at reduced size (about two minutes).

    python3 perfbench/selftest.py

- BENCHMARK.json names the same workloads and per-layer metrics as the code.
- A smoke pass of every workload, untraced and traced, prints a result line
  whose metric names match [A-Za-z0-9_.-]+ and carry a unit, with every
  output check passing.
- The exact work counts repeat between two traced runs, and on
  stepper_long kernels.conv_weights.entries equals N(N-1)/2.
- The library layers' self times cover at least COVERAGE_MIN of the
  traced top-level span.
- In a directory holding only BENCHMARK.json and perfbench/, the benchmark
  exits non-zero without printing a result.
Exits non-zero and names the first failed check otherwise.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
# the rest of the top-level span is the benchmark's own code (the mass check)
COVERAGE_MIN = 0.9
COUNTS = ("kernels.conv_weights.entries", "kernels.mittag_leffler.points",
          "problems.source.calls", "problems.exact.calls", "stepper.history.bytes")


def check(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")


def bench(workload: str, trace: int, cwd: Path = ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
                           "--seconds", "1", "--trace", str(trace), "--smoke"],
                          capture_output=True, text=True, cwd=cwd, timeout=180)
    return proc


def result_of(proc, label: str) -> dict:
    check(proc.returncode == 0, f"{label}: exit code {proc.returncode}\n{proc.stderr}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    check(set(res) == {"correct", "attempted", "failed", "metrics"}, f"{label}: result keys {sorted(res)}")
    check(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, f"{label}: checks failed {res}")
    for name, m in res["metrics"].items():
        check(NAME.fullmatch(name) is not None, f"{label}: bad metric name {name!r}")
        check(isinstance(m.get("unit"), str) and m["unit"] != "", f"{label}: {name} has no unit")
        check(isinstance(m.get("value"), (int, float)), f"{label}: {name} has no value")
    return res


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check([w["name"] for w in spec["workloads"]] == list(workloads.NAMES), "workload list differs")
    layers = [(name, unit, better) for name, unit, better, *_ in tracing.LAYERS]
    check([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layers,
          "per_layer metrics differ from tracing.LAYERS")
    end_to_end = {m["name"] for m in spec["end_to_end"]}

    for wl in workloads.NAMES:
        plain = result_of(bench(wl, 0), f"{wl} trace 0")
        check(set(plain["metrics"]) == end_to_end, f"{wl}: end-to-end metrics {sorted(plain['metrics'])}")
        procs = [bench(wl, 1) for _ in range(2)]
        traced = [result_of(proc, f"{wl} trace 1 #{i}")["metrics"] for i, proc in enumerate(procs, 1)]
        coverage = json.loads(procs[0].stdout.strip().splitlines()[-2])["self_time_coverage"]
        check(coverage >= COVERAGE_MIN, f"{wl}: layer self times cover {coverage:.3f} of the top span")
        check(set(traced[0]) == {name for name, *_ in layers}, f"{wl}: per-layer metrics differ")
        for key in COUNTS:
            check(traced[0][key]["value"] == traced[1][key]["value"],
                  f"{wl}: {key} differs between runs ({traced[0][key]['value']} vs {traced[1][key]['value']})")
        if wl == "stepper_long":
            N, elements = workloads.STEPPER["smoke"]
            entries = traced[0]["kernels.conv_weights.entries"]["value"]
            check(entries == N * (N - 1) // 2, f"conv_weights.entries {entries} != N(N-1)/2")
            hist = traced[0]["stepper.history.bytes"]["value"]
            check(hist == 8 * (elements + 1) * N * (N - 1) // 2, f"stepper.history.bytes {hist}")
        print(f"{wl}: ok")

    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = bench(workloads.NAMES[0], 0, cwd=bare)
    shutil.rmtree(bare)
    lines = proc.stdout.strip().splitlines()
    check(proc.returncode != 0 and not (lines and lines[-1].startswith("{")),
          "benchmark without the library must fail without a result")
    print("bare checkout: fails as it should")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
