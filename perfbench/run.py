#!/usr/bin/env python3
"""fracfp benchmark: time fixed workloads end to end, or per layer when traced.

    python3 perfbench/run.py --workload ex1_table --seed 1 --seconds 36 --trace 0

Each timed run of a workload is a fresh child process (perfbench/worker.py)
that imports fracfp from this checkout's src/, builds the workload, runs it
and checks its outputs against perfbench/reference.json.  Runs repeat one
after another (a closed loop with one client) until --seconds have been
used; a run that would end past that budget is not started.

--trace 0 reports the end-to-end metrics: wall_s and peak_rss_mb (medians
over the runs) and setup_s (the fastest of SETUP_PROBES set-up-only children,
spread between the timed runs).
--trace 1 alternates traced and untraced runs and reports the per-layer
metrics (medians over the traced runs); spans go to perfbench/out/.

The workloads are fixed parameter grids with no random input; --seed is
accepted and recorded.  The last stdout line is the JSON result; the line
before it is the full record (environment, samples, tracing overhead).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

# a fixed count, so that setup_s does not depend on how many timed runs fit;
# the host's speed wanders over seconds, and the fastest of a dozen set-ups
# spread over the run is far steadier than their median
SETUP_PROBES = 12
# every run ends within this many seconds, children included
HARD_LIMIT_S = 170.0


class ChildFailed(Exception):
    pass


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _machine() -> dict:
    info = {"nproc": _nproc(), "cpu": platform.processor() or platform.machine()}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(caches.glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            size = (idx / "size").read_text().strip()
        except OSError:
            continue
        if level in ("2", "3") and kind in ("Unified", "Data"):
            info[f"L{level}"] = size
    return info


class Children:
    """Starts worker.py children one at a time, each awaited to its end."""

    def __init__(self, workload: str, size: str, deadline: float):
        self.base = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--size", size]
        self.deadline = deadline
        self.env = dict(os.environ, OPENBLAS_NUM_THREADS=str(_nproc()))

    def run(self, *extra: str) -> tuple:
        """(parsed JSON line, seconds the child took); raises ChildFailed."""
        start = time.perf_counter()
        timeout = self.deadline - start
        if timeout <= 0:
            raise ChildFailed("no time left")
        try:
            proc = subprocess.run(self.base + list(extra), capture_output=True, text=True,
                                  timeout=timeout, cwd=ROOT, env=self.env)
        except subprocess.TimeoutExpired as exc:
            raise ChildFailed(f"child timed out after {timeout:.0f} s") from exc
        took = time.perf_counter() - start
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise ChildFailed(f"child exited with {proc.returncode}")
        try:
            return json.loads(proc.stdout.strip().splitlines()[-1]), took
        except (IndexError, json.JSONDecodeError) as exc:
            sys.stderr.write(proc.stderr)
            raise ChildFailed("child printed no result") from exc


def _median(values):
    return statistics.median(values) if values else None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True, help="recorded; the workloads have no random input")
    ap.add_argument("--seconds", type=int, required=True, help="time budget for the timed runs")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true", help="reduced sizes, for the self-test")
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    begin = time.perf_counter()
    if not (ROOT / "src" / "fracfp" / "__init__.py").is_file():
        print(f"no fracfp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    size = "smoke" if args.smoke else "full"
    children = Children(args.workload, size, begin + HARD_LIMIT_S)

    setups: list = []
    env: dict = {}
    probe_s = 0.0  # time spent in set-up probes, outside the --seconds budget
    probe_longest = 0.0

    def probe_setup(upto: float) -> None:
        """Run set-up-only children until `upto` set-ups are recorded."""
        nonlocal probe_s, probe_longest
        while len(setups) < min(upto, SETUP_PROBES):
            res, took = children.run("--setup-only")
            env.update(res["env"])
            setups.append(res["setup_s"])
            probe_s += took
            probe_longest = max(probe_longest, took)

    runs = []
    attempted = failed = 0
    loop_start = time.perf_counter()
    longest = 0.0
    try:
        while True:
            # keep the set-ups in step with the share of the budget used; the
            # first child also compiles bytecode, which the minimum discards
            probe_setup(max(1, SETUP_PROBES * (time.perf_counter() - loop_start - probe_s) / args.seconds))
            traced = bool(args.trace) and len(runs) % 2 == 0
            extra = ["--trace", "--run-id", str(len(runs))] if traced else []
            try:
                res, took = children.run(*extra)
            except ChildFailed as exc:
                print(f"run {len(runs)} failed: {exc}", file=sys.stderr)
                res, took = {"attempted": workloads.solves_per_run(args.workload, size)}, 0.0
                res["failed"] = res["attempted"]
            res["traced"] = traced
            runs.append(res)
            attempted += res["attempted"]
            failed += res["failed"]
            longest = max(longest, took)
            now = time.perf_counter()
            kinds_done = {r["traced"] for r in runs if "wall_s" in r}
            want_both = bool(args.trace) and len(kinds_done) < 2 and len(runs) < 4
            if now + longest + (SETUP_PROBES - len(setups)) * probe_longest > children.deadline:
                break
            if not want_both and now - loop_start - probe_s + longest > args.seconds:
                break
        probe_setup(SETUP_PROBES)
    except ChildFailed as exc:  # a set-up probe; a failed timed run is counted instead
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 1

    plain = [r for r in runs if not r["traced"] and "wall_s" in r]
    traced_runs = [r for r in runs if r["traced"] and "wall_s" in r]
    if not plain or (args.trace and not traced_runs):
        print("no run completed; nothing to report", file=sys.stderr)
        return 1

    walls = [r["wall_s"] for r in plain]
    record = {
        "workload": args.workload, "size": size, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": {**_machine(), **env},
        "wall_s": {"median": _median(walls), "max": max(walls), "samples": len(walls)},
        "setup_s": {"min": min(setups), "median": _median(setups), "samples": setups},
        "failed_fraction": failed / attempted,
        "runs": runs,
    }
    if args.trace:
        layers = {name: _median([r["layers"][name] for r in traced_runs]) for name, *_ in tracing.LAYERS}
        traced_wall = _median([r["wall_s"] for r in traced_runs])
        record["tracing_overhead_s"] = traced_wall - record["wall_s"]["median"]
        # share of the top-level span that the library layers' self times
        # cover; the rest is bench.workload's own time (the mass check, ...)
        record["self_time_coverage"] = _median([
            sum(r["layers"][name] for name, unit, *_ in tracing.LAYERS
                if unit == "s" and name != tracing.TOP_SELF) / r["top_s"]
            for r in traced_runs])
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit, *_ in tracing.LAYERS}
    else:
        metrics = {
            "wall_s": {"value": _median(walls), "unit": "s"},
            "setup_s": {"value": min(setups), "unit": "s"},
            "peak_rss_mb": {"value": _median([r["peak_rss_mb"] for r in plain]), "unit": "MB"},
        }
    record["took_s"] = time.perf_counter() - begin
    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / f"record-{args.workload}-{size}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps(record))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
