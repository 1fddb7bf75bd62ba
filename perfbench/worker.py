"""One benchmark child process: set a workload up and, unless asked for
set-up only, run it once and check its outputs.

A fresh process per run keeps the library's module-global caches
(problems._trig_caches and _Memo, kernels._cutoff_cache and _de_cache) from
carrying over between runs.  The child prints one JSON line; run.py starts
it, so this file is not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"


def _import_fracfp():
    """Import the library from this checkout's src/, never an installed copy."""
    sys.path.insert(0, str(SRC))
    import fracfp

    if Path(fracfp.__file__).resolve().parent != SRC / "fracfp":
        raise ImportError(f"fracfp imported from {fracfp.__file__}, not from {SRC}")
    return fracfp


def _blas_info() -> dict:
    import numpy as np
    import scipy

    info = {"python": sys.version.split()[0], "numpy": np.__version__, "scipy": scipy.__version__}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        info["blas"] = "unknown"
    info["blas_threads"] = _openblas_threads(Path(np.__file__).parent.parent / "numpy.libs")
    return info


def _openblas_threads(libdir: Path):
    """Thread count numpy's bundled OpenBLAS actually uses, or None."""
    import ctypes

    for lib in sorted(libdir.glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--size", choices=["full", "smoke"], default="full")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--run-id", default="0")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(HERE))
    import tracing
    import workloads

    start = time.perf_counter()
    try:
        _import_fracfp()
    except ImportError as exc:
        print(f"cannot import fracfp from {SRC}: {exc}", file=sys.stderr)
        return 2
    wl = workloads.Workload(args.workload, args.size)
    out = {"setup_s": time.perf_counter() - start}
    if args.setup_only:
        out["env"] = _blas_info()
        print(json.dumps(out))
        return 0

    tracer = None
    run = wl.run
    if args.trace:
        tracer = tracing.Tracer(args.run_id)
        tracing.install(tracer)
        run = tracer.wrap(tracing.TOP_SPAN, run)
    attempted = workloads.solves_per_run(args.workload, args.size)
    start, cpu = time.perf_counter(), time.process_time()
    try:
        result = run()
    except Exception:  # noqa: BLE001 - a failed run is reported, not fatal
        traceback.print_exc()
        out.update(attempted=attempted, failed=attempted, problems=["run raised"])
    else:
        out["wall_s"] = time.perf_counter() - start
        out["cpu_s"] = time.process_time() - cpu
        attempted, failed, details = wl.check(result)
        out.update(attempted=attempted, failed=failed, **details)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        out["layers"] = tracer.layer_metrics()
        out["top_s"] = tracer.top_duration()
        OUT.mkdir(exist_ok=True)
        path = OUT / f"spans-{args.workload}-{args.size}-{args.run_id}.jsonl"
        tracer.write(path)
        out["spans"] = str(path.relative_to(HERE.parent))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
