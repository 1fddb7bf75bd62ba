"""Convergence-study driver: error metrics, rate tables, CSV and trace output.

The library entry point is run_study; the console script `fracfp` wraps it
with argparse.  Error metrics follow the discrete rule used throughout: the
exact solution is sampled at the mesh nodes, interpolated, and compared in
the piecewise-linear L2 norm.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Union

import numpy as np

from .fem1d import l2_norm, uniform_mesh
from .problems import ProblemSpec, example1, example2
from .stepper import _BLOCK, SolverConfig, Trajectory, solve
from .timegrid import build_mesh

__all__ = [
    "ErrorTrace",
    "StudyRow",
    "ConvergenceReport",
    "compute_errors",
    "compute_rate",
    "run_study",
    "write_csv",
    "main",
]

_PROBLEMS = {"ex1": example1, "ex2": example2}
# time levels per exact-solution call: a block of steps, the solve's batch
# of source loads
_EXACT_BLOCK = _BLOCK


@dataclass(frozen=True)
class ErrorTrace:
    """Pointwise-in-time error pairs (t_n, ||U^n - u(t_n)||), n = 1..N."""

    times: np.ndarray
    errors: np.ndarray

    def __post_init__(self):
        if self.times.shape != self.errors.shape:
            raise ValueError("times and errors must pair up")
        if np.any(self.errors < 0.0):
            raise ValueError("negative error norm")


def compute_errors(trajectory: Trajectory, problem: ProblemSpec):
    """(eps_N, eps_star_N, ErrorTrace) for one completed solve.

    eps_N = max_n ||U^n - I_h u(t_n)|| over n = 1..N; the weighted variant
    multiplies by t_n**(alpha/4) before the max.  I_h samples the exact
    solution at the nodes: problem.exact gets them with a 1-D array of up to
    _EXACT_BLOCK time levels per call and must return one row of nodal
    values per time; any other shape raises ValueError.  The built-in
    problems truncate each time's row on its own, so a row equals a call
    with that time alone up to rounding.
    """
    if problem.exact is None:
        raise ValueError(f"problem {problem.name!r} has no exact solution to compare against")
    space = trajectory.spatial
    xs = space.nodes
    times = trajectory.times[1:]
    errs = np.empty(times.size)
    for s in range(0, times.size, _EXACT_BLOCK):
        block = times[s:s + _EXACT_BLOCK]
        u = np.asarray(problem.exact(xs, block), dtype=float)
        if u.shape != block.shape + xs.shape:
            raise ValueError(f"problem {problem.name!r}: exact(x, t) for {block.size} times "
                             f"returned shape {u.shape}, expected {block.shape + xs.shape}")
        diff = trajectory.values[s + 1:s + 1 + block.size] - u
        errs[s:s + block.size] = [l2_norm(row, space) for row in diff]
    eps = float(errs.max(initial=0.0))
    weps = float((times ** (problem.alpha / 4.0) * errs).max(initial=0.0))
    return eps, weps, ErrorTrace(times=times.copy(), errors=errs)


def compute_rate(eps_coarse: float, eps_fine: float) -> float:
    """Observed order log2(eps_N / eps_2N) from one mesh doubling."""
    if eps_coarse <= 0.0 or eps_fine <= 0.0:
        raise ValueError("rates need two positive errors")
    return math.log2(eps_coarse / eps_fine)


@dataclass
class StudyRow:
    problem: str
    alpha: float
    gamma: float
    N: int
    h: float
    eps: Optional[float] = None
    eps_rate: Optional[float] = None
    weps: Optional[float] = None
    weps_rate: Optional[float] = None
    seconds: float = 0.0
    error: Optional[str] = None
    trace: Optional[ErrorTrace] = None


@dataclass
class ConvergenceReport:
    rows: List[StudyRow] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(r.error is None for r in self.rows)

    def find(self, alpha: float, gamma: float, N: int) -> Optional[StudyRow]:
        for r in self.rows:
            if r.N == N and math.isclose(r.alpha, alpha) and math.isclose(r.gamma, gamma):
                return r
        return None


def _fmt(v) -> str:
    return f"{v:.5e}"


def write_csv(report: ConvergenceReport) -> str:
    """Render the fixed-schema CSV (LF endings, 6 significant digits).

    Failed rows carry the marker `error` in the eps column.  All columns
    except `seconds` are deterministic for identical inputs.
    """
    lines = ["problem,alpha,gamma,N,h,eps,eps_rate,weps,weps_rate,seconds"]
    for r in report.rows:
        if r.error is not None:
            body = ["error", "", "", ""]
        else:
            body = [_fmt(r.eps),
                    _fmt(r.eps_rate) if r.eps_rate is not None else "",
                    _fmt(r.weps),
                    _fmt(r.weps_rate) if r.weps_rate is not None else ""]
        lines.append(",".join([r.problem, _fmt(r.alpha), _fmt(r.gamma), str(r.N),
                               _fmt(r.h)] + body + [_fmt(r.seconds)]))
    return "\n".join(lines) + "\n"


def _trace_name(row: StudyRow) -> str:
    return f"{row.problem}_a{row.alpha:g}_g{row.gamma:g}_N{row.N}_trace.csv"


def _write_traces(report: ConvergenceReport, out: Path) -> List[str]:
    names = []
    for r in report.rows:
        if r.trace is None:
            continue
        name = _trace_name(r)
        lines = ["t,error"]
        lines += [f"{_fmt(t)},{_fmt(e)}" for t, e in zip(r.trace.times, r.trace.errors)]
        (out / name).write_text("\n".join(lines) + "\n")
        names.append(name)
    return names


def _write_gnuplot(report: ConvergenceReport, out: Path, problem: str) -> None:
    lines = [
        "set logscale xy",
        "set xlabel 't_n'",
        "set ylabel 'pointwise error'",
        "set key left bottom",
        "set datafile separator ','",
    ]
    plots = [
        f"'{_trace_name(r)}' using 1:2 with lines title 'alpha={r.alpha:g} gamma={r.gamma:g} N={r.N}'"
        for r in report.rows if r.trace is not None
    ]
    if plots:
        lines.append("plot \\")
        lines.append(", \\\n".join("  " + p for p in plots))
    (out / f"{problem}_traces.gp").write_text("\n".join(lines) + "\n")


def run_study(problem: Union[str, Callable[[float], ProblemSpec]],
              alphas: Sequence[float],
              gammas: Sequence[float],
              Ns: Sequence[int],
              elements: int = 2000,
              projection: Optional[str] = None,
              keep_traces: bool = False) -> ConvergenceReport:
    """One solver run per (alpha, gamma, N); rows sorted; rates attached.

    Each problem is solved on `elements` uniform elements over its own
    domain; rows whose problem cannot be built or meshed carry the h of the
    unit interval and the caller's name for it (the string, or the
    factory's __name__).  projection, when given, replaces the problem's
    default_projection for every solve (the exact solution does not depend
    on it); the boundary condition is always the problem's own, the one its
    exact solution solves.  A row's rate compares it with the (alpha, gamma,
    2N) row, so it is only present when that row exists and both errors are
    positive.  Any solver failure is caught and recorded on the row (see
    ConvergenceReport.ok); so is a step count that is not an integer, which
    the row keeps as given.
    """
    factory = _PROBLEMS[problem] if isinstance(problem, str) else problem
    pname = problem if isinstance(problem, str) else getattr(factory, "__name__", "custom")
    report = ConvergenceReport()
    unit_h = uniform_mesh(0.0, 1.0, elements).h
    for alpha in sorted(alphas):
        name, h, failed = pname, unit_h, None
        try:
            prob = factory(alpha)
            prob = replace(prob, default_projection=projection or prob.default_projection)
            space = uniform_mesh(*prob.domain, elements)
            name, h = prob.name, space.h
        except Exception as exc:  # noqa: BLE001 - report, don't abort the study
            failed = f"{type(exc).__name__}: {exc}"
        for gamma in sorted(gammas):
            for N in sorted(Ns):
                row = StudyRow(problem=name, alpha=alpha, gamma=gamma, N=N, h=h, error=failed)
                report.rows.append(row)
                if failed is not None:
                    continue
                start = time.perf_counter()
                try:
                    tmesh = build_mesh(prob.T, N, gamma)
                    config = SolverConfig(alpha=alpha, mesh=tmesh, spatial=space)
                    traj = solve(prob, config)
                    row.eps, row.weps, trace = compute_errors(traj, prob)
                    if keep_traces:
                        row.trace = trace
                except Exception as exc:  # noqa: BLE001 - a row failure must not kill the study
                    row.error = f"{type(exc).__name__}: {exc}"
                row.seconds = time.perf_counter() - start
    for r in report.rows:
        if r.error is not None:
            continue
        fine = report.find(r.alpha, r.gamma, 2 * r.N)
        if fine is not None and fine.error is None:
            if r.eps > 0.0 and fine.eps > 0.0:
                r.eps_rate = compute_rate(r.eps, fine.eps)
            if r.weps > 0.0 and fine.weps > 0.0:
                r.weps_rate = compute_rate(r.weps, fine.weps)
    return report


def _nonempty(values: list, text: str) -> list:
    if not values:
        raise argparse.ArgumentTypeError(f"needs at least one value, got {text!r}")
    return values


def _float_list(text: str) -> List[float]:
    return _nonempty([float(tok) for tok in text.split(",") if tok.strip()], text)


def _int_list(text: str) -> List[int]:
    return _nonempty([int(tok) for tok in text.split(",") if tok.strip()], text)


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = argparse.ArgumentParser(
        prog="fracfp",
        description="Convergence studies for the graded-mesh L1 fractional "
                    "Fokker-Planck solver (CSV tables and error traces).")
    ap.add_argument("--problem", choices=sorted(_PROBLEMS), default="ex1")
    ap.add_argument("--alpha", type=_float_list, default=[0.7],
                    metavar="a[,a...]", help="fractional orders (default 0.7)")
    ap.add_argument("--gamma", type=_float_list, default=[1.0],
                    metavar="g[,g...]", help="time mesh grading exponents (default 1)")
    ap.add_argument("--steps", type=_int_list, default=[16, 32, 64, 128, 256],
                    metavar="N[,N...]", help="time step counts (default 16,...,256)")
    ap.add_argument("--elements", type=int, default=2000, metavar="Mx",
                    help="spatial elements (default 2000)")
    ap.add_argument("--projection", choices=["ritz", "l2", "nodal"], default=None,
                    help="override the initial-datum projection")
    ap.add_argument("--trace", action="store_true",
                    help="write per-run pointwise error traces (t,error CSV)")
    ap.add_argument("--gnuplot", action="store_true",
                    help="also emit a gnuplot script for the traces (implies --trace)")
    ap.add_argument("--out", default=".", metavar="DIR",
                    help="output directory (default current directory)")
    args = ap.parse_args(argv)
    if args.elements < 2:
        ap.error(f"argument --elements: needs at least 2 elements, got {args.elements}")

    want_traces = args.trace or args.gnuplot
    report = run_study(args.problem, args.alpha, args.gamma, args.steps,
                       elements=args.elements, projection=args.projection,
                       keep_traces=want_traces)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / f"{args.problem}_study.csv"
    csv_path.write_text(write_csv(report))
    if want_traces:
        _write_traces(report, out)
    if args.gnuplot:
        _write_gnuplot(report, out, args.problem)

    for r in report.rows:
        if r.error is not None:
            print(f"{r.problem} alpha={r.alpha:g} gamma={r.gamma:g} N={r.N}: {r.error}",
                  file=sys.stderr)
        else:
            rate = f" rate={r.eps_rate:.4f}" if r.eps_rate is not None else ""
            print(f"{r.problem} alpha={r.alpha:g} gamma={r.gamma:g} N={r.N}: "
                  f"eps={r.eps:.5e}{rate} ({r.seconds:.2f}s)")
    print(f"wrote {csv_path}")
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
