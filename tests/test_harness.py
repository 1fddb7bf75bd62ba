import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fracfp
from fracfp import problems
from fracfp import (
    ConvergenceReport,
    ErrorTrace,
    StudyRow,
    build_mesh,
    compute_errors,
    compute_rate,
    example1,
    example2,
    run_study,
    solve,
    uniform_mesh,
    write_csv,
)
from fracfp.fem1d import l2_norm
from fracfp.harness import main
from fracfp.stepper import SolverConfig


# ------------------------------------------------------------------- rates

def test_compute_rate_values():
    assert compute_rate(0.02, 0.01) == pytest.approx(1.0, abs=1e-14)
    assert compute_rate(2.234e-04, 5.638e-05) == pytest.approx(1.9864, abs=5e-4)
    assert compute_rate(3e-3, 3e-3) == 0.0


def test_compute_rate_rejects_nonpositive():
    with pytest.raises(ValueError):
        compute_rate(0.0, 1e-3)
    with pytest.raises(ValueError):
        compute_rate(1e-3, -1e-3)


# ----------------------------------------------------------- error metrics

def test_compute_errors_structure():
    prob = example1(0.5)
    space = uniform_mesh(0.0, 1.0, 60)
    mesh = build_mesh(prob.T, 6, 2.0)
    traj = solve(prob, SolverConfig(alpha=0.5, mesh=mesh, spatial=space))
    eps, weps, trace = compute_errors(traj, prob)
    np.testing.assert_allclose(trace.times, mesh.nodes[1:])
    assert trace.errors.shape == (6,)
    assert eps == trace.errors.max()
    assert weps == pytest.approx((trace.times ** (0.5 / 4) * trace.errors).max())
    assert 0.0 < weps <= eps


def test_compute_errors_needs_exact():
    prob = example1(0.5)
    space = uniform_mesh(0.0, 1.0, 20)
    mesh = build_mesh(prob.T, 4, 1.0)
    traj = solve(prob, SolverConfig(alpha=0.5, mesh=mesh, spatial=space))
    blind = dataclasses.replace(prob, exact=None)
    with pytest.raises(ValueError, match="exact"):
        compute_errors(traj, blind)


def test_compute_errors_one_exact_call_per_block_of_times():
    # 20 time levels in blocks of 32: one call with a 1-D array of times;
    # the errors match per-time calls within the series tail bound (each
    # time is truncated on its own, but one batch of Mittag-Leffler values
    # rounds differently from many)
    prob = example1(0.7)
    space = uniform_mesh(0.0, 1.0, 40)
    traj = solve(prob, SolverConfig(alpha=0.7, mesh=build_mesh(prob.T, 20, 1.6), spatial=space))
    shapes = []

    def counted(x, t):
        shapes.append(np.shape(t))
        return prob.exact(x, t)

    eps, weps, trace = compute_errors(traj, dataclasses.replace(prob, exact=counted))
    assert shapes == [(20,)]
    loop = np.array([l2_norm(traj.values[n] - prob.exact(space.nodes, float(t)), space)
                     for n, t in enumerate(traj.times[1:], start=1)])
    tol = 2.0 * problems._TAIL_TOL
    np.testing.assert_allclose(trace.errors, loop, rtol=0, atol=tol)
    assert eps == pytest.approx(loop.max(), rel=0, abs=tol)
    assert weps == pytest.approx((trace.times ** (0.7 / 4) * loop).max(), rel=0, abs=tol)


@pytest.mark.parametrize("layout", ["one time", "x-major"])
def test_compute_errors_rejects_exact_of_wrong_shape(layout):
    prob = example1(0.5)
    space = uniform_mesh(0.0, 1.0, 20)
    traj = solve(prob, SolverConfig(alpha=0.5, mesh=build_mesh(prob.T, 4, 1.0), spatial=space))
    if layout == "one time":
        # written for a scalar t: one nodal row, whatever it is given
        def exact(x, t):
            return x * (1.0 - x) * np.exp(-float(np.max(t)))
    else:
        def exact(x, t):
            return np.multiply.outer(x * (1.0 - x), np.exp(-np.asarray(t)))
    with pytest.raises(ValueError, match=r"expected \(4, 21\)"):
        compute_errors(traj, dataclasses.replace(prob, exact=exact))


def test_error_trace_validation():
    with pytest.raises(ValueError):
        ErrorTrace(times=np.ones(3), errors=np.ones(4))
    with pytest.raises(ValueError):
        ErrorTrace(times=np.ones(3), errors=np.array([1.0, -1.0, 0.0]))


# -------------------------------------------------------------------- study

def test_run_study_rows_and_rates():
    report = run_study("ex1", [0.5], [2.0], [16, 4, 8], elements=40)
    assert report.ok
    assert [r.N for r in report.rows] == [4, 8, 16]
    assert all(r.problem == "ex1" and r.h == pytest.approx(1 / 40) for r in report.rows)
    r4, r8, r16 = report.rows
    assert r4.eps_rate == pytest.approx(compute_rate(r4.eps, r8.eps))
    assert r8.eps_rate == pytest.approx(compute_rate(r8.eps, r16.eps))
    assert r16.eps_rate is None and r16.weps_rate is None
    assert r4.weps_rate is not None
    # errors must shrink under refinement even at these tiny sizes
    assert r4.eps > r8.eps > r16.eps
    assert report.find(0.5, 2.0, 8) is r8
    assert report.find(0.5, 2.0, 12) is None


def test_run_study_records_failures():
    report = run_study("ex1", [1.5, 0.5], [1.0], [4], elements=20)
    assert not report.ok
    bad = report.find(1.5, 1.0, 4)
    good = report.find(0.5, 1.0, 4)
    assert bad.error is not None and "ValueError" in bad.error
    assert good.error is None and good.eps > 0
    text = write_csv(report)
    assert ",error,,,," in text


def test_run_study_records_non_integral_steps():
    # the row keeps the N it was given, and says why it has no errors
    report = run_study("ex1", [0.7], [1.0], [8.5, 16], elements=20)
    assert [r.N for r in report.rows] == [8.5, 16]
    bad, good = report.rows
    assert bad.error is not None and "N must be a positive integer, got 8.5" in bad.error
    assert good.error is None and good.eps > 0


def test_run_study_empty_steps():
    report = run_study("ex1", [0.5], [2.0], [])
    assert report.rows == [] and report.ok


def test_run_study_keep_traces():
    report = run_study("ex1", [0.5], [2.0], [4], elements=20, keep_traces=True)
    assert report.rows[0].trace is not None
    plain = run_study("ex1", [0.5], [2.0], [4], elements=20)
    assert plain.rows[0].trace is None


def test_run_study_projection_reaches_the_solve():
    made = []

    def spy(alpha):
        made.append(example1(alpha))
        return made[-1]

    row = run_study(spy, [0.5], [2.0], [4], elements=20, projection="l2").rows[0]
    assert row.error is None and len(made) == 1
    # the factory's problem keeps its own choice
    assert made[0].default_projection == example1(0.5).default_projection == "ritz"
    replaced = dataclasses.replace(made[0], default_projection="l2")
    config = SolverConfig(alpha=0.5, mesh=build_mesh(1.0, 4, 2.0),
                          spatial=uniform_mesh(0.0, 1.0, 20))
    eps, weps, _ = compute_errors(solve(replaced, config), replaced)
    assert (row.eps, row.weps) == (eps, weps)
    # the override changes the result
    assert run_study(example1, [0.5], [2.0], [4], elements=20).rows[0].eps != row.eps


def test_custom_factory():
    report = run_study(example1, [0.4], [2.0], [4], elements=20)
    assert report.ok and report.rows[0].problem == "ex1"


def test_run_study_meshes_the_problem_domain():
    def wide(alpha):
        return dataclasses.replace(example1(alpha), domain=(0.0, 2.0))

    row = run_study(wide, [0.5], [1.0], [4], elements=20).rows[0]
    assert row.error is None and row.h == 0.1
    prob = wide(0.5)
    config = SolverConfig(alpha=0.5, mesh=build_mesh(1.0, 4, 1.0),
                          spatial=uniform_mesh(0.0, 2.0, 20))
    eps, weps, _ = compute_errors(solve(prob, config), prob)
    assert (row.eps, row.weps) == (eps, weps)


# --------------------------------------------------------------------- CSV

def _strip_seconds(text: str) -> str:
    return "\n".join(line.rsplit(",", 1)[0] for line in text.strip().split("\n"))


def test_csv_schema_and_determinism():
    kw = dict(elements=40, keep_traces=False)
    a = write_csv(run_study("ex1", [0.5], [2.0], [4, 8], **kw))
    b = write_csv(run_study("ex1", [0.5], [2.0], [4, 8], **kw))
    lines = a.strip().split("\n")
    assert lines[0] == "problem,alpha,gamma,N,h,eps,eps_rate,weps,weps_rate,seconds"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "ex1" and first[3] == "4"
    assert float(first[5]) > 0
    assert first[6] != ""          # rate on the coarse row
    assert lines[2].split(",")[6] == ""  # none on the finest
    assert _strip_seconds(a) == _strip_seconds(b)
    assert a.endswith("\n") and "\r" not in a


# Study tables (write_csv without `seconds`) as recorded from the solver: a
# change that is not meant to move the numerics must leave them byte-identical.
_EX1_TABLE = """\
problem,alpha,gamma,N,h,eps,eps_rate,weps,weps_rate
ex1,7.00000e-01,1.00000e+00,16,2.50000e-03,2.03821e-02,9.96241e-01,1.25467e-02,1.17124e+00
ex1,7.00000e-01,1.00000e+00,32,2.50000e-03,1.02177e-02,1.03819e+00,5.57121e-03,1.21319e+00
ex1,7.00000e-01,1.00000e+00,64,2.50000e-03,4.97537e-03,,2.40294e-03,
ex1,7.00000e-01,2.30000e+00,16,2.50000e-03,8.84668e-04,1.98422e+00,5.06350e-04,1.99574e+00
ex1,7.00000e-01,2.30000e+00,32,2.50000e-03,2.23599e-04,1.98095e+00,1.26961e-04,1.98241e+00
ex1,7.00000e-01,2.30000e+00,64,2.50000e-03,5.66429e-05,,3.21296e-05,"""
_EX2_TABLE = """\
problem,alpha,gamma,N,h,eps,eps_rate,weps,weps_rate
ex2,4.00000e-01,3.30000e+00,32,2.50000e-03,3.47615e-03,9.85249e-01,1.10764e-03,1.31525e+00
ex2,4.00000e-01,3.30000e+00,64,2.50000e-03,1.75594e-03,,4.45113e-04,
ex2,6.00000e-01,3.30000e+00,32,2.50000e-03,7.98438e-04,1.48173e+00,1.71815e-04,1.98455e+00
ex2,6.00000e-01,3.30000e+00,64,2.50000e-03,2.85888e-04,,4.34162e-05,"""


@pytest.mark.parametrize("args,want", [
    (("ex1", [0.7], [1.0, 2.3], [16, 32, 64]), _EX1_TABLE),
    (("ex2", [0.4, 0.6], [3.3], [32, 64]), _EX2_TABLE),
], ids=["ex1", "ex2"])
def test_csv_matches_recorded_tables(args, want):
    assert _strip_seconds(write_csv(run_study(*args, elements=400))) == want


def test_non_finite_gamma_fails_when_meshed():
    # the row names the bad grading, not a NaN time interval met mid-solve
    (row,) = run_study("ex1", [0.7], [float("nan")], [8], elements=50).rows
    assert row.error is not None and "gamma must be finite" in row.error


def test_csv_error_row_shape():
    row = StudyRow(problem="ex1", alpha=0.5, gamma=1.0, N=4, h=0.05,
                   error="ValueError: boom")
    text = write_csv(ConvergenceReport(rows=[row]))
    cells = text.strip().split("\n")[1].split(",")
    assert cells[5] == "error" and cells[6] == cells[7] == cells[8] == ""
    assert len(cells) == 10


# --------------------------------------------------------------------- CLI

# The package root of the fracfp under test, so that the child imports the
# same tree whatever its working directory is (a relative PYTHONPATH does not
# survive cwd=tmp_path).
_SRC = str(Path(fracfp.__file__).resolve().parents[1])


def _python(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (_SRC, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable] + args, cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=600)


def _cli(args, cwd):
    return _python(["-m", "fracfp"] + args, cwd)


def test_python_m_fracfp_runs_without_runpy_warning(tmp_path):
    # `-m fracfp.harness` warns that fracfp/__init__ imported the module
    # before runpy ran it as __main__; `-m fracfp` runs fracfp/__main__.py
    res = _cli(["--help"], cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    assert res.stdout.startswith("usage: fracfp")
    assert "RuntimeWarning" not in res.stderr


# mpmath is a test dependency only: the child blocks its import
_NO_MPMATH = """
import sys
sys.modules["mpmath"] = None
import numpy as np
from fracfp import mittag_leffler, run_study
z = np.logspace(-6, 15, 43)
for mu in (0.5, 0.995, 1.0):
    for beta in (1.0, mu, 1.7):
        assert np.all(np.isfinite(mittag_leffler(mu, beta, -z)))
report = run_study("ex1", [0.995], [1.0], [16], elements=50)
assert report.ok, [r.error for r in report.rows]
"""


def test_runs_without_mpmath(tmp_path):
    res = _python(["-c", _NO_MPMATH], cwd=tmp_path)
    assert res.returncode == 0, res.stderr


def test_cli_writes_tables_and_traces(tmp_path):
    res = _cli(["--problem", "ex1", "--alpha", "0.6", "--gamma", "2",
                "--steps", "4,8", "--elements", "30", "--trace", "--gnuplot",
                "--out", str(tmp_path)], cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    study = tmp_path / "ex1_study.csv"
    assert study.exists()
    assert study.read_text().startswith("problem,alpha,gamma,N,h,eps,")
    t4 = tmp_path / "ex1_a0.6_g2_N4_trace.csv"
    t8 = tmp_path / "ex1_a0.6_g2_N8_trace.csv"
    assert t4.exists() and t8.exists()
    tl = t4.read_text().strip().split("\n")
    assert tl[0] == "t,error" and len(tl) == 5
    gp = (tmp_path / "ex1_traces.gp").read_text()
    assert "set logscale xy" in gp and "ex1_a0.6_g2_N8_trace.csv" in gp
    assert "eps=" in res.stdout


def test_cli_failure_exit_code(tmp_path):
    res = _cli(["--alpha", "1.5", "--gamma", "1", "--steps", "4",
                "--elements", "20", "--out", str(tmp_path)], cwd=tmp_path)
    assert res.returncode == 1
    assert "ValueError" in res.stderr


def test_cli_rejects_bc_override(tmp_path):
    # the shipped problems' exact solutions solve their own (Dirichlet)
    # problem only, so there is no boundary-condition flag to pass
    with pytest.raises(SystemExit) as exc:
        main(["--bc", "zeroflux", "--steps", "4", "--elements", "20", "--out", str(tmp_path)])
    assert exc.value.code == 2


@pytest.mark.parametrize("flag", ["--alpha", "--gamma", "--steps"])
@pytest.mark.parametrize("text", ["", " , "])
def test_cli_rejects_empty_lists(tmp_path, capsys, flag, text):
    # a study of zero solves is an argument error, not a header-only CSV
    with pytest.raises(SystemExit) as exc:
        main([flag, text, "--elements", "20", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "needs at least one value" in capsys.readouterr().err
    assert not (tmp_path / "ex1_study.csv").exists()


def test_main_in_process(tmp_path):
    rc = main(["--problem", "ex2", "--alpha", "0.7", "--gamma", "3",
               "--steps", "4", "--elements", "25", "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "ex2_study.csv").exists()
