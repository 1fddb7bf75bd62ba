import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fracfp
from fracfp import (
    BcMode,
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


def test_run_study_empty_steps():
    report = run_study("ex1", [0.5], [2.0], [])
    assert report.rows == [] and report.ok


def test_run_study_keep_traces():
    report = run_study("ex1", [0.5], [2.0], [4], elements=20, keep_traces=True)
    assert report.rows[0].trace is not None
    plain = run_study("ex1", [0.5], [2.0], [4], elements=20)
    assert plain.rows[0].trace is None


@pytest.mark.parametrize("factory,override", [
    (example2, {"bc": BcMode.ZERO_FLUX}),
    (example1, {"projection": "l2"}),
])
def test_run_study_overrides_reach_the_solve(factory, override):
    made = []

    def spy(alpha):
        made.append(factory(alpha))
        return made[-1]

    row = run_study(spy, [0.5], [2.0], [4], elements=20, **override).rows[0]
    assert row.error is None and len(made) == 1
    # the factory's problem keeps its own choices
    own = factory(0.5)
    assert (made[0].bc, made[0].default_projection) == (own.bc, own.default_projection)
    replaced = dataclasses.replace(
        made[0], bc=override.get("bc", own.bc),
        default_projection=override.get("projection", own.default_projection))
    config = SolverConfig(alpha=0.5, mesh=build_mesh(1.0, 4, 2.0),
                          spatial=uniform_mesh(0.0, 1.0, 20))
    eps, weps, _ = compute_errors(solve(replaced, config), replaced)
    assert (row.eps, row.weps) == (eps, weps)
    # the override changes the result
    assert run_study(factory, [0.5], [2.0], [4], elements=20).rows[0].eps != row.eps


def test_custom_factory():
    report = run_study(example1, [0.4], [2.0], [4], elements=20)
    assert report.ok and report.rows[0].problem == "ex1"


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
# What the `fracfp` console script runs; `-m fracfp.harness` would execute
# the module a second time as __main__, since fracfp/__init__ imports it.
_ENTRY = "import sys; from fracfp.harness import main; sys.exit(main())"


def _cli(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (_SRC, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", _ENTRY] + args, cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=600)


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


def test_main_in_process(tmp_path):
    rc = main(["--problem", "ex2", "--alpha", "0.7", "--gamma", "3",
               "--steps", "4", "--elements", "25", "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "ex2_study.csv").exists()
