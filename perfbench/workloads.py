"""The benchmark's workloads: what each one builds, runs and checks.

Every workload uses M_x = 2000 elements on [0, 1] and T = 1 at full size.
The smoke size keeps each workload's shape (same code paths, same alpha and
gamma) at a fraction of the cost, for the benchmark's self-test.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REFERENCE = Path(__file__).with_name("reference.json")

# relative tolerance on eps/weps and on the stepper's final-state norm
REL_TOL = 1.0e-6
# zero-flux mass drift bound: the seed measures 1.27e-11 against a total of 1/6
MASS_DRIFT_MAX = 1.0e-10

# (problem, alphas, gammas, Ns) per run_study call, plus elements
STUDIES = {
    "ex1_table": {
        "full": ([("ex1", [0.7], [1.0, 1.6, 2.3], [16, 32, 64, 128, 256])], 2000),
        "smoke": ([("ex1", [0.7], [1.0, 2.3], [16, 32])], 200),
    },
    "ex2_graded": {
        "full": ([("ex2", [0.6], [3.3], [256]), ("ex2", [0.4], [5.0], [256])], 2000),
        "smoke": ([("ex2", [0.6], [3.3], [32]), ("ex2", [0.4], [5.0], [32])], 200),
    },
}
STEPPER = {"full": (4096, 2000), "smoke": (256, 200)}  # (N, M_x)
STEPPER_ALPHA = 0.6
STEPPER_GAMMA = 3.0

NAMES = ("ex1_table", "ex2_graded", "stepper_long")


def solves_per_run(name: str, size: str) -> int:
    if name == "stepper_long":
        return 1
    calls, _ = STUDIES[name][size]
    return sum(len(a) * len(g) * len(n) for _, a, g, n in calls)


def _reference(name: str, size: str):
    return json.loads(REFERENCE.read_text())[f"{name}@{size}"]


class Workload:
    """Set-up and one timed run of a workload.

    Set-up is what a run reuses: the stepper_long problem, meshes, spaces
    and mass weights; nothing for the run_study workloads.

    run() calls the library through module attributes (harness.run_study,
    stepper.solve, fem1d.l2_norm), which the traced run rebinds.  Its result
    goes to check(), which returns (solves attempted, solves failed, details).
    """

    def __init__(self, name: str, size: str):
        import fracfp
        import numpy as np

        self.name, self.size = name, size
        if name == "stepper_long":
            N, elements = STEPPER[size]
            self.problem = stepper_problem(fracfp)
            self.config = fracfp.SolverConfig(
                alpha=STEPPER_ALPHA, mesh=fracfp.build_mesh(1.0, N, STEPPER_GAMMA),
                spatial=fracfp.uniform_mesh(0.0, 1.0, elements))
            # 1^T M: the total mass of a nodal vector is weights @ U
            self.weights = fracfp.assemble_mass(self.config.spatial, fracfp.BcMode.ZERO_FLUX).matvec(
                np.ones(elements + 1))
        else:
            # run_study builds its problems, meshes and spaces from the
            # problem name, so their construction is timed in wall_s
            self.calls, self.elements = STUDIES[name][size]

    def run(self):
        from fracfp import fem1d, harness, stepper

        if self.name == "stepper_long":
            traj = stepper.solve(self.problem, self.config)
            mass = traj.values @ self.weights
            drift = float(abs(mass - mass[0]).max())
            return {"mass0": float(mass[0]), "mass_drift": drift,
                    "final_l2": fem1d.l2_norm(traj.values[-1], self.config.spatial)}
        return [row for problem, alphas, gammas, Ns in self.calls
                for row in harness.run_study(problem, alphas, gammas, Ns, elements=self.elements).rows]

    def check(self, result):
        ref = _reference(self.name, self.size)
        if self.name == "stepper_long":
            bad = []
            if not result["mass_drift"] <= MASS_DRIFT_MAX:
                bad.append(f"mass drift {result['mass_drift']:.3e} > {MASS_DRIFT_MAX:g}")
            if not _close(result["final_l2"], ref["final_l2"]):
                bad.append(f"final L2 norm {result['final_l2']!r} != {ref['final_l2']!r}")
            return 1, int(bool(bad)), {"mass_drift": result["mass_drift"],
                                       "final_l2": result["final_l2"], "problems": bad}
        rows = {(row.problem, row.alpha, row.gamma, row.N): row for row in result}
        bad = []
        for want in ref:
            key = (want["problem"], want["alpha"], want["gamma"], want["N"])
            row = rows.get(key)
            if row is None or row.error is not None or not (
                    _close(row.eps, want["eps"]) and _close(row.weps, want["weps"])):
                bad.append(f"{key}: {'missing' if row is None else (row.eps, row.weps, row.error)}")
        return len(ref), len(bad), {"problems": bad}


def stepper_problem(fracfp):
    """Sourceless zero-flux problem: drift sin t - x, kappa = 1, u0 = x(1-x)."""
    import numpy as np

    return fracfp.ProblemSpec(
        name="stepper_long", alpha=STEPPER_ALPHA, domain=(0.0, 1.0), T=1.0,
        kappa=lambda x: 1.0, drift=lambda x, t: np.sin(t) - x,
        f=None, f_regular=None, rho=0.0,
        u0=lambda x: x * (1.0 - x), u0_prime=None, exact=None,
        bc=fracfp.BcMode.ZERO_FLUX, default_projection="nodal")


def _close(value, want) -> bool:
    return value is not None and math.isfinite(value) and abs(value - want) <= REL_TOL * abs(want)
