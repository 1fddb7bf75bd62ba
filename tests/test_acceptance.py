"""End-to-end acceptance suite.

One test per numbered acceptance requirement.  Each test finishes with a
single printed PASS line carrying the measured figures, so a verbose run
(-s) doubles as a report.  Tolerances sit inline next to each assertion.
"""

import math
import time

import numpy as np
import pytest
from scipy.special import erfcx

from fracfp import (
    BcMode,
    ConvolutionWeights,
    SolverConfig,
    assemble_mass,
    assemble_source,
    build_mesh,
    interp_probe,
    l2_norm,
    mittag_leffler,
    omega,
    omega_increment,
    run_study,
    solve,
    uniform_mesh,
)

from oracles import cn_reference, make_problem, ml_oracle


# --- reference data -------------------------------------------------------
#
# Convergence history for ex1 at alpha = 0.7 on 2000 elements, N doubling
# from 16 to 256.  eps is the max-over-time nodal L2 error; the rate stored
# with row N is log2(eps(N) / eps(2N)).

NS = [16, 32, 64, 128, 256]

REF_EX1_A07 = {
    1.0: ([2.039e-02, 1.022e-02, 4.976e-03, 2.578e-03, 1.417e-03],
          # second rate: the neighbouring error entries give
          # log2(1.022e-2 / 4.976e-3) = 1.038, fixing a decimal slip (0.1038)
          [0.9964, 1.0382, 0.9486, 0.8640]),
    1.6: ([3.787e-03, 1.417e-03, 5.446e-04, 2.065e-04, 7.816e-05],
          [1.4187, 1.3792, 1.3990, 1.4018]),
    2.3: ([8.847e-04, 2.234e-04, 5.638e-05, 1.421e-05, 3.588e-06],
          [1.9856, 1.9863, 1.9880, 1.9863]),
}

# (alpha, gamma, eps at N = 256, rate over the last doubling)
REF_EX1_SPOTS = [(0.5, 3.2, 4.5e-06, 1.966), (0.4, 4.0, 5.0e-06, 1.945)]
# same layout for ex2, measured in the t**(alpha/4)-weighted norm
REF_EX2_SPOTS = [(0.6, 3.3, 2.8e-06, 1.987), (0.4, 5.0, 3.1e-06, 1.958)]
# ex1 on 1000 elements as alpha -> 1 (the scheme is Crank-Nicolson at 1):
# alpha -> (eps at N = 128 with gamma = 2, rate over N = 64 -> 128 with gamma = 1)
REF_EX1_ALPHA_TO_1 = {0.9: (1.069e-05, 1.112), 0.99: (9.844e-06, 1.242),
                      0.999: (9.804e-06, 1.253), 1.0: (9.801e-06, 1.254)}


def drift_field(x, t):
    return np.sin(t) - np.asarray(x, dtype=float)


def parabola(x):
    x = np.asarray(x, dtype=float)
    return x * (1.0 - x)


@pytest.fixture(scope="module")
def table_ex1():
    t0 = time.perf_counter()
    report = run_study("ex1", [0.7], [1.0, 1.6, 2.3], NS)
    return report, time.perf_counter() - t0


# --- criteria -------------------------------------------------------------


def test_criterion_01_reference_error_table(table_ex1):
    report, elapsed = table_ex1
    assert report.ok
    worst_eps = 0.0
    worst_rate = 0.0
    for gamma, (eps_ref, rate_ref) in REF_EX1_A07.items():
        for N, e_ref in zip(NS, eps_ref):
            row = report.find(0.7, gamma, N)
            rel = abs(row.eps - e_ref) / e_ref
            worst_eps = max(worst_eps, rel)
            assert rel <= 0.05, (gamma, N, row.eps, e_ref)
        for N, r_ref in zip(NS[:-1], rate_ref):
            dev = abs(report.find(0.7, gamma, N).eps_rate - r_ref)
            worst_rate = max(worst_rate, dev)
            assert dev <= 0.05, (gamma, N, r_ref)
        # finest printed rate follows min(gamma * 1.25 * alpha, 2) +- 0.1
        law = min(0.875 * gamma, 2.0)
        assert abs(report.find(0.7, gamma, 128).eps_rate - law) <= 0.1
    assert elapsed < 180.0, f"study took {elapsed:.1f}s"
    print(f"PASS criterion 1: 15/15 errors within 5% (worst {worst_eps:.2%}), "
          f"12/12 rates within 0.05 (worst {worst_rate:.4f}), "
          f"table built in {elapsed:.1f}s < 180s")


def test_criterion_02_graded_mesh_spot_checks():
    parts = []
    for alpha, gamma, eps_ref, rate_ref in REF_EX1_SPOTS:
        report = run_study("ex1", [alpha], [gamma], [128, 256])
        assert report.ok
        eps = report.find(alpha, gamma, 256).eps
        rate = report.find(alpha, gamma, 128).eps_rate
        assert abs(eps - eps_ref) / eps_ref <= 0.10, (alpha, gamma, eps)
        assert abs(rate - rate_ref) <= 0.05, (alpha, gamma, rate)
        assert abs(rate - min(1.25 * alpha * gamma, 2.0)) <= 0.1
        parts.append(f"a={alpha} g={gamma}: eps={eps:.3e} rate={rate:.4f}")
    print("PASS criterion 2: " + "; ".join(parts))


def test_criterion_03_weighted_error_spot_checks():
    parts = []
    for alpha, gamma, weps_ref, rate_ref in REF_EX2_SPOTS:
        report = run_study("ex2", [alpha], [gamma], [128, 256])
        assert report.ok
        weps = report.find(alpha, gamma, 256).weps
        rate = report.find(alpha, gamma, 128).weps_rate
        assert abs(weps - weps_ref) / weps_ref <= 0.10, (alpha, gamma, weps)
        assert abs(rate - rate_ref) <= 0.05, (alpha, gamma, rate)
        assert abs(rate - min(alpha * gamma, 2.0)) <= 0.1
        parts.append(f"a={alpha} g={gamma}: weps={weps:.3e} rate={rate:.4f}")
    print("PASS criterion 3: " + "; ".join(parts))


def test_alpha_robust_up_to_one():
    # the error constant and the rate law min(1.25 alpha gamma, 2) hold
    # uniformly as alpha -> 1, alpha = 1 included
    alphas = sorted(REF_EX1_ALPHA_TO_1)
    graded = run_study("ex1", alphas, [2.0], [32, 64, 128], elements=1000)
    uniform = run_study("ex1", alphas, [1.0], [32, 64, 128], elements=1000)
    assert graded.ok and uniform.ok
    eps = np.array([graded.find(a, 2.0, 128).eps for a in alphas])
    for a in alphas:
        for n in (32, 64):
            assert graded.find(a, 2.0, n).eps_rate >= 1.9, (a, n)
        rate = uniform.find(a, 1.0, 64).eps_rate
        assert abs(rate - min(1.25 * a, 2.0)) <= 0.1, (a, rate)
        eps_ref, rate_ref = REF_EX1_ALPHA_TO_1[a]
        assert abs(graded.find(a, 2.0, 128).eps - eps_ref) / eps_ref <= 0.10, a
        assert abs(rate - rate_ref) <= 0.05, (a, rate)
    spread = eps.max() / eps.min() - 1.0
    assert spread < 0.15, eps
    print(f"PASS alpha -> 1: eps(N=128, gamma=2) spread {spread:.1%} over alpha "
          f"{alphas}; gamma=1 rates "
          + ", ".join(f"{uniform.find(a, 1.0, 64).eps_rate:.3f}" for a in alphas))


def test_second_order_for_small_alpha():
    # the paper observes second order for alpha <= 1/2 too, outside its
    # theory, once gamma reaches the law's 2/(1.25 alpha) (5.33 at 0.3)
    report = run_study("ex1", [0.3], [5.4, 2.0], [64, 128, 256], elements=2000)
    assert report.ok
    graded = [report.find(0.3, 5.4, n) for n in (64, 128)]
    mild = [report.find(0.3, 2.0, n) for n in (64, 128)]
    for r in graded:
        assert r.eps_rate >= 1.85 and r.weps_rate >= 1.85, (r.N, r.eps_rate, r.weps_rate)
    for r in mild:
        assert r.eps_rate < 1.0 and r.weps_rate < 1.0, (r.N, r.eps_rate, r.weps_rate)
    print("PASS alpha = 0.3: gamma=5.4 eps/weps rates "
          + ", ".join(f"{r.eps_rate:.3f}/{r.weps_rate:.3f}" for r in graded)
          + "; gamma=2 rates " + ", ".join(f"{r.eps_rate:.3f}/{r.weps_rate:.3f}" for r in mild))


@pytest.mark.xfail(strict=True, reason="the near L1 weights cancel once tau_j falls below the "
                   "rounding of t_n, and the rates go negative; the fix waits for a re-recorded "
                   "benchmark reference (ROADMAP item 1)")
def test_second_order_on_a_strongly_graded_mesh():
    # the solve-level face of the weight cancellation pinned in test_kernels:
    # at alpha = 0.2, gamma = 7 the rate law min(1.25 alpha gamma, 2) is 1.75
    report = run_study("ex1", [0.2], [7.0], [64, 128, 256], elements=2000)
    assert report.ok
    rates = [report.find(0.2, 7.0, n).eps_rate for n in (64, 128)]
    assert all(r >= 1.7 for r in rates), rates


def test_criterion_04_grading_monotonicity_and_error_profile():
    gammas = [1.0, 2.0, 3.0, 4.0]
    report = run_study("ex1", [0.6], gammas, [128], keep_traces=True)
    assert report.ok
    rows = [report.find(0.6, g, 128) for g in gammas]
    eps = [r.eps for r in rows]
    assert all(a > b for a, b in zip(eps, eps[1:])), eps
    peaks = []
    for r in rows:
        k = int(np.argmax(r.trace.errors))  # errors[i] sits at step i+1
        t_peak = r.trace.times[k]
        peaks.append(t_peak)
        # the largest errors show up early: inside the first tenth of the
        # time window (the strong gradings pack many steps into it), and
        # never in the back half of the step count
        assert t_peak <= 0.1, (r.gamma, t_peak)
        assert k + 1 <= 64, (r.gamma, k + 1)
    print("PASS criterion 4: eps decreasing over gamma "
          + " > ".join(f"{e:.3e}" for e in eps)
          + "; peak errors at t = "
          + ", ".join(f"{t:.4f}" for t in peaks) + " (all <= T/10)")


def test_criterion_05_crank_nicolson_limit():
    def f(x, t):
        x = np.asarray(x, dtype=float)
        return x * x * (1.0 - x) * (1.0 + t + t * t)

    prob = make_problem(name="cn", alpha=1.0, drift=drift_field, f=f, u0=parabola)
    mesh = build_mesh(1.0, 32, 1.0)
    space = uniform_mesh(0.0, 1.0, 64)
    config = SolverConfig(alpha=1.0, mesh=mesh, spatial=space)
    traj = solve(prob, config)
    ref = cn_reference(space.nodes, mesh.nodes, parabola(space.nodes),
                       prob.kappa, prob.drift, f)
    err = float(np.abs(traj.values - ref).max())
    bound = 1e-10 * float(np.abs(ref).max())
    assert err <= bound
    print(f"PASS criterion 5: alpha=1 trajectory matches Crank-Nicolson, "
          f"max deviation {err:.2e} <= {bound:.2e}")


def test_criterion_06_mass_balance_zero_flux():
    space = uniform_mesh(0.0, 1.0, 200)
    mass = assemble_mass(space, BcMode.ZERO_FLUX)
    mesh = build_mesh(1.0, 64, 2.0)
    t = mesh.nodes

    worst_drift = 0.0
    for alpha in (0.4, 0.7):
        prob = make_problem(name="flux", alpha=alpha, drift=drift_field,
                            u0=parabola, bc=BcMode.ZERO_FLUX)
        config = SolverConfig(alpha=alpha, mesh=mesh, spatial=space)
        traj = solve(prob, config)
        totals = np.array([mass.matvec(v).sum() for v in traj.values])
        worst_drift = max(worst_drift, float(np.abs(totals - totals[0]).max()))
    assert worst_drift <= 1e-12

    def f(x, t):
        x = np.asarray(x, dtype=float)
        return (1.0 + t) * x * (1.0 - x)

    worst_bal = 0.0
    for alpha in (0.4, 0.7):
        prob = make_problem(name="flux", alpha=alpha, drift=drift_field, f=f,
                            u0=parabola, bc=BcMode.ZERO_FLUX)
        config = SolverConfig(alpha=alpha, mesh=mesh, spatial=space)
        traj = solve(prob, config)
        for n in range(1, mesh.N + 1):
            lhs = mass.matvec(traj.values[n] - traj.values[n - 1]).sum()
            rhs = assemble_source(prob, space, (t[n - 1], t[n])).sum()
            # int over I_n of (1+t) dt times int x(1-x) dx = increment / 6
            exact = ((t[n] - t[n - 1]) + 0.5 * (t[n] ** 2 - t[n - 1] ** 2)) / 6.0
            assert abs(lhs - rhs) <= 1e-12, (alpha, n)
            assert abs(rhs - exact) <= 1e-12, (alpha, n)
            worst_bal = max(worst_bal, abs(lhs - rhs))
    print(f"PASS criterion 6: source-free mass constant to {worst_drift:.2e}, "
          f"forced-run mass balance within {worst_bal:.2e} (tol 1e-12)")


def test_criterion_07_weight_positivity_and_telescoping():
    worst_tel = 0.0
    rows_checked = 0
    for alpha in [round(0.1 * k, 1) for k in range(1, 10)] + [1.0]:
        for gamma in (1.0, 2.0, 3.0, 5.0):
            for N in (16, 256):
                mesh = build_mesh(1.0, N, gamma)
                cw = ConvolutionWeights(mesh, alpha)
                t = mesh.nodes
                for n in range(1, N + 1):
                    assert cw.w0(n) > 0.0 and cw.d(n) > 0.0
                    row = cw.row(n)
                    if n == 1:
                        assert row.size == 0
                        continue
                    assert np.all(row > 0.0), (alpha, gamma, N, n)
                    rhs = (omega_increment(alpha + 2.0, t[n - 1], t[n])
                           - omega(alpha + 2.0, mesh.steps[n - 1]))
                    rel = abs(row.sum() - rhs) / rhs
                    worst_tel = max(worst_tel, rel)
                    assert rel <= 1e-10, (alpha, gamma, N, n, rel)
                    rows_checked += 1
    worst_probe = 0.0
    for alpha in (0.4, 0.8):
        for gamma in (1.0, 2.0, 5.0):
            p = interp_probe(1.0, alpha, build_mesh(1.0, 64, gamma))
            worst_probe = max(worst_probe, p)
            assert p < 1e-24, (alpha, gamma, p)
    print(f"PASS criterion 7: {rows_checked} weight rows positive, telescoping "
          f"within {worst_tel:.2e} (tol 1e-10); linear-data probe "
          f"{worst_probe:.2e} < 1e-24")


def test_criterion_08_interpolation_probe_rates():
    sizes = [64, 128, 256, 512]
    graded = [interp_probe(0.6, 0.6, build_mesh(1.0, N, 4.0)) for N in sizes]
    g_rates = [math.log2(a / b) for a, b in zip(graded, graded[1:])]
    assert all(abs(r - 4.0) <= 0.1 for r in g_rates), g_rates
    uniform = [interp_probe(0.6, 0.6, build_mesh(1.0, N, 1.0)) for N in sizes]
    u_rates = [math.log2(a / b) for a, b in zip(uniform, uniform[1:])]
    assert all(r >= 1.1 for r in u_rates), u_rates
    print("PASS criterion 8: probe rates gamma=4 "
          + "/".join(f"{r:.4f}" for r in g_rates) + " (target 4 +- 0.1), "
          "gamma=1 " + "/".join(f"{r:.4f}" for r in u_rates) + " (floor 1.1)")


def test_criterion_09_mittag_leffler_identities():
    x = np.linspace(0.0, 30.0, 121)
    rel_exp = np.abs(mittag_leffler(1.0, 1.0, -x) - np.exp(-x)) / np.exp(-x)
    assert rel_exp.max() <= 1e-10
    rel_erf = np.abs(mittag_leffler(0.5, 1.0, -x) - erfcx(x)) / erfcx(x)
    assert rel_erf.max() <= 1e-10
    worst = 0.0
    for mu in (0.1, 0.25, 0.5, 0.75, 0.9):
        for beta in (1.0, mu):
            for v in np.logspace(-6.0, 8.0, 15):
                ref = ml_oracle(mu, beta, v)
                rel = abs(mittag_leffler(mu, beta, -v) - ref) / abs(ref)
                worst = max(worst, rel)
                assert rel <= 1e-10, (mu, beta, v, rel)
    print(f"PASS criterion 9: exp identity within {rel_exp.max():.2e}, erfcx "
          f"identity within {rel_erf.max():.2e}, oracle agreement on 150 "
          f"points within {worst:.2e} (tol 1e-10)")


def test_criterion_10_long_run_stability():
    space = uniform_mesh(0.0, 1.0, 200)
    parts = []
    for alpha in (0.6, 0.8):
        prob = make_problem(name="stab", alpha=alpha, drift=drift_field,
                            u0=parabola)
        norms = {}
        dyn = {}
        norm0 = None
        for N in NS:
            config = SolverConfig(alpha=alpha, mesh=build_mesh(1.0, N, 2.0),
                                  spatial=space)
            traj = solve(prob, config)
            norms[N] = max(l2_norm(v, space) for v in traj.values)
            dyn[N] = max(l2_norm(v, space) for v in traj.values[1:])
            norm0 = l2_norm(traj.values[0], space)
        change = abs(norms[128] - norms[256]) / norms[256]
        assert change < 0.01, (alpha, change)
        assert max(norms.values()) <= 2.0 * norm0, (alpha, norms)
        # stronger than the 2x bound: the trajectory never overshoots the
        # projected initial datum
        assert all(v <= norm0 for v in dyn.values()), (alpha, dyn)
        parts.append(f"a={alpha}: sup-norm drift {change:.2e}, "
                     f"peak/initial {max(norms.values()) / norm0:.3f}, "
                     f"post-initial peak {max(dyn.values()) / norm0:.3f}")
    print("PASS criterion 10: " + "; ".join(parts))
