import math
import warnings
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracfp import (
    BcMode,
    ConvolutionWeights,
    ProblemSpec,
    SolverConfig,
    Trajectory,
    assemble_mass,
    assemble_source,
    build_mesh,
    check_step_assumption,
    example1,
    init_state,
    load_vector,
    project_initial,
    solve,
    step,
    to_dof,
    uniform_mesh,
)

from fracfp import stepper
from fracfp.stepper import _BLOCK
from oracles import cn_reference, direct_l1_solve, source_integral_oracle, source_integral_singular


def make_problem(**kw):
    base = dict(
        name="custom",
        alpha=0.6,
        domain=(0.0, 1.0),
        T=1.0,
        kappa=lambda x: 1.0,
        drift=None,
        f=None,
        f_regular=None,
        rho=0.0,
        u0=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        u0_prime=None,
        exact=None,
        bc=BcMode.DIRICHLET,
        default_projection="nodal",
    )
    base.update(kw)
    return ProblemSpec(**base)


def test_zero_data_stays_zero():
    prob = make_problem()
    config = SolverConfig(alpha=0.6, mesh=build_mesh(1.0, 12, 2.0),
                          spatial=uniform_mesh(0.0, 1.0, 16))
    traj = solve(prob, config)
    assert np.all(traj.values == 0.0)


def test_source_constant_one():
    # int_{I_n} <1, phi_p> dt = tau_n * (h interior, h/2 at the ends)
    prob = make_problem(f=lambda x, t: np.ones_like(np.asarray(x, dtype=float)))
    space = uniform_mesh(0.0, 1.0, 10)
    vec = assemble_source(prob, space, (0.25, 0.75))
    want = 0.5 * space.h * np.ones(11)
    want[0] *= 0.5
    want[-1] *= 0.5
    np.testing.assert_allclose(vec, want, rtol=1e-13)


def test_source_none_is_zero():
    vec = assemble_source(make_problem(), uniform_mesh(0.0, 1.0, 8), (0.0, 0.5))
    assert np.all(vec == 0.0)


def test_source_singular_analytic():
    # f = t**(a-1) sin(pi x): time integral is exact, space is a cheap quad
    alpha = 0.4
    prob = make_problem(
        alpha=alpha,
        rho=alpha - 1.0,
        f=lambda x, t: t ** (alpha - 1.0) * np.sin(np.pi * np.asarray(x, dtype=float)),
        f_regular=None,
    )
    space = uniform_mesh(0.0, 1.0, 9)
    for (t0, t1) in [(0.0, 0.3), (0.3, 0.35)]:
        got = assemble_source(prob, space, (t0, t1))
        tfac = (t1 ** alpha - t0 ** alpha) / alpha
        want = tfac * source_integral_oracle(
            lambda x, t: math.sin(math.pi * x), 0.0, space.nodes, 0.0, 1.0)
        assert got == pytest.approx(want, rel=1e-9)


def _batched(fn):
    """Lift f(x, scalar t) to the t.shape + x.shape batching convention."""
    def wrap(x, t):
        t = np.asarray(t, dtype=float)
        if t.ndim == 0:
            return fn(x, float(t))
        return np.stack([np.asarray(fn(x, float(tv)), dtype=float) for tv in t])
    return wrap


def test_source_matches_adaptive_quadrature():
    # singular first interval and an interior interval, QUADPACK reference
    alpha = 0.7
    rho = alpha - 1.0
    g = lambda x, t: (1.0 + 0.5 * t) * np.exp(-x) + x * t
    prob = make_problem(
        alpha=alpha, rho=rho,
        f_regular=_batched(g),
    )
    space = uniform_mesh(0.0, 1.0, 6)
    # the t-linear part of g is not analytic in the substituted variable, so
    # a wide first interval shows the fixed rule's floor; graded meshes only
    # ever hand it tiny first intervals, where the defect scales away
    got0 = assemble_source(prob, space, (0.0, 0.2))
    want0 = source_integral_singular(lambda x, t: g(x, t), rho, space.nodes, 0.2)
    np.testing.assert_allclose(got0, want0, rtol=3e-6)

    t1 = (1.0 / 32.0) ** 3
    gott = assemble_source(prob, space, (0.0, t1))
    wantt = source_integral_singular(lambda x, t: g(x, t), rho, space.nodes, t1)
    np.testing.assert_allclose(gott, wantt, rtol=1e-8)

    got1 = assemble_source(prob, space, (0.4, 0.55))
    want1 = source_integral_oracle(lambda x, t: t ** rho * g(x, t), rho,
                                   space.nodes, 0.4, 0.55)
    np.testing.assert_allclose(got1, want1, rtol=1e-10)


def test_source_plain_path_matches_batched():
    # same source with and without the smooth-cofactor route
    rho = -0.5
    g = lambda x, t: np.exp(-x) * np.cos(3.0 * t) + x * x * t
    batched = make_problem(rho=rho, f_regular=_batched(g))
    plain = make_problem(rho=rho, f=lambda x, t: t ** rho * g(x, t))
    space = uniform_mesh(0.0, 1.0, 12)
    for interval in [(0.0, 1e-4), (0.2, 0.3)]:
        a = assemble_source(batched, space, interval)
        b = assemble_source(plain, space, interval)
        np.testing.assert_allclose(a, b, atol=1e-12 * np.abs(a).max())


def test_flux_source_is_load_of_derivative():
    # -<g, phi'> + [g phi] = <g', phi> exactly for a cubic g, boundary rows
    # included; g(0) = 1 and g(1) = 0.5, so the boundary term is needed there
    cubic = lambda x: 1.0 + 2.0 * x - 3.0 * x ** 2 + 0.5 * x ** 3
    dcubic = lambda x: 2.0 - 6.0 * x + 1.5 * x ** 2
    prob = make_problem(bc=BcMode.ZERO_FLUX,
                        flux_regular=_batched(lambda x, t: (1.0 + t) * cubic(np.asarray(x))))
    space = uniform_mesh(0.0, 1.0, 7)
    got = assemble_source(prob, space, (0.25, 0.75))
    # int_{0.25}^{0.75} (1 + t) dt = 0.75
    want = 0.75 * load_vector(dcubic, space)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)


def test_flux_source_mass_balance_zero_flux():
    # zero-flux G conserves mass, so the mass gained is the boundary flux in
    prob = make_problem(alpha=0.5, rho=-0.5, bc=BcMode.ZERO_FLUX,
                        drift=lambda x, t: np.sin(t) - x,
                        u0=lambda x: x * (1.0 - x),
                        flux_regular=_batched(lambda x, t: (1.0 + t) * np.asarray(x) ** 2))
    space = uniform_mesh(0.0, 1.0, 32)
    tmesh = build_mesh(1.0, 16, 2.0)
    traj = solve(prob, SolverConfig(alpha=0.5, mesh=tmesh, spatial=space))
    mass = assemble_mass(space, BcMode.ZERO_FLUX)
    totals = np.array([mass.matvec(u).sum() for u in traj.values])
    gained = totals - totals[0]
    # int_0^t s^(-1/2) (1 + s) ds
    t = tmesh.nodes
    np.testing.assert_allclose(gained, 2.0 * t ** 0.5 + (2.0 / 3.0) * t ** 1.5, atol=1e-12)


def test_nonfinite_state_names_step():
    # the source turns NaN inside the fifth interval (0.5, 0.625]
    prob = make_problem(f=lambda x, t: np.full(np.shape(x), np.nan if t > 0.5 else 1.0))
    config = SolverConfig(alpha=0.6, mesh=build_mesh(1.0, 8, 1.0),
                          spatial=uniform_mesh(0.0, 1.0, 8))
    state = init_state(prob, config)
    for _ in range(4):
        step(state, config, prob)
    assert np.isfinite(state.U_dof).all()
    with pytest.raises(FloatingPointError, match=r"n = 5, t_n = 0\.625"):
        step(state, config, prob)
    with pytest.raises(FloatingPointError, match=r"n = 5"):
        solve(prob, config)


def test_source_rejects_nonintegrable_rho():
    space = uniform_mesh(0.0, 1.0, 8)
    for source in ({"f": lambda x, t: np.ones_like(x)},
                   {"f_regular": lambda x, t: np.ones(np.shape(t) + np.shape(x))},
                   {"flux_regular": lambda x, t: np.ones(np.shape(t) + np.shape(x))}):
        with pytest.raises(ValueError, match="not integrable"):
            assemble_source(make_problem(rho=-1.0, **source), space, (0.0, 0.1))


def test_crank_nicolson_limit():
    """alpha = 1 reduces the scheme to Crank-Nicolson exactly."""
    space = uniform_mesh(0.0, 1.0, 64)
    tmesh = build_mesh(1.0, 32, 1.0)
    f = lambda x, t: x ** 2 * (1.0 - x) * (1.0 + t + t ** 2)
    prob = make_problem(
        alpha=1.0,
        drift=lambda x, t: np.sin(t) - x,
        f_regular=_batched(f),
        u0=lambda x: x * (1.0 - x),
    )
    config = SolverConfig(alpha=1.0, mesh=tmesh, spatial=space)
    traj = solve(prob, config)
    ref = cn_reference(space.nodes, tmesh.nodes, prob.u0(space.nodes),
                       prob.kappa, prob.drift, f)
    scale = np.abs(ref).max()
    assert np.abs(traj.values - ref).max() <= 1e-10 * scale


def test_mass_conservation_zero_flux():
    space = uniform_mesh(0.0, 1.0, 32)
    prob = make_problem(
        alpha=0.5,
        bc=BcMode.ZERO_FLUX,
        drift=lambda x, t: np.sin(t) - x,
        u0=lambda x: x * (1.0 - x),
    )
    config = SolverConfig(alpha=0.5, mesh=build_mesh(1.0, 16, 2.0), spatial=space)
    traj = solve(prob, config)
    mass = assemble_mass(space, BcMode.ZERO_FLUX)
    totals = np.array([mass.matvec(u).sum() for u in traj.values])
    np.testing.assert_allclose(totals, totals[0], atol=1e-13)


# first block, its edges, and partial later blocks
_BLOCK_NS = sorted({1, 15, 16, 17, 50, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 5})


@pytest.mark.parametrize("bc", [BcMode.DIRICHLET, BcMode.ZERO_FLUX])
@pytest.mark.parametrize("N", _BLOCK_NS)
def test_blocked_history_matches_direct_sum(bc, N):
    # u0(0) = u0(1) = 1, so the Dirichlet projection has nonzero ends
    prob = make_problem(bc=bc, drift=lambda x, t: np.sin(t) - x,
                        u0=lambda x: 1.0 + x * (1.0 - x),
                        f=lambda x, t: np.cos(3.0 * t) * np.exp(-np.asarray(x)))
    config = SolverConfig(alpha=0.6, mesh=build_mesh(1.0, N, 2.5),
                          spatial=uniform_mesh(0.0, 1.0, 24))
    got = solve(prob, config).values
    want = direct_l1_solve(prob, config)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_one_solve_work_counts(monkeypatch):
    # the plan is built once: K (the only kappa sampling of a step loop) and
    # the weights in init_state; each step evaluates the drift once and takes
    # one weight row.  A whole solve adds one kappa call, the step-size
    # check's diffusion floor; its drift bound is the steps' own samples
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(stepper, "assemble_G", counted("assemble_G", stepper.assemble_G))
    monkeypatch.setattr(ConvolutionWeights, "row", counted("row", ConvolutionWeights.row))
    prob = make_problem(bc=BcMode.ZERO_FLUX, u0=lambda x: x * (1.0 - x),
                        kappa=counted("kappa", lambda x: 1.0 + x),
                        drift=counted("drift", lambda x, t: np.sin(t) - x))
    N = 2 * _BLOCK + 5
    config = SolverConfig(alpha=0.6, mesh=build_mesh(1.0, N, 2.0),
                          spatial=uniform_mesh(0.0, 1.0, 20))
    state = init_state(prob, config)
    at_init = dict(calls)
    for _ in range(N):
        state = step(state, config, prob)
    assert at_init == {"assemble_G": 1, "kappa": 1, "drift": 1}
    assert calls == {"assemble_G": 1, "kappa": 1, "drift": N + 1, "row": N}
    assert state.n == N
    calls.clear()
    solve(prob, config)
    assert calls == {"assemble_G": 1, "kappa": 2, "drift": N + 1, "row": N}


@pytest.mark.parametrize("bound", ["none", "low", "between", "high"])
def test_step_size_warning_checks_the_solves_own_samples(bound):
    # c0 is the largest |F| on gauss2 at t_0..t_N, where the steps sample
    # the drift, and kmin the smallest kappa on gauss2, where K is built
    alpha, space, tmesh = 0.6, uniform_mesh(0.0, 1.0, 4), build_mesh(1.0, 64, 1.0)
    kappa = lambda x: 1.0 + x
    kmin = float(np.min(kappa(space.gauss2)))
    # the largest drift bound the condition admits on this mesh
    lo, hi = 0.0, 10.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if check_step_assumption(tmesh, alpha, mid, kmin) else (lo, mid)
    # F = s t x peaks at x = 1, a node, and on gauss2 at max(gauss2) < 1;
    # "between" passes the condition on gauss2 and would fail it on the nodes
    g = space.gauss2.max()
    s = {"none": None, "low": 0.5 * lo, "between": lo / math.sqrt(g), "high": 2.0 * lo}[bound]
    drift = None if s is None else (lambda x, t: s * t * x)
    prob = make_problem(alpha=alpha, kappa=kappa, drift=drift, u0=lambda x: x * (1.0 - x))
    c0 = 0.0 if s is None else max(np.abs(drift(space.gauss2, t)).max() for t in tmesh.nodes)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        solve(prob, SolverConfig(alpha=alpha, mesh=tmesh, spatial=space))
    warned = any("time mesh violates" in str(w.message) for w in caught)
    assert warned == (not check_step_assumption(tmesh, alpha, c0, kmin))
    assert warned == (bound == "high")
    if bound == "between":
        assert not check_step_assumption(tmesh, alpha, s, kmin)


def test_dirichlet_trajectory_keeps_projected_start():
    prob = make_problem(u0=lambda x: 1.0 + x * (1.0 - x))
    space = uniform_mesh(0.0, 1.0, 20)
    # the nodal projection keeps u0's nonzero boundary values
    config = SolverConfig(alpha=0.6, mesh=build_mesh(1.0, _BLOCK + 3, 2.0), spatial=space)
    values = solve(prob, config).values
    np.testing.assert_array_equal(
        values[0], project_initial(prob.u0, space, BcMode.DIRICHLET, "nodal"))
    assert values[0, 0] != 0.0 and values[0, -1] != 0.0
    assert np.all(values[1:, [0, -1]] == 0.0)


@given(alpha=st.floats(min_value=0.1, max_value=1.0),
       gamma=st.floats(min_value=1.0, max_value=3.0),
       N=st.integers(min_value=1, max_value=3 * _BLOCK + 1))
@settings(max_examples=25, deadline=None)
def test_mass_conservation_zero_flux_property(alpha, gamma, N):
    space = uniform_mesh(0.0, 1.0, 16)
    prob = make_problem(alpha=alpha, bc=BcMode.ZERO_FLUX, drift=lambda x, t: np.sin(t) - x,
                        u0=lambda x: x * (1.0 - x))
    traj = solve(prob, SolverConfig(alpha=alpha, mesh=build_mesh(1.0, N, gamma),
                                    spatial=space))
    totals = traj.values @ assemble_mass(space, BcMode.ZERO_FLUX).matvec(np.ones(17))
    np.testing.assert_allclose(totals, totals[0], atol=1e-13)


def test_trajectory_shape_and_start():
    prob = make_problem(u0=lambda x: np.sin(np.pi * np.asarray(x)))
    space = uniform_mesh(0.0, 1.0, 20)
    tmesh = build_mesh(1.0, 9, 1.4)
    traj = solve(prob, SolverConfig(alpha=0.6, mesh=tmesh, spatial=space))
    assert traj.values.shape == (10, 21)
    np.testing.assert_allclose(traj.times, tmesh.nodes, rtol=0)
    np.testing.assert_allclose(traj.values[0], np.sin(np.pi * space.nodes), rtol=0)
    assert traj.values[0, 0] == 0.0 and traj.values[0, -1] == pytest.approx(0.0, abs=1e-15)


def test_trajectory_validation():
    space = uniform_mesh(0.0, 1.0, 4)
    with pytest.raises(ValueError):
        Trajectory(times=np.zeros(3), values=np.zeros((2, 5)), spatial=space)
    with pytest.raises(ValueError):
        Trajectory(times=np.zeros(2), values=np.zeros((2, 4)), spatial=space)


def test_init_state_and_overrides():
    prob = make_problem(alpha=0.5, u0=lambda x: x * (1.0 - x), default_projection="l2")
    space = uniform_mesh(0.0, 1.0, 16)
    config = SolverConfig(alpha=0.5, mesh=build_mesh(1.0, 4, 1.0), spatial=space)
    state = init_state(prob, config)
    # l2 projection of a quadratic differs from its nodal samples
    assert np.abs(state.W[0] - prob.u0(space.nodes)).max() > 1e-6
    assert state.n == 0

    bad_space = uniform_mesh(0.0, 2.0, 16)
    with pytest.raises(ValueError):
        init_state(prob, SolverConfig(alpha=0.5, mesh=build_mesh(1.0, 4, 1.0),
                                      spatial=bad_space))


def test_step_past_end_raises():
    prob = make_problem(alpha=0.5)
    config = SolverConfig(alpha=0.5, mesh=build_mesh(1.0, 2, 1.0),
                          spatial=uniform_mesh(0.0, 1.0, 8))
    state = init_state(prob, config)
    step(state, config, prob)
    step(state, config, prob)
    with pytest.raises(IndexError):
        step(state, config, prob)


def test_step_size_warning_toggle():
    prob = make_problem(alpha=0.9, u0=lambda x: x * (1.0 - x),
                        drift=lambda x, t: np.sin(t) - x)
    space = uniform_mesh(0.0, 1.0, 16)
    # steps of up to 1/4 violate the sufficient condition
    config = SolverConfig(alpha=0.9, mesh=build_mesh(1.0, 4, 1.0), spatial=space)
    with pytest.warns(UserWarning, match="step-size"):
        solve(prob, config)
    # a short graded mesh satisfies it, so the solve stays silent
    quiet = SolverConfig(alpha=0.9, mesh=build_mesh(1e-4, 32, 2.0), spatial=space)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        solve(prob, quiet)


def test_alpha_mismatch_rejected():
    # the scheme's order and the problem's source/exact solution must agree
    prob = example1(0.7)
    config = SolverConfig(alpha=0.4, mesh=build_mesh(1.0, 4, 1.0),
                          spatial=uniform_mesh(0.0, 1.0, 8))
    with pytest.raises(ValueError, match=r"config\.alpha = 0\.4 .* problem\.alpha = 0\.7"):
        init_state(prob, config)
    with pytest.raises(ValueError, match="alpha"):
        solve(prob, config)


def test_domain_ends_must_match():
    # 9e-6 past the end of [0, 1]: well outside roundoff, so it is rejected
    config = SolverConfig(alpha=0.7, mesh=build_mesh(1.0, 4, 1.0),
                          spatial=uniform_mesh(0.0, 1.000009, 16))
    with pytest.raises(ValueError, match="does not cover"):
        init_state(example1(0.7), config)
    near = SolverConfig(alpha=0.7, mesh=build_mesh(1.0, 4, 1.0),
                        spatial=uniform_mesh(0.0, 1.0 + 1e-15, 16))
    assert init_state(example1(0.7), near).n == 0


def test_problem_rejects_nonintegrable_rho_when_built():
    prob = make_problem(rho=-0.5, f=lambda x, t: np.ones_like(x))
    with pytest.raises(ValueError, match="not integrable"):
        make_problem(rho=-1.0, f=lambda x, t: np.ones_like(x))
    with pytest.raises(ValueError, match="not integrable"):
        replace(prob, rho=-1.5)
    # without a source rho is never used
    assert replace(prob, rho=-2.0, f=None).rho == -2.0


@pytest.mark.parametrize("bad", [
    {"bc": "dirichlet"},
    {"alpha": 0.0},
    {"alpha": 1.5},
    {"T": 0.0},
    {"T": math.inf},
    {"domain": (1.0, 1.0)},
    {"domain": (1.0, 0.0)},
    {"domain": (0.0, math.inf)},
    {"domain": (-math.inf, 1.0)},
    {"default_projection": "spline"},
    {"f": lambda x, t: np.ones_like(x), "f_regular": lambda x, t: np.ones_like(x)},
], ids=["bc-string", "alpha-zero", "alpha-above-one", "T-zero", "T-infinite", "domain-empty",
        "domain-reversed", "domain-end-infinite", "domain-start-infinite", "projection",
        "f-and-f_regular"])
def test_problem_rejects_inconsistent_inputs_when_built(bad):
    with pytest.raises((TypeError, ValueError)):
        make_problem(**bad)


def test_source_rejects_reversed_interval():
    prob = make_problem(f=lambda x, t: np.ones_like(x))
    with pytest.raises(ValueError, match="bad time interval"):
        assemble_source(prob, uniform_mesh(0.0, 1.0, 8), (0.3, 0.2))


def test_alpha_validation():
    with pytest.raises(ValueError):
        SolverConfig(alpha=1.5, mesh=build_mesh(1.0, 4, 1.0),
                     spatial=uniform_mesh(0.0, 1.0, 8))
