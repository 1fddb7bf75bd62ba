import functools
import inspect
import math
import re
import warnings
from collections import Counter
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracfp import (
    BcMode,
    ConvolutionWeights,
    SolverConfig,
    SolverState,
    Trajectory,
    assemble_mass,
    assemble_source,
    build_mesh,
    example1,
    example2,
    load_vector,
    project_initial,
    solve,
    step,
    to_dof,
    uniform_mesh,
)

from fracfp import kernels, problems, stepper
from fracfp.fem1d import dof_slice, load_from_values
from fracfp.stepper import _BLOCK, _PANEL
from fracfp.timegrid import step_condition_failure
from oracles import (cn_reference, direct_l1_solve, make_problem, source_integral_oracle,
                     source_integral_singular)


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


@pytest.mark.parametrize("part", ["f", "f_regular", "flux_regular", "series"])
def test_source_takes_arrays_of_interval_ends(part):
    # one vector per interval, each the vector of that interval alone
    g = lambda x, t: np.exp(-x) * np.cos(3.0 * t) + x * x * t
    if part == "series":
        prob = example2(0.4)
    elif part == "f":
        prob = make_problem(rho=-0.5, f=lambda x, t: t ** -0.5 * g(x, t))
    else:
        prob = make_problem(rho=-0.5, **{part: _batched(g)})
    space = uniform_mesh(0.0, 1.0, 12)
    nodes = build_mesh(1.0, 8, 3.0).nodes
    got = assemble_source(prob, space, (nodes[:-1].reshape(2, 4), nodes[1:].reshape(2, 4)))
    assert got.shape == (2, 4, space.M_x + 1)
    for n, row in enumerate(got.reshape(8, -1), start=1):
        want = assemble_source(prob, space, (nodes[n - 1], nodes[n]))
        np.testing.assert_allclose(row, want, rtol=0, atol=1e-12 * np.abs(want).max())
    sourceless = assemble_source(make_problem(), space, (nodes[:-1], nodes[1:]))
    np.testing.assert_array_equal(sourceless, np.zeros((8, space.M_x + 1)))


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


# ------------------------------------------------ the series source's time fold

def _gauss_times(interval, q):
    """assemble_source's 8 Gauss times and weights in s = t**q, and the
    factor that maps the rule back to t."""
    s0, s1 = interval[0] ** q, interval[1] ** q
    x, w = np.polynomial.legendre.leggauss(8)
    return (0.5 * (s0 + s1) + 0.5 * (s1 - s0) * x) ** (1.0 / q), w, 0.5 * (s1 - s0) / q


@pytest.mark.parametrize("exact", ["own", "replaced"])
def test_series_source_is_one_folded_evaluation(monkeypatch, exact):
    # a solve evaluates the series source once per block of _BLOCK steps,
    # also after dataclasses.replace of exact: one Mittag-Leffler call on
    # the 8 Gauss times of every step of the block, each step's modes cut at
    # its own truncation, and the 8 times fold into the two weight rows w
    # and w sin t of that step
    calls = {"mittag_leffler": [], "_choose_mk": [], "_mode_sum": []}

    def counted(name, fn):
        def wrap(*args):
            calls[name].append(args)
            out = fn(*args)
            calls[name][-1] += (out,)
            return out
        return wrap

    for name in calls:
        monkeypatch.setattr(problems, name, counted(name, getattr(problems, name)))
    prob = example1(0.7)
    if exact == "replaced":
        prob = replace(prob, exact=lambda x, t, own=prob.exact: own(x, t))
    N = 64
    solve(prob, SolverConfig(alpha=0.7, mesh=build_mesh(1.0, N, 1.6), spatial=uniform_mesh(0.0, 1.0, 200)))
    assert len(calls["mittag_leffler"]) == len(calls["_choose_mk"]) == N // _BLOCK == 2
    for ml, choice in zip(calls["mittag_leffler"], calls["_choose_mk"]):
        M, kept = choice[-1]
        assert M.shape == (_BLOCK,)
        assert ml[2].size == 8 * (M + 1).sum()
        assert kept[1:].any()  # the corrections fold too
    # only the first step's modes run past the grid's sine rows: its two
    # folded rows and its correction rows take the one mode sum there is
    M, kept = calls["_choose_mk"][0][-1]
    assert M[0] > problems._ROW_CAP and (M[1:] < problems._ROW_CAP).all()
    assert [w.shape for _, w, _ in calls["_mode_sum"]] == [(2 + kept[0].sum(), M[0] + 1)]


@pytest.mark.parametrize("make, alpha, gamma", [(example1, 0.7, 1.6), (example2, 0.4, 5.0)])
@pytest.mark.parametrize("n", [1, 2, 60])
def test_series_source_fold_matches_folding_the_time_rows(monkeypatch, make, alpha, gamma, n):
    # the folded load against the load of the 8 time rows of flux_regular
    # folded afterwards; at n = 1 (and n = 2 for ex2) the mode sums run past
    # the grid's sine rows into the lattice FFT
    prob = make(alpha)
    space = uniform_mesh(0.0, 1.0, 2000)
    interval = tuple(build_mesh(1.0, 64, gamma).nodes[n - 1:n + 1])
    tvals, w, scale = _gauss_times(interval, prob.rho + 1.0)
    g = np.tensordot(w, prob.flux_regular(space.load_x, tvals), axes=(0, 0))
    want = load_from_values(space, None, g[:-2], g[-2:]) * scale
    truncations = []
    choose = problems._choose_mk

    def recorded(*args):
        truncations.append(choose(*args))
        return truncations[-1]

    monkeypatch.setattr(problems, "_choose_mk", recorded)
    got = assemble_source(prob, space, interval)
    assert (truncations[0][0] > problems._ROW_CAP) == (n == 1 or (n == 2 and make is example2))
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-11 * np.abs(want).max())


def test_replaced_flux_is_assembled_from_the_replacement():
    prob = example1(0.7)
    space = uniform_mesh(0.0, 1.0, 200)
    interval = (0.1, 0.2)
    # a wrapper built with functools.wraps shares the series flux's
    # attributes, but its values are its own
    doubled = functools.wraps(prob.flux_regular)(lambda x, t: 2.0 * prob.flux_regular(x, t))
    got = assemble_source(replace(prob, flux_regular=doubled), space, interval)
    want = 2.0 * assemble_source(prob, space, interval)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-11 * np.abs(want).max())
    # a flux unrelated to the series: int t**(alpha-1) dt times the load of g'
    cubic = lambda x: 1.0 + 2.0 * x - 3.0 * x ** 2 + 0.5 * x ** 3
    plain = lambda x, t: np.outer(np.ones_like(t), cubic(x))
    got = assemble_source(replace(prob, flux_regular=plain), space, interval)
    want = (0.2 ** 0.7 - 0.1 ** 0.7) / 0.7 * load_vector(lambda x: 2.0 - 6.0 * x + 1.5 * x ** 2, space)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.abs(want).max())


def test_nonfinite_state_names_step():
    # the source turns NaN inside the fifth interval (0.5, 0.625]
    prob = make_problem(f=lambda x, t: np.full(np.shape(x), np.nan if t > 0.5 else 1.0))
    config = SolverConfig(alpha=0.6, mesh=build_mesh(1.0, 8, 1.0),
                          spatial=uniform_mesh(0.0, 1.0, 8))
    state = SolverState(prob, config)
    for _ in range(4):
        step(state)
    assert np.isfinite(state.U_dof).all()
    with pytest.raises(FloatingPointError, match=r"n = 5, t_n = 0\.625"):
        step(state)
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


# first block, its edges, partial later blocks, and the same for panels
_BLOCK_NS = sorted({1, 15, 16, 17, 50, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 5,
                    _PANEL - 1, _PANEL, _PANEL + 1, 2 * _PANEL + 5})


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
    # the state is built once: K and the diffusion floor from one kappa
    # sample on gauss2, and the weights; each step evaluates the drift once
    # and takes one weight row, over three panels.  A whole solve adds
    # nothing: the step-size check reads the state's kappa floor and the
    # steps' own drift samples
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
    N = 2 * _PANEL + 5
    config = SolverConfig(alpha=0.6, mesh=build_mesh(1.0, N, 2.0),
                          spatial=uniform_mesh(0.0, 1.0, 20))
    state = SolverState(prob, config)
    at_init = dict(calls)
    for _ in range(N):
        state = step(state)
    assert at_init == {"assemble_G": 1, "kappa": 1, "drift": 1}
    assert calls == {"assemble_G": 1, "kappa": 1, "drift": N + 1, "row": N}
    assert state.n == N
    calls.clear()
    solve(prob, config)
    assert calls == {"assemble_G": 1, "kappa": 1, "drift": N + 1, "row": N}


@pytest.mark.parametrize("make, alpha, gamma", [(example1, 0.7, 1.6), (example2, 0.4, 5.0)])
def test_solve_matches_per_interval_loads(make, alpha, gamma):
    # the loads of a block of steps come from one series evaluation; the
    # direct solve assembles each step's load on its own
    prob = make(alpha)
    config = SolverConfig(alpha=alpha, mesh=build_mesh(1.0, 2 * _BLOCK + 5, gamma),
                          spatial=uniform_mesh(0.0, 1.0, 200))
    got = solve(prob, config).values
    want = direct_l1_solve(prob, config)
    assert np.abs(got - want).max() <= 1e-11 * np.abs(want).max()


def test_most_ex2_mittag_leffler_points_skip_the_hankel_integral(monkeypatch):
    # the source of an ex2 solve evaluates most of its Mittag-Leffler
    # points above the switch, where the truncated sum alone is the value:
    # at most a quarter of them may reach the integral (9% do)
    points = Counter()

    def counted(owner, name, key):
        fn = getattr(owner, name)

        def wrapper(mu, beta, x):
            points[key] += np.size(x)
            return fn(mu, beta, x)
        monkeypatch.setattr(owner, name, wrapper)

    counted(problems, "mittag_leffler", "all")
    counted(kernels, "_hankel_integral", "integral")
    solve(example2(0.4), SolverConfig(alpha=0.4, mesh=build_mesh(1.0, 64, 5.0),
                                      spatial=uniform_mesh(0.0, 1.0, 200)))
    assert points["all"] > 0
    assert points["integral"] <= 0.25 * points["all"], points


def test_sourceless_solve_makes_no_series_evaluation(monkeypatch):
    # a series problem without its source: no load is assembled and the
    # series is never evaluated, at any block
    calls = Counter()

    def counted(owner, name):
        fn = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    counted(stepper, "assemble_source")
    counted(problems, "mittag_leffler")
    prob = replace(example1(0.7), flux_regular=None)
    config = SolverConfig(alpha=0.7, mesh=build_mesh(1.0, 2 * _BLOCK + 5, 1.6),
                          spatial=uniform_mesh(0.0, 1.0, 50))
    state = SolverState(prob, config)
    for _ in range(config.mesh.N):
        step(state)
        assert state._loads is None
    assert calls == {}


def test_state_problem_and_config_are_read_only():
    # W, the weights, K and the loads derive from them when the state is built
    prob = example1(0.7)
    config = SolverConfig(alpha=0.7, mesh=build_mesh(1.0, 16, 2.0), spatial=uniform_mesh(0.0, 1.0, 20))
    state = SolverState(prob, config)
    with pytest.raises(AttributeError, match="config"):
        state.config = replace(config, mesh=build_mesh(1.0, 16, 1.0))
    with pytest.raises(AttributeError, match="problem"):
        state.problem = example2(0.7)
    assert state.problem is prob and state.config is config
    for _ in range(16):
        step(state)
    np.testing.assert_array_equal(state.U_dof, solve(prob, config).values[-1, 1:-1])


def test_ritz_solve_samples_kappa_once_on_gauss2():
    # the state samples kappa once on gauss2 for K and the diffusion floor,
    # and the ritz projection reuses that K; it samples kappa only on the
    # load points, for its right-hand side
    sizes = []

    def kappa(x):
        sizes.append(np.size(x))
        return np.ones_like(x)

    prob = replace(example1(0.7), kappa=kappa)
    assert prob.default_projection == "ritz"
    M = 50
    solve(prob, SolverConfig(alpha=0.7, mesh=build_mesh(1.0, 4, 2.0),
                             spatial=uniform_mesh(0.0, 1.0, M)))
    assert sizes == [2 * M, 4 * M]


def test_state_is_built_from_problem_and_config_alone():
    assert [f.name for f in fields(SolverState) if f.init] == ["problem", "config"]
    assert list(inspect.signature(step).parameters) == ["state"]


@pytest.mark.parametrize("bc", [BcMode.DIRICHLET, BcMode.ZERO_FLUX])
def test_stepping_by_hand_equals_solve(bc):
    prob = make_problem(bc=bc, drift=lambda x, t: np.sin(t) - x,
                        u0=lambda x: 1.0 + x * (1.0 - x),
                        f=lambda x, t: np.cos(3.0 * t) * np.exp(-np.asarray(x)))
    N = _BLOCK + 5
    config = SolverConfig(alpha=0.6, mesh=build_mesh(1.0, N, 2.5),
                          spatial=uniform_mesh(0.0, 1.0, 24))
    want = solve(prob, config).values
    state = SolverState(prob, config)
    np.testing.assert_array_equal(state.W[0], want[0])
    for n in range(1, N + 1):
        step(state)
        np.testing.assert_array_equal(state.U_dof, want[n, dof_slice(bc)])


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
        lo, hi = (mid, hi) if step_condition_failure(tmesh, alpha, mid, kmin) is None else (lo, mid)
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
    assert warned == (step_condition_failure(tmesh, alpha, c0, kmin) is not None)
    assert warned == (bound == "high")
    if bound == "between":
        assert step_condition_failure(tmesh, alpha, s, kmin) is not None


def test_step_size_warning_names_the_first_failing_step():
    # with a constant drift c0 = 0.5 and kappa = 1 on a uniform mesh, the
    # left-hand side 8 w(t_n) w(tau) (2 c0^2 + 1)^2 grows with n and first
    # passes 1 partway; the warning names that step, its t_n and the largest
    # left-hand side, at t_N
    alpha, tmesh = 0.6, build_mesh(1.0, 64, 1.0)
    w = lambda t: t ** alpha / math.gamma(1.0 + alpha)
    lhs = [8.0 * w(tn) * w(1.0 / 64) * 1.5 ** 2 for tn in tmesh.nodes[1:]]
    n = 1 + next(i for i, v in enumerate(lhs) if v > 1.0)
    assert 1 < n < 64 and lhs[-1] == max(lhs)
    prob = make_problem(alpha=alpha, drift=lambda x, t: np.full_like(x, 0.5),
                        u0=lambda x: x * (1.0 - x))
    config = SolverConfig(alpha=alpha, mesh=tmesh, spatial=uniform_mesh(0.0, 1.0, 8))
    message = (f"time mesh violates the sufficient step-size condition first at step "
               f"n = {n}, t_n = {tmesh.nodes[n]:.6g} (largest left-hand side "
               f"{lhs[-1]:.6g} > 1)")
    with pytest.warns(UserWarning, match=re.escape(message)):
        solve(prob, config)


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


def test_solver_config_compares_and_hashes_by_its_meshes():
    config = SolverConfig(alpha=0.5, mesh=build_mesh(1.0, 8, 2.0), spatial=uniform_mesh(0.0, 1.0, 10))
    same = SolverConfig(alpha=0.5, mesh=build_mesh(1.0, 8, 2.0), spatial=uniform_mesh(0.0, 1.0, 10))
    finer = replace(config, mesh=replace(config.mesh, N=16))
    assert config == same and hash(config) == hash(same) and finer != config
    assert len({config, same, finer}) == 2


def test_replaced_step_count_solves():
    # the replaced mesh's nodes and steps follow N, so every step exists
    prob = example1(0.7)
    mesh = replace(build_mesh(1, 8, 2), N=16)
    traj = solve(prob, SolverConfig(alpha=0.7, mesh=mesh, spatial=uniform_mesh(0.0, 1.0, 20)))
    assert mesh.nodes.size == 17 and traj.values.shape == (17, 21)
    assert np.isfinite(traj.values).all()


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
    state = SolverState(prob, config)
    # l2 projection of a quadratic differs from its nodal samples
    assert np.abs(state.W[0] - prob.u0(space.nodes)).max() > 1e-6
    assert state.n == 0

    bad_space = uniform_mesh(0.0, 2.0, 16)
    with pytest.raises(ValueError):
        SolverState(prob, SolverConfig(alpha=0.5, mesh=build_mesh(1.0, 4, 1.0),
                                      spatial=bad_space))


def test_step_past_end_raises():
    prob = make_problem(alpha=0.5)
    config = SolverConfig(alpha=0.5, mesh=build_mesh(1.0, 2, 1.0),
                          spatial=uniform_mesh(0.0, 1.0, 8))
    state = SolverState(prob, config)
    step(state)
    step(state)
    with pytest.raises(IndexError):
        step(state)


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
        SolverState(prob, config)
    with pytest.raises(ValueError, match="alpha"):
        solve(prob, config)


def test_domain_ends_must_match():
    # 9e-6 past the end of [0, 1]: well outside roundoff, so it is rejected
    config = SolverConfig(alpha=0.7, mesh=build_mesh(1.0, 4, 1.0),
                          spatial=uniform_mesh(0.0, 1.000009, 16))
    with pytest.raises(ValueError, match="does not cover"):
        SolverState(example1(0.7), config)
    near = SolverConfig(alpha=0.7, mesh=build_mesh(1.0, 4, 1.0),
                        spatial=uniform_mesh(0.0, 1.0 + 1e-15, 16))
    assert SolverState(example1(0.7), near).n == 0


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
    {"rho": math.inf, "f": lambda x, t: np.ones_like(x)},
    {"rho": math.nan, "f": lambda x, t: np.ones_like(x)},
    {"rho": math.inf},
    {"rho": math.nan},
], ids=["bc-string", "alpha-zero", "alpha-above-one", "T-zero", "T-infinite", "domain-empty",
        "domain-reversed", "domain-end-infinite", "domain-start-infinite", "projection",
        "f-and-f_regular", "rho-infinite", "rho-nan", "rho-infinite-sourceless",
        "rho-nan-sourceless"])
def test_problem_rejects_inconsistent_inputs_when_built(bad):
    with pytest.raises((TypeError, ValueError)):
        make_problem(**bad)


def test_source_rejects_reversed_interval():
    # a sourceless problem checks the interval too, before returning zeros
    for prob in (make_problem(f=lambda x, t: np.ones_like(x)), make_problem()):
        with pytest.raises(ValueError, match="bad time interval"):
            assemble_source(prob, uniform_mesh(0.0, 1.0, 8), (0.3, 0.2))


def test_alpha_validation():
    with pytest.raises(ValueError):
        SolverConfig(alpha=1.5, mesh=build_mesh(1.0, 4, 1.0),
                     spatial=uniform_mesh(0.0, 1.0, 8))
