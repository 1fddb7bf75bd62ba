import dataclasses
import functools
import math
import tracemalloc

import numpy as np
import pytest
from numpy.polynomial import Polynomial
from scipy import integrate

from fracfp import problems
from fracfp import (
    TruncationError,
    build_mesh,
    example1,
    example2,
    mittag_leffler,
    run_study,
    uniform_mesh,
)

from oracles import (
    choose_mk_oracle,
    frac_integral_oracle,
    lattice_sum_oracle,
    series_u_oracle,
    structured_eval_per_term,
)


@pytest.fixture
def tight(monkeypatch):
    """A series cutoff 100x tighter than the default, for oracle comparisons."""
    monkeypatch.setattr(problems, "_TAIL_TOL", 1e-11)
    monkeypatch.setattr(problems, "_M_MAX", 2_000_000)


# ------------------------------------------------------------- basic values

def test_initial_values_closed_form():
    x = np.array([0.0, 0.25, 0.5, 0.8, 1.0])
    p1 = example1(0.7)
    np.testing.assert_allclose(p1.exact(x, 0.0), x * (1 - x), atol=1e-15)
    p2 = example2(0.6)
    np.testing.assert_allclose(p2.exact(x, 0.0), np.minimum(x, 1 - x), atol=1e-15)
    assert p1.exact(np.array([0.5]), 0.0)[0] == pytest.approx(0.25, abs=1e-15)
    assert p2.exact(np.array([0.5]), 0.0)[0] == pytest.approx(0.5, abs=1e-15)


def test_boundary_values_vanish():
    x = np.array([0.0, 1.0])
    for prob in (example1(0.4), example2(0.8)):
        for t in (1e-8, 1e-3, 0.5, 1.0):
            assert np.abs(prob.exact(x, t)).max() < 1e-10


def test_exact_against_direct_sum_oracle():
    p1 = example1(0.7)
    got = p1.exact(np.array([0.5]), 0.5)[0]
    want = series_u_oracle(8.0, 3, False, 0.5, 0.5, 0.7)
    assert got == pytest.approx(want, abs=1e-9)

    p2 = example2(0.4)
    got2 = p2.exact(np.array([0.25]), 1.0)[0]
    want2 = series_u_oracle(4.0, 2, True, 0.25, 1.0, 0.4)
    assert got2 == pytest.approx(want2, abs=1e-9)


def test_u0_helpers():
    p1, p2 = example1(0.5), example2(0.5)
    x = np.linspace(0.0, 1.0, 9)
    np.testing.assert_allclose(p1.u0(x), x * (1 - x), atol=1e-15)
    np.testing.assert_allclose(p1.u0_prime(x), 1.0 - 2.0 * x, atol=1e-15)
    np.testing.assert_allclose(p2.u0(x), np.minimum(x, 1 - x), atol=1e-15)
    assert p2.u0_prime(np.array([0.2]))[0] == 1.0
    assert p2.u0_prime(np.array([0.8]))[0] == -1.0


@pytest.mark.parametrize("make", [example1, example2])
def test_initial_data_and_exact_take_0d_and_empty_inputs(make):
    # a 0-d input gives a float, bit for bit the one-element array's entry,
    # and an empty array gives an empty array of its shape
    prob = make(0.6)
    fns = [prob.u0, prob.u0_prime] + [functools.partial(prob.exact, t=t) for t in (0.0, 1e-6, 0.4)] \
        + [functools.partial(prob.exact, 0.3)]
    for fn in fns:
        for v in (0.0, 0.3, 0.5, 0.8):
            got, one = fn(v), fn(np.array([v]))
            assert isinstance(got, float)
            assert one.shape == (1,) and np.float64(got).tobytes() == one.tobytes()
        for shape in [(0,), (2, 0)]:
            assert fn(np.empty(shape)).shape == shape
    x = np.linspace(0.0, 1.0, 5)
    assert prob.exact(x, np.empty(0)).shape == (0, x.size)


def test_symmetry_of_solutions():
    # every retained mode is an odd harmonic, so u is symmetric about 1/2
    x = np.linspace(0.05, 0.45, 9)
    for prob in (example1(0.6), example2(0.7)):
        left = prob.exact(x, 0.3)
        right = prob.exact(np.ascontiguousarray(1.0 - x), 0.3)
        np.testing.assert_allclose(left, right, atol=1e-11)


# ----------------------------------------------------------- source algebra

def test_flux_is_drift_times_v_series():
    # the source is t**(alpha-1) d/dx[(sin t - x) V] with V the E_{alpha,alpha}
    # companion series; it is given in flux form only
    alpha = 0.55
    prob = example1(alpha)
    assert prob.f is None and prob.f_regular is None
    assert prob.rho == alpha - 1.0
    for x, t in [(0.3, 0.37), (0.5, 1.0), (0.85, 0.05)]:
        v = series_u_oracle(8.0, 3, False, x, t, alpha, beta=alpha)
        got = prob.flux_regular(np.array([x]), t)[0]
        assert got == pytest.approx((math.sin(t) - x) * v, abs=1e-10)


def test_flux_rejects_negative_time():
    prob = example2(0.5)
    x = np.array([0.2, 0.5])
    with pytest.raises(ValueError):
        prob.flux_regular(x, -0.1)
    # the flux cofactor is regular at t = 0: V(x, 0) = u0(x) / Gamma(alpha)
    np.testing.assert_allclose(prob.flux_regular(x, 0.0), -x * prob.u0(x) / math.gamma(0.5),
                               rtol=1e-14)


@pytest.mark.parametrize("t", [np.array([np.nan]), np.array([np.inf]), np.array([0.3, np.nan]),
                               math.inf])
@pytest.mark.parametrize("fn", ["exact", "flux_regular"])
def test_series_rejects_non_finite_time(fn, t):
    # NaN fails t < 0 too, and would otherwise be served as t = 0
    with pytest.raises(ValueError, match="finite"):
        getattr(example1(0.7), fn)(np.array([0.2, 0.5]), t)


def test_batched_time_matches_scalar_calls():
    # the batch picks one truncation for all times, so agreement is at the
    # tail-tolerance level, not machine precision
    prob = example1(0.45)
    x = np.linspace(0.0, 1.0, 11)
    ts = np.array([1e-6, 1e-3, 0.2, 0.9])
    batch = prob.flux_regular(x, ts)
    assert batch.shape == (4, 11)
    for i, t in enumerate(ts):
        np.testing.assert_allclose(batch[i], prob.flux_regular(x, float(t)), atol=3e-9)


def test_flux_vanishes_at_ends():
    # no boundary term enters the load vector of the built-in sources
    x = np.array([0.0, 1.0])
    for prob in (example1(0.4), example2(0.8)):
        vals = prob.flux_regular(x, np.array([0.0, 1e-12, 1e-3, 0.5, 1.0]))
        assert np.abs(vals).max() < 1e-10


# ------------------------------------------------- the equation really holds

def _weak_residual(prob, t, phi, dphi, ddphi):
    """Time-integrated weak form of the equation against a test function.

    With P = I^alpha u and F(x,s) = sin(s) - x, integrating the equation
    over (0, t], testing with phi (phi(0) = phi(1) = 0) and moving all x
    derivatives onto phi gives

      <u(t) - u0, phi> = <P(t), phi''> + <F(.,t) P(t), phi'>
                         - int_0^t cos(s) <P(s), phi'> ds
                         - int_0^t s^(alpha-1) <g(s), phi'> ds,

    where f = t^(alpha-1) d/dx g is the source in flux form.

    Every P-moment collapses to one scalar quadrature over the series by
    Fubini, so this needs nothing but adaptive QUADPACK plus the exact
    series; no solver code is involved.  Returns lhs minus rhs.
    """
    alpha = prob.alpha
    gx, gw = np.polynomial.legendre.leggauss(40)
    # split at 1/2 so the hat problem's kink sits on a panel edge
    xg = np.concatenate([0.25 * (1.0 + gx), 0.5 + 0.25 * (1.0 + gx)])
    wg = np.concatenate([0.25 * gw, 0.25 * gw])
    phv, dphv, ddphv = phi(xg), dphi(xg), ddphi(xg)
    Fv = np.sin(t) - xg

    def moment(weights, s):
        return float(wg * weights @ prob.exact(xg, float(s)))

    rga = 1.0 / math.gamma(alpha)

    lhs = float(wg * (prob.exact(xg, t) - prob.u0(xg)) @ phv)

    # <P(t), w> = 1/Gamma(a) int_0^t (t-s)^(a-1) <u(s), w> ds
    diff_term = rga * integrate.quad(
        lambda s: moment(ddphv, s), 0.0, t,
        weight="alg", wvar=(0.0, alpha - 1.0), epsabs=1e-11, epsrel=1e-11, limit=200)[0]

    drift_now = rga * integrate.quad(
        lambda s: moment(Fv * dphv, s), 0.0, t,
        weight="alg", wvar=(0.0, alpha - 1.0), epsabs=1e-11, epsrel=1e-11, limit=200)[0]

    def kern_tail(s):
        # J(s) = int_s^t cos(sig) (sig - s)^(a-1) dsig
        return integrate.quad(np.cos, s, t, weight="alg", wvar=(alpha - 1.0, 0.0),
                              epsabs=1e-12, epsrel=1e-12)[0]

    drift_hist = rga * integrate.quad(
        lambda s: moment(dphv, s) * kern_tail(s), 0.0, t,
        epsabs=1e-11, epsrel=1e-11, limit=200)[0]

    source = -integrate.quad(
        lambda s: float(wg * dphv @ prob.flux_regular(xg, float(s))), 0.0, t,
        weight="alg", wvar=(alpha - 1.0, 0.0), epsabs=1e-11, epsrel=1e-11, limit=200)[0]

    return lhs - (diff_term + drift_now - drift_hist + source)


@pytest.mark.parametrize("factory,alpha,t", [
    (example1, 0.7, 0.6),
    (example1, 0.4, 0.35),
    (example2, 0.5, 0.8),
    (example2, 0.75, 0.3),
])
def test_pde_residual_vanishes(factory, alpha, t, tight):
    prob = factory(alpha)
    checks = [
        (lambda x: np.sin(3 * np.pi * x),
         lambda x: 3 * np.pi * np.cos(3 * np.pi * x),
         lambda x: -9 * np.pi ** 2 * np.sin(3 * np.pi * x)),
        (lambda x: x * (1 - x) * np.exp(x),
         lambda x: np.exp(x) * (1 - x - x ** 2),
         lambda x: -np.exp(x) * x * (3 + x)),
    ]
    for phi, dphi, ddphi in checks:
        res = _weak_residual(prob, t, phi, dphi, ddphi)
        assert abs(res) < 1e-6, res


def test_single_mode_volterra_equation():
    # each mode amplitude solves y = 1 - lam^2 I^alpha y, the defining
    # Volterra equation; verify it by independent quadrature
    alpha, lam, t = 0.6, 3.0 * math.pi, 0.7

    def y(s):
        return mittag_leffler(alpha, 1.0, -(lam * lam) * float(s) ** alpha)

    integral = frac_integral_oracle(alpha, y, t)
    want = 1.0 - y(t)
    assert lam * lam * integral == pytest.approx(want, rel=1e-10)


# ------------------------------------------------ reference and cache checks

def test_structured_eval_matches_oracle(tight):
    prob = example1(0.8)
    x = np.array([0.3, 0.5, 0.9])
    want = [series_u_oracle(8.0, 3, False, xi, 1.0, 0.8) for xi in x]
    np.testing.assert_allclose(prob.exact(x, 1.0), want, atol=2e-9)


def test_exact_after_in_place_edit():
    prob = example1(0.7)
    x = np.linspace(0.0, 1.0, 11)
    prob.exact(x, 0.3)
    x[:] = np.linspace(0.05, 0.95, 11)
    np.testing.assert_array_equal(prob.exact(x, 0.3), example1(0.7).exact(x.copy(), 0.3))


@pytest.mark.parametrize("make", [example1, example2])
def test_exact_takes_an_array_of_times(make):
    # the time contract of f_regular/flux_regular: t.shape + x.shape out;
    # each row is within the tail bound of its own scalar call
    prob = make(0.6)
    x = np.linspace(0.0, 1.0, 11)
    ts = np.array([0.0, 1e-6, 0.05, 0.4, 1.0])
    got = prob.exact(x, ts)
    assert got.shape == (ts.size, x.size)
    for t, row in zip(ts, got):
        np.testing.assert_allclose(row, prob.exact(x, float(t)), rtol=0, atol=2.0 * problems._TAIL_TOL)


def test_flux_after_in_place_edit():
    prob = example2(0.6)
    x = np.linspace(0.0, 1.0, 11)
    ts = np.array([1e-3, 0.4])
    prob.flux_regular(x, ts)
    x[:] = np.linspace(0.05, 0.95, 11)
    np.testing.assert_array_equal(prob.flux_regular(x, ts),
                                  example2(0.6).flux_regular(x.copy(), ts))


def test_returned_exact_cannot_change_later_calls():
    prob = example1(0.7)
    x = np.linspace(0.0, 1.0, 11)
    first = prob.exact(x, 0.3)
    want = first.copy()
    try:
        first[:] = 0.0
    except ValueError:
        pass  # read-only
    np.testing.assert_array_equal(prob.exact(x, 0.3), want)


def test_one_mode_sum_per_evaluation(monkeypatch):
    # rows within the grid's sine rows take one product with those rows;
    # the rows past them, time rows and correction rows alike, share a
    # single mode sum
    calls = []
    inner = problems._mode_sum

    def counted(grid, weights):
        calls.append(weights.shape)
        return inner(grid, weights)

    monkeypatch.setattr(problems, "_mode_sum", counted)
    prob = example1(0.45)
    x = np.linspace(0.0, 1.0, 11)
    prob.flux_regular(x, np.array([1e-3, 0.2, 0.9]))
    assert calls == []
    ts = np.array([1e-10, 1e-3, 0.2, 0.9])
    prob.exact(x, ts)
    M, kept = problems._choose_mk(prob.flux_regular.series, 1.0, ts)
    assert M[0] > problems._ROW_CAP and (M[1:] < problems._ROW_CAP).all()
    # the first time's row, then its correction rows
    assert calls == [(1 + kept[0].sum(), M[0] + 1)]


def test_streamed_modes_match_direct_sum():
    # modes past the grid's sine rows are built block by block, more than
    # one here; the points are off any lattice, so the FFT route does not apply
    x = np.linspace(0.0, 1.0, 512) ** 1.5
    grid = problems._find_grid([], x, _series("ex1", 0.7))
    assert grid.lattice is None
    count = problems._ROW_CAP + 2 * (problems._MODE_BUF // x.size) + 5
    weights = np.random.default_rng(1).standard_normal((2, count))
    lam = (2.0 * np.arange(count) + 1.0) * math.pi
    np.testing.assert_allclose(problems._mode_sum(grid, weights),
                               weights @ np.sin(np.outer(lam, x)), rtol=1e-12, atol=1e-12)
    # the grid keeps the rows it was built with
    assert grid.sin.shape == (problems._ROW_CAP, x.size)


def test_streamed_block_is_bounded():
    # 3000 modes on the 8002-point flux grid: a block of 1024 modes would be
    # 65 MB, so the block is capped by entries instead
    grid = problems._find_grid([], np.linspace(0.0, 1.0, 8002), _series("ex2", 0.4))
    weights = np.random.default_rng(2).standard_normal((12, 3000))
    tracemalloc.start()
    try:
        problems._mode_sum(grid, weights)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32e6, peak


def test_streamed_block_is_bounded_off_lattice():
    # the same sum on points with no lattice takes the streamed block
    x = np.linspace(0.0, 1.0, 8002) ** 1.5
    grid = problems._find_grid([], x, _series("ex2", 0.4))
    assert grid.lattice is None
    weights = np.random.default_rng(2).standard_normal((12, 3000))
    tracemalloc.start()
    try:
        problems._mode_sum(grid, weights)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32e6, peak


def _solver_grids(elements):
    """The flux grid and the nodal grid the solver hands a series."""
    mesh = uniform_mesh(0.0, 1.0, elements)
    return mesh.load_x, mesh.nodes


@pytest.mark.parametrize("elements", [2, 7, 200, 2000, 4096])
def test_solver_grids_are_lattices(elements):
    flux, nodes = _solver_grids(elements)
    L, c, cls, jmod, _ = problems._lattice(flux)
    assert L == elements and c.size == 5 and cls.dtype == np.int8 and jmod.dtype == np.int32
    # the four Gauss offsets, and 0 for the two ends
    gauss = 0.5 + 0.5 * np.polynomial.legendre.leggauss(4)[0]
    np.testing.assert_allclose(np.sort(c), np.append(0.0, gauss), atol=1e-12)
    L, c, _, _, _ = problems._lattice(nodes)
    assert L == elements and c.size == 1


@pytest.mark.parametrize("x", [np.sort(np.random.default_rng(3).uniform(0.0, 1.0, 200)),
                               np.linspace(0.0, 1.0, 512) ** 1.5,
                               np.array([0.5]),
                               np.array([0.0, 0.5, np.nan])])
def test_other_points_have_no_lattice(x):
    assert problems._lattice(x) is None


@pytest.mark.parametrize("kind, elements", [(kind, elements) for kind in ("flux", "nodes")
                                             for elements in (2, 7, 400, 2000)] + [("wide", 100)])
def test_lattice_modes_match_exact_phase_oracle(kind, elements):
    # the FFT route alone (head weights zero), from one mode past the sine
    # rows to past 2L + 1 modes, where the fold wraps at least twice
    if kind == "wide":
        x = np.linspace(-1.0, 2.0, 301)  # lattice points outside [0, 1]
    else:
        x = _solver_grids(elements)[kind == "nodes"]
    grid = problems._find_grid([], x, _series("ex1", 0.7))
    lattice = problems._lattice(x)
    L = lattice[0]
    assert L == elements
    pts = np.unique(np.linspace(0, x.size - 1, 120).astype(int))
    rng = np.random.default_rng(elements)
    for count in sorted({problems._ROW_CAP + 1, 2 * L + 3, max(2 * L, problems._ROW_CAP) + 300}):
        weights = np.vstack([np.ones(count), rng.standard_normal(count)])
        weights[:, :problems._ROW_CAP] = 0.0
        want = lattice_sum_oracle(lattice, x, weights, pts)
        np.testing.assert_allclose(problems._mode_sum(grid, weights)[:, pts], want, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("elements", [2, 7])
def test_lattice_modes_over_thousands_of_folds(elements):
    # 20000 modes fold about 10000 times when L = 2: the twiddle's turns
    # q c must be reduced mod 1 exactly (rounded, they cost about 3e-10 here)
    x = _solver_grids(elements)[0]
    grid = problems._find_grid([], x, _series("ex1", 0.7))
    weights = np.vstack([np.ones(20000), np.random.default_rng(4).standard_normal(20000)])
    weights[:, :problems._ROW_CAP] = 0.0
    want = lattice_sum_oracle(problems._lattice(x), x, weights, np.arange(x.size))
    np.testing.assert_allclose(problems._mode_sum(grid, weights), want, rtol=1e-12, atol=1e-12)


def _series(name, alpha):
    """The SineSeries of example1 / example2 at alpha."""
    if name == "ex1":
        return problems.SineSeries(8.0, 3, False, Polynomial([0.0, 1.0, -1.0]), alpha)
    return problems.SineSeries(4.0, 2, True, Polynomial([0.0, 1.0]), alpha)


_SWEEP_ALPHAS = (0.4, 0.6, 0.7, 0.9)
_SWEEP_TIMES = np.logspace(-10, 0, 21)


@pytest.mark.parametrize("name", ["ex1", "ex2"])
def test_corrections_match_per_term_oracle(name):
    # the corrections go in as one (rows x pairs) product; adding them one
    # outer product at a time gives the same values to rounding, for one
    # row of all the times (an identity fold, one truncation) and for one
    # row per time (each its own truncation)
    x = np.linspace(0.0, 1.0, 201)
    n = _SWEEP_TIMES.size
    for alpha in _SWEEP_ALPHAS:
        for kind in "uv":
            series = _series(name, alpha)
            grid = problems._find_grid([], x, series)
            got = problems._eval_rows(series, kind, grid, _SWEEP_TIMES[None, :], np.eye(n)[:, None, :])
            want = structured_eval_per_term(series, kind, grid, _SWEEP_TIMES)
            np.testing.assert_allclose(got[:, 0], want, rtol=0, atol=1e-15)
            got = problems._eval_rows(series, kind, grid, _SWEEP_TIMES[:, None], np.ones((1, n, 1)))
            for t, row in zip(_SWEEP_TIMES, got[0]):
                want = structured_eval_per_term(series, kind, grid, float(t))[0]
                np.testing.assert_allclose(row, want, rtol=0, atol=1e-15)


@pytest.fixture
def made_grids(monkeypatch):
    """Every _Grid a problem builds, in order."""
    made = []

    class Recorded(problems._Grid):
        __slots__ = ()

        def __init__(self, x, series):
            super().__init__(x, series)
            made.append(self)

    monkeypatch.setattr(problems, "_Grid", Recorded)
    return made


def test_grid_cache_drops_oldest_past_cap(made_grids):
    prob = example1(0.7)
    xs = [np.linspace(0.0, 1.0, 5 + k) for k in range(problems._GRID_CAP + 1)]
    want = example1(0.7).exact(xs[0], 0.3)
    made_grids.clear()
    for x in xs:
        prob.exact(x, 0.3)
    assert len(made_grids) == problems._GRID_CAP + 1
    # the first grid was dropped, so asking for it again builds it anew
    np.testing.assert_array_equal(prob.exact(xs[0], 0.3), want)
    assert len(made_grids) == problems._GRID_CAP + 2
    # the second grid was dropped to make room for it; the last one was kept
    prob.exact(xs[-1], 0.3)
    assert len(made_grids) == problems._GRID_CAP + 2


def test_grids_are_built_whole_once(monkeypatch, made_grids):
    # building a grid evaluates each P_k once and finds its lattice once;
    # the study's later calls, past the grid's sine rows too, do neither
    on, lattices, counts = [], [], []
    eval_P, lattice, mode_sum = problems.SineSeries.eval_P, problems._lattice, problems._mode_sum

    def counted_P(self, k, x):
        on.append((k, x))
        return eval_P(self, k, x)

    def counted_lattice(x):
        lattices.append(x)
        return lattice(x)

    def counted_mode_sum(grid, weights):
        counts.append(weights.shape[-1])
        return mode_sum(grid, weights)

    monkeypatch.setattr(problems.SineSeries, "eval_P", counted_P)
    monkeypatch.setattr(problems, "_lattice", counted_lattice)
    monkeypatch.setattr(problems, "_mode_sum", counted_mode_sum)
    report = run_study("ex2", [0.4], [5.0], [32], elements=200)
    assert report.ok
    assert max(counts) > problems._ROW_CAP
    assert len(made_grids) == 2  # the nodal grid and the flux grid
    for grid in made_grids:
        assert grid.lattice is not None
        assert [k for k, x in on if x is grid.flat] == list(range(problems._ORDER + 1))
        assert [x for x in lattices if x is grid.flat] == [grid.flat]
    assert len(lattices) == 2


@pytest.mark.parametrize("name", ["ex1", "ex2"])
def test_choose_mk_needs_no_gamma_after_build(monkeypatch, name):
    series = [_series(name, alpha) for alpha in _SWEEP_ALPHAS + (1.0,)]
    calls = []
    gamma, rgamma = math.gamma, problems.rgamma
    monkeypatch.setattr(math, "gamma", lambda z: calls.append(z) or gamma(z))
    monkeypatch.setattr(problems, "rgamma", lambda z: calls.append(z) or rgamma(z))
    for s in series:
        for beta in (1.0, s.alpha):
            for t in _SWEEP_TIMES:
                problems._choose_mk(s, beta, float(t))
    assert calls == []


@pytest.mark.parametrize("name, alphas, gammas, Ns", [
    ("ex1", [0.7], [1.0, 1.6, 2.3], [16, 32, 64, 128, 256]),
    ("ex2", [0.6], [3.3], [256]),
    ("ex2", [0.4], [5.0], [256]),
])
def test_choose_mk_rows_match_scalar_oracle(monkeypatch, name, alphas, gammas, Ns):
    # every row a study truncates, source steps and exact time levels
    # alike, gets the (M, terms) of a scalar choice at that row's time
    seen = []
    inner = problems._choose_mk

    def recorded(series, beta, t):
        M, kept = inner(series, beta, t)
        seen.extend((series, beta, ti, m, list(np.flatnonzero(k))) for ti, m, k in zip(t, M, kept))
        return M, kept

    monkeypatch.setattr(problems, "_choose_mk", recorded)
    report = run_study(name, alphas, gammas, Ns, elements=20)
    assert report.ok
    # a source row per step, at its smallest Gauss time (the rule's first
    # node in s = t**alpha), and an exact row per time level
    alpha = alphas[0]
    x0 = np.polynomial.legendre.leggauss(8)[0][0]
    gauss, levels = [], []
    for gamma in sorted(gammas):
        for N in sorted(Ns):
            s = build_mesh(1.0, N, gamma).nodes ** alpha
            gauss.append((0.5 * (s[:-1] + s[1:]) + 0.5 * (s[1:] - s[:-1]) * x0) ** (1.0 / alpha))
            levels.append(build_mesh(1.0, N, gamma).nodes[1:])
    for beta, want in ((alpha, gauss), (1.0, levels)):
        got = [t for _, b, t, _, _ in seen if b == beta]
        np.testing.assert_allclose(got, np.concatenate(want), rtol=1e-14, atol=0)
    assert len(seen) == 2 * len(gammas) * sum(Ns)
    for series, beta, t, M, terms in seen:
        assert (M, terms) == choose_mk_oracle(series, beta, float(t)), (series.alpha, beta, t)


@pytest.mark.parametrize("count", [problems._ROW_CAP + 1, 100, 256])
@pytest.mark.parametrize("kind", ["flux", "nodes"])
def test_mode_sums_past_the_rows_match_direct_product(kind, count):
    # head rows and FFT tail together, on both grids the solver builds; the
    # weights decay like ex2's coefficients, since the direct product's own
    # rounding grows like eps lam_m |w_m| (about 4e-12 at mode 256 for O(1)
    # weights)
    x = _solver_grids(200)[kind == "nodes"]
    grid = problems._find_grid([], x, _series("ex2", 0.6))
    lam = (2.0 * np.arange(count) + 1.0) * math.pi
    weights = np.random.default_rng(count).standard_normal((3, count)) * lam ** -2.0
    np.testing.assert_allclose(problems._mode_sum(grid, weights),
                               weights @ np.sin(np.outer(lam, x)), rtol=1e-12, atol=1e-12)


def test_truncation_error_raised(monkeypatch):
    monkeypatch.setattr(problems, "_M_MAX", 40)
    monkeypatch.setattr(problems, "_TAIL_TOL", 1e-14)
    monkeypatch.setattr(problems, "_ORDER", 0)
    prob = example1(0.5)
    with pytest.raises(TruncationError, match="modes"):
        prob.exact(np.array([0.5]), 1e-6)


def test_tiny_time_raises_truncation_error():
    # t**(-alpha (J+1)) overflows here; the choice must still end in a
    # TruncationError, not a bare OverflowError
    with pytest.raises(TruncationError, match="modes"):
        example1(0.9).exact(np.array([0.5]), 1e-60)


def test_validation():
    with pytest.raises(ValueError):
        example1(1.01)
    with pytest.raises(ValueError):
        example2(0.0)
    prob = example1(0.5)
    with pytest.raises(ValueError):
        prob.exact(np.array([0.5]), -0.5)


@pytest.mark.parametrize("make", [example1, example2])
def test_replaced_alpha_is_rejected(make):
    # exact and flux_regular keep the series of the alpha they were built for
    prob = make(0.7)
    with pytest.raises(ValueError, match=r"alpha = 0\.7, not alpha = 0\.5"):
        dataclasses.replace(prob, alpha=0.5)
    # a functools.wraps wrapper carries the stated alpha over, and a part
    # that states none is accepted
    wrapped = functools.wraps(prob.exact)(lambda x, t: prob.exact(x, t))
    assert dataclasses.replace(prob, exact=wrapped).exact.alpha == 0.7
    assert dataclasses.replace(prob, exact=lambda x, t: 0.0 * x).alpha == 0.7
