"""Manufactured test problems: Fourier-Mittag-Leffler series solutions with
matching singular sources.

Both built-in problems have exact solutions of the form

    u(x, t) = sum_m c_m sin(lam_m x) E_{alpha,1}(-lam_m^2 t^alpha),
    lam_m = (2m+1) pi,

with polynomially decaying c_m.  Their sources are exact x-derivatives,
f = t^(alpha-1) d/dx[(sin t - x) V(x, t)] with the companion series V (the
E_{alpha,alpha} analogue of u), so they are given in flux form,
ProblemSpec.flux_regular = (sin t - x) V: the load vector needs V only,
never the slower-converging V_x.  Series evaluation is the delicate part: a
fixed truncation cannot serve both t = O(1) and the t_1 ~ 1e-12 values of
strongly graded meshes, so the evaluator picks the truncation M and a tail
acceleration order K per call from analytic bounds (see _choose_mk).

Each problem owns its evaluation caches, shared by its exact and
flux_regular: per spatial grid, the sin(lam_m x) rows and the exact values
already computed, by time.  A grid is found by value (shape and contents,
against a private copy of its points), not by array identity, so editing an
array in place never returns stale values; exact values come back
read-only.  A problem keeps at most 8 grids and 4096 exact values per grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from numpy.polynomial import Polynomial
from scipy.special import rgamma

from .fem1d import BcMode
from .kernels import mittag_leffler

__all__ = [
    "TruncationError",
    "SeriesTruncation",
    "SineSeries",
    "ProblemSpec",
    "example1",
    "example2",
]


class TruncationError(Exception):
    """The tail bound could not be met within the term cap."""


@dataclass(frozen=True)
class SeriesTruncation:
    """Adaptive cutoff policy for the series evaluators.

    m_max caps the number of retained modes, tail_tol is the absolute bound
    every evaluation enforces on everything dropped, and order is the largest
    tail-acceleration order the structured evaluator may use.
    """

    m_max: int = 1_000_000
    tail_tol: float = 1.0e-9
    order: int = 6


# ---------------------------------------------------------------------------
# sine mode sums on cached grids
# ---------------------------------------------------------------------------

_ROW_CAP = 256
_CHUNK = 1024
_GRID_CAP = 8  # grids one problem keeps, oldest dropped first
_MEMO_CAP = 4096  # exact values one grid keeps before it starts over


class _Grid:
    """One spatial grid of a series problem: a private copy of its points,
    their sin(lam_m x) rows (the lam grid is universal) and the exact values
    already computed on it, by time."""

    __slots__ = ("x", "flat", "sin", "exact")

    def __init__(self, x: np.ndarray):
        self.x = x
        self.flat = x.ravel()
        self.sin = np.empty((0, self.flat.size))
        self.exact: dict = {}

    def rows(self, count: int) -> np.ndarray:
        if self.sin.shape[0] < count:
            grow = max(count, 2 * self.sin.shape[0], 32)
            lam = (2.0 * np.arange(self.sin.shape[0], grow) + 1.0) * math.pi
            self.sin = np.vstack([self.sin, np.sin(np.outer(lam, self.flat))])
        return self.sin[:count]


def _find_grid(grids: list, x) -> _Grid:
    """The entry of grids whose points equal x in shape and contents.

    Matching by value, against a copy taken on first sight, means editing
    the caller's array in place can never leave a stale entry behind.
    """
    arr = np.asarray(x, dtype=float)
    for grid in grids:
        if grid.x.shape == arr.shape and np.array_equal(grid.x, arr):
            return grid
    if len(grids) >= _GRID_CAP:
        grids.pop(0)
    grids.append(_Grid(arr.copy()))
    return grids[-1]


def _stream_sin(flat: np.ndarray, m0: int, n: int) -> np.ndarray:
    """sin(lam_m x) rows for m = m0..m0+n-1 via vectorized angle doubling.

    One exact sin/cos row pair seeds the block (the cos rows only carry the
    recurrence); doubling grows phase errors only to ~n*eps, which the
    rapidly decaying tail weights render irrelevant, and every chunk restarts
    from a fresh exact row.
    """
    ang0 = ((2.0 * m0 + 1.0) * math.pi) * flat
    s = np.empty((n, flat.size))
    c = np.empty((n, flat.size))
    s[0] = np.sin(ang0)
    c[0] = np.cos(ang0)
    pc = np.cos((2.0 * math.pi) * flat)
    ps = np.sin((2.0 * math.pi) * flat)
    r = 1
    while r < n:
        take = min(r, n - r)
        c[r:r + take] = c[:take] * pc - s[:take] * ps
        s[r:r + take] = s[:take] * pc + c[:take] * ps
        r += take
        if r < n:
            pc, ps = pc * pc - ps * ps, 2.0 * pc * ps
    return s


def _mode_sum(grid: _Grid, weights: np.ndarray) -> np.ndarray:
    """weights @ sin(lam_m x) over the grid; weights is (..., modes).

    The first _ROW_CAP modes come from the cached matrix; anything beyond is
    streamed in chunks so huge truncations never pin huge matrices.  Batching
    several weight rows (one per time level) shares the streamed trig blocks,
    which is what makes strongly graded source quadrature affordable.
    """
    count = weights.shape[-1]
    head = min(count, _ROW_CAP)
    out = weights[..., :head] @ grid.rows(head)
    m0 = head
    while m0 < count:
        m1 = min(m0 + _CHUNK, count)
        out += weights[..., m0:m1] @ _stream_sin(grid.flat, m0, m1 - m0)
        m0 = m1
    return out


# ---------------------------------------------------------------------------
# structured series
# ---------------------------------------------------------------------------


class SineSeries:
    """Odd-harmonic sine series with power-law coefficients.

    Coefficients c_m = amplitude * (-1)^m? * lam_m**(-power) against
    sin(lam_m x), lam_m = (2m+1) pi.  The closed form of the full sum at
    t = 0 is given as a polynomial on [0, 1/2]; every odd-harmonic sine
    series is symmetric about x = 1/2, so values on (1/2, 1] mirror.
    Iterated primitives P_k (with -P_k'' = P_{k-1}, P_k(0) = 0,
    P_k'(1/2) = 0) carry the closed forms of the lam**(-2k)-damped sums used
    by the tail acceleration.
    """

    def __init__(self, amplitude: float, power: int, alternating: bool, half_poly: Polynomial):
        self.amplitude = float(amplitude)
        self.power = int(power)
        self.alternating = bool(alternating)
        self._prims = [half_poly]
        self._pmax: list = []

    def _primitive(self, k: int) -> Polynomial:
        while len(self._prims) <= k:
            prev = self._prims[-1]
            i2 = prev.integ(2)
            slope = float(prev.integ(1)(0.5))
            self._prims.append(-i2 + Polynomial([0.0, slope]))
        return self._prims[k]

    def _scale(self, k: int) -> float:
        """max |P_k| on [0, 1/2], sampled."""
        xs = np.linspace(0.0, 0.5, 129)
        while len(self._pmax) <= k:
            self._pmax.append(float(np.max(np.abs(self._primitive(len(self._pmax))(xs)))))
        return self._pmax[k]

    def coeffs(self, m: np.ndarray) -> np.ndarray:
        lam = (2.0 * m + 1.0) * math.pi
        c = self.amplitude * lam ** (-float(self.power))
        if self.alternating:
            c = c * np.where(m % 2 == 0, 1.0, -1.0)
        return c

    def eval_P(self, k: int, x: np.ndarray) -> np.ndarray:
        """Closed form of sum_m c_m lam_m**(-2k) sin(lam_m x)."""
        xm = np.minimum(x, 1.0 - x)
        return self._primitive(k)(xm)

    def u0(self, x):
        arr = np.asarray(x, dtype=float)
        vals = self.eval_P(0, arr.ravel() if arr.ndim else arr.reshape(1))
        return float(vals[0]) if arr.ndim == 0 else vals.reshape(arr.shape)

    def u0_prime(self, x):
        """x-derivative of u0 (one-sided at the symmetry point)."""
        arr = np.asarray(x, dtype=float)
        flat = arr.ravel() if arr.ndim else arr.reshape(1)
        dq = self._primitive(0).deriv()
        vals = np.where(flat <= 0.5, dq(np.minimum(flat, 0.5)), -dq(1.0 - np.maximum(flat, 0.5)))
        return float(vals[0]) if arr.ndim == 0 else vals.reshape(arr.shape)


def _modes_for(C: float, e: float) -> int:
    """Smallest M with C * pi**-e * (2M+1)**(1-e) / (2(e-1)) <= 1 (the bound
    on sum_{m>M} lam_m**-e scaled by C)."""
    rhs = C * math.pi ** (-e) / (2.0 * (e - 1.0))
    if rhs <= 1.0:
        return 0
    return int(math.ceil((rhs ** (1.0 / (e - 1.0)) - 1.0) / 2.0))


def _choose_mk(series: SineSeries, beta: float, t: float, alpha: float,
               trunc: SeriesTruncation):
    """Pick truncation M and the correction terms for one evaluation.

    Under acceleration order J the dropped remainder (modes m > M after
    subtracting J asymptotic correction terms) obeys the reflection-formula
    envelope

        3 Gamma(1 + alpha(J+1) - beta)/pi * t**(-alpha(J+1))
          * A * sum_{m>M} lam_m**-(p + 2(J+1)),

    but a *computed* correction term k costs roundoff of order
    t**(-alpha k) * eps * max|P_k| (it is a difference of two O(|P_k|)
    quantities).  A term too noisy to compute can instead be suppressed by
    raising M until its whole size drops below tolerance.  Among orders J the
    cheapest admissible M wins; returns (M, terms) where terms lists the
    correction orders actually worth computing.
    """
    tol = trunc.tail_tol
    A = abs(series.amplitude)
    p = series.power
    best = None
    with np.errstate(over="ignore"):
        for J in range(trunc.order + 1):
            e_env = p + 2 * (J + 1)
            c_env = (3.0 * math.gamma(1.0 + alpha * (J + 1) - beta) / math.pi
                     * t ** (-alpha * (J + 1)) * A / (0.5 * tol))
            if not math.isfinite(c_env):
                continue
            m_req = _modes_for(c_env, e_env)
            terms = []
            feasible = True
            for k in range(1, J + 1):
                rg = abs(float(rgamma(beta - alpha * k)))
                if rg == 0.0:
                    continue
                noise = t ** (-alpha * k) * 5.0e-16 * series._scale(k) * rg
                if noise <= 0.1 * tol:
                    terms.append(k)
                else:
                    c_kill = rg * t ** (-alpha * k) * A / (0.1 * tol)
                    if not math.isfinite(c_kill):
                        feasible = False
                        break
                    m_req = max(m_req, _modes_for(c_kill, p + 2 * k))
            if not feasible:
                continue
            if best is None or m_req < best[0]:
                best = (m_req, terms)
            if m_req == 0:
                break
    if best is None or best[0] > trunc.m_max:
        have = "inf" if best is None else str(best[0])
        raise TruncationError(
            f"series needs {have} modes at t = {t:g} (cap {trunc.m_max}); "
            "raise m_max or tail_tol"
        )
    m_fin, terms = best
    # drop corrections that the final M already renders negligible
    kept = []
    for k in terms:
        rg = abs(float(rgamma(beta - alpha * k)))
        e_k = p + 2 * k
        size = (rg * t ** (-alpha * k) * A * math.pi ** (-e_k)
                * (2.0 * m_fin + 1.0) ** (1 - e_k) / (2.0 * (e_k - 1.0)))
        if size > 0.02 * tol:
            kept.append(k)
    return m_fin, kept


def _shape(vals: np.ndarray, arr: np.ndarray):
    return float(vals[0]) if arr.ndim == 0 else vals.reshape(arr.shape)


def _eval_structured(series: SineSeries, kind: str, grid: _Grid, t, alpha: float,
                     trunc: SeriesTruncation):
    """Evaluate the u / V series of one SineSeries on a grid's points.

    kind "u" pairs sin modes with E_{alpha,1}; "v" uses E_{alpha,alpha}.
    t may be a scalar or a 1-D array; batching times shares the trig mode
    matrices, and the truncation is chosen at the smallest positive t (its
    bounds only improve with t).  Result shape is t.shape + grid.x.shape.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    tarr = np.asarray(t, dtype=float)
    ts = np.atleast_1d(tarr)
    if np.any(ts < 0.0):
        raise ValueError("series evaluation requires t >= 0")
    flat = grid.flat

    beta = 1.0 if kind == "u" else alpha

    out = np.empty((ts.size, flat.size))
    pos = ts > 0.0
    if not pos.all():
        # E(0) = 1/Gamma(beta) mode-independently, so the closed form applies
        scale = 1.0 if kind == "u" else float(rgamma(alpha))
        out[~pos] = series.eval_P(0, flat) * scale
    if pos.any():
        tp = ts[pos]
        M, terms = _choose_mk(series, beta, float(tp.min()), alpha, trunc)
        m = np.arange(M + 1)
        lam = (2.0 * m + 1.0) * math.pi
        c = series.coeffs(m)
        z = np.outer(tp**alpha, lam * lam)
        E = np.asarray(mittag_leffler(alpha, beta, -z.ravel())).reshape(z.shape)
        head = _mode_sum(grid, c * E)
        for k in terms:
            rg = float(rgamma(beta - alpha * k))
            sign = 1.0 if k % 2 == 1 else -1.0
            gap = series.eval_P(k, flat) - _mode_sum(grid, c * lam ** (-2.0 * k))
            head += (sign * rg) * np.outer(tp ** (-alpha * k), gap)
        out[pos] = head
    if tarr.ndim == 0:
        return _shape(out[0], grid.x)
    return out.reshape(tarr.shape + grid.x.shape)


# ---------------------------------------------------------------------------
# the two built-in problems
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ProblemSpec:
    """Everything the stepper needs, as plain callables.

    The source is t**rho (f_regular + d/dx flux_regular) with smooth
    cofactors.  f_regular is the pointwise part, f the same part with its
    t**rho factor (the source quadrature prefers f_regular when present);
    flux_regular is a flux g whose x-derivative is part of the source, which
    the stepper assembles as -<g, phi'> + [g phi] without differentiating g.
    exact, u0_prime, f, f_regular, flux_regular may be None; with any source
    given, rho <= -1 (not integrable at t = 0) is rejected here.
    """

    name: str
    alpha: float
    domain: tuple
    T: float
    kappa: Callable
    drift: Optional[Callable]
    f: Optional[Callable]
    f_regular: Optional[Callable]
    rho: float
    u0: Callable
    u0_prime: Optional[Callable]
    exact: Optional[Callable]
    bc: BcMode
    default_projection: str
    flux_regular: Optional[Callable] = None

    def __post_init__(self):
        has_source = any(fn is not None for fn in (self.f, self.f_regular, self.flux_regular))
        if has_source and float(self.rho or 0.0) <= -1.0:
            raise ValueError(f"temporal exponent rho = {self.rho} is not integrable")


def _series_problem(name: str, alpha: float, series: SineSeries,
                    default_projection: str, trunc: Optional[SeriesTruncation]) -> ProblemSpec:
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"the manufactured problems require 0 < alpha < 1, got {alpha}")
    tr = trunc or SeriesTruncation()
    grids: list = []  # shared by exact and flux_regular

    def exact(x, t):
        # every run asks for the same nodal grid at each of its time levels
        grid = _find_grid(grids, x)
        key = float(t)
        val = grid.exact.get(key)
        if val is None:
            val = _eval_structured(series, "u", grid, key, alpha, tr)
            if isinstance(val, np.ndarray):
                val.flags.writeable = False  # shared by every later call
            if len(grid.exact) >= _MEMO_CAP:
                grid.exact.clear()
            grid.exact[key] = val
        return val

    def flux_regular(x, t):
        # f_regular = (sin t - x) V_x - V is the x-derivative of this flux
        grid = _find_grid(grids, x)
        v = _eval_structured(series, "v", grid, t, alpha, tr)
        tt = np.asarray(t, dtype=float)
        return (np.sin(tt).reshape(tt.shape + (1,) * grid.x.ndim) - grid.x) * v

    return ProblemSpec(
        name=name,
        alpha=alpha,
        domain=(0.0, 1.0),
        T=1.0,
        kappa=lambda x: 1.0,
        drift=lambda x, t: np.sin(t) - x,
        f=None,
        f_regular=None,
        rho=alpha - 1.0,
        u0=series.u0,
        u0_prime=series.u0_prime,
        exact=exact,
        bc=BcMode.DIRICHLET,
        default_projection=default_projection,
        flux_regular=flux_regular,
    )


def example1(alpha: float, trunc: Optional[SeriesTruncation] = None) -> ProblemSpec:
    """Smooth initial data u0 = x(1-x): coefficients 8 lam_m**-3."""
    series = SineSeries(8.0, 3, False, Polynomial([0.0, 1.0, -1.0]))
    return _series_problem("ex1", alpha, series, "ritz", trunc)


def example2(alpha: float, trunc: Optional[SeriesTruncation] = None) -> ProblemSpec:
    """Hat initial data (kink at x = 1/2): coefficients 4 (-1)^m lam_m**-2.

    Nodal projection is the default so the kink lands exactly on a mesh node
    value; the source flux is derived from the series exactly as in example1.
    """
    series = SineSeries(4.0, 2, True, Polynomial([0.0, 1.0]))
    return _series_problem("ex2", alpha, series, "nodal", trunc)
