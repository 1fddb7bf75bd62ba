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
strongly graded meshes, so the evaluator picks the truncation M and the
tail-correction orders per call from analytic bounds (see _choose_mk) that
keep everything dropped below _TAIL_TOL = 1e-9 absolute.  Each evaluation
then does one Mittag-Leffler call and one mode sum, whose weight rows are the
time rows (or rows folded over time, see _SeriesFlux) followed by the
correction terms; the corrections are the gaps between the closed forms P_k
of the damped sums (SineSeries.eval_P) and their partial sums, added to
those rows as one product.
Modes past a grid's sine rows go by FFT on lattice grids, such as every grid
the solver builds (see _mode_sum).  alpha = 1 makes both series exponentials.

Both are homogeneous Dirichlet problems: exact solves that problem only, so
a copy with another bc has no exact solution to compare against.

Each problem owns its series, built for the problem's alpha, and at most
_GRID_CAP grids, shared by its exact and flux_regular.  The series holds the
primitives P_0.._ORDER and, for beta in {1, alpha}, the t-independent
constants of _choose_mk.  A grid is built whole for the series the first
time its points are seen: the first _ROW_CAP sin(lam_m x) rows, its lattice
and the P_k on its points.  Nothing in either grows after that; the only
caches are the grids themselves (the oldest dropped first).  A grid is found
by value (shape and contents, against a private copy of its points), not by
array identity, so editing an array in place never returns stale values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from numpy.polynomial import Polynomial
from numpy.polynomial import polynomial as P
from scipy.special import rgamma

from .fem1d import BcMode
from .kernels import mittag_leffler

__all__ = [
    "TruncationError",
    "ProblemSpec",
    "example1",
    "example2",
]


class TruncationError(Exception):
    """The tail bound could not be met within the term cap."""


# Series cutoff: every evaluation bounds everything it drops by _TAIL_TOL
# (absolute), keeps at most _M_MAX modes and uses tail-acceleration orders up
# to _ORDER.
_TAIL_TOL = 1.0e-9
_M_MAX = 1_000_000
_ORDER = 6


# ---------------------------------------------------------------------------
# sine mode sums on a problem's grids
# ---------------------------------------------------------------------------

_ROW_CAP = 32  # sine rows a grid keeps; almost every mode sum needs no more
_MODE_BUF = 1 << 21  # entries of the block streamed modes are built in (16 MB)
_GRID_CAP = 8  # grids one problem keeps, oldest dropped first
_HALF = np.linspace(0.0, 0.5, 129)  # where the primitives' maxima are sampled


class _Grid:
    """One spatial grid of a series problem, built whole for its series: a
    private copy of its points, their first _ROW_CAP sin(lam_m x) rows (the
    lam grid is universal), its lattice (see _lattice; None off a lattice)
    and the closed forms P_0.._ORDER of the series on them as one array."""

    __slots__ = ("x", "flat", "sin", "lattice", "P")

    def __init__(self, x: np.ndarray, series: "SineSeries"):
        self.x = x
        self.flat = x.ravel()
        lam = (2.0 * np.arange(_ROW_CAP) + 1.0) * math.pi
        self.sin = np.sin(np.outer(lam, self.flat))
        self.lattice = _lattice(self.flat)
        self.P = np.array([series.eval_P(k, self.flat) for k in range(len(series.prims))])


def _lattice(x: np.ndarray):
    """(L, c, cls, jmod, phase) when every point is x = (j + c[cls])/L, j an
    integer, to 4 ulps of max|x|, with L <= x.size and at most 8 offsets c;
    else None.  cls (int8) is each point's class, jmod (int32) is j mod L and
    phase is e^{i pi (j + c)/L}.

    L is tried from the integer reciprocals of the first point differences,
    largest first.  Points are grouped by x L mod 1, each class's offset is
    the actual value at its first point (not a rounded key), and every point
    is checked against it.
    """
    if not np.isfinite(x).all():
        return None
    d = np.abs(x[1:9] - x[0])
    inv = 1.0 / d[d > 0.0]
    cand = np.rint(inv)
    for L in np.unique(cand[(np.abs(inv - cand) <= 1e-6 * inv) & (cand >= 1) & (cand <= x.size)])[::-1]:
        y = x * L
        frac = y - np.floor(y)
        key = np.rint(frac * 2.0**24).astype(np.int64) % 2**24  # 1 wraps to 0
        _, first, cls = np.unique(key, return_index=True, return_inverse=True)
        c = frac[first]
        j = np.rint(y - c[cls])
        if c.size <= 8 and np.all(np.abs(x - (j + c[cls]) / L) <= 4.0 * np.finfo(float).eps * np.abs(x).max()):
            # e^{i pi x} is 2L-periodic in j: reduce j mod 2L (not mod L,
            # which would flip its sign) and split off quarter turns, so the
            # angle left is small and the phase exact where x L is an integer
            j2 = np.mod(j, 2 * L)
            quarter = np.rint(2.0 * (j2 + c[cls]) / L)
            angle = math.pi * (2.0 * j2 - quarter * L + 2.0 * c[cls]) / (2.0 * L)
            phase = np.array([1.0, 1j, -1.0, -1j])[quarter.astype(np.int64) % 4] * np.exp(1j * angle)
            return int(L), c, cls.astype(np.int8), np.mod(j, L).astype(np.int32), phase
    return None


def _find_grid(grids: list, x, series: "SineSeries") -> _Grid:
    """The entry of grids whose points equal x in shape and contents, or a
    new grid for series in place of the oldest once there are _GRID_CAP.

    Matching by value, against a copy taken on first sight, means editing
    the caller's array in place can never leave a stale entry behind.
    """
    arr = np.asarray(x, dtype=float)
    for grid in grids:
        if grid.x.shape == arr.shape and np.array_equal(grid.x, arr):
            return grid
    if len(grids) >= _GRID_CAP:
        grids.pop(0)
    grids.append(_Grid(arr.copy(), series))
    return grids[-1]


def _mode_sum(grid: _Grid, weights: np.ndarray) -> np.ndarray:
    """weights @ sin(lam_m x) over the grid; weights is (rows, modes).

    The first _ROW_CAP modes come from the grid's rows.  On a lattice
    grid, x = (j + c)/L, the rest go by FFT: sum_m b_m sin(lam_m x) =
    Im[e^{i pi x} sum_m (b_m e^{2 pi i m c/L}) e^{2 pi i m j/L}], so per
    offset class the twiddled weights fold mod L into one length-L inverse
    FFT, read at j mod L.  Other grids build the modes in one reused block of
    at most _MODE_BUF entries (modes x points), so neither huge truncations
    nor large grids pin huge matrices.  All weight rows (time levels and
    correction terms alike) share each FFT or block.
    """
    count = weights.shape[-1]
    head = min(count, _ROW_CAP)
    out = weights[..., :head] @ grid.sin[:head]
    if count > head and grid.lattice is not None:
        L, c, cls, jmod, phase = grid.lattice
        tail = np.zeros(weights.shape[:-1] + (-(-count // L), L))  # (rows, folds, L)
        tail.reshape(weights.shape[:-1] + (-1,))[..., head:count] = weights[..., head:]
        # turns of e^{2 pi i q c} for m = q L + r, reduced mod 1 exactly:
        # q * hi is exact for q < 2**27, and q * (c - hi) is tiny
        hi = np.floor(c * 2.0**26) / 2.0**26
        q = np.arange(tail.shape[-2])
        turns = 2.0 * math.pi * (np.mod(np.multiply.outer(hi, q), 1.0) + np.multiply.outer(c - hi, q))
        spec = (np.cos(turns) @ tail + 1j * (np.sin(turns) @ tail)) \
            * np.exp(2j * math.pi * np.multiply.outer(c, np.arange(L)) / L)
        out += L * (phase * np.fft.ifft(spec, axis=-1)[..., cls, jmod]).imag
    elif count > head:
        chunk = max(1, _MODE_BUF // grid.flat.size)
        block = np.empty((min(chunk, count - head), grid.flat.size))
        for m0 in range(head, count, chunk):
            rows = block[: min(chunk, count - m0)]
            lam = (2.0 * np.arange(m0, m0 + rows.shape[0]) + 1.0) * math.pi
            np.sin(np.multiply.outer(lam, grid.flat, out=rows), out=rows)
            out += weights[..., m0:m0 + rows.shape[0]] @ rows
    return out


# ---------------------------------------------------------------------------
# structured series
# ---------------------------------------------------------------------------


class SineSeries:
    """Odd-harmonic sine series with power-law coefficients, for one alpha.

    Coefficients c_m = amplitude * (-1)^m? * lam_m**(-power) against
    sin(lam_m x), lam_m = (2m+1) pi.  The closed form of the full sum at
    t = 0 is given as a polynomial on [0, 1/2]; every odd-harmonic sine
    series is symmetric about x = 1/2, so values on (1/2, 1] mirror.
    Iterated primitives P_k (with -P_k'' = P_{k-1}, P_k(0) = 0,
    P_k'(1/2) = 0) carry the closed forms of the lam**(-2k)-damped sums used
    by the tail acceleration.  P_0.._ORDER and, for beta in {1, alpha},
    _choose_mk's t-free constants are computed when the series is built.
    """

    def __init__(self, amplitude: float, power: int, alternating: bool,
                 half_poly: Polynomial, alpha: float):
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"the manufactured problems require 0 < alpha <= 1, got {alpha}")
        self.amplitude = float(amplitude)
        self.power = int(power)
        self.alternating = bool(alternating)
        self.alpha = alpha
        # power-basis coefficients of P_0.._ORDER
        self.prims = [np.asarray(half_poly.convert().coef, dtype=float)]
        for _ in range(_ORDER):
            prev = self.prims[-1]
            coef = -P.polyint(prev, 2)
            coef[1] += P.polyval(0.5, P.polyint(prev))
            self.prims.append(coef)
        pmax = [float(np.max(np.abs(P.polyval(_HALF, coef)))) for coef in self.prims]
        # beta -> lists over j = 0.._ORDER of 3 Gamma(1 + alpha(j+1) - beta)/pi,
        # rgamma(beta - alpha j) and max |P_j| sampled on [0, 1/2]
        j = np.arange(_ORDER + 1)
        self.consts = {beta: ([3.0 * math.gamma(g) / math.pi for g in 1.0 + alpha * (j + 1) - beta],
                              rgamma(beta - alpha * j).tolist(), pmax)
                       for beta in (1.0, alpha)}

    def coeffs(self, m: np.ndarray) -> np.ndarray:
        lam = (2.0 * m + 1.0) * math.pi
        c = self.amplitude * lam ** (-float(self.power))
        if self.alternating:
            c = c * np.where(m % 2 == 0, 1.0, -1.0)
        return c

    def eval_P(self, k: int, x: np.ndarray) -> np.ndarray:
        """Closed form of sum_m c_m lam_m**(-2k) sin(lam_m x)."""
        return P.polyval(np.minimum(x, 1.0 - x), self.prims[k])

    def u0(self, x):
        arr = np.asarray(x, dtype=float)
        vals = self.eval_P(0, arr.ravel() if arr.ndim else arr.reshape(1))
        return float(vals[0]) if arr.ndim == 0 else vals.reshape(arr.shape)

    def u0_prime(self, x):
        """x-derivative of u0 (one-sided at the symmetry point)."""
        arr = np.asarray(x, dtype=float)
        flat = arr.ravel() if arr.ndim else arr.reshape(1)
        dq = P.polyder(self.prims[0])
        vals = np.where(flat <= 0.5, P.polyval(np.minimum(flat, 0.5), dq),
                        -P.polyval(1.0 - np.maximum(flat, 0.5), dq))
        return float(vals[0]) if arr.ndim == 0 else vals.reshape(arr.shape)


def _modes_for(C: float, e: float) -> int:
    """Smallest M with C * pi**-e * (2M+1)**(1-e) / (2(e-1)) <= 1 (the bound
    on sum_{m>M} lam_m**-e scaled by C)."""
    rhs = C * math.pi ** (-e) / (2.0 * (e - 1.0))
    if rhs <= 1.0:
        return 0
    return int(math.ceil((rhs ** (1.0 / (e - 1.0)) - 1.0) / 2.0))


def _choose_mk(series: SineSeries, beta: float, t: float):
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
    correction orders actually worth computing.  alpha is the series'; beta
    is 1 or alpha.
    """
    alpha = series.alpha
    A = abs(series.amplitude)
    p = series.power
    env, rgs, pmax = series.consts[beta]
    best = None
    for J in range(len(env)):
        e_env = p + 2 * (J + 1)
        try:
            c_env = env[J] * t ** (-alpha * (J + 1)) * A / (0.5 * _TAIL_TOL)
        except OverflowError:  # the float power; the powers below are smaller
            continue
        if not math.isfinite(c_env):
            continue
        m_req = _modes_for(c_env, e_env)
        terms = []
        feasible = True
        for k in range(1, J + 1):
            rg = abs(rgs[k])
            if rg == 0.0:
                continue
            noise = t ** (-alpha * k) * 5.0e-16 * pmax[k] * rg
            if noise <= 0.1 * _TAIL_TOL:
                terms.append(k)
            else:
                c_kill = rg * t ** (-alpha * k) * A / (0.1 * _TAIL_TOL)
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
    if best is None or best[0] > _M_MAX:
        have = "inf" if best is None else str(best[0])
        raise TruncationError(f"series needs {have} modes at t = {t:g} (cap {_M_MAX})")
    m_fin, terms = best
    # drop corrections that the final M already renders negligible
    kept = []
    for k in terms:
        rg = abs(rgs[k])
        e_k = p + 2 * k
        size = (rg * t ** (-alpha * k) * A * math.pi ** (-e_k)
                * (2.0 * m_fin + 1.0) ** (1 - e_k) / (2.0 * (e_k - 1.0)))
        if size > 0.02 * _TAIL_TOL:
            kept.append(k)
    return m_fin, kept


def _eval_structured(series: SineSeries, kind: str, grid: _Grid, t, fold=None):
    """Evaluate the u / V series of one SineSeries on a grid's points.

    kind "u" pairs sin modes with E_{alpha,1}; "v" uses E_{alpha,alpha}.
    t may be a scalar or a 1-D array; batching times shares the trig mode
    matrices, and the truncation is chosen at the smallest positive t (its
    bounds only improve with t).  Result shape is t.shape + grid.x.shape.
    A (rows x times) matrix fold gives fold @ (those rows) instead, shape
    (rows,) + grid.x.shape, folded into the mode weights and corrections, so
    the mode sum carries rows + len(terms) rows however many times there are.
    """
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    if not np.all((ts >= 0.0) & (ts < math.inf)):
        raise ValueError("series evaluation requires finite t >= 0")
    weights = np.eye(ts.size) if fold is None else np.asarray(fold, dtype=float)
    rows = weights.shape[0]

    alpha = series.alpha
    beta = 1.0 if kind == "u" else alpha
    rgs = series.consts[beta][1]

    pos = ts > 0.0
    out = np.zeros((rows, grid.flat.size))
    if pos.any():
        tp, wp = ts[pos], weights[:, pos]
        M, terms = _choose_mk(series, beta, float(tp.min()))
        m = np.arange(M + 1)
        lam = (2.0 * m + 1.0) * math.pi
        c = series.coeffs(m)
        z = np.outer(tp**alpha, lam * lam)
        E = np.asarray(mittag_leffler(alpha, beta, -z.ravel())).reshape(z.shape)
        # folded time rows of c E, then one row c lam**(-2k) per correction term
        sums = _mode_sum(grid, np.vstack([wp @ (c * E)] + [c * lam ** (-2.0 * k) for k in terms]))
        # term k adds (-1)^(k+1) rgamma(beta - alpha k) t**(-alpha k) (P_k - partial):
        # its partial-sum row becomes partial - P_k in place, and is subtracted
        sign_rg = np.array([rgs[k] if k % 2 == 1 else -rgs[k] for k in terms])
        for row, k in enumerate(terms, start=rows):
            sums[row] -= grid.P[k]
        out = sums[:rows]
        out -= (wp @ (sign_rg * tp[:, None] ** (-alpha * np.array(terms)))) @ sums[rows:]
    if not pos.all():
        # E(0) = 1/Gamma(beta) = rgs[0] mode-independently, so P_0 applies
        out += np.multiply.outer(weights[:, ~pos].sum(axis=1) * rgs[0], grid.P[0])
    shape = (np.shape(t) if fold is None else (rows,)) + grid.x.shape
    return float(out[0, 0]) if shape == () else out.reshape(shape)


# ---------------------------------------------------------------------------
# the two built-in problems
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ProblemSpec:
    """Everything the stepper needs, as plain callables.

    The source is t**rho (f_regular + d/dx flux_regular) with smooth
    cofactors.  f_regular is the pointwise part, f the same part with its
    t**rho factor; flux_regular is a flux g whose x-derivative is part of
    the source, which the stepper assembles as -<g, phi'> + [g phi] without
    differentiating g.  f_regular, flux_regular and exact take the points x
    and a 1-D array of times t and return an array of shape t.shape +
    x.shape; f takes one time.  A source part with a time_fold(x, t, w)
    method, sum_q w_q part(x, t_q), is folded by it in assemble_source.
    exact, u0_prime, f, f_regular, flux_regular may be None, but f and
    f_regular not both.  Inconsistent inputs are rejected here: alpha outside
    (0, 1], a T that is not positive and finite, an empty domain or one
    with a non-finite end, a bc that is not a BcMode, an unknown
    default_projection, and rho <= -1 (not integrable at t = 0) with any
    source given.
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
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha}")
        if not 0.0 < self.T < math.inf:
            raise ValueError(f"T must be positive and finite, got {self.T}")
        a, b = self.domain
        if not (math.isfinite(a) and math.isfinite(b) and b > a):
            raise ValueError(f"domain needs finite ends a < b, got {self.domain}")
        if not isinstance(self.bc, BcMode):
            raise TypeError(f"bc must be a BcMode, got {self.bc!r}")
        if self.default_projection not in ("ritz", "l2", "nodal"):
            raise ValueError(f"unknown projection mode {self.default_projection!r}")
        if self.f is not None and self.f_regular is not None:
            raise ValueError("give the pointwise part as f or as f_regular, not both")
        has_source = any(fn is not None for fn in (self.f, self.f_regular, self.flux_regular))
        if has_source and float(self.rho or 0.0) <= -1.0:
            raise ValueError(f"temporal exponent rho = {self.rho} is not integrable")


class _SeriesFlux:
    """flux_regular (sin t - x) V of a series problem, whose x-derivative is
    f_regular = (sin t - x) V_x - V.  time_fold(x, t, w) = sum_q w_q (sin t_q
    - x) V(x, t_q) is B - x A, A and B one evaluation of V folded by the rows
    w and w sin t; as a method, functools.wraps copies it to no wrapper."""

    def __init__(self, series: SineSeries, grids: list):
        self.series, self.grids = series, grids

    def __call__(self, x, t):
        grid = _find_grid(self.grids, x, self.series)
        v = _eval_structured(self.series, "v", grid, t)  # rejects bad t before sin sees it
        return (np.sin(t).reshape(np.shape(t) + (1,) * grid.x.ndim) - grid.x) * v

    def time_fold(self, x, t, w):
        grid = _find_grid(self.grids, x, self.series)
        A, B = _eval_structured(self.series, "v", grid, t, np.vstack([w, w * np.sin(t)]))
        B -= grid.x * A
        return B


def _series_problem(name: str, series: SineSeries, default_projection: str) -> ProblemSpec:
    """The problem whose exact solution is series' u, at the series' alpha."""
    alpha = series.alpha
    grids: list = []  # shared by exact and flux_regular

    def exact(x, t):
        return _eval_structured(series, "u", _find_grid(grids, x, series), t)

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
        flux_regular=_SeriesFlux(series, grids),
    )


def example1(alpha: float) -> ProblemSpec:
    """Smooth initial data u0 = x(1-x): coefficients 8 lam_m**-3."""
    series = SineSeries(8.0, 3, False, Polynomial([0.0, 1.0, -1.0]), alpha)
    return _series_problem("ex1", series, "ritz")


def example2(alpha: float) -> ProblemSpec:
    """Hat initial data (kink at x = 1/2): coefficients 4 (-1)^m lam_m**-2.

    Nodal projection is the default so the kink lands exactly on a mesh node
    value; the source flux is derived from the series exactly as in example1.
    """
    series = SineSeries(4.0, 2, True, Polynomial([0.0, 1.0]), alpha)
    return _series_problem("ex2", series, "nodal")
