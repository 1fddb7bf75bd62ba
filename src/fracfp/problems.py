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
tail-correction orders from analytic bounds (see _choose_mk) that keep
everything dropped below _TAIL_TOL = 1e-9 absolute.  One evaluation
(_eval_rows) serves many rows: the time levels of exact, or the steps of a
block, each step's Gauss times folded (see _SeriesFlux).  Every row takes
its own M and corrections at its smallest time, as if evaluated alone, and
the evaluation makes one Mittag-Leffler call for all of them.  The rows'
modes within a grid's sine rows are summed by one product with those rows;
the rare rows past them (the first steps of graded meshes) go by FFT on
lattice grids, such as every grid the solver builds (see _mode_sum).  The
corrections are the gaps between the closed forms P_k of the damped sums
(SineSeries.eval_P) and their partial sums, one gap per distinct (k, M),
added to the rows as one product.  alpha = 1 makes both series
exponentials.

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
    d = np.abs(x[1:9] - x[:1])
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
        chunk = max(1, _MODE_BUF // max(1, grid.flat.size))
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
        return self.eval_P(0, np.asarray(x, dtype=float))

    def u0_prime(self, x):
        """x-derivative of u0 (one-sided at the symmetry point)."""
        arr = np.asarray(x, dtype=float)
        dq = P.polyder(self.prims[0])
        return np.where(arr <= 0.5, P.polyval(np.minimum(arr, 0.5), dq),
                        -P.polyval(1.0 - np.maximum(arr, 0.5), dq))[()]


def _pi_pow(e: np.ndarray) -> np.ndarray:
    """pi**-e for each exponent of e, each as one float power."""
    return np.array([math.pi ** -v for v in e.tolist()])


def _modes_for(C: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Smallest M with C * pi**-e * (2M+1)**(1-e) / (2(e-1)) <= 1 (the bound
    on sum_{m>M} lam_m**-e scaled by C), per entry of C, with the exponents
    e along its last axis; as floats, inf where C is."""
    rhs = C * _pi_pow(e) / (2.0 * (e - 1.0))
    return np.where(rhs <= 1.0, 0.0, np.ceil((rhs ** (1.0 / (e - 1.0)) - 1.0) / 2.0))


def _choose_mk(series: SineSeries, beta: float, t):
    """Pick truncation M and the correction terms at each time of t (> 0).

    Under acceleration order J the dropped remainder (modes m > M after
    subtracting J asymptotic correction terms) obeys the reflection-formula
    envelope

        3 Gamma(1 + alpha(J+1) - beta)/pi * t**(-alpha(J+1))
          * A * sum_{m>M} lam_m**-(p + 2(J+1)),

    but a *computed* correction term k costs roundoff of order
    t**(-alpha k) * eps * max|P_k| (it is a difference of two O(|P_k|)
    quantities).  A term too noisy to compute can instead be suppressed by
    raising M until its whole size drops below tolerance.  Among orders J the
    cheapest admissible M wins (the lowest J on a tie); returns (M, kept): M
    an int array over the times, and kept a bool array with one column per
    order k = 0.._ORDER, true where correction k is worth computing.  Each
    time is decided on its own, as by a call with that time alone.  alpha
    is the series'; beta is 1 or alpha.
    """
    alpha = series.alpha
    A = abs(series.amplitude)
    p = series.power
    env, rgs, pmax = series.consts[beta]
    t = np.atleast_1d(np.asarray(t, dtype=float))
    j = np.arange(1, len(env) + 1)  # J + 1 for the orders J = 0.._ORDER
    k, rg = j[:-1], np.abs(rgs[1:])  # the correction terms 1.._ORDER
    # an overflowing power or product makes an order infeasible: its M is inf
    with np.errstate(over="ignore"):
        tpow = t[:, None] ** (-alpha * j)
        m_env = _modes_for(np.asarray(env) * tpow * A / (0.5 * _TAIL_TOL), p + 2 * j)
        tk = tpow[:, :-1]
        quiet = (tk * 5.0e-16 * np.asarray(pmax[1:]) * rg <= 0.1 * _TAIL_TOL) & (rg != 0.0)
        kill = np.where(quiet, 0.0, _modes_for(rg * tk * A / (0.1 * _TAIL_TOL), p + 2 * k))
        # order J needs its envelope's M and every noisy term k <= J suppressed
        m_req = np.maximum(m_env, np.maximum.accumulate(
            np.column_stack([np.zeros(t.size), kill]), axis=1))
        J, best = np.argmin(m_req, axis=1), m_req.min(axis=1)
        over = ~(best <= _M_MAX)
        if over.any():
            i = np.flatnonzero(over)[0]
            have = "inf" if math.isinf(best[i]) else str(int(best[i]))
            raise TruncationError(f"series needs {have} modes at t = {t[i]:g} (cap {_M_MAX})")
        M = best.astype(np.int64)
        # drop corrections that the final M already renders negligible
        e_k = p + 2 * k
        size = (rg * tk * A * _pi_pow(e_k)
                * (2.0 * M[:, None] + 1.0) ** (1 - e_k) / (2.0 * (e_k - 1.0)))
    kept = quiet & (k <= J[:, None]) & (size > 0.02 * _TAIL_TOL)
    return M, np.column_stack([np.zeros(t.size, dtype=bool), kept])


def _times(t) -> np.ndarray:
    ts = np.asarray(t, dtype=float)
    if not np.all((ts >= 0.0) & (ts < math.inf)):
        raise ValueError("series evaluation requires finite t >= 0")
    return ts


def _eval_rows(series: SineSeries, kind: str, grid: _Grid, t: np.ndarray, fold: np.ndarray):
    """Folded u / V series of one SineSeries on a grid's points, row by row.

    kind "u" pairs sin modes with E_{alpha,1}; "v" uses E_{alpha,alpha}.  t
    is (R, Q), finite and >= 0, and fold (K, R, Q); the result, (K, R,
    points), is sum_q fold[k, r, q] series(x, t[r, q]).  Row r takes its own
    truncation M_r and correction terms, from _choose_mk at its smallest
    positive time (the bounds only improve with t), so a row is the
    evaluation of its times alone.

    One Mittag-Leffler call serves every (r, q, m <= M_r).  The folded time
    rows (weights zero past M_r) and one row c_m lam_m**(-2k), m <= M, per
    distinct pair (k, M_r) of the corrections are summed over modes
    together: rows within the grid's sine rows by one product, the rest by
    one _mode_sum.  Correction k adds (-1)^(k+1) rgamma(beta - alpha k)
    t**(-alpha k) (P_k - partial) to its rows; each gap P_k - partial is
    formed before it meets its coefficient (up to t**(-alpha _ORDER)),
    and all of them go in as one (rows x pairs) product, a few rows at a
    time.
    """
    K, R, Q = fold.shape
    beta = 1.0 if kind == "u" else series.alpha
    rgs = series.consts[beta][1]
    pos = t > 0.0
    tmin = t.min(axis=1, where=pos, initial=math.inf)
    live = tmin < math.inf
    M = np.full(R, -1)
    kept = np.zeros((R, len(rgs)), dtype=bool)
    M[live], kept[live] = _choose_mk(series, beta, tmin[live])
    m = np.arange(M.max(initial=-1) + 1)
    lam = (2.0 * m + 1.0) * math.pi
    c = series.coeffs(m)

    # the distinct (k, M_r) of the kept corrections, and each row's pair
    r_of, k_of = np.nonzero(kept)
    pairs, pair_of = np.unique(np.column_stack([k_of, M[r_of]]), axis=0, return_inverse=True)
    weights = np.vstack([_time_rows(series, beta, t, fold, M, lam, c),
                         np.where(m <= pairs[:, 1:], c * lam ** (-2.0 * pairs[:, :1]), 0.0)])
    # the rows past the grid's sine rows take one _mode_sum, first, so that
    # its buffers are gone before the head products are allocated, and its
    # result is gone before the corrections allocate theirs
    past = np.concatenate([np.tile(M, K), pairs[:, 1]]) >= _ROW_CAP
    tails = _mode_sum(grid, weights[past]) if past.any() else np.empty((0, grid.flat.size))
    head = min(m.size, _ROW_CAP)
    out, gaps = (part[:, :head] @ grid.sin[:head] for part in np.split(weights, [K * R]))
    out[past[:K * R]], gaps[past[K * R:]] = np.split(tails, [np.count_nonzero(past[:K * R])])
    del tails
    out = out.reshape(K, R, grid.flat.size)
    for gap, k in zip(gaps, pairs[:, 0]):
        gap -= grid.P[k]  # partial - P_k, so its term is subtracted
    sign_rg = np.array([rgs[k] if k % 2 == 1 else -rgs[k] for k in range(len(rgs))])
    with np.errstate(divide="ignore"):  # t = 0 entries are masked
        tk = np.where(pos[r_of], t[r_of] ** (-series.alpha * k_of[:, None]), 0.0)
    coef = np.zeros((K, R, len(pairs)))
    coef[:, r_of, pair_of.reshape(-1)] = np.einsum("kiq,iq->ki", fold[:, r_of], sign_rg[k_of, None] * tk)
    # a few rows at a time, so that the product's buffer stays small
    flat, coef = out.reshape(K * R, grid.flat.size), coef.reshape(K * R, len(pairs))
    for i in range(0, K * R, 8):
        flat[i:i + 8] -= coef[i:i + 8] @ gaps
    if not pos.all():
        # E(0) = 1/Gamma(beta) = rgs[0] mode-independently, so P_0 applies
        out += np.multiply.outer(np.where(pos, 0.0, fold).sum(axis=-1) * rgs[0], grid.P[0])
    return out


def _time_rows(series: SineSeries, beta: float, t: np.ndarray, fold: np.ndarray, M: np.ndarray,
               lam: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The (K R, modes) weights sum_q fold[k, r, q] c_m E(-lam_m^2 t[r, q]^alpha)
    of _eval_rows, zero past M_r and where t = 0: one Mittag-Leffler call
    at every (r, q, m <= M_r) with t > 0, in that order."""
    K, R, Q = fold.shape
    pos = t > 0.0
    cE = np.zeros((R, Q, lam.size))
    counts = np.broadcast_to(M[:, None] + 1, t.shape)[pos]
    mode = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    z = np.repeat(t[pos] ** series.alpha, counts) * (lam * lam)[mode]
    E = mittag_leffler(series.alpha, beta, -z)
    cE.reshape(-1)[np.repeat(np.flatnonzero(pos) * lam.size, counts) + mode] = c[mode] * E
    return (fold.transpose(1, 0, 2) @ cE).transpose(1, 0, 2).reshape(K * R, lam.size)


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
    method is folded by it in assemble_source: t is (rows, 8), one row of
    Gauss times per interval, and the result holds per row sum_q w_q
    part(x, t_q).  has_source says whether any source part is given.
    exact, u0_prime, f, f_regular, flux_regular may be None, but f and
    f_regular not both.  Inconsistent inputs are rejected here: alpha outside
    (0, 1] or unequal to the .alpha a part states, a T that is not positive
    and finite, an empty domain or one with a non-finite end, a bc that is
    not a BcMode, an unknown default_projection, a rho that is not finite,
    and rho <= -1 (not integrable at t = 0) with any source given.
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
        if not math.isfinite(self.rho):
            raise ValueError(f"temporal exponent rho must be finite, got {self.rho}")
        if self.has_source and self.rho <= -1.0:
            raise ValueError(f"temporal exponent rho = {self.rho} is not integrable")
        for name in ("f", "f_regular", "flux_regular", "exact"):
            built = getattr(getattr(self, name), "alpha", self.alpha)
            if built != self.alpha:
                raise ValueError(f"{name} was built for alpha = {built}, not alpha = {self.alpha}")

    @property
    def has_source(self) -> bool:
        return any(fn is not None for fn in (self.f, self.f_regular, self.flux_regular))


class _SeriesFlux:
    """flux_regular (sin t - x) V of a series problem, whose x-derivative is
    f_regular = (sin t - x) V_x - V.  For t of shape (rows, Q) and weights
    w (Q,) or t's shape, time_fold(x, t, w) gives per row sum_q w_q (sin t_q
    - x) V(x, t_q) = B - x A, A and B folded by w and w sin t: one
    evaluation of V for all the rows, each row truncated at its own
    smallest time.  As a method, functools.wraps copies it to no wrapper."""

    def __init__(self, series: SineSeries, grids: list):
        self.series, self.grids, self.alpha = series, grids, series.alpha

    def __call__(self, x, t):
        grid = _find_grid(self.grids, x, self.series)
        ts = _times(t)
        # one row with an identity fold, truncated at its smallest time: the
        # batch time_fold evaluates for the same interval
        v = _eval_rows(self.series, "v", grid, ts.reshape(1, -1), np.eye(ts.size)[:, None, :])[:, 0]
        return (np.sin(ts).reshape(ts.shape + (1,) * grid.x.ndim) - grid.x) * v.reshape(ts.shape + grid.x.shape)

    def time_fold(self, x, t, w):
        grid = _find_grid(self.grids, x, self.series)
        ts = _times(t)
        A, B = _eval_rows(self.series, "v", grid, ts, np.stack([np.broadcast_to(w, ts.shape), w * np.sin(ts)]))
        A *= grid.flat
        B -= A
        return B.reshape(ts.shape[:-1] + grid.x.shape)


def _series_problem(name: str, series: SineSeries, default_projection: str) -> ProblemSpec:
    """The problem whose exact solution is series' u, at the series' alpha."""
    alpha = series.alpha
    grids: list = []  # shared by exact and flux_regular

    def exact(x, t):
        # one row per time, each with its own truncation
        grid = _find_grid(grids, x, series)
        ts = _times(t)
        u = _eval_rows(series, "u", grid, ts.reshape(-1, 1), np.ones((1, ts.size, 1)))[0]
        shape = ts.shape + grid.x.shape
        return u.reshape(shape)[()]

    exact.alpha = alpha  # functools.wraps copies it to a wrapper
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
