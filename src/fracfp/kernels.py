"""Weakly singular kernels, L1 convolution weights, Mittag-Leffler evaluation.

Everything here lives on the negative real axis (Mittag-Leffler part) or on a
graded mesh (quadrature weights), which is all the solver needs.  The hot
paths are vectorized numpy; an arbitrary-precision series fallback covers the
few parameter corners where double precision runs out of room.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, rgamma

from .timegrid import GradedMesh

__all__ = [
    "omega",
    "omega_increment",
    "ConvolutionWeights",
    "mittag_leffler",
    "interp_probe",
]

# 3-point Gauss-Legendre rule on [-1, 1], exact through degree 5.
_GL3_X = np.array([-math.sqrt(0.6), 0.0, math.sqrt(0.6)])
_GL3_W = np.array([5.0, 8.0, 5.0]) / 9.0
# tensor weights of the 3x3 rule, node pair (a, b) at index 3 a + b
_GL3_WW = np.outer(_GL3_W, _GL3_W).ravel()

# Switch from closed-form differences to Gauss quadrature once the interval
# sits this many widths away from the origin (or from the other interval).
_FAR_RATIO = 100.0


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")


def omega(beta: float, t):
    """Kernel omega_beta(t) = t**(beta-1) / Gamma(beta) for t >= 0.

    Scalar or array ``t``.  Raises for negative arguments and for t = 0 when
    beta < 1 (the kernel is singular there); omega_1(0) = 1 and
    omega_beta(0) = 0 for beta > 1.
    """
    if beta <= 0.0:
        raise ValueError(f"omega requires beta > 0, got {beta}")
    arr = np.asarray(t, dtype=float)
    if np.any(arr < 0.0):
        raise ValueError("omega requires t >= 0")
    if beta < 1.0 and np.any(arr == 0.0):
        raise ValueError("omega_beta(0) is singular for beta < 1")
    # 0**0 == 1 and 0**positive == 0 in numpy, which matches the limits.
    out = arr ** (beta - 1.0) * rgamma(beta)
    return float(out[()]) if arr.ndim == 0 else out


def omega_increment(beta: float, a, b):
    """Stable omega_beta(b) - omega_beta(a) for 0 <= a <= b.

    The direct difference cancels catastrophically once [a, b] is far from
    the origin relative to its width, so this switches to a 3-point Gauss
    rule applied to the derivative kernel omega_{beta-1}.  Vectorized over
    equally shaped ``a`` and ``b``.
    """
    if beta <= 0.0:
        raise ValueError(f"omega_increment requires beta > 0, got {beta}")
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    scalar = a.ndim == 0 and b.ndim == 0
    a, b = np.atleast_1d(a), np.atleast_1d(b)
    a, b = np.broadcast_arrays(a, b)
    if np.any(a < 0.0) or np.any(b < a):
        raise ValueError("omega_increment requires 0 <= a <= b")
    if beta < 1.0 and np.any(a == 0.0):
        raise ValueError("omega_increment at a = 0 needs beta >= 1")

    width = b - a
    far = (a > 0.0) & (a > _FAR_RATIO * width)
    out = np.empty(a.shape)

    near = ~far
    if near.any():
        rg = rgamma(beta)
        out[near] = (b[near] ** (beta - 1.0) - a[near] ** (beta - 1.0)) * rg
    if far.any():
        mid = 0.5 * (a[far] + b[far])
        half = 0.5 * width[far]
        xs = mid[..., None] + half[..., None] * _GL3_X
        # rgamma(0) = 0 handles beta = 1 (constant kernel, zero increment)
        vals = xs ** (beta - 2.0) * rgamma(beta - 1.0)
        out[far] = half * (vals @ _GL3_W)
    return float(out[0]) if scalar else out


@dataclass(frozen=True)
class ConvolutionWeights:
    """Accessors for the L1 weight structure on one time mesh."""

    mesh: GradedMesh
    alpha: float

    def __post_init__(self):
        _check_alpha(self.alpha)

    def _check_n(self, n: int) -> None:
        if n < 1 or n > self.mesh.N:
            raise IndexError(f"need 1 <= n <= {self.mesh.N}, got n = {n}")

    def row(self, n: int) -> np.ndarray:
        """History weights w_{n,j}, j = 1..n-1 (empty for n = 1).

        w_{n,j} = int_{I_j} int_{I_n} omega_alpha(sig - s) dsig ds.  Evaluated
        from increments of omega_{alpha+2} where that is stable and by a
        tensor 3x3 Gauss rule on the double integral once I_j lies far
        behind I_n.  All weights are positive.
        """
        self._check_n(n)
        alpha = self.alpha
        t = self.mesh.nodes
        tau = self.mesh.steps
        tn, tnm1, taun = t[n], t[n - 1], tau[n - 1]
        tj = t[1:n]
        tjm1 = t[0 : n - 1]
        tauj = tau[0 : n - 1]

        gap = tnm1 - tj
        use_gauss = gap > _FAR_RATIO * (taun + tauj)
        w = np.empty(n - 1)

        direct = ~use_gauss
        if direct.any():
            e = alpha + 1.0
            rg = rgamma(alpha + 2.0)
            w[direct] = (
                (tn - tjm1[direct]) ** e
                - (tnm1 - tjm1[direct]) ** e
                - (tn - tj[direct]) ** e
                + (tnm1 - tj[direct]) ** e
            ) * rg
        if use_gauss.any():
            sig = 0.5 * (tn + tnm1) + (0.5 * taun) * _GL3_X
            smid = 0.5 * (tj[use_gauss] + tjm1[use_gauss])
            shalf = 0.5 * tauj[use_gauss]
            s = smid + shalf * _GL3_X[:, None]
            # (9, k): node pairs (a, b) by rows, history intervals contiguous
            diff = (sig[None, :, None] - s[:, None, :]).reshape(9, -1)
            np.power(diff, alpha - 1.0, out=diff)
            w[use_gauss] = (_GL3_WW @ diff) * shalf * (0.5 * taun * rgamma(alpha))
        return w

    def w0(self, n: int) -> float:
        """Initial-data weight omega_{alpha+1}(t_n) - omega_{alpha+1}(t_{n-1})."""
        self._check_n(n)
        t = self.mesh.nodes
        return float(omega_increment(self.alpha + 1.0, t[n - 1], t[n]))

    def d(self, n: int) -> float:
        """Diagonal coupling coefficient tau_n**alpha / Gamma(alpha + 2)."""
        self._check_n(n)
        return float(self.mesh.steps[n - 1] ** self.alpha * rgamma(self.alpha + 2.0))


# ---------------------------------------------------------------------------
# Mittag-Leffler on the negative real axis
# ---------------------------------------------------------------------------

# Taylor series is used while its largest term stays below this, keeping the
# alternating-sum cancellation within ~3 digits.
_PEAK_LIMIT = 1.0e3
_TAYLOR_PMAX = 4096
_ASYM_KMAX = 400.0
_ASYM_RTOL = 1.0e-12
# The spectral integral loses accuracy as sin(pi*mu) -> 0.
_SPECTRAL_MU_MAX = 0.90

_cutoff_cache: dict = {}
_de_cache: dict = {}


def _taylor_cutoff(mu: float, beta: float) -> float:
    """Largest z such that the Taylor peak term stays below _PEAK_LIMIT."""
    key = (mu, beta)
    cut = _cutoff_cache.get(key)
    if cut is not None:
        return cut
    target = math.log(_PEAK_LIMIT)

    def logpeak(z: float) -> float:
        p = max(z ** (1.0 / mu) / mu, 1.0)
        return p * math.log(z) - gammaln(mu * p + beta)

    lo, hi = 1.0, 2.0
    while logpeak(hi) < target and hi < 1.0e4:
        lo = hi
        hi *= 2.0
    if logpeak(hi) < target:
        cut = hi
    else:
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if logpeak(mid) < target:
                lo = mid
            else:
                hi = mid
        cut = lo
    _cutoff_cache[key] = cut
    return cut


def _ml_taylor(mu: float, beta: float, z: np.ndarray) -> np.ndarray:
    """Plain Taylor sum of E_{mu,beta}(-z); caller keeps z below the cutoff."""
    lnz = np.log(z)
    total = np.full(z.shape, rgamma(beta))
    p0 = 1
    block = 32
    while p0 < _TAYLOR_PMAX:
        p = np.arange(p0, p0 + block, dtype=float)
        lg = gammaln(mu * p + beta)
        terms = np.exp(p[None, :] * lnz[:, None] - lg[None, :])
        signs = np.where(np.mod(p, 2.0) == 0.0, 1.0, -1.0)
        total += terms @ signs
        if terms.max() < 1.0e-22:
            return total
        p0 += block
    raise RuntimeError("Taylor sum failed to terminate; cutoff logic is broken")


def _ml_asymptotic(mu: float, beta: float, z: np.ndarray):
    """Algebraic large-z expansion with per-element acceptance flags.

    Terms T_k = (-1)**(k+1) z**-k / Gamma(beta - mu k).  The remainder after
    k terms is estimated by the reflection-formula envelope of term k+1; an
    element is accepted once that envelope drops below _ASYM_RTOL relatively,
    and abandoned once k passes the envelope minimum z**(1/mu)/mu.
    """
    lnz = np.log(z)
    total = np.zeros(z.shape)
    ok = np.zeros(z.shape, dtype=bool)
    active = np.ones(z.shape, dtype=bool)
    with np.errstate(over="ignore"):
        kenv = np.clip(z ** (1.0 / mu) / mu, 1.0, _ASYM_KMAX)
    kmax = int(kenv.max())
    for k in range(1, kmax + 1):
        g = float(rgamma(beta - mu * k))
        if g != 0.0:
            sign = 1.0 if k % 2 == 1 else -1.0
            tk = (sign * g) * np.exp(-k * lnz)
            total = np.where(active, total + tk, total)
        arg = 1.0 + mu * (k + 1) - beta
        if arg > 0.0:
            env = np.exp(gammaln(arg) - math.log(math.pi) - (k + 1) * lnz)
            done = active & (env <= _ASYM_RTOL * np.abs(total))
            ok |= done
            active &= ~done
        active &= k < kenv
        if not active.any():
            break
    if mu == 1.0:
        # the expansion misses an exp(-z) remainder invisible to term sizes
        ok &= z >= 45.0
    return total, ok


def _de_rule(mu: float, upow: float):
    """Double-exponential nodes/weights for int_0^inf u**upow e^-u f(u) du."""
    key = (mu, upow)
    rule = _de_cache.get(key)
    if rule is None:
        h = 0.05
        tg = np.arange(-7.5, 6.0 + 1e-12, h)
        lnu = tg - np.exp(-tg)
        u = np.exp(lnu)
        logw = math.log(h) + np.log1p(np.exp(-tg)) + (upow + 1.0) * lnu - u
        rule = (u, np.exp(logw))
        _de_cache[key] = rule
    return rule


def _ml_spectral(mu: float, beta: float, z: np.ndarray) -> np.ndarray:
    """Spectral-measure quadrature of E_{mu,beta}(-z) for beta in {1, mu}.

    E_{mu,1}(-z)  = sin(pi mu)/pi * z**-1 * int u**(mu-1) e**-u / J du
    E_{mu,mu}(-z) = sin(pi mu)/pi * z**-2 * int u**mu     e**-u / J du
    with J = (u**mu/z)**2 + 2 cos(pi mu) u**mu/z + 1.  The integrand is
    analytic in a strip of width ~pi(1-mu)/mu around the contour, so the
    double-exponential trapezoid converges geometrically for mu <= 0.9.
    """
    upow = mu - 1.0 if beta == 1.0 else mu
    u, w = _de_rule(mu, upow)
    y = u**mu
    ratio = y[None, :] / z[:, None]
    J = ratio * ratio + (2.0 * math.cos(math.pi * mu)) * ratio + 1.0
    integral = (1.0 / J) @ w
    s = math.sin(math.pi * mu) / math.pi
    if beta == 1.0:
        return s * integral / z
    return s * integral / (z * z)


def _ml_mpmath(mu: float, beta: float, z: np.ndarray) -> np.ndarray:
    """Arbitrary-precision Taylor fallback for the remaining corners."""
    import mpmath as mp

    out = np.empty(z.shape)
    for i, zi in enumerate(z):
        p_peak = max(zi ** (1.0 / mu) / mu, 1.0)
        lm = p_peak * math.log(zi) - float(gammaln(mu * p_peak + beta))
        dps = 40 + int(max(lm, 0.0) / math.log(10.0) * 1.2)
        pmax = int(3.0 * p_peak) + 200
        with mp.workdps(min(dps, 3000)):
            # the Gamma argument must be built in mpf arithmetic: float
            # rounding of mu*p perturbs huge terms enough to wreck the
            # cancellation entirely
            mmu = mp.mpf(mu)
            mbeta = mp.mpf(beta)
            mz = -mp.mpf(zi)
            s = mp.mpf(0)
            zp = mp.mpf(1)
            eps = mp.mpf(10) ** (-(mp.mp.dps - 8))
            for p in range(pmax):
                term = zp / mp.gamma(mmu * p + mbeta)
                s += term
                zp *= mz
                if p > p_peak and abs(term) < eps * abs(s):
                    break
            out[i] = float(s)
    return out


def mittag_leffler(mu: float, beta: float, x):
    """E_{mu,beta}(x) on the nonpositive real axis, vectorized over x.

    Supported domain: 0 < mu <= 1, beta > 0, x <= 0.  Dispatches between a
    guarded Taylor sum, the algebraic asymptotic expansion, a spectral
    double-exponential quadrature (beta in {1, mu}) and an
    arbitrary-precision series for whatever is left.
    """
    if not 0.0 < mu <= 1.0:
        raise ValueError(f"mittag_leffler requires 0 < mu <= 1, got mu = {mu}")
    if beta <= 0.0:
        raise ValueError(f"mittag_leffler requires beta > 0, got beta = {beta}")
    arr = np.asarray(x, dtype=float)
    if np.any(arr > 0.0):
        raise ValueError("mittag_leffler is restricted to x <= 0")
    z = -arr.ravel()
    out = np.empty(z.shape)

    if mu == 1.0 and beta == 1.0:
        out[:] = np.exp(-z)
    else:
        zero = z == 0.0
        if zero.any():
            out[zero] = rgamma(beta)
        rest = ~zero
        if rest.any():
            zr = z[rest]
            vals = np.empty(zr.shape)
            small = zr <= _taylor_cutoff(mu, beta)
            if small.any():
                vals[small] = _ml_taylor(mu, beta, zr[small])
            big = ~small
            if big.any():
                av, ok = _ml_asymptotic(mu, beta, zr[big])
                need = ~ok
                if need.any():
                    zn = zr[big][need]
                    if mu <= _SPECTRAL_MU_MAX and (beta == 1.0 or beta == mu):
                        av[need] = _ml_spectral(mu, beta, zn)
                    else:
                        av[need] = _ml_mpmath(mu, beta, zn)
                vals[big] = av
            out[rest] = vals

    if arr.ndim == 0:
        return float(out[0])
    return out.reshape(arr.shape)


def interp_probe(nu: float, alpha: float, mesh: GradedMesh) -> float:
    """Weighted residual of the discrete fractional convolution on g(t) = t**nu.

    For each step computes A_j, the exact increment of the fractional
    integral I^alpha g' over I_j, and B_j, the discrete value produced by the
    convolution weights acting on increments of g; returns
    sum_j (A_j - B_j)**2 / tau_j.  Piecewise-linear data (nu = 1) is
    reproduced exactly, so the probe then returns roundoff only.
    """
    if not 0.0 < nu <= 1.0:
        raise ValueError(f"interp_probe requires 0 < nu <= 1, got nu = {nu}")
    _check_alpha(alpha)
    t = mesh.nodes
    tau = mesh.steps
    gnu = math.gamma(nu + 1.0)
    # I^alpha g' has increments Gamma(nu+1) * d omega_{nu+alpha+1}
    A = gnu * omega_increment(nu + alpha + 1.0, t[:-1], t[1:])
    dg = gnu * omega_increment(nu + 1.0, t[:-1], t[1:])
    dref = dg / tau
    cw = ConvolutionWeights(mesh, alpha)

    total = 0.0
    for j in range(1, mesh.N + 1):
        own = cw.d(j) * dg[j - 1]
        hist = cw.row(j) @ dref[: j - 1]
        r = A[j - 1] - (hist + own)
        total += r * r / tau[j - 1]
    return float(total)
