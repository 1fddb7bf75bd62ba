"""Weakly singular kernels, L1 convolution weights, Mittag-Leffler evaluation.

Everything here lives on the negative real axis (Mittag-Leffler part) or on a
graded mesh (quadrature weights), which is all the solver needs.  The hot
paths are vectorized numpy.  omega_increment is one nested closed form that
never subtracts nearly equal powers.  mittag_leffler has three routes: exp for
mu = beta = 1; otherwise a Taylor sum for 0 < -x <= 1 and, above it, one
fixed double-exponential quadrature of the Hankel integral for every
0 < mu <= 1 and beta > 0.  It is good to about 1e-14 relative for
mu <= 0.99; nearer mu = 1 the relative error grows like 1e-16/(1 - mu),
while the absolute error stays near 1e-16.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

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

# ConvolutionWeights.row switches from four-term differences to a Taylor
# expansion once I_j sits this many widths (tau_n + tau_j) before I_n.
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

    For a > 0, the larger of the two terms times 1 - (a/b)**|beta - 1|, the
    bracket taken as -expm1(-|beta - 1| log1p((b - a)/a)) (log b - log a
    where (b - a)/a overflows): no nearly equal powers are subtracted.
    a = 0 gives omega_beta(b) - omega_beta(0), beta = 1 exact zeros.
    Vectorized over equally shaped ``a`` and ``b``.
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

    if beta == 1.0:
        return 0.0 if scalar else np.zeros(a.shape)
    e = beta - 1.0
    out = b**e * rgamma(beta)  # omega_beta(0) = 0 for beta > 1
    pos = a > 0.0
    ap, bp = a[pos], b[pos]
    with np.errstate(over="ignore"):
        lr = np.log1p((bp - ap) / ap)  # log(b/a)
    lr = np.where(np.isinf(lr), np.log(bp) - np.log(ap), lr)
    out[pos] = (out[pos] if e > 0.0 else -(ap**e) * rgamma(beta)) * -np.expm1(-abs(e) * lr)
    return float(out[0]) if scalar else out


@dataclass(frozen=True)
class ConvolutionWeights:
    """Accessors for the L1 weight structure on one time mesh; w0 and d read
    arrays filled for every n when it is built."""

    mesh: GradedMesh
    alpha: float
    _w0: np.ndarray = field(init=False, repr=False, compare=False)
    _d: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_alpha(self.alpha)
        t = self.mesh.nodes
        object.__setattr__(self, "_w0", omega_increment(self.alpha + 1.0, t[:-1], t[1:]))
        object.__setattr__(self, "_d", self.mesh.steps ** self.alpha * rgamma(self.alpha + 2.0))

    def _check_n(self, n: int) -> None:
        if n < 1 or n > self.mesh.N:
            raise IndexError(f"need 1 <= n <= {self.mesh.N}, got n = {n}")

    def row(self, n: int) -> np.ndarray:
        """History weights w_{n,j}, j = 1..n-1 (empty for n = 1).

        w_{n,j} = int_{I_j} int_{I_n} omega_alpha(sig - s) dsig ds, from four
        increments of omega_{alpha+2}, except where t_{n-1} - t_j exceeds
        100 (tau_n + tau_j).  There, with a = tau_n/2, b = tau_j/2 and u the
        distance between the midpoints of I_n and I_j, at one power per entry,
          w = 4ab [omega(u) + (a^2+b^2)/6 omega''(u)
                   + ((a^4+b^4)/120 + a^2 b^2/36) omega''''(u)];
        the first dropped term is below (a+b)^6/(7 u^6) < 201**-6/7 = 2.2e-15
        of w.  Steps never shrink (gamma >= 1), so these far entries, all
        positive, are a prefix.  The four-term differences cancel to zero or
        below once tau_j drops under the rounding of t_n (alpha = 0.3,
        gamma = 5.4, N = 1024 from row 317 on).
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
        k = int(np.count_nonzero(gap > _FAR_RATIO * (taun + tauj)))
        w = np.empty(n - 1)

        e = alpha + 1.0
        w[k:] = (
            (tn - tjm1[k:]) ** e
            - (tnm1 - tjm1[k:]) ** e
            - (tn - tj[k:]) ** e
            + (tnm1 - tj[k:]) ** e
        ) * rgamma(alpha + 2.0)
        if k:
            a2, b2 = 0.25 * taun * taun, 0.25 * tauj[:k] ** 2
            u = gap[:k] + 0.5 * (taun + tauj[:k])  # no rounding of t_n enters u
            r = 1.0 / (u * u)
            c2, c4 = (alpha - 1.0) * (alpha - 2.0), (alpha - 3.0) * (alpha - 4.0)
            poly = (a2 + b2) / 6.0 + r * c4 * ((a2 * a2 + b2 * b2) / 120.0 + a2 * b2 / 36.0)
            w[:k] = (taun * rgamma(alpha)) * tauj[:k] * u ** (alpha - 1.0) * (1.0 + c2 * r * poly)
        return w

    def w0(self, n: int) -> float:
        """Initial-data weight omega_{alpha+1}(t_n) - omega_{alpha+1}(t_{n-1})."""
        self._check_n(n)
        return float(self._w0[n - 1])

    def d(self, n: int) -> float:
        """Diagonal coupling coefficient tau_n**alpha / Gamma(alpha + 2)."""
        self._check_n(n)
        return float(self._d[n - 1])


# ---------------------------------------------------------------------------
# Mittag-Leffler on the negative real axis
# ---------------------------------------------------------------------------

# The Taylor sum serves z <= 1, where every term is at most about
# 1/min Gamma = 1.13, so it needs no cutoff search; the quadrature is good to
# ~1e-14 from z = 1 up.  Near z = 1 the terms only fall below the stop once
# mu p is about 25, so the term cap is the larger of _TAYLOR_PMAX and 40/mu.
_TAYLOR_PMAX = 4096
# Double-exponential nodes rho = exp(t - e^-t) for the Hankel integral
# (_ml_hankel): 136 nodes, t = -7.5..6 in steps of 0.1.  The first node sits
# at rho = e**-1815, so an integrand rho**p with p + 1 >= _DE_P1 leaves far
# less than 1e-16 of its mass below it.
_DE_H = 0.1
_DE_T = -7.5 + _DE_H * np.arange(136)
_DE_P1 = 0.05
# largest (points x nodes) complex buffer _ml_hankel fills at once, in
# entries (4 MB)
_HANKEL_BUF = 1 << 18


def _ml_taylor(mu: float, beta: float, z: np.ndarray) -> np.ndarray:
    """Plain Taylor sum of E_{mu,beta}(-z) for 0 < z <= 1."""
    lnz = np.log(z)
    total = np.full(z.shape, rgamma(beta))
    p0 = 1
    block = 32
    while p0 < max(_TAYLOR_PMAX, math.ceil(40.0 / mu)):
        p = np.arange(p0, p0 + block, dtype=float)
        lg = gammaln(mu * p + beta)
        terms = np.exp(p[None, :] * lnz[:, None] - lg[None, :])
        signs = np.where(np.mod(p, 2.0) == 0.0, 1.0, -1.0)
        total += terms @ signs
        if terms.max() < 1.0e-22:
            return total
        p0 += block
    raise RuntimeError(f"Taylor sum failed to terminate at mu = {mu}")


def _de_rule(mu: float, beta: float):
    """Terms and quadrature rule of _ml_hankel for one (mu, beta).

    Returns (K, c, a, b, w): the series coefficients c[k] (c[0] = 0), the
    denominator coefficients a (per node) and b, and complex weights w that
    carry rho**p e**(-u), the Jacobian and every constant factor.
    """
    # the smallest K with p + 1 >= _DE_P1; one more when the next term
    # vanishes (beta - mu (K+1) a nonpositive integer, as for beta = mu),
    # which the integral would otherwise cancel at large z
    K = max(0, math.ceil((beta - 1.0 + _DE_P1) / mu) - 1)
    if rgamma(beta - mu * (K + 1)) == 0.0:
        K += 1
    p = mu * (K + 1) - beta
    k = np.arange(K + 1)
    c = np.where(k % 2 == 1, 1.0, -1.0) * rgamma(beta - mu * k)
    c[0] = 0.0
    # u = rho e**(-i pi/4): the only pole, at angle pi (1 - mu)/mu, stays
    # at least pi/4 off the ray for every mu, so one step serves all mu
    rot = cmath.exp(-0.25j * math.pi)
    lnr = _DE_T - np.exp(-_DE_T)
    rho = np.exp(lnr)
    logw = math.log(_DE_H) + np.log1p(np.exp(-_DE_T)) + (p + 1.0) * lnr - rho * rot
    const = -((-1.0) ** K) / math.pi * cmath.exp(1j * math.pi * (mu * K - beta))
    w = const * rot ** (p + 1.0) * np.exp(logw)
    return K, c, rho**mu * rot**mu, cmath.exp(-1j * math.pi * mu), w


def _ml_hankel(mu: float, beta: float, z: np.ndarray) -> np.ndarray:
    """E_{mu,beta}(-z) from the Hankel integral wrapped around the branch cut.

    E_{mu,beta}(-z) = sum_{k=1..K} (-1)**(k+1) z**-k / Gamma(beta - mu k)
        - (-1)**K / (pi z**(K+1)) Im[e**(i pi (mu K - beta))
          int_0^inf e**-u u**p / (u**mu/z + e**(-i pi mu)) du],
    p = mu (K+1) - beta, with K chosen in _de_rule.  The integral is taken
    along u = rho e**(-i pi/4) by a fixed double-exponential trapezoid rule
    (Weideman & Trefethen, Math. Comp. 76, 2007; Garrappa, SIAM J. Numer.
    Anal. 53, 2015).  The points are taken in row chunks of at most
    _HANKEL_BUF buffer entries.
    """
    K, c, a, b, w = _de_rule(mu, beta)
    rows = max(1, _HANKEL_BUF // a.size)
    buf = np.empty((min(rows, z.size), a.size), dtype=complex)
    integral = np.empty(z.shape)
    for i in range(0, z.size, rows):
        part = buf[: min(rows, z.size - i)]
        np.multiply.outer(1.0 / z[i : i + rows], a, out=part)
        part += b
        np.reciprocal(part, out=part)
        integral[i : i + rows] = (part @ w).imag
    # z ** -(K + 1.0), not 1 / z ** (K + 1): the latter overflows for large K
    return np.polynomial.polynomial.polyval(1.0 / z, c) + z ** -(K + 1.0) * integral


def mittag_leffler(mu: float, beta: float, x):
    """E_{mu,beta}(x) on the nonpositive real axis, vectorized over x.

    Supported domain: 0 < mu <= 1, beta > 0, x <= 0.  Each point takes one
    of three routes: exp(-z) when mu = beta = 1; otherwise a Taylor sum for
    z = -x <= 1 and the Hankel-integral quadrature (_ml_hankel) above it.
    Against an extended-precision oracle the result is good to about 1e-14
    relative for mu <= 0.99.  Nearer mu = 1 with beta in {1, mu} the value
    is about (1 - mu)/z, so the relative error grows like 1e-16/(1 - mu)
    while the absolute error stays near 1e-16.
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
        out[zero] = rgamma(beta)
        small = ~zero & (z <= 1.0)
        if small.any():
            out[small] = _ml_taylor(mu, beta, z[small])
        big = ~zero & ~small
        if big.any():
            out[big] = _ml_hankel(mu, beta, z[big])

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
