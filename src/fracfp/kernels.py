"""Weakly singular kernels, L1 convolution weights, Mittag-Leffler evaluation.

Everything here lives on the negative real axis (Mittag-Leffler part) or on a
graded mesh (quadrature weights), which is all the solver needs.  The hot
paths are vectorized numpy.  omega_increment is one nested closed form that
never subtracts nearly equal powers.  mittag_leffler has four routes: exp for
mu = beta = 1; otherwise a Taylor sum for 0 <= -x <= 1 and, above it, the
Hankel-integral representation, an algebraic expansion in 1/z plus a
remainder integral.  The remainder after K terms is at most
Gamma(p+1)/(pi m_mu z**(K+1)), p = mu (K+1) - beta, with m_mu = 1 for
mu <= 1/2 and sin(pi mu) above.  Where that bound is at most 2**-54 of the
expansion's first _FAR_KMAX terms, those terms are the value; every other
point takes one fixed double-exponential quadrature of the integral, and so
does mu = 1 with beta != 1, where m_mu = 0.

Accuracy, against an extended-precision oracle from z = 1 to the switch,
for mu in [0.1, 0.99] and beta >= mu: about 1e-14 relative (worst 1.2e-14,
at mu = beta = 0.99).  _de_rule moves a next term whose coefficient
1/Gamma(beta - mu (K+1)) is below 0.01, as for beta at or a little above
mu, out of the quadrature and into the expansion.  Below mu, E may change
sign, and near its zeros no relative bound holds.  Nearer mu = 1 with beta
in {1, mu} the value is about (1 - mu)/z, so the relative error grows like
1e-16/(1 - mu) while the absolute error stays near 1e-16.
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
    return (arr ** (beta - 1.0) * rgamma(beta))[()]


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
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    if np.any(a < 0.0) or np.any(b < a):
        raise ValueError("omega_increment requires 0 <= a <= b")
    if beta < 1.0 and np.any(a == 0.0):
        raise ValueError("omega_increment at a = 0 needs beta >= 1")

    if beta == 1.0:
        return np.zeros(a.shape)[()]
    e = beta - 1.0
    out = np.asarray(b**e * rgamma(beta))  # omega_beta(0) = 0 for beta > 1
    pos = a > 0.0
    ap, bp = a[pos], b[pos]
    with np.errstate(over="ignore"):
        lr = np.log1p((bp - ap) / ap)  # log(b/a)
    lr = np.where(np.isinf(lr), np.log(bp) - np.log(ap), lr)
    out[pos] = (out[pos] if e > 0.0 else -(ap**e) * rgamma(beta)) * -np.expm1(-abs(e) * lr)
    return out[()]


@dataclass(frozen=True)
class ConvolutionWeights:
    """Accessors for the L1 weight structure on one time mesh; w0 and d read
    arrays filled for every n when it is built, and row reads the per-step
    arrays of its far form built with them."""

    mesh: GradedMesh
    alpha: float
    _w0: np.ndarray = field(init=False, repr=False, compare=False)
    _d: np.ndarray = field(init=False, repr=False, compare=False)
    _far: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha}")
        alpha, t, tau = self.alpha, self.mesh.nodes, self.mesh.steps
        object.__setattr__(self, "_w0", omega_increment(alpha + 1.0, t[:-1], t[1:]))
        object.__setattr__(self, "_d", tau**alpha * rgamma(alpha + 2.0))
        c2 = (alpha - 1.0) * (alpha - 2.0)
        c24 = c2 * (alpha - 3.0) * (alpha - 4.0)
        half = 0.5 * tau
        b2 = half * half
        # row's far form: c2/6, c2 c4/120, the half steps b_j = tau_j/2,
        # (c2/6) b_j^2, (c2 c4/120) b_j^4, (c2 c4/36) b_j^2, and 1/Gamma at
        # alpha and alpha + 2
        object.__setattr__(self, "_far", (
            c2 / 6.0, c24 / 120.0, half, c2 / 6.0 * b2, c24 / 120.0 * b2 * b2,
            c24 / 36.0 * b2, rgamma(alpha), rgamma(alpha + 2.0)))

    def _check_n(self, n: int) -> None:
        if n < 1 or n > self.mesh.N:
            raise IndexError(f"need 1 <= n <= {self.mesh.N}, got n = {n}")

    def row(self, n: int) -> np.ndarray:
        """History weights w_{n,j}, j = 1..n-1 (empty for n = 1).

        w_{n,j} = int_{I_j} int_{I_n} omega_alpha(sig - s) dsig ds, from four
        increments of omega_{alpha+2}, except where t_{n-1} - t_j exceeds
        100 (tau_n + tau_j).  There, with a = tau_n/2, b = tau_j/2, u the
        distance between the midpoints of I_n and I_j, r = 1/u^2,
        c2 = (alpha-1)(alpha-2) and c4 = (alpha-3)(alpha-4), at one power
        per entry and in one nested form,
          w = 4ab omega(u) [1 + r (c2 (a^2+b^2)/6
                + r c2 c4 ((a^4+b^4)/120 + a^2 b^2/36))];
        the terms in b alone (c2 b^2/6, c2 c4 b^4/120, c2 c4 b^2/36) are
        arrays over the mesh, built once.  The first dropped term is below
        (a+b)^6/(7 u^6) < 201**-6/7 = 2.2e-15 of w.  Steps never shrink
        (gamma >= 1), so these far entries, all positive, are a prefix.  The
        four-term differences cancel to zero or below once tau_j drops under
        the rounding of t_n (alpha = 0.3, gamma = 5.4, N = 1024 from row 317
        on).
        """
        self._check_n(n)
        t, tau = self.mesh.nodes, self.mesh.steps
        p1, p2, half, f1, f2, f3, rg, rg2 = self._far
        tn, tnm1, taun = t[n], t[n - 1], tau[n - 1]
        gap = tnm1 - t[1:n]
        k = int(np.count_nonzero(gap > _FAR_RATIO * (taun + tau[: n - 1])))
        w = np.empty(n - 1)

        # (t_n - t_i)^e and (t_{n-1} - t_i)^e serve the entries j = i and i + 1
        e = self.alpha + 1.0
        A, B = (tn - t[k:n]) ** e, (tnm1 - t[k:n]) ** e
        w[k:] = (A[:-1] - B[:-1] - A[1:] + B[1:]) * rg2
        if k:
            a = half[n - 1]
            a2 = a * a
            u = gap[:k] + (a + half[:k])  # no rounding of t_n enters u
            r = 1.0 / (u * u)
            poly = 1.0 + r * (p1 * a2 + f1[:k] + r * (p2 * a2 * a2 + f2[:k] + a2 * f3[:k]))
            w[:k] = (taun * rg) * tau[:k] * u ** (self.alpha - 1.0) * poly
        return w

    def w0(self, n: int) -> float:
        """Initial-data weight omega_{alpha+1}(t_n) - omega_{alpha+1}(t_{n-1}):
        the coefficient of W^0 = U^0 in step n's history."""
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
# 1/min Gamma = 1.13, so it needs no cutoff search; z > 1 goes to
# _ml_hankel (accuracy: see the module docstring).  Near z = 1 the terms
# only fall below the stop once mu p is about 25, so the term cap is the
# larger of _TAYLOR_PMAX and 40/mu.
_TAYLOR_PMAX = 4096
# Double-exponential nodes rho = exp(t - e^-t) for the Hankel integral
# (_hankel_integral): 136 nodes, t = -7.5..6 in steps of 0.1.  The first
# node sits at rho = e**-1815, so an integrand rho**p with p + 1 >= _DE_P1
# leaves far less than 1e-16 of its mass below it.
_DE_H = 0.1
_DE_T = -7.5 + _DE_H * np.arange(136)
_DE_P1 = 0.05
# largest (points x nodes) complex buffer _hankel_integral fills at once, in
# entries (4 MB)
_HANKEL_BUF = 1 << 18
# terms _ml_hankel's truncated expansion takes in place of the integral
_FAR_KMAX = 32


def _ml_taylor(mu: float, beta: float, z: np.ndarray) -> np.ndarray:
    """Plain Taylor sum of E_{mu,beta}(-z) for 0 <= z <= 1."""
    with np.errstate(divide="ignore"):  # z = 0 gives zero terms
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
        if np.all(terms < 1.0e-22):
            return total
        p0 += block
    raise RuntimeError(f"Taylor sum failed to terminate at mu = {mu}")


def _expansion(mu: float, beta: float, K: int) -> np.ndarray:
    """Coefficients c[k] = (-1)**(k+1) / Gamma(beta - mu k) of the algebraic
    expansion of E_{mu,beta}(-z) in 1/z, k = 0..K (c[0] = 0)."""
    k = np.arange(K + 1)
    c = np.where(k % 2 == 1, 1.0, -1.0) * rgamma(beta - mu * k)
    c[0] = 0.0
    return c


def _de_rule(mu: float, beta: float):
    """Terms and quadrature rule of _hankel_integral for one (mu, beta).

    Returns (K, c, a, b, w): the series coefficients c[k] (c[0] = 0), the
    denominator coefficients a (per node) and b, and complex weights w that
    carry rho**p e**(-u), the Jacobian and every constant factor.
    """
    # the smallest K with p + 1 >= _DE_P1; one more when the next term is
    # small or vanishes (beta - mu (K+1) near or at a nonpositive integer,
    # as for beta at or a little above mu), which the integral would
    # otherwise have to carry, or cancel, at large z
    K = max(0, math.ceil((beta - 1.0 + _DE_P1) / mu) - 1)
    if abs(rgamma(beta - mu * (K + 1))) < 0.01:
        K += 1
    p = mu * (K + 1) - beta
    c = _expansion(mu, beta, K)
    # u = rho e**(-i pi/4): the only pole, at angle pi (1 - mu)/mu, stays
    # at least pi/4 off the ray for every mu, so one step serves all mu
    rot = cmath.exp(-0.25j * math.pi)
    lnr = _DE_T - np.exp(-_DE_T)
    rho = np.exp(lnr)
    logw = math.log(_DE_H) + np.log1p(np.exp(-_DE_T)) + (p + 1.0) * lnr - rho * rot
    const = -((-1.0) ** K) / math.pi * cmath.exp(1j * math.pi * (mu * K - beta))
    w = const * rot ** (p + 1.0) * np.exp(logw)
    return K, c, rho**mu * rot**mu, cmath.exp(-1j * math.pi * mu), w


def _far_rule(mu: float, beta: float):
    """Truncated expansion that stands in for _ml_hankel's integral far out.

    Returns (K_f, c, g) with K_f = _FAR_KMAX: the _expansion coefficients
    of its K_f terms and g = Gamma(p_f + 1)/(pi m_mu), p_f = mu (K_f+1) -
    beta, so that the remainder is at most g z**-(K_f+1).  The K that
    brings the switch lowest lies near 37/mu, above _FAR_KMAX for every
    mu <= 1, so the rule always takes _FAR_KMAX terms.  None for
    p_f <= -1, and for mu = 1, where m_mu = 0.
    """
    p = mu * (_FAR_KMAX + 1) - beta
    if mu == 1.0 or p <= -1.0:
        return None
    m = 1.0 if mu <= 0.5 else math.sin(math.pi * mu)
    g = math.exp(gammaln(p + 1.0) - math.log(math.pi * m))
    return _FAR_KMAX, _expansion(mu, beta, _FAR_KMAX), g


def _hankel_integral(mu: float, beta: float, z: np.ndarray) -> np.ndarray:
    """_ml_hankel's expansion plus its remainder integral, by quadrature.

    The points are taken in row chunks of at most _HANKEL_BUF buffer
    entries.
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


def _ml_hankel(mu: float, beta: float, z: np.ndarray) -> np.ndarray:
    """E_{mu,beta}(-z) for z > 1 from the Hankel integral wrapped around the
    branch cut.

    E_{mu,beta}(-z) = sum_{k=1..K} (-1)**(k+1) z**-k / Gamma(beta - mu k)
        - (-1)**K / (pi z**(K+1)) Im[e**(i pi (mu K - beta))
          int_0^inf e**-u u**p / (u**mu/z + e**(-i pi mu)) du]
    for any K with p = mu (K+1) - beta > -1.  On u > 0 the denominator is
    at least m_mu = 1 for mu <= 1/2 and sin(pi mu) above, so the remainder
    is at most Gamma(p+1)/(pi m_mu z**(K+1)).  Where that bound, with the
    K_f = _FAR_KMAX terms of _far_rule, is at most 2**-54 of the sum of
    those terms, the sum (Horner in 1/z) is the value and the integral is
    skipped (Gorenflo, Kilbas, Mainardi & Rogosin, Mittag-Leffler
    Functions, 2014, sec. 4.7).  Every other point takes the integral, with
    K from _de_rule, along u = rho e**(-i pi/4) by a fixed double-
    exponential trapezoid rule (_hankel_integral; Weideman & Trefethen,
    Math. Comp. 76, 2007; Garrappa, SIAM J. Numer. Anal. 53, 2015).  mu = 1
    with beta != 1 always takes the integral: m_mu = 0 there.  The module
    docstring states the accuracy, and where the quadrature loses it.
    """
    far = _far_rule(mu, beta)
    if far is None:
        return _hankel_integral(mu, beta, z)
    K, c, g = far
    out = np.polynomial.polynomial.polyval(1.0 / z, c)
    need = g * z ** -(K + 1.0) > 2.0**-54 * np.abs(out)
    if need.any():
        out[need] = _hankel_integral(mu, beta, z[need])
    return out


def mittag_leffler(mu: float, beta: float, x):
    """E_{mu,beta}(x) on the nonpositive real axis, vectorized over x.

    Supported domain: 0 < mu <= 1, beta > 0, x <= 0 (-inf gives 0; NaN
    raises).  Each point takes one of four routes: exp(-z) when mu = beta
    = 1; otherwise a Taylor sum for z = -x <= 1 (z = 0 included, where it
    is exactly 1/Gamma(beta)) and, above it, _ml_hankel:
    the first K_f = _FAR_KMAX terms of the algebraic expansion in 1/z,
    where the Hankel remainder's bound Gamma(p_f+1)/(pi m_mu z**(K_f+1))
    (m_mu = 1 for mu <= 1/2, sin(pi mu) above) is at most 2**-54 of their
    sum, and the remainder integral by quadrature at every other point and
    always for mu = 1 (m_mu = 0).  The module docstring states the accuracy:
    about 1e-14 relative for mu <= 0.99 and beta >= mu, worse nearer mu = 1.
    """
    if not 0.0 < mu <= 1.0:
        raise ValueError(f"mittag_leffler requires 0 < mu <= 1, got mu = {mu}")
    if beta <= 0.0:
        raise ValueError(f"mittag_leffler requires beta > 0, got beta = {beta}")
    arr = np.asarray(x, dtype=float)
    if not np.all(arr <= 0.0):
        raise ValueError("mittag_leffler is restricted to x <= 0 (not NaN)")
    z = -arr.ravel()
    out = np.empty(z.shape)

    if mu == 1.0 and beta == 1.0:
        out[:] = np.exp(-z)
    else:
        small = z <= 1.0
        out[small] = _ml_taylor(mu, beta, z[small])
        out[~small] = _ml_hankel(mu, beta, z[~small])
    return out.reshape(arr.shape)[()]


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
    cw = ConvolutionWeights(mesh, alpha)  # raises for alpha outside (0, 1]
    t = mesh.nodes
    tau = mesh.steps
    gnu = math.gamma(nu + 1.0)
    # I^alpha g' has increments Gamma(nu+1) * d omega_{nu+alpha+1}
    A = gnu * omega_increment(nu + alpha + 1.0, t[:-1], t[1:])
    dg = gnu * omega_increment(nu + 1.0, t[:-1], t[1:])
    dref = dg / tau

    total = 0.0
    for j in range(1, mesh.N + 1):
        own = cw.d(j) * dg[j - 1]
        hist = cw.row(j) @ dref[: j - 1]
        r = A[j - 1] - (hist + own)
        total += r * r / tau[j - 1]
    return float(total)
