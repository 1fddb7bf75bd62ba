"""Independent reference implementations used only by the tests.

Everything here runs on different machinery than the library (mpmath
arbitrary precision, QUADPACK adaptive quadrature, dense linear algebra),
so agreement between the two routes is meaningful evidence and never a
tautology.  The one exception is structured_eval_per_term, a reference for
a rearrangement of arithmetic: it reuses the library's mode sum and closed
forms on purpose, so that only the rearranged step differs.  It takes its
truncation from choose_mk_oracle, the scalar per-time form of the
library's vectorized truncation choice, in plain float arithmetic.
lattice_sum_oracle takes the lattice spacing and offsets the library found,
to name the exact points it sums at, but sums by direct sines.
make_problem is no reference at all: it builds the tests' plain ProblemSpec.
"""

import math

import mpmath as mp
import numpy as np
from scipy import integrate


def ml_oracle(mu: float, beta: float, x: float) -> float:
    """E_{mu,beta}(-x) for x >= 0 in extended precision.

    Taylor summation with precision scaled to the largest term while the
    peak index stays manageable; the divergent asymptotic expansion with
    envelope stopping otherwise (its truncation error is then far below
    any tolerance used in the tests).  Gamma arguments are assembled in
    mpf arithmetic: mu*k + beta rounded in float64 would shift the poles
    enough to destroy the cancellation this series relies on.

    Just above the branch point x**(1/mu) = 95 the asymptotic sum needs
    up to a few thousand terms at small mu, and it raises RuntimeError if
    4000 do not settle it.  Not covered: mu = 0.02 settles from x = 1.10
    to 1.23 (x**(1/mu) from 95 to about 3e4), but only x = 1.1 has been
    checked against a forced Taylor sum; near 1.23 that sum would need
    about 15,000 digits.  Smaller mu is untried.
    """
    if x < 0:
        raise ValueError("oracle covers the negative real axis only, pass x >= 0")
    if x == 0.0:
        return float(mp.rgamma(beta))
    # x**(1/mu) is the log of the largest Taylor term AND the exponent of the
    # asymptotic envelope minimum (~exp(-x**(1/mu))), so one number decides
    # the branch: beyond 95 the divergent tail truncates below ~5e-42.  The
    # decision is made in logs, since x**(1/mu) overflows at small mu
    if math.log(x) / mu < math.log(95.0):
        lm = x ** (1.0 / mu)
        peak = lm / mu
        dps = 40 + int(1.2 * lm / math.log(10.0))
        with mp.workdps(dps):
            mz = -mp.mpf(x)
            mmu = mp.mpf(mu)
            mbeta = mp.mpf(beta)
            acc = mp.mpf(0)
            k = 0
            calm = 0
            while calm < 8:
                term = mz ** k / mp.gamma(mmu * k + mbeta)
                acc += term
                calm = calm + 1 if abs(term) < mp.eps * (abs(acc) + mp.eps) else 0
                k += 1
                # terms settle once mu k is about 35 (Gamma > 1e40) even
                # where the peak is small, so small mu needs about 35/mu
                if k > 40 * (peak + 40) + 60 / mu:
                    raise RuntimeError("oracle Taylor sum failed to settle")
            return float(acc)
    # asymptotic branch: sum_k -(-x)^{-k} rgamma(beta - mu k).  The raw terms
    # dip to ~0 whenever beta - mu k sits near a Gamma pole, so the stop
    # decision uses the pole-free reflection envelope
    # x^{-k} Gamma(mu k + 1 - beta)/pi >= |term|.  It is only an envelope
    # once mu k + 1 - beta > 0 (below that Gamma can be negative or at a
    # pole, as for beta > 1 + mu), and from there it decreases smoothly until
    # convergence for every argument this branch ever sees.
    with mp.workdps(80):
        mx = mp.mpf(x)
        mmu = mp.mpf(mu)
        mbeta = mp.mpf(beta)
        floor = mp.mpf(10) ** (-32)
        acc = mp.mpf(0)
        prev_env = mp.inf
        for k in range(1, 4000):
            acc -= (-mx) ** (-k) * mp.rgamma(mbeta - mmu * k)
            if mmu * k + 1 - mbeta <= 0:
                continue
            env = mx ** (-k) * mp.gamma(mmu * k + 1 - mbeta) / mp.pi
            if env < floor * (abs(acc) + floor):
                return float(acc)
            assert env < prev_env, "asymptotic tail not converging"
            prev_env = env
        raise RuntimeError("oracle asymptotic sum failed to settle")


_PI_LD = np.longdouble("3.14159265358979323846264338327950288")


def lattice_sum_oracle(lattice, x: np.ndarray, weights: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """weights @ sin((2m+1) pi x) at x[pts], each point moved onto the exact
    lattice point (j + c)/L nearest it, for lattice = (L, c, ...).

    The phase (2m+1)(j + c) is reduced mod 2L before the sine: in integers
    for the (2m+1) j part, and in np.longdouble (64-bit mantissa on x86-64)
    for (2m+1) c, so no rounding of lam_m x enters; the sum is taken in
    np.longdouble too.
    """
    L, c = lattice[0], lattice[1]
    y = x[pts] * L
    dev = np.abs(y[:, None] - c[None, :] - np.rint(y[:, None] - c[None, :]))
    cp = c[np.argmin(dev, axis=1)]
    j = np.rint(y - cp).astype(np.int64)
    odd = 2 * np.arange(weights.shape[-1], dtype=np.int64) + 1
    r = np.mod(np.outer(odd, j), 2 * L).astype(np.longdouble)
    r = np.mod(r + np.outer(odd.astype(np.longdouble), cp.astype(np.longdouble)), 2 * L)
    return (weights.astype(np.longdouble) @ np.sin(_PI_LD * r / L)).astype(float)


def series_u_oracle(amplitude: float, power: int, alternating: bool,
                    x: float, t: float, alpha: float, terms: int = 400,
                    beta: float = 1.0) -> float:
    """Direct finite sum of c_m sin(lam_m x) E_{alpha,beta}(-lam_m^2 t^alpha).

    Slow but transparent; only for spot values at moderate t where the
    tail beyond `terms` modes is far below 1e-13.
    """
    total = 0.0
    comp = 0.0
    for m in range(terms):
        lam = (2 * m + 1) * math.pi
        c = amplitude * lam ** (-power) * (-1.0 if alternating and m % 2 else 1.0)
        term = c * math.sin(lam * x) * ml_oracle(alpha, beta, lam * lam * t ** alpha)
        # Neumaier compensation; the terms alternate in size by decades
        new = total + term
        if abs(total) >= abs(term):
            comp += (total - new) + term
        else:
            comp += (term - new) + total
        total = new
    return total + comp


def _modes_for_oracle(C: float, e: float) -> int:
    """Smallest M with C * pi**-e * (2M+1)**(1-e) / (2(e-1)) <= 1."""
    rhs = C * math.pi ** (-e) / (2.0 * (e - 1.0))
    if rhs <= 1.0:
        return 0
    return int(math.ceil((rhs ** (1.0 / (e - 1.0)) - 1.0) / 2.0))


def choose_mk_oracle(series, beta: float, t: float):
    """(M, terms) of problems._choose_mk for one time t > 0, one order J and
    one term k at a time in Python floats; terms lists the kept orders.
    Raises problems.TruncationError where the library does."""
    from fracfp import problems

    alpha = series.alpha
    A = abs(series.amplitude)
    p = series.power
    env, rgs, pmax = series.consts[beta]
    best = None
    for J in range(len(env)):
        e_env = p + 2 * (J + 1)
        try:
            c_env = env[J] * t ** (-alpha * (J + 1)) * A / (0.5 * problems._TAIL_TOL)
        except OverflowError:
            continue
        if not math.isfinite(c_env):
            continue
        m_req = _modes_for_oracle(c_env, e_env)
        terms = []
        feasible = True
        for k in range(1, J + 1):
            rg = abs(rgs[k])
            if rg == 0.0:
                continue
            noise = t ** (-alpha * k) * 5.0e-16 * pmax[k] * rg
            if noise <= 0.1 * problems._TAIL_TOL:
                terms.append(k)
            else:
                c_kill = rg * t ** (-alpha * k) * A / (0.1 * problems._TAIL_TOL)
                if not math.isfinite(c_kill):
                    feasible = False
                    break
                m_req = max(m_req, _modes_for_oracle(c_kill, p + 2 * k))
        if not feasible:
            continue
        if best is None or m_req < best[0]:
            best = (m_req, terms)
    if best is None or best[0] > problems._M_MAX:
        raise problems.TruncationError(f"series needs more modes at t = {t:g}")
    m_fin, terms = best
    kept = []
    for k in terms:
        e_k = p + 2 * k
        size = (abs(rgs[k]) * t ** (-alpha * k) * A * math.pi ** (-e_k)
                * (2.0 * m_fin + 1.0) ** (1 - e_k) / (2.0 * (e_k - 1.0)))
        if size > 0.02 * problems._TAIL_TOL:
            kept.append(k)
    return m_fin, kept


def structured_eval_per_term(series, kind: str, grid, t) -> np.ndarray:
    """The series at positive times t as one row of the library's row
    evaluator (identity fold, truncation at the smallest time), corrections
    added one term at a time.

    Each correction term k evaluates its closed form P_k afresh and adds
    (-1)^(k+1) rgamma(beta - alpha k) t**(-alpha k) (P_k - partial) to the
    time rows by its own outer product.  Returns shape (times, points).
    """
    from scipy.special import rgamma

    from fracfp import mittag_leffler, problems

    tp = np.atleast_1d(np.asarray(t, dtype=float))
    alpha = series.alpha
    beta = 1.0 if kind == "u" else alpha
    M, terms = choose_mk_oracle(series, beta, float(tp.min()))
    m = np.arange(M + 1)
    lam = (2.0 * m + 1.0) * math.pi
    c = series.coeffs(m)
    z = np.outer(tp ** alpha, lam * lam)
    E = np.asarray(mittag_leffler(alpha, beta, -z.ravel())).reshape(z.shape)
    sums = problems._mode_sum(grid, np.vstack([c * E] + [c * lam ** (-2.0 * k) for k in terms]))
    head = sums[: tp.size]
    for k, partial in zip(terms, sums[tp.size:]):
        rg = float(rgamma(beta - alpha * k))
        sign = 1.0 if k % 2 == 1 else -1.0
        gap = series.eval_P(k, grid.flat) - partial
        head += (sign * rg) * np.outer(tp ** (-alpha * k), gap)
    return head


def l1_weight_oracle(nodes: np.ndarray, alpha: float, n: int, j: int, dps: int = 60) -> float:
    """w_{n,j} = int_{I_j} int_{I_n} omega_alpha(sig - s) dsig ds at dps digits.

    The float64 nodes are taken exactly; the four increments of
    omega_{alpha+2} cancel in mpmath arithmetic, whose working precision
    covers the digits the cancellation takes on the meshes of the tests.
    """
    with mp.workdps(dps):
        tn, tnm1, tj, tjm1 = (mp.mpf(float(nodes[i])) for i in (n, n - 1, j, j - 1))
        e = mp.mpf(alpha) + 1
        f = lambda x: x ** e
        return float((f(tn - tjm1) - f(tnm1 - tjm1) - f(tn - tj) + f(tnm1 - tj)) / mp.gamma(e + 1))


def omega_increment_oracle(beta: float, a: float, b: float, dps: int = 60) -> float:
    """omega_beta(b) - omega_beta(a) at dps digits, with beta, a and b taken
    exactly as the float64 values the library receives."""
    with mp.workdps(dps):
        e = mp.mpf(beta) - 1
        return float((mp.mpf(b) ** e - mp.mpf(a) ** e) / mp.gamma(mp.mpf(beta)))


def tridiag_dense(A) -> np.ndarray:
    """Dense copy of a TriDiagMatrix."""
    return np.diag(A.diag) + np.diag(A.sub, -1) + np.diag(A.sup, 1)


def dense_matrices(nodes: np.ndarray, kappa, drift_avg):
    """Dense mass and transport matrices by per-element Gauss quadrature.

    G[p, q] = int kappa phi_q' phi_p' - int drift_avg phi_q phi_p'.
    Six-point Gauss per element, exact for all polynomial data in the tests.
    """
    n = nodes.size
    gx, gw = np.polynomial.legendre.leggauss(6)
    M = np.zeros((n, n))
    G = np.zeros((n, n))
    for e in range(n - 1):
        xl, xr = nodes[e], nodes[e + 1]
        h = xr - xl
        xq = 0.5 * (xl + xr) + 0.5 * h * gx
        wq = 0.5 * h * gw
        phi = np.vstack([(xr - xq) / h, (xq - xl) / h])
        dphi = np.array([-1.0 / h, 1.0 / h])
        kv = np.asarray(kappa(xq), dtype=float) * np.ones_like(xq)
        fv = (np.asarray(drift_avg(xq), dtype=float) * np.ones_like(xq)
              if drift_avg is not None else None)
        for a in range(2):
            for b in range(2):
                M[e + a, e + b] += np.sum(wq * phi[a] * phi[b])
                G[e + a, e + b] += np.sum(wq * kv) * dphi[b] * dphi[a]
                if fv is not None:
                    G[e + a, e + b] -= np.sum(wq * fv * phi[b]) * dphi[a]
    return M, G


def dense_load(nodes: np.ndarray, g) -> np.ndarray:
    """Load vector int g phi_p by six-point Gauss per element."""
    n = nodes.size
    gx, gw = np.polynomial.legendre.leggauss(6)
    out = np.zeros(n)
    for e in range(n - 1):
        xl, xr = nodes[e], nodes[e + 1]
        h = xr - xl
        xq = 0.5 * (xl + xr) + 0.5 * h * gx
        wq = 0.5 * h * gw
        gv = np.asarray(g(xq), dtype=float) * np.ones_like(xq)
        out[e] += np.sum(wq * gv * (xr - xq) / h)
        out[e + 1] += np.sum(wq * gv * (xq - xl) / h)
    return out


def cn_reference(nodes: np.ndarray, times: np.ndarray, u0_full: np.ndarray,
                 kappa, drift, f) -> np.ndarray:
    """Crank-Nicolson trajectory with Dirichlet ends, dense linear algebra.

    Drift is averaged over each interval's endpoints and the source is
    integrated exactly in time (eight-point Gauss); both match the target
    scheme's conventions in the alpha = 1 limit.
    """
    gx8, gw8 = np.polynomial.legendre.leggauss(8)
    nsteps = times.size - 1
    vals = np.zeros((nsteps + 1, nodes.size))
    vals[0] = u0_full
    U = u0_full[1:-1].copy()
    for nstep in range(1, nsteps + 1):
        t0, t1 = times[nstep - 1], times[nstep]
        tau = t1 - t0
        davg = (None if drift is None
                else (lambda x, _a=t0, _b=t1: 0.5 * (drift(x, _a) + drift(x, _b))))
        M, G = dense_matrices(nodes, kappa, davg)
        Mi, Gi = M[1:-1, 1:-1], G[1:-1, 1:-1]
        rhs = (Mi - 0.5 * tau * Gi) @ U
        if f is not None:
            tq = 0.5 * (t0 + t1) + 0.5 * tau * gx8
            wq = 0.5 * tau * gw8
            for tv, wv in zip(tq, wq):
                rhs = rhs + wv * dense_load(nodes, lambda x: f(x, tv))[1:-1]
        U = np.linalg.solve(Mi + 0.5 * tau * Gi, rhs)
        vals[nstep] = np.concatenate([[0.0], U, [0.0]])
    return vals


def direct_l1_solve(problem, config) -> np.ndarray:
    """Full nodal trajectory U^0..U^N of the L1 scheme, history summed
    directly: one dot product of the weight row with all stored increments
    per step.  Same building blocks as fracfp.solve, no blocking, separate
    increment and trajectory arrays.
    """
    from fracfp import (ConvolutionWeights, assemble_G, assemble_mass, assemble_source,
                        project_initial, thomas_solve, to_dof, to_full)
    from fracfp.fem1d import drift_band

    bc = problem.bc
    space, tmesh = config.spatial, config.mesh
    N = tmesh.N
    K = assemble_G(space, bc, problem.kappa(space.gauss2))
    U0_full = project_initial(problem.u0, space, bc, problem.default_projection,
                              kappa=problem.kappa, u0_prime=problem.u0_prime, stiffness=K)
    U0 = to_dof(U0_full, bc)
    U = U0.copy()
    W = np.zeros((N, U0.size))
    vals = np.zeros((N + 1, space.M_x + 1))
    vals[0] = U0_full
    mass = assemble_mass(space, bc)
    cw = ConvolutionWeights(tmesh, config.alpha)
    F = problem.drift
    xg = space.gauss2
    for n in range(1, N + 1):
        t0, t1 = tmesh.nodes[n - 1], tmesh.nodes[n]
        G = K if F is None else K.plus_scaled(
            drift_band(space, bc, 0.5 * (F(xg, t0) + F(xg, t1))), 1.0)
        S = mass.plus_scaled(G, cw.d(n))
        fvec = to_dof(assemble_source(problem, space, (t0, t1)), bc)
        hist = cw.w0(n) * U0
        if n >= 2:
            hist = hist + (cw.row(n) / tmesh.steps[: n - 1]) @ W[: n - 1]
        W[n - 1] = thomas_solve(S, fvec - G.matvec(hist))
        U = U + W[n - 1]
        vals[n] = to_full(U, bc)
    return vals


def source_integral_oracle(f, rho, nodes: np.ndarray, t0: float, t1: float) -> np.ndarray:
    """int_{t0}^{t1} <f, phi_p> dt with QUADPACK in both variables.

    The time integrand may behave like t**rho near t = 0; when the interval
    touches the origin the algebraic-weight rule handles it.  f here is the
    FULL source (singular factor included).
    """
    n = nodes.size
    out = np.zeros(n)

    def space_int(p, t):
        total = 0.0
        if p > 0:
            xl, xr = nodes[p - 1], nodes[p]
            total += integrate.quad(
                lambda x: f(x, t) * (x - xl) / (xr - xl), xl, xr, epsabs=1e-14, epsrel=1e-12
            )[0]
        if p < n - 1:
            xl, xr = nodes[p], nodes[p + 1]
            total += integrate.quad(
                lambda x: f(x, t) * (xr - x) / (xr - xl), xl, xr, epsabs=1e-14, epsrel=1e-12
            )[0]
        return total

    if t0 == 0.0 and rho != 0.0:
        raise ValueError("interval touches the singularity; use source_integral_singular")
    for p in range(n):
        out[p] = integrate.quad(lambda t: space_int(p, t), t0, t1,
                                epsabs=1e-15, epsrel=1e-13, limit=200)[0]
    return out


def source_integral_singular(g, rho, nodes: np.ndarray, t1: float) -> np.ndarray:
    """int_0^{t1} t**rho <g(.,t), phi_p> dt with the algebraic-weight rule.

    g is the smooth cofactor.  QUADPACK's 'alg' weight integrates
    (t - 0)**rho exactly in its rule, which sidesteps the singularity.
    """
    n = nodes.size
    out = np.zeros(n)

    def space_int(p, t):
        total = 0.0
        if p > 0:
            xl, xr = nodes[p - 1], nodes[p]
            total += integrate.quad(
                lambda x: g(x, t) * (x - xl) / (xr - xl), xl, xr, epsabs=1e-14, epsrel=1e-12
            )[0]
        if p < n - 1:
            xl, xr = nodes[p], nodes[p + 1]
            total += integrate.quad(
                lambda x: g(x, t) * (xr - x) / (xr - xl), xl, xr, epsabs=1e-14, epsrel=1e-12
            )[0]
        return total

    for p in range(n):
        out[p] = integrate.quad(
            lambda t: space_int(p, t), 0.0, t1,
            weight="alg", wvar=(rho, 0.0), epsabs=1e-15, epsrel=1e-13, limit=200,
        )[0]
    return out


def frac_integral_oracle(alpha: float, u_of_t, t: float, dps: int = 30) -> float:
    """(I^alpha u)(t) = int_0^t (t-s)^{alpha-1}/Gamma(alpha) u(s) ds via mpmath.

    tanh-sinh quadrature after splitting at the midpoint so both the s = t
    kernel singularity and any s = 0 data singularity sit at interval ends.
    """
    with mp.workdps(dps):
        ma = mp.mpf(alpha)
        mt = mp.mpf(t)
        kern = lambda s: (mt - s) ** (ma - 1) * mp.mpf(u_of_t(float(s)))
        val = mp.quad(kern, [0, mt / 2, mt]) / mp.gamma(ma)
        return float(val)


def make_problem(**kw):
    """A sourceless, driftless Dirichlet ProblemSpec on [0, 1] with zero
    initial data at alpha = 0.6, T = 1 and nodal projection; keywords
    replace any of its fields."""
    from fracfp import BcMode, ProblemSpec

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
