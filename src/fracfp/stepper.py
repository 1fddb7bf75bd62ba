"""L1 time stepping on a graded mesh for the fractional Fokker-Planck system.

init_state builds what every step reads once per solve (_Plan).  Per step:
add the drift band of the midpoint-averaged drift to the kappa stiffness,
form S^n = M + (tau_n^alpha/Gamma(alpha+2)) G^n, accumulate the
convolution history of increments, solve the tridiagonal system, advance.

The history sum is exact and runs in blocks of _BLOCK steps (see step), so
the stored increments are read once per block rather than once per step.
Increments and trajectory share one (N+1) x (M_x+1) buffer.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .fem1d import (
    BcMode,
    SpatialMesh,
    TriDiagMatrix,
    assemble_G,
    assemble_mass,
    drift_band,
    load_from_values,
    project_initial,
    thomas_solve,
    to_dof,
)
from .kernels import ConvolutionWeights
from .timegrid import GradedMesh, check_step_assumption

__all__ = [
    "SolverConfig",
    "SolverState",
    "Trajectory",
    "assemble_source",
    "init_state",
    "step",
    "solve",
]

_GL8_X, _GL8_W = np.polynomial.legendre.leggauss(8)

# steps whose history over the increments stored before them is summed in
# one matrix product
_BLOCK = 32


@dataclass(frozen=True)
class SolverConfig:
    """The discretisation: graded time mesh and P1 space.

    Boundary condition and initial projection belong to the problem
    (ProblemSpec.bc, ProblemSpec.default_projection); alpha must equal the
    problem's.
    """

    alpha: float
    mesh: GradedMesh
    spatial: SpatialMesh

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha}")


@dataclass(frozen=True)
class Trajectory:
    """Time stamps, full nodal vectors U^0..U^N, and the spatial mesh they
    live on.  Under Dirichlet conditions row 0 keeps the projected boundary
    values and rows 1..N have zero boundary entries."""

    times: np.ndarray
    values: np.ndarray
    spatial: SpatialMesh

    def __post_init__(self):
        if self.values.shape[0] != self.times.size:
            raise ValueError("one nodal vector per time stamp required")
        if self.values.shape[1] != self.spatial.M_x + 1:
            raise ValueError("nodal vectors do not match the spatial mesh")


@dataclass(frozen=True)
class _Plan:
    """What every step of one solve reads: the mass matrix, the kappa
    stiffness K and the weights."""

    mass: TriDiagMatrix
    K: TriDiagMatrix
    cw: ConvolutionWeights


@dataclass
class SolverState:
    """Mutable per-solve state: completed step count, increments, current
    solution at the unknowns, the per-solve plan, the drift at t_n on
    SpatialMesh.gauss2 (None without drift), and the open history block.  The
    boundary condition is read from the problem.

    W is the one (N+1) x (M_x+1) buffer of the solve: row 0 holds the full
    nodal U^0 and row n the increment W^n = U^n - U^(n-1) at the unknowns
    (Dirichlet boundary columns stay zero).  solve sums it in place into the
    trajectory U^0..U^N.  For the steps s..s+_BLOCK-1 of the open block,
    _hist_old[n-s] is sum_{j<s} (w_{n,j}/tau_j) W^j and _hist_tail[n-s, :n-s]
    are the weights w_{n,j}/tau_j for j = s..n-1.
    """

    n: int
    U_dof: np.ndarray
    W: np.ndarray
    _plan: _Plan
    _drift: object
    _hist_old: np.ndarray
    _hist_tail: np.ndarray


def _dofs(bc: BcMode) -> slice:
    """Columns of a full nodal vector that hold the unknowns."""
    return slice(1, -1) if bc is BcMode.DIRICHLET else slice(None)


def assemble_source(problem, spatial: SpatialMesh, interval) -> np.ndarray:
    """Full nodal vector with components int_{I_n} <f, phi_p> dt.

    The source is f = t**rho (f_regular + d/dx flux_regular), with f_regular
    and flux_regular smooth (problems declare rho; 0 means none); a problem
    without f_regular may give the pointwise f, singular factor included.
    The flux part is assembled as -<g, phi_p'> + [g phi_p]_a^b, so it needs g
    only, never its derivative; g is evaluated once per interval, on
    spatial.load_x (the Gauss points, then the two endpoints), in one
    batched call over the time nodes; f and f_regular on the Gauss points
    only.  Under Dirichlet conditions to_dof drops the boundary rows,
    endpoint terms included.  The time rule is 8-point Gauss in the
    substituted variable s = t**(rho+1); space uses 4-point Gauss per
    element.  Relative accuracy on the built-in manufactured sources is
    validated against adaptive quadrature in the tests.  ProblemSpec
    rejects rho <= -1 (non-integrable) when it is built.
    """
    if all(fn is None for fn in (problem.f, problem.f_regular, problem.flux_regular)):
        return np.zeros(spatial.M_x + 1)
    t0, t1 = interval
    rho = float(problem.rho or 0.0)
    if not 0.0 <= t0 < t1:
        raise ValueError(f"bad time interval ({t0}, {t1})")
    q = rho + 1.0
    # s = t**(rho+1) absorbs the endpoint singularity and, on graded meshes,
    # straightens the near-origin stretching that defeats rules in t itself
    s0, s1 = t0**q, t1**q
    shalf = 0.5 * (s1 - s0)
    svals = 0.5 * (s0 + s1) + shalf * _GL8_X
    tvals = svals ** (1.0 / q)

    def fold(fn, x):
        # one batched call over all time nodes; series-backed sources share
        # their trig mode matrices across the batch
        return np.tensordot(_GL8_W, np.asarray(fn(x, tvals), dtype=float), axes=(0, 0))

    quad_x = spatial.load_x[:-2]
    values = flux = ends = None
    if problem.f_regular is not None:
        values = fold(problem.f_regular, quad_x)
    elif problem.f is not None:
        values = np.zeros_like(quad_x)
        for wq, tv in zip(_GL8_W, tvals):
            values += wq * tv ** (-rho) * np.asarray(problem.f(quad_x, tv), dtype=float)
    if problem.flux_regular is not None:
        g = fold(problem.flux_regular, spatial.load_x)
        flux, ends = g[:-2], g[-2:]
    return load_from_values(spatial, values, flux, ends) * (shalf / q)


def init_state(problem, config: SolverConfig) -> SolverState:
    """Project the initial datum, build the per-solve plan (kappa is
    sampled here only, and must be positive) and evaluate the drift at t_0.

    Raises ValueError when config.alpha and problem.alpha differ (the scheme
    and the problem's source and exact solution must share one order), or
    when the spatial mesh's ends miss the problem domain's by more than
    1e-12 relative.
    """
    if config.alpha != problem.alpha:
        raise ValueError(f"config.alpha = {config.alpha} differs from "
                         f"problem.alpha = {problem.alpha}")
    space = config.spatial
    a, b = problem.domain
    tol = 1e-12 * max(abs(a), abs(b))
    if abs(space.a - a) > tol or abs(space.b - b) > tol:
        raise ValueError(f"spatial mesh [{space.a}, {space.b}] does not cover the problem domain [{a}, {b}]")
    bc = problem.bc
    U0_full = project_initial(problem.u0, space, bc, problem.default_projection,
                              kappa=problem.kappa, u0_prime=problem.u0_prime)
    W = np.zeros((config.mesh.N + 1, space.M_x + 1))
    W[0] = U0_full
    U_dof = to_dof(U0_full, bc)
    plan = _Plan(mass=assemble_mass(space, bc), K=assemble_G(space, bc, problem.kappa),
                 cw=ConvolutionWeights(config.mesh, config.alpha))
    return SolverState(
        n=0,
        U_dof=U_dof,
        W=W,
        _plan=plan,
        _drift=None if problem.drift is None else problem.drift(space.gauss2, config.mesh.nodes[0]),
        _hist_old=np.empty((0, U_dof.size)),
        _hist_tail=np.empty((0, 0)),
    )


def _open_block(state: SolverState, tmesh: GradedMesh, W: np.ndarray, s: int) -> None:
    """Weights of steps s..s+_BLOCK-1 (one row call each) and their history
    over W^1..W^{s-1} (W: the increment buffer at the unknowns), summed in
    one matrix product."""
    ms = range(s, min(s + _BLOCK, tmesh.N + 1))
    coeff = np.zeros((len(ms), s - 1 + len(ms)))
    for i, m in enumerate(ms):
        coeff[i, : m - 1] = state._plan.cw.row(m) / tmesh.steps[: m - 1]
    state._hist_old = coeff[:, : s - 1] @ W[1:s]
    state._hist_tail = coeff[:, s - 1 :]


def step(state: SolverState, config: SolverConfig, problem) -> SolverState:
    """Advance one time level: solve S^n W^n = f^n - w0(n) G^n U^0 - G^n H^n
    with the history vector H^n = sum_{j<n} (w_{n,j}/tau_j) W^j, and store
    W^n in row n of state.W.

    G^n is K plus the drift band of 0.5 (F(t_{n-1}) + F(t_n)), F sampled on
    SpatialMesh.gauss2; F(t_n) is kept for the next step (and for solve's
    step-size check), so a solve evaluates the drift N + 1 times.

    H^n is exact.  The first step of each block of _BLOCK steps takes the
    weight rows of all the block's steps and sums their history over the
    increments stored before the block in one matrix product, so the stored
    increments are read once per block; each step then adds at most
    _BLOCK - 1 terms over the block's own increments.

    Raises FloatingPointError, naming n and t_n, if W^n is not finite.
    """
    tmesh = config.mesh
    n = state.n + 1
    if n > tmesh.N:
        raise IndexError(f"trajectory already complete at N = {tmesh.N}")
    t0, t1 = tmesh.nodes[n - 1], tmesh.nodes[n]

    bc = problem.bc
    plan = state._plan
    G, F, drift = plan.K, problem.drift, None
    if F is not None:
        drift = F(config.spatial.gauss2, t1)
        G = G.plus_scaled(drift_band(config.spatial, bc, 0.5 * (state._drift + drift)), 1.0)
    S = plan.mass.plus_scaled(G, plan.cw.d(n))

    fvec = to_dof(assemble_source(problem, config.spatial, (t0, t1)), bc)

    W = state.W[:, _dofs(bc)]
    s = n - (n - 1) % _BLOCK
    if s == n:
        _open_block(state, tmesh, W, s)
    i = n - s
    hist = plan.cw.w0(n) * W[0] + (
        state._hist_old[i] + state._hist_tail[i, :i] @ W[s:n])

    Wn = thomas_solve(S, fvec - G.matvec(hist))
    if not np.isfinite(Wn).all():
        raise FloatingPointError(f"non-finite solution at step n = {n}, t_n = {t1:.6g}")
    W[n] = Wn
    state.U_dof = state.U_dof + Wn
    state._drift = drift
    state.n = n
    return state


def solve(problem, config: SolverConfig) -> Trajectory:
    """Run the full L1 sweep: O(N^2 d_h) time, with the stored increments
    read once per block of _BLOCK steps; memory is one (N+1) x (M_x+1)
    buffer, whose increment rows become the trajectory in place.

    After the sweep, emits a UserWarning (never an error) when the mesh
    fails the sufficient step-size condition for the discrete stability
    bound, checked on the solve's own samples: c0 is the largest |F| the
    steps computed (on SpatialMesh.gauss2 at t_0..t_N) and the diffusion
    floor the smallest kappa on gauss2, where K is assembled.  Filter it
    with warnings.filterwarnings("ignore", "time mesh violates").
    """
    state = init_state(problem, config)
    drift = problem.drift is not None
    c0 = float(np.abs(state._drift).max()) if drift else 0.0
    for _ in range(config.mesh.N):
        step(state, config, problem)
        if drift:
            c0 = max(c0, float(np.abs(state._drift).max()))
    kmin = float(np.min(problem.kappa(config.spatial.gauss2)))
    if not check_step_assumption(config.mesh, config.alpha, c0, kmin):
        warnings.warn(
            "time mesh violates the sufficient step-size condition; "
            "the discrete stability bound is not guaranteed",
            stacklevel=2,
        )
    # U^n = U^0 + W^1 + ... + W^n, added in step order; row 0 (full U^0) and
    # the Dirichlet boundary columns (zero for n >= 1) are left as they are
    W = state.W[:, _dofs(problem.bc)]
    np.cumsum(W, axis=0, out=W)
    return Trajectory(times=config.mesh.nodes.copy(), values=state.W,
                      spatial=config.spatial)
