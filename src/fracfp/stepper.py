"""L1 time stepping on a graded mesh for the fractional Fokker-Planck system.

SolverState(problem, config) builds what every step reads.  Per step:
add the drift band of the midpoint-averaged drift to the kappa stiffness,
form S^n = M + (tau_n^alpha/Gamma(alpha+2)) G^n, accumulate the
convolution history of increments, solve the tridiagonal system, advance.

The history sum, over U^0 as the zeroth increment W^0 and the
increments after it, is exact and split three ways (see step).  A panel of
_PANEL steps sums its history over every increment stored before it in
one matrix product, so the stored increments are read once per panel;
each block of _BLOCK steps inside the panel adds its history over the
panel's earlier increments, and each step its history over the block's.
The partial sums wait in the increment rows of their own steps, which
are unused until those steps run.  The source loads come per block:
assemble_source takes arrays of interval ends, and the first step of a
block assembles the loads of all its steps at once (nothing for a
sourceless problem).  Increments, partial sums and trajectory share one
(N+1) x (M_x+1) buffer.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .fem1d import (
    SpatialMesh,
    TriDiagMatrix,
    assemble_G,
    assemble_mass,
    dof_slice,
    drift_band,
    load_from_values,
    project_initial,
    thomas_solve,
    to_dof,
)
from .kernels import ConvolutionWeights
from .problems import ProblemSpec
from .timegrid import GradedMesh, step_condition_failure

__all__ = [
    "SolverConfig",
    "SolverState",
    "Trajectory",
    "assemble_source",
    "step",
    "solve",
]

_GL8_X, _GL8_W = np.polynomial.legendre.leggauss(8)

# steps whose history over the increments stored before them is summed in
# one matrix product: a panel over the increments before it, then each
# block over the panel's increments before the block
_BLOCK = 32
_PANEL = 4 * _BLOCK


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


@dataclass(eq=False)
class SolverState:
    """One solve's mutable state, built from (problem, config) alone: step
    reads nothing else, and problem and config cannot be reassigned (build a
    new state instead).  Derived: the completed step count n, the solution
    at the unknowns (updated in place), increments, the mass matrix, K and
    the diffusion floor (from one kappa sample on SpatialMesh.gauss2, which
    the ritz projection of U^0 reuses through K), the weights, the drift at
    t_n on gauss2 (0.0 without drift) and the open panel and block (None
    before the first step).  Compares by identity.

    W is the one (N+1) x (M_x+1) buffer of the solve: row 0 holds the full
    nodal U^0, the zeroth increment W^0, and row n, once step n has run, the
    increment W^n = U^n - U^(n-1) at the unknowns (Dirichlet boundary
    columns stay zero).  solve sums it in place into the trajectory
    U^0..U^N.  Until step n runs, row n holds a partial history instead:
    with the open panel p..p+_PANEL-1 and block s..s+_BLOCK-1, the sum over
    j < s of c_{n,j} W^j for the block's steps, over j < p for the panel's
    later steps, and zero past the panel.  _coeff[n-p, :n] are the c_{n,j}
    of the panel's steps (see step), and _loads[n-s] is the load f^n at
    the unknowns (_loads stays None for a sourceless problem).

    Raises ValueError when config.alpha and problem.alpha differ (scheme,
    source and exact solution share one order), when the spatial mesh's
    ends miss the problem domain's by over 1e-12 relative, or when kappa
    is not positive on gauss2.
    """

    problem: ProblemSpec
    config: SolverConfig
    n: int = field(init=False)
    U_dof: np.ndarray = field(init=False)
    W: np.ndarray = field(init=False)
    _mass: TriDiagMatrix = field(init=False)
    _K: TriDiagMatrix = field(init=False)
    _kappa_min: float = field(init=False)
    _cw: ConvolutionWeights = field(init=False)
    _drift: object = field(init=False)
    _coeff: np.ndarray = field(init=False, default=None)
    _loads: np.ndarray = field(init=False, default=None)

    def __setattr__(self, name, value):
        # W, weights, K and the loads were derived from the first values
        if name in ("problem", "config") and name in self.__dict__:
            raise AttributeError(f"SolverState.{name} is fixed when the state is built")
        super().__setattr__(name, value)

    def __post_init__(self):
        problem, config = self.problem, self.config
        if config.alpha != problem.alpha:
            raise ValueError(f"config.alpha = {config.alpha} differs from "
                             f"problem.alpha = {problem.alpha}")
        space, bc = config.spatial, problem.bc
        a, b = problem.domain
        tol = 1e-12 * max(abs(a), abs(b))
        if abs(space.a - a) > tol or abs(space.b - b) > tol:
            raise ValueError(f"spatial mesh [{space.a}, {space.b}] does not cover the problem domain [{a}, {b}]")
        kappa = problem.kappa(space.gauss2)
        self._mass, self._K = assemble_mass(space, bc), assemble_G(space, bc, kappa)
        self._kappa_min = float(np.min(kappa))
        U0_full = project_initial(problem.u0, space, bc, problem.default_projection,
                                  kappa=problem.kappa, u0_prime=problem.u0_prime, stiffness=self._K)
        self.W = np.zeros((config.mesh.N + 1, space.M_x + 1))
        self.W[0] = U0_full
        self.n, self.U_dof = 0, to_dof(U0_full, bc)
        self._cw = ConvolutionWeights(config.mesh, config.alpha)
        self._drift = 0.0 if problem.drift is None else problem.drift(space.gauss2, config.mesh.nodes[0])


def assemble_source(problem, spatial: SpatialMesh, interval) -> np.ndarray:
    """Full nodal vectors with components int_{I_n} <f, phi_p> dt.

    interval is (t0, t1): two numbers, or two arrays of interval ends of one
    shape, which give one vector per interval (shape t0.shape + (M_x+1,)).
    The source is f = t**rho (f_regular + d/dx flux_regular), with smooth
    f_regular and flux_regular (problems declare rho; 0 means none), or the
    pointwise f, singular factor included.  The flux part is assembled as
    -<g, phi_p'> + [g phi_p]_a^b, so g is never differentiated; it is sampled
    on spatial.load_x (the Gauss points, then a and b), f and f_regular on
    the Gauss points.  The time rule, 8-point Gauss in s = t**(rho+1), is
    folded in one place: by a part's own time_fold method, given the
    (intervals, 8) Gauss times (the series fluxes: one evaluation for all
    the intervals, each interval its own row), else after one batched call
    with all the intervals' times (f: one call per time).  Space uses
    4-point Gauss per element; under Dirichlet conditions to_dof drops the
    boundary rows, end terms included.  The tests check the result against
    adaptive quadrature.  ProblemSpec rejects a non-finite rho, and
    rho <= -1 (non-integrable), when it is built.
    """
    t0, t1 = np.broadcast_arrays(*(np.asarray(end, dtype=float) for end in interval))
    if not np.all((0.0 <= t0) & (t0 < t1) & (t1 < math.inf)):
        raise ValueError(f"bad time interval ({interval[0]}, {interval[1]})")
    if not problem.has_source:
        return np.zeros(t0.shape + (spatial.M_x + 1,))
    rho = problem.rho
    q = rho + 1.0
    # s = t**(rho+1) absorbs the endpoint singularity and, on graded meshes,
    # straightens the near-origin stretching that defeats rules in t itself
    s0, s1 = t0**q, t1**q
    shalf = 0.5 * (s1 - s0)
    tvals = ((0.5 * (s0 + s1))[..., None] + shalf[..., None] * _GL8_X) ** (1.0 / q)
    rows = tvals.reshape(-1, _GL8_X.size)

    def fold(fn, x, w=_GL8_W):
        # sum_q w_q fn(x, t_q) per interval; a series flux folds w into its
        # own evaluation
        if hasattr(fn, "time_fold"):
            return fn.time_fold(x, rows, w)
        vals = np.asarray(fn(x, rows.ravel()), dtype=float).reshape(rows.shape + (-1,))
        return (np.broadcast_to(w, rows.shape)[:, None, :] @ vals)[:, 0]

    quad_x = spatial.load_x[:-2]
    values = flux = ends = None
    if problem.f_regular is not None:
        values = fold(problem.f_regular, quad_x)
    elif problem.f is not None:  # one time per call, t**rho included
        values = fold(lambda x, ts: [np.broadcast_to(problem.f(x, tv), x.shape) for tv in ts],
                      quad_x, _GL8_W * rows ** (-rho))
    if problem.flux_regular is not None:
        g = fold(problem.flux_regular, spatial.load_x)
        flux, ends = g[:, :-2], g[:, -2:]
    load = load_from_values(spatial, values, flux, ends) * (shalf.reshape(-1, 1) / q)
    return load.reshape(t0.shape + (spatial.M_x + 1,))


def _open_block(state: SolverState, W: np.ndarray, s: int) -> None:
    """Open the block of steps s..s+_BLOCK-1 (W: the increment buffer at the
    unknowns): assemble its loads in one assemble_source call.  At a
    panel's first block, take the panel's coefficient rows (w0 and one row
    call each) and write their history over W^0..W^{p-1} into the panel's
    rows of W, in one matrix product.  Every block then adds to its
    rows their history over the panel's increments before s, in one more
    (empty at the panel's first block)."""
    problem, tmesh = state.problem, state.config.mesh
    N = tmesh.N
    stop = min(s + _BLOCK, N + 1)
    if problem.has_source:
        # before the panel product touches the panel's rows, which keeps
        # this assembly's temporaries out of the peak
        ends = tmesh.nodes[s - 1 : stop]
        state._loads = to_dof(assemble_source(problem, state.config.spatial, (ends[:-1], ends[1:])), problem.bc)
    p = s - (s - 1) % _PANEL
    if p == s:
        state._coeff = None  # free the last panel's rows before the next ones
        ms = range(p, min(p + _PANEL, N + 1))
        coeff = np.zeros((len(ms), p + len(ms)))
        for i, m in enumerate(ms):
            coeff[i, 0] = state._cw.w0(m)
            coeff[i, 1:m] = state._cw.row(m) / tmesh.steps[: m - 1]
        state._coeff = coeff
        np.matmul(coeff[:, :p], W[:p], out=W[p : ms.stop])
    W[s:stop] += state._coeff[s - p : stop - p, p:s] @ W[p:s]


def step(state: SolverState) -> SolverState:
    """Advance one time level: solve S^n W^n = f^n - G^n H^n with the
    history H^n = sum_{j=0}^{n-1} c_{n,j} W^j (W^0 = U^0, c_{n,0} = w0(n),
    c_{n,j} = w_{n,j}/tau_j), and store W^n in row n of state.W.

    G^n is K plus the drift band of 0.5 (F(t_{n-1}) + F(t_n)), F sampled on
    SpatialMesh.gauss2; F(t_n) is kept for the next step (and for solve's
    step-size check), so a solve evaluates the drift N + 1 times.

    H^n is exact and summed in three parts, each over the increments the
    last part left out.  The first step of each panel of _PANEL steps
    takes the coefficient rows of all the panel's steps and sums their
    history over the increments stored before the panel in one product, so
    the stored increments are read once per panel.  The first step of each
    block of _BLOCK steps inside it adds the history over the panel's
    increments before the block, in one product, and each step then adds
    at most _BLOCK - 1 terms over the block's own increments.  The partial
    sums wait in the rows of state.W that the increments of their steps
    will take.  The first step of each block also assembles the loads f^n
    of all the block's steps in one assemble_source call (one series
    evaluation for the built-in problems), and each step reads its own.

    Raises FloatingPointError, naming n and t_n, if W^n is not finite.
    """
    problem, space, tmesh = state.problem, state.config.spatial, state.config.mesh
    n = state.n + 1
    if n > tmesh.N:
        raise IndexError(f"trajectory already complete at N = {tmesh.N}")
    t1 = tmesh.nodes[n]

    bc = problem.bc
    G, F, drift = state._K, problem.drift, 0.0
    if F is not None:
        drift = F(space.gauss2, t1)
        G = G.plus_scaled(drift_band(space, bc, state._drift + drift), 0.5)
    S = state._mass.plus_scaled(G, state._cw.d(n))

    W = state.W[:, dof_slice(bc)]
    s = n - (n - 1) % _BLOCK
    if s == n:
        _open_block(state, W, s)
    # W[n] holds the history over the increments before the block
    hist = state._coeff[(n - 1) % _PANEL, s:n] @ W[s:n]
    hist += W[n]

    rhs = -G.matvec(hist)
    if state._loads is not None:
        rhs += state._loads[n - s]
    Wn = thomas_solve(S, rhs)
    if not np.isfinite(Wn).all():
        raise FloatingPointError(f"non-finite solution at step n = {n}, t_n = {t1:.6g}")
    W[n] = Wn
    state.U_dof += Wn
    state._drift = drift
    state.n = n
    return state


def solve(problem, config: SolverConfig) -> Trajectory:
    """Run the full L1 sweep: O(N^2 d_h) time, with the stored increments
    read once per panel of _PANEL steps (see step); memory is one
    (N+1) x (M_x+1) buffer, whose increment rows become the trajectory in
    place, and the open panel's weights and block's loads.

    After the sweep, emits a UserWarning (never an error) when the mesh
    fails the sufficient step-size condition for the discrete stability
    bound, checked on the solve's own samples: c0 is the largest |F| the
    steps computed (on SpatialMesh.gauss2 at t_0..t_N) and the diffusion
    floor the smallest kappa in the gauss2 sample K is assembled from.  The
    warning names the first failing step n, its t_n and the largest
    left-hand side of the condition (timegrid.step_condition_failure).  Filter
    it with warnings.filterwarnings("ignore", "time mesh violates").
    """
    state = SolverState(problem, config)
    c0 = float(np.abs(state._drift).max())
    for _ in range(config.mesh.N):
        step(state)
        c0 = max(c0, float(np.abs(state._drift).max()))
    failure = step_condition_failure(config.mesh, config.alpha, c0, state._kappa_min)
    if failure is not None:
        n, lhs_max = failure
        warnings.warn(
            f"time mesh violates the sufficient step-size condition first at step "
            f"n = {n}, t_n = {config.mesh.nodes[n]:.6g} (largest left-hand side "
            f"{lhs_max:.6g} > 1); the discrete stability bound is not guaranteed",
            stacklevel=2,
        )
    # U^n = W^0 + W^1 + ... + W^n, added in step order; row 0 (full U^0) and
    # the Dirichlet boundary columns (zero for n >= 1) are left as they are
    W = state.W[:, dof_slice(problem.bc)]
    np.cumsum(W, axis=0, out=W)
    return Trajectory(times=config.mesh.nodes.copy(), values=state.W,
                      spatial=config.spatial)
