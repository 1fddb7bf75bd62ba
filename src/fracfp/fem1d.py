"""P1 Galerkin finite elements on a uniform interval mesh.

The mesh owns the quadrature points every integral over it is sampled on.
Tridiagonal assembly of the mass matrix and the diffusion-advection matrix,
the one 4-point Gauss load assembly, the broken L2 norm used for error
measurement, initial-data projections, and the tridiagonal solve that
everything funnels through.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
import scipy.linalg

__all__ = [
    "BcMode",
    "SpatialMesh",
    "TriDiagMatrix",
    "SingularSystemError",
    "uniform_mesh",
    "assemble_mass",
    "assemble_G",
    "dof_slice",
    "drift_band",
    "l2_norm",
    "load_from_values",
    "load_vector",
    "project_initial",
    "thomas_solve",
    "to_dof",
    "to_full",
]

# 2-point and 4-point Gauss-Legendre rules on [-1, 1]
_G2 = 1.0 / math.sqrt(3.0)
_GL4_X, _GL4_W = np.polynomial.legendre.leggauss(4)
# drift_band's Gauss weights: -<F phi_L, phi_L'> = (1/h) int F phi_L, and the
# rule's weight h/2 times phi_L = (1 +- _G2)/2 at the element's two Gauss
# points gives 0.25 (1 +- _G2) per point; phi_R' flips the sign
_DRIFT_NEAR, _DRIFT_FAR = 0.25 * (1.0 + _G2), 0.25 * (1.0 - _G2)
_GTSV = scipy.linalg.get_lapack_funcs("gtsv", dtype=np.float64)


class BcMode(Enum):
    """Boundary handling: eliminate boundary nodes, or keep them with no flux."""

    DIRICHLET = "dirichlet"
    ZERO_FLUX = "zeroflux"


class SingularSystemError(Exception):
    """The tridiagonal solve hit a zero pivot."""


@dataclass(frozen=True)
class SpatialMesh:
    """Uniform mesh of M_x elements on [a, b], built from (a, b, M_x), which
    it compares and hashes by.  Derived here, read-only, and rebuilt by
    dataclasses.replace: h = (b - a)/M_x, the nodes x_p = a + p h, gauss2,
    the 2-point Gauss nodes of assemble_G and drift_band (every element's
    left node, then every right node), and load_x, the 4-point Gauss nodes
    of the loads element by element, then a and b for a flux's end terms."""

    a: float
    b: float
    M_x: int
    h: float = field(init=False, compare=False)
    nodes: np.ndarray = field(init=False, repr=False, compare=False)
    gauss2: np.ndarray = field(init=False, repr=False, compare=False)
    load_x: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        a, b, m = self.a, self.b, self.M_x
        if not (math.isfinite(a) and math.isfinite(b) and b > a):
            raise ValueError(f"need finite b > a, got [{a}, {b}]")
        if isinstance(m, bool) or not isinstance(m, numbers.Integral):
            raise ValueError(f"M_x must be an integer, got {m!r}")
        if m < 2:
            raise ValueError(f"need at least 2 elements, got {m}")
        m = int(m)
        h, nodes = (b - a) / m, np.linspace(a, b, m + 1)
        xm, half = 0.5 * (nodes[:-1] + nodes[1:]), 0.5 * h
        gauss2 = np.ravel(xm + half * np.array([[-_G2], [_G2]]))
        load_x = np.append(xm[:, None] + half * _GL4_X, [a, b])
        nodes.flags.writeable = gauss2.flags.writeable = load_x.flags.writeable = False
        for name, value in (("M_x", m), ("h", h), ("nodes", nodes), ("gauss2", gauss2), ("load_x", load_x)):
            object.__setattr__(self, name, value)


def uniform_mesh(a: float, b: float, m: int) -> SpatialMesh:
    """The mesh of m elements on [a, b]; SpatialMesh(a, b, m)."""
    return SpatialMesh(a, b, m)


@dataclass(frozen=True)
class TriDiagMatrix:
    sub: np.ndarray
    diag: np.ndarray
    sup: np.ndarray

    def __post_init__(self):
        if self.sub.size != self.diag.size - 1 or self.sup.size != self.diag.size - 1:
            raise ValueError("inconsistent tridiagonal band lengths")

    @property
    def n(self) -> int:
        return self.diag.size

    def matvec(self, v: np.ndarray) -> np.ndarray:
        out = self.diag * v
        out[:-1] += self.sup * v[1:]
        out[1:] += self.sub * v[:-1]
        return out

    def plus_scaled(self, other: "TriDiagMatrix", c: float) -> "TriDiagMatrix":
        """self + c * other."""
        return TriDiagMatrix(
            self.sub + c * other.sub, self.diag + c * other.diag, self.sup + c * other.sup
        )


def dof_slice(bc: BcMode) -> slice:
    """Entries of a full nodal vector that hold the unknowns: Dirichlet
    conditions drop one node at each end, zero flux keeps every node."""
    return slice(1, -1) if bc is BcMode.DIRICHLET else slice(0, None)


def _bands(sub: np.ndarray, diag: np.ndarray, sup: np.ndarray, bc: BcMode) -> TriDiagMatrix:
    """The band matrix on the unknowns, from bands over every node."""
    s = dof_slice(bc)
    return TriDiagMatrix(sub[s], diag[s], sup[s])


def to_dof(v_full: np.ndarray, bc: BcMode) -> np.ndarray:
    """Full nodal vector -> unknown vector (along the last axis)."""
    return v_full[..., dof_slice(bc)].copy()


def to_full(v_dof: np.ndarray, bc: BcMode) -> np.ndarray:
    """Unknown vector -> full nodal vector (Dirichlet boundary entries zero)."""
    s = dof_slice(bc)
    out = np.zeros(v_dof.size + 2 * s.start)
    out[s] = v_dof
    return out


def assemble_mass(mesh: SpatialMesh, bc: BcMode) -> TriDiagMatrix:
    """Exact P1 mass matrix: interior diag 2h/3, boundary diag h/3, off h/6."""
    h = mesh.h
    diag = np.full(mesh.M_x + 1, 2.0 * h / 3.0)
    diag[0] = diag[-1] = h / 3.0
    off = np.full(mesh.M_x, h / 6.0)
    return _bands(off, diag, off.copy(), bc)


def _eval_on(fun, x: np.ndarray) -> np.ndarray:
    """Evaluate a pointwise callable, broadcasting scalar-valued results."""
    return np.broadcast_to(np.asarray(fun(x), dtype=float), x.shape)


def drift_band(mesh: SpatialMesh, bc: BcMode, values) -> TriDiagMatrix:
    """Matrix of -<F phi_q, phi_p'>, 2-point Gauss per element (exact for
    affine F); values holds F on mesh.gauss2, or one number."""
    d1, d2 = np.broadcast_to(np.asarray(values, dtype=float), mesh.gauss2.shape).reshape(2, -1)
    d_ll = _DRIFT_NEAR * d1 + _DRIFT_FAR * d2
    d_lr = _DRIFT_FAR * d1 + _DRIFT_NEAR * d2
    diag = np.empty(mesh.M_x + 1)
    diag[:-1] = d_ll
    diag[-1] = 0.0
    diag[1:] -= d_lr
    return _bands(-d_ll, diag, d_lr, bc)


def assemble_G(mesh: SpatialMesh, bc: BcMode, kappa) -> TriDiagMatrix:
    """Stiffness matrix <kappa phi_q', phi_p'>, 2-point Gauss per element
    (exact for constant kappa); kappa holds its values on mesh.gauss2, or
    one number, as drift_band's values do.  The drift part is added as
    drift_band.  Raises if kappa is nonpositive at a quadrature node.
    """
    kv = np.broadcast_to(np.asarray(kappa, dtype=float), mesh.gauss2.shape)
    if np.any(kv <= 0.0):
        raise ValueError("kappa must be positive at every quadrature node")
    k_el = (kv[: mesh.M_x] + kv[mesh.M_x :]) / (2.0 * mesh.h)
    diag = np.zeros(mesh.M_x + 1)
    diag[:-1] += k_el
    diag[1:] += k_el
    return _bands(-k_el, diag, -k_el, bc)


def l2_norm(values: np.ndarray, mesh: SpatialMesh) -> float:
    """L2(a,b) norm of the piecewise-linear interpolant of nodal values.

    Uses the closed form h (v_l^2 + v_l v_r + v_r^2) / 3 per element, which
    is what a 2-point Gauss rule gives exactly.
    """
    v = np.asarray(values, dtype=float)
    if v.shape != mesh.nodes.shape:
        raise ValueError(f"expected {mesh.nodes.size} nodal values, got {v.size}")
    vl = v[:-1]
    vr = v[1:]
    acc = float(np.sum(vl * vl + vl * vr + vr * vr))
    return math.sqrt(mesh.h * acc / 3.0)


def load_from_values(mesh: SpatialMesh, values=None, flux=None, ends=None) -> np.ndarray:
    """Full nodal vector of <v, phi_p> - <g, phi_p'> + [g phi_p]_a^b.

    values and flux hold v and g on the interior points mesh.load_x[:-2];
    ends holds g(a), g(b).  Any of them may be None.  With all three this is
    the load of v + g'.  Leading axes are rows: each row gives one vector.
    """
    lead = np.shape(values if values is not None else flux if flux is not None else ends)[:-1]
    out = np.zeros(lead + (mesh.M_x + 1,))
    if values is not None:
        half = 0.5 * mesh.h
        values = values.reshape(lead + (mesh.M_x, 4))
        out[..., :-1] += half * (values @ (_GL4_W * (0.5 * (1.0 - _GL4_X))))
        out[..., 1:] += half * (values @ (_GL4_W * (0.5 * (1.0 + _GL4_X))))
    if flux is not None:
        # phi_p' = -+1/h cancels the h/2 scale of the rule
        el = 0.5 * (flux.reshape(lead + (mesh.M_x, 4)) @ _GL4_W)
        out[..., :-1] += el
        out[..., 1:] -= el
    if ends is not None:
        out[..., 0] -= ends[..., 0]
        out[..., -1] += ends[..., 1]
    return out


def load_vector(g, mesh: SpatialMesh) -> np.ndarray:
    """Full nodal vector of ∫ g φ_p dx, 4-point Gauss per element."""
    return load_from_values(mesh, _eval_on(g, mesh.load_x[:-2]))


def project_initial(u0, mesh: SpatialMesh, bc: BcMode, mode: str,
                    kappa=None, u0_prime=None, stiffness=None) -> np.ndarray:
    """Project the initial datum onto the P1 space; returns full nodal values.

    mode "nodal" samples u0 at the nodes; "l2" solves the mass system with a
    4-point Gauss load vector; "ritz" solves the kappa-weighted stiffness
    system (Dirichlet only; needs kappa and u0_prime for the load, sampled
    on the load points, and the matrix as stiffness: assemble_G(mesh, bc,
    kappa on mesh.gauss2), a solve's K).
    """
    if mode == "nodal":
        return _eval_on(u0, mesh.nodes).copy()

    if mode == "l2":
        rhs = load_vector(u0, mesh)
        mass = assemble_mass(mesh, bc)
        return to_full(thomas_solve(mass, to_dof(rhs, bc)), bc)

    if mode == "ritz":
        if kappa is None:
            raise ValueError("ritz projection needs the diffusion coefficient kappa")
        if bc is not BcMode.DIRICHLET:
            # the pure-Neumann stiffness matrix is singular (constants)
            raise ValueError("ritz projection is only supported with dirichlet boundaries")
        if u0_prime is None:
            raise ValueError("ritz projection needs the derivative u0_prime")
        if stiffness is None:
            raise ValueError("ritz projection needs the kappa stiffness matrix")
        xg = mesh.load_x[:-2]
        # <kappa u0', phi_p'> is the load of -(kappa u0')' in flux form
        rhs = load_from_values(mesh, flux=-_eval_on(kappa, xg) * _eval_on(u0_prime, xg))
        return to_full(thomas_solve(stiffness, to_dof(rhs, bc)), bc)

    raise ValueError(f"unknown projection mode {mode!r}")


def thomas_solve(A: TriDiagMatrix, rhs: np.ndarray) -> np.ndarray:
    """Solve the tridiagonal system A x = rhs.

    Backed by LAPACK's gtsv (elimination with partial pivoting); raises
    SingularSystemError on a zero pivot (exactly singular systems).
    """
    b = np.asarray(rhs, dtype=float)
    if b.shape != A.diag.shape:
        raise ValueError(f"rhs length {b.size} does not match system size {A.n}")
    if A.n == 1:
        # the gtsv wrapper rejects empty off-diagonal bands
        info = int(A.diag[0] == 0.0)
        x = b / A.diag if info == 0 else b
    else:
        _, _, _, x, info = _GTSV(A.sub, A.diag, A.sup, b)
    if info > 0:
        raise SingularSystemError(f"tridiagonal solve failed: zero pivot at row {info}")
    return x
