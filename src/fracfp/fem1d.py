"""P1 Galerkin finite elements on a uniform interval mesh.

The mesh owns the quadrature points every integral over it is sampled on.
Tridiagonal assembly of the mass matrix and the diffusion-advection matrix,
the one 4-point Gauss load assembly, the broken L2 norm used for error
measurement, initial-data projections, and the tridiagonal solve that
everything funnels through.
"""

from __future__ import annotations

import math
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
_GTSV = scipy.linalg.get_lapack_funcs("gtsv", dtype=np.float64)


class BcMode(Enum):
    """Boundary handling: eliminate boundary nodes, or keep them with no flux."""

    DIRICHLET = "dirichlet"
    ZERO_FLUX = "zeroflux"


class SingularSystemError(Exception):
    """The tridiagonal solve hit a zero pivot."""


@dataclass(frozen=True)
class SpatialMesh:
    """Uniform mesh of M_x elements on [a, b] with nodes x_p = a + p h, and
    the read-only points its integrals are sampled on, built with it: gauss2,
    the 2-point Gauss nodes of assemble_G and drift_band (every element's
    left node, then every right node), and load_x, the 4-point Gauss nodes
    of the loads element by element, then a and b for a flux's end terms."""

    a: float
    b: float
    M_x: int
    h: float
    nodes: np.ndarray
    gauss2: np.ndarray = field(init=False, repr=False, compare=False)
    load_x: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        xm, half = 0.5 * (self.nodes[:-1] + self.nodes[1:]), 0.5 * self.h
        object.__setattr__(self, "gauss2", np.ravel(xm + half * np.array([[-_G2], [_G2]])))
        object.__setattr__(self, "load_x", np.append(xm[:, None] + half * _GL4_X, [self.a, self.b]))
        self.gauss2.flags.writeable = self.load_x.flags.writeable = False


def uniform_mesh(a: float, b: float, m: int) -> SpatialMesh:
    if not (math.isfinite(a) and math.isfinite(b) and b > a):
        raise ValueError(f"need finite b > a, got [{a}, {b}]")
    if m < 2:
        raise ValueError(f"need at least 2 elements, got {m}")
    nodes = np.linspace(a, b, m + 1)
    return SpatialMesh(a=a, b=b, M_x=m, h=(b - a) / m, nodes=nodes)


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


def _restrict(full: TriDiagMatrix, bc: BcMode) -> TriDiagMatrix:
    # Dirichlet drops the first and last row and column
    if bc is BcMode.DIRICHLET:
        return TriDiagMatrix(full.sub[1:-1], full.diag[1:-1], full.sup[1:-1])
    return full


def to_dof(v_full: np.ndarray, bc: BcMode) -> np.ndarray:
    """Full nodal vector -> unknown vector."""
    return v_full[1:-1].copy() if bc is BcMode.DIRICHLET else v_full.copy()


def to_full(v_dof: np.ndarray, bc: BcMode) -> np.ndarray:
    """Unknown vector -> full nodal vector (Dirichlet boundary entries zero)."""
    if bc is BcMode.DIRICHLET:
        out = np.zeros(v_dof.size + 2)
        out[1:-1] = v_dof
        return out
    return v_dof.copy()


def assemble_mass(mesh: SpatialMesh, bc: BcMode) -> TriDiagMatrix:
    """Exact P1 mass matrix: interior diag 2h/3, boundary diag h/3, off h/6."""
    h = mesh.h
    diag = np.full(mesh.M_x + 1, 2.0 * h / 3.0)
    diag[0] = diag[-1] = h / 3.0
    off = np.full(mesh.M_x, h / 6.0)
    return _restrict(TriDiagMatrix(off, diag, off.copy()), bc)


def _eval_on(fun, x: np.ndarray) -> np.ndarray:
    """Evaluate a pointwise callable, broadcasting scalar-valued results."""
    vals = np.asarray(fun(x), dtype=float)
    if vals.shape != x.shape:
        vals = np.broadcast_to(vals, x.shape)
    return vals


def drift_band(mesh: SpatialMesh, bc: BcMode, values) -> TriDiagMatrix:
    """Matrix of -<F phi_q, phi_p'>, 2-point Gauss per element (exact for
    affine F); values holds F on mesh.gauss2, or one number."""
    d = np.asarray(values, dtype=float)
    if d.shape != (2 * mesh.M_x,):
        d = np.broadcast_to(d, (2 * mesh.M_x,))
    d1, d2 = d.reshape(2, -1)
    # -<F phi_L, phi_L'> = +(1/h) int F phi_L with phi_L = (1 +- _G2)/2 at
    # the two Gauss points, and phi_R' flips the sign
    d_ll = 0.25 * (d1 * (1.0 + _G2) + d2 * (1.0 - _G2))
    d_lr = 0.25 * (d1 * (1.0 - _G2) + d2 * (1.0 + _G2))
    diag = np.zeros(mesh.M_x + 1)
    diag[:-1] += d_ll
    diag[1:] -= d_lr
    return _restrict(TriDiagMatrix(-d_ll, diag, d_lr), bc)


def assemble_G(mesh: SpatialMesh, bc: BcMode, kappa) -> TriDiagMatrix:
    """Stiffness matrix <kappa phi_q', phi_p'>, 2-point Gauss per element
    (exact for constant kappa); the drift part is added as drift_band.
    Raises if kappa is nonpositive at a quadrature node.
    """
    kv = _eval_on(kappa, mesh.gauss2)
    if np.any(kv <= 0.0):
        raise ValueError("kappa must be positive at every quadrature node")
    k_el = (kv[: mesh.M_x] + kv[mesh.M_x :]) / (2.0 * mesh.h)
    diag = np.zeros(mesh.M_x + 1)
    diag[:-1] += k_el
    diag[1:] += k_el
    return _restrict(TriDiagMatrix(-k_el, diag, -k_el), bc)


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
    the load of v + g'.
    """
    out = np.zeros(mesh.M_x + 1)
    if values is not None:
        half = 0.5 * mesh.h
        values = values.reshape(mesh.M_x, 4)
        out[:-1] += half * (values @ (_GL4_W * (0.5 * (1.0 - _GL4_X))))
        out[1:] += half * (values @ (_GL4_W * (0.5 * (1.0 + _GL4_X))))
    if flux is not None:
        # phi_p' = -+1/h cancels the h/2 scale of the rule
        el = 0.5 * (flux.reshape(mesh.M_x, 4) @ _GL4_W)
        out[:-1] += el
        out[1:] -= el
    if ends is not None:
        out[0] -= ends[0]
        out[-1] += ends[1]
    return out


def load_vector(g, mesh: SpatialMesh) -> np.ndarray:
    """Full nodal vector of ∫ g φ_p dx, 4-point Gauss per element."""
    return load_from_values(mesh, _eval_on(g, mesh.load_x[:-2]))


def project_initial(u0, mesh: SpatialMesh, bc: BcMode, mode: str,
                    kappa=None, u0_prime=None) -> np.ndarray:
    """Project the initial datum onto the P1 space; returns full nodal values.

    mode "nodal" samples u0 at the nodes; "l2" solves the mass system with a
    4-point Gauss load vector; "ritz" solves the kappa-weighted stiffness
    system (Dirichlet only; needs kappa and u0_prime).
    """
    kind = mode.lower()
    if kind == "nodal":
        return _eval_on(u0, mesh.nodes).copy()

    if kind == "l2":
        rhs = load_vector(u0, mesh)
        mass = assemble_mass(mesh, bc)
        return to_full(thomas_solve(mass, to_dof(rhs, bc)), bc)

    if kind == "ritz":
        if kappa is None:
            raise ValueError("ritz projection needs the diffusion coefficient kappa")
        if bc is not BcMode.DIRICHLET:
            # the pure-Neumann stiffness matrix is singular (constants)
            raise ValueError("ritz projection is only supported with dirichlet boundaries")
        if u0_prime is None:
            raise ValueError("ritz projection needs the derivative u0_prime")
        xg = mesh.load_x[:-2]
        # <kappa u0', phi_p'> is the load of -(kappa u0')' in flux form
        rhs = load_from_values(mesh, flux=-_eval_on(kappa, xg) * _eval_on(u0_prime, xg))
        stiff = assemble_G(mesh, bc, kappa)
        return to_full(thomas_solve(stiff, to_dof(rhs, bc)), bc)

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
