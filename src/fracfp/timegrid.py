"""Graded time meshes concentrating steps near t = 0."""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class GradedMesh:
    """Time mesh t_i = (i * tau)**gamma with tau = T**(1/gamma) / N.

    gamma = 1 gives a uniform mesh; larger gamma compresses steps toward
    the origin, where solutions of fractional-order problems are rough.
    """

    T: float
    N: int
    gamma: float
    nodes: np.ndarray   # shape (N+1,), nodes[0] = 0, nodes[N] = T
    steps: np.ndarray   # shape (N,), steps[i] = nodes[i+1] - nodes[i]


def build_mesh(T: float, N: int, gamma: float) -> GradedMesh:
    """Build the graded mesh with nodes t_i = (i*tau)**gamma, tau = T**(1/gamma)/N.

    Nodes are computed in closed form rather than multiplicatively so that
    no drift accumulates for large N.
    """
    if not (math.isfinite(T) and T > 0):
        raise ValueError(f"T must be positive and finite, got {T}")
    if isinstance(N, bool) or not isinstance(N, numbers.Integral) or N < 1:
        raise ValueError(f"N must be a positive integer, got {N!r}")
    if not (math.isfinite(gamma) and gamma >= 1.0):
        raise ValueError(f"gamma must be finite and >= 1, got {gamma}")
    tau = T ** (1.0 / gamma) / N
    i = np.arange(N + 1, dtype=float)
    nodes = (i * tau) ** gamma
    nodes[0] = 0.0
    nodes[N] = T  # closed form is exact up to roundoff; pin the endpoint
    steps = np.diff(nodes)
    if not np.all(steps > 0):
        raise ValueError("mesh nodes are not strictly increasing")
    return GradedMesh(T=float(T), N=int(N), gamma=float(gamma), nodes=nodes, steps=steps)


def check_step_assumption(
    mesh: GradedMesh, alpha: float, c0: float, kappa_min: float
) -> bool:
    """Stability step-size diagnostic for the fractional scheme.

    Checks 8 * w(t_n) * w(tau_n) * (2*c0**2/kappa_min + 1)**2 <= 1 for every
    step, with w(t) = t**alpha / Gamma(1+alpha), c0 a bound on the drift
    magnitude and kappa_min the diffusivity floor.  Advisory only: callers
    warn rather than abort when it fails.
    """
    from scipy.special import gamma as _gamma

    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    if kappa_min <= 0:
        raise ValueError(f"kappa_min must be positive, got {kappa_min}")
    w = lambda s: s ** alpha / _gamma(1.0 + alpha)
    t = mesh.nodes
    lhs = 8.0 * w(t[1:]) * w(mesh.steps) * (2.0 * c0 ** 2 / kappa_min + 1.0) ** 2
    return bool(np.all(lhs <= 1.0))
