"""Graded time meshes concentrating steps near t = 0."""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class GradedMesh:
    """Time mesh t_i = (i * tau)**gamma with tau = T**(1/gamma) / N, built
    from (T, N, gamma), which it compares and hashes by.

    gamma = 1 gives a uniform mesh; larger gamma compresses steps toward
    the origin, where solutions of fractional-order problems are rough.
    The read-only nodes (t_0 = 0 to t_N = T, in closed form rather than
    multiplicatively, so no drift accumulates for large N) and steps are
    derived here, and dataclasses.replace rebuilds them.
    """

    T: float
    N: int
    gamma: float
    nodes: np.ndarray = field(init=False, repr=False, compare=False)
    steps: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (math.isfinite(self.T) and self.T > 0):
            raise ValueError(f"T must be positive and finite, got {self.T}")
        if isinstance(self.N, bool) or not isinstance(self.N, numbers.Integral) or self.N < 1:
            raise ValueError(f"N must be a positive integer, got {self.N!r}")
        if not (math.isfinite(self.gamma) and self.gamma >= 1.0):
            raise ValueError(f"gamma must be finite and >= 1, got {self.gamma}")
        T, N, gamma = float(self.T), int(self.N), float(self.gamma)
        tau = T ** (1.0 / gamma) / N
        nodes = (np.arange(N + 1, dtype=float) * tau) ** gamma
        nodes[N] = T  # closed form is exact up to roundoff; pin the endpoint
        steps = np.diff(nodes)
        if not np.all(steps > 0):
            raise ValueError("mesh nodes are not strictly increasing")
        nodes.flags.writeable = steps.flags.writeable = False
        for name, value in (("T", T), ("N", N), ("gamma", gamma), ("nodes", nodes), ("steps", steps)):
            object.__setattr__(self, name, value)


def build_mesh(T: float, N: int, gamma: float) -> GradedMesh:
    """GradedMesh(T, N, gamma): nodes t_i = (i*tau)**gamma, tau = T**(1/gamma)/N."""
    return GradedMesh(T, N, gamma)


def step_condition_failure(
    mesh: GradedMesh, alpha: float, c0: float, kappa_min: float
) -> tuple[int, float] | None:
    """The stability step-size condition
    8 * w(t_n) * w(tau_n) * (2*c0**2/kappa_min + 1)**2 <= 1 for n = 1..N,
    with w(t) = t**alpha / Gamma(1+alpha), c0 a bound on the drift
    magnitude and kappa_min the diffusivity floor: None when every step
    meets it, else the first step n that fails and the largest left-hand
    side over all steps.
    """
    from scipy.special import gamma as _gamma

    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    if kappa_min <= 0:
        raise ValueError(f"kappa_min must be positive, got {kappa_min}")
    w = lambda s: s ** alpha / _gamma(1.0 + alpha)
    lhs = 8.0 * w(mesh.nodes[1:]) * w(mesh.steps) * (2.0 * c0 ** 2 / kappa_min + 1.0) ** 2
    bad = np.flatnonzero(~(lhs <= 1.0))
    return (int(bad[0]) + 1, float(lhs.max())) if bad.size else None
