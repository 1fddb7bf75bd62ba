import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracfp import GradedMesh, build_mesh
from fracfp.timegrid import step_condition_failure


def test_nodes_closed_form():
    mesh = build_mesh(2.0, 8, 3.0)
    tau = 2.0 ** (1.0 / 3.0) / 8
    want = (np.arange(9) * tau) ** 3.0
    assert mesh.nodes[0] == 0.0
    assert mesh.nodes[-1] == 2.0  # endpoint pinned exactly
    np.testing.assert_allclose(mesh.nodes[1:-1], want[1:-1], rtol=1e-14)
    np.testing.assert_allclose(mesh.steps, np.diff(mesh.nodes), rtol=0, atol=0)


def test_graded_mesh_is_a_value_of_its_parameters():
    mesh = GradedMesh(1, 8, 2)
    built = build_mesh(1, 8, 2)
    assert mesh == built and hash(mesh) == hash(built) and mesh != build_mesh(1, 8, 2.5)
    for name in ("nodes", "steps"):
        assert getattr(mesh, name).tobytes() == getattr(built, name).tobytes()
        with pytest.raises(ValueError, match="read-only"):
            getattr(mesh, name)[0] = 1.0


def test_replace_rebuilds_the_nodes():
    mesh = build_mesh(1, 8, 2)
    finer = replace(mesh, N=16)
    assert finer.nodes.size == 17 and finer.steps.size == 16
    np.testing.assert_array_equal(finer.nodes[::2], mesh.nodes)
    assert replace(mesh, T=2.0).nodes[-1] == 2.0
    with pytest.raises(ValueError, match="init=False"):
        replace(mesh, nodes=mesh.nodes)


def test_uniform_is_gamma_one():
    mesh = build_mesh(1.0, 10, 1.0)
    np.testing.assert_allclose(mesh.nodes, np.linspace(0.0, 1.0, 11), atol=1e-15)
    np.testing.assert_allclose(mesh.steps, 0.1, rtol=1e-13)


def test_validation_errors():
    with pytest.raises(ValueError):
        build_mesh(0.0, 8, 2.0)
    with pytest.raises(ValueError):
        build_mesh(1.0, 0, 2.0)
    with pytest.raises(ValueError):
        build_mesh(1.0, 8, 0.5)


@pytest.mark.parametrize("N", [1.0, 8.5, True, "8"])
def test_step_count_must_be_integral(N):
    with pytest.raises(ValueError, match="N must be a positive integer"):
        build_mesh(1.0, N, 3.0)


def test_step_count_accepts_numpy_integers():
    mesh = build_mesh(1.0, np.int64(8), 2.0)
    assert mesh.N == 8 and type(mesh.N) is int and mesh.nodes.size == 9


@pytest.mark.parametrize("T,gamma", [(1.0, math.nan), (math.nan, 1.0), (math.inf, 1.0)])
def test_non_finite_input_rejected(T, gamma):
    # NaN compares false both ways, so only an explicit finiteness check
    # stops it before it fills the nodes
    with pytest.raises(ValueError, match="finite"):
        build_mesh(T, 8, gamma)


def test_underflowing_first_step_rejected():
    # t_1 = (1e-6)**100 underflows to 0, so the first step is empty
    with pytest.raises(ValueError, match="not strictly increasing"):
        build_mesh(1.0, 10**6, 100.0)


@given(
    N=st.integers(min_value=1, max_value=2000),
    gamma=st.floats(min_value=1.0, max_value=6.0),
    T=st.floats(min_value=1e-3, max_value=100.0),
)
@settings(max_examples=60, deadline=None)
def test_mesh_monotone_and_complete(N, gamma, T):
    mesh = build_mesh(T, N, gamma)
    assert mesh.nodes.shape == (N + 1,)
    assert np.all(mesh.steps > 0)
    assert mesh.nodes[-1] == T


@pytest.mark.parametrize("gamma", [1.0, 1.6, 2.3, 4.0, 5.0])
@pytest.mark.parametrize("N", [4, 64, 1024])
def test_grading_inequalities(gamma, N):
    # both grading inequalities of the step-size analysis hold for every
    # graded mesh: t_n <= 2^gamma t_{n-1} (n >= 2) and the step bracket
    # gamma tau t_{n-1}^(1-1/gamma) <= tau_n <= gamma tau t_n^(1-1/gamma)
    mesh = build_mesh(1.0, N, gamma)
    t, slack = mesh.nodes, 1.0 + 1e-12
    assert np.all(t[2:] <= 2.0 ** gamma * t[1:-1] * slack)
    tau, expo = 1.0 / N, 1.0 - 1.0 / gamma
    assert np.all(gamma * tau * t[:-1] ** expo <= mesh.steps * slack)
    assert np.all(mesh.steps <= gamma * tau * t[1:] ** expo * slack)


def test_step_assumption_scales():
    # shrinking T (hence every step) must eventually satisfy the bound,
    # and a huge drift constant must break it
    mesh_small = build_mesh(1e-4, 32, 2.0)
    assert step_condition_failure(mesh_small, 0.6, 1.0, 1.0) is None
    mesh_big = build_mesh(10.0, 4, 1.0)
    assert step_condition_failure(mesh_big, 0.6, 1.0, 1.0) is not None
    assert step_condition_failure(mesh_small, 0.6, 1e6, 1.0) is not None


def test_step_assumption_formula():
    # spot-check the inequality against a direct evaluation
    mesh = build_mesh(1.0, 16, 2.0)
    alpha, c0, kmin = 0.7, 0.3, 0.5
    w = lambda s: s ** alpha / math.gamma(1.0 + alpha)
    lhs = [
        8.0 * w(tn) * w(dt) * (2.0 * c0 ** 2 / kmin + 1.0) ** 2
        for tn, dt in zip(mesh.nodes[1:], mesh.steps)
    ]
    assert (step_condition_failure(mesh, alpha, c0, kmin) is None) == (max(lhs) <= 1.0)


def test_step_assumption_validation():
    mesh = build_mesh(1.0, 4, 1.0)
    with pytest.raises(ValueError):
        step_condition_failure(mesh, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        step_condition_failure(mesh, 0.5, 1.0, 0.0)
