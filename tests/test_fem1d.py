import math
from dataclasses import replace

import numpy as np
import pytest

from fracfp import (
    BcMode,
    SingularSystemError,
    SpatialMesh,
    TriDiagMatrix,
    assemble_G,
    assemble_mass,
    example1,
    l2_norm,
    load_vector,
    project_initial,
    thomas_solve,
    to_dof,
    to_full,
    uniform_mesh,
)

from fracfp.fem1d import drift_band

from oracles import dense_load, dense_matrices, tridiag_dense


def transport(mesh, bc, kappa, drift):
    """The stepper's G: assemble_G plus the drift band, kappa and drift
    both sampled on the 2-point Gauss nodes."""
    band = drift_band(mesh, bc, drift(mesh.gauss2))
    return assemble_G(mesh, bc, kappa(mesh.gauss2)).plus_scaled(band, 1.0)


def test_mesh_basics():
    mesh = uniform_mesh(0.0, 1.0, 10)
    assert mesh.M_x == 10
    assert mesh.h == pytest.approx(0.1)
    np.testing.assert_allclose(mesh.nodes, np.linspace(0, 1, 11), atol=1e-15)
    # unknowns: interior nodes under Dirichlet, all nodes under zero-flux
    assert assemble_mass(mesh, BcMode.DIRICHLET).n == 9
    assert assemble_mass(mesh, BcMode.ZERO_FLUX).n == 11


@pytest.mark.parametrize("a, b, m", [(0.0, 1.0, 10), (-2.0, 3.5, 7)])
def test_mesh_quadrature_points(a, b, m):
    mesh = uniform_mesh(a, b, m)
    left, right = mesh.nodes[:-1, None], mesh.nodes[1:, None]
    scaled = lambda r: 0.5 * (left + right) + 0.5 * (right - left) * r
    # load_x: the 4-point Gauss nodes element by element, then a and b
    np.testing.assert_allclose(mesh.load_x[:-2].reshape(m, 4),
                               scaled(np.polynomial.legendre.leggauss(4)[0]), rtol=0, atol=1e-14)
    assert list(mesh.load_x[-2:]) == [a, b]
    # gauss2: every element's left 2-point node, then every right one
    g2 = scaled(np.array([-1.0, 1.0]) / math.sqrt(3.0))
    np.testing.assert_allclose(mesh.gauss2, g2.T.ravel(), rtol=0, atol=1e-14)
    # derived from the nodes, read-only, and rebuilt by dataclasses.replace
    assert not (mesh.gauss2.flags.writeable or mesh.load_x.flags.writeable)
    wider = replace(mesh, b=b + 1.0)
    assert wider.load_x[-1] == b + 1.0 and wider.gauss2[-1] > mesh.gauss2[-1]


def test_mass_matrix_entries():
    mesh = uniform_mesh(0.0, 1.0, 4)
    h = 0.25
    M = assemble_mass(mesh, BcMode.ZERO_FLUX)
    np.testing.assert_allclose(M.diag, h * np.array([1 / 3, 2 / 3, 2 / 3, 2 / 3, 1 / 3]), rtol=1e-14)
    np.testing.assert_allclose(M.sub, h / 6 * np.ones(4), rtol=1e-14)
    np.testing.assert_allclose(M.sup, h / 6 * np.ones(4), rtol=1e-14)
    # Dirichlet restriction drops the first/last row and column
    Md = assemble_mass(mesh, BcMode.DIRICHLET)
    np.testing.assert_allclose(Md.diag, h * np.array([2 / 3, 2 / 3, 2 / 3]), rtol=1e-14)


def test_mass_spd():
    mesh = uniform_mesh(0.0, 1.0, 17)
    for bc in BcMode:
        w = np.linalg.eigvalsh(tridiag_dense(assemble_mass(mesh, bc)))
        assert np.all(w > 0.0)


def test_G_constant_drift_signs():
    # kappa = 1, drift c: rows get kappa/h on the tridiagonal plus c/2 on the
    # superdiagonal and -c/2 on the subdiagonal (interior rows)
    mesh = uniform_mesh(0.0, 1.0, 8)
    c = 0.7
    G = transport(mesh, BcMode.ZERO_FLUX, lambda x: 1.0, lambda x: c)
    h = mesh.h
    np.testing.assert_allclose(G.diag[1:-1], 2.0 / h, rtol=1e-13)
    np.testing.assert_allclose(G.sup[1:-1], -1.0 / h + c / 2.0, rtol=1e-13)
    np.testing.assert_allclose(G.sub[1:-1], -1.0 / h - c / 2.0, rtol=1e-13)


def test_G_zero_flux_rows_sum_to_zero():
    # columns of G sum to zero under zero-flux: the scheme conserves mass
    mesh = uniform_mesh(0.0, 1.0, 13)
    G = transport(mesh, BcMode.ZERO_FLUX, lambda x: 1.0 + 0.2 * x,
                  lambda x: np.sin(3 * x))
    colsums = tridiag_dense(G).sum(axis=0)
    np.testing.assert_allclose(colsums, 0.0, atol=1e-13)


def test_G_matches_dense_oracle():
    mesh = uniform_mesh(0.0, 1.0, 9)
    kappa = lambda x: 1.0 + 0.5 * x ** 2
    drift = lambda x: 0.3 - x
    G = tridiag_dense(transport(mesh, BcMode.ZERO_FLUX, kappa, drift))
    _, Gd = dense_matrices(mesh.nodes, kappa, drift)
    # library uses 2-point Gauss: exact for affine drift, close for the
    # quadratic kappa; the drift block must match to roundoff
    np.testing.assert_allclose(G, Gd, rtol=0, atol=2e-4)
    Gl = tridiag_dense(transport(mesh, BcMode.ZERO_FLUX, lambda x: 1.0, drift))
    _, Gld = dense_matrices(mesh.nodes, lambda x: 1.0, drift)
    np.testing.assert_allclose(Gl, Gld, rtol=0, atol=1e-13)


def test_G_rejects_nonpositive_kappa():
    mesh = uniform_mesh(0.0, 1.0, 8)
    with pytest.raises(ValueError):
        assemble_G(mesh, BcMode.DIRICHLET, mesh.gauss2 - 0.5)


def test_G_takes_kappa_on_gauss2_or_one_number():
    mesh = uniform_mesh(0.0, 1.0, 8)
    for bc in BcMode:
        np.testing.assert_array_equal(tridiag_dense(assemble_G(mesh, bc, 2.0)),
                                      tridiag_dense(assemble_G(mesh, bc, np.full(16, 2.0))))


def test_tridiag_ops():
    mesh = uniform_mesh(0.0, 1.0, 6)
    M = assemble_mass(mesh, BcMode.ZERO_FLUX)
    G = assemble_G(mesh, BcMode.ZERO_FLUX, 1.0)
    v = np.sin(np.arange(7.0))
    np.testing.assert_allclose(M.matvec(v), tridiag_dense(M) @ v, rtol=1e-13)
    S = M.plus_scaled(G, 0.25)
    np.testing.assert_allclose(tridiag_dense(S), tridiag_dense(M) + 0.25 * tridiag_dense(G),
                               rtol=1e-13)


def test_thomas_against_dense():
    rng = np.random.default_rng(7)
    mesh = uniform_mesh(0.0, 1.0, 40)
    A = assemble_mass(mesh, BcMode.DIRICHLET).plus_scaled(
        assemble_G(mesh, BcMode.DIRICHLET, 1.0 + mesh.gauss2), 0.37)
    rhs = rng.standard_normal(A.n)
    x = thomas_solve(A, rhs)
    np.testing.assert_allclose(x, np.linalg.solve(tridiag_dense(A), rhs), rtol=1e-11)


def test_thomas_singular_raises():
    # pure-Neumann stiffness annihilates constants: singular system
    mesh = uniform_mesh(0.0, 1.0, 12)
    K = assemble_G(mesh, BcMode.ZERO_FLUX, 1.0)
    with pytest.raises(SingularSystemError):
        thomas_solve(K, np.zeros(K.n))


def test_thomas_single_unknown():
    # Dirichlet on two elements leaves one unknown
    mesh = uniform_mesh(0.0, 1.0, 2)
    A = assemble_mass(mesh, BcMode.DIRICHLET)
    assert A.n == 1
    np.testing.assert_allclose(thomas_solve(A, np.array([1.5])), [1.5 / A.diag[0]], rtol=1e-15)
    with pytest.raises(SingularSystemError):
        thomas_solve(A.plus_scaled(A, -1.0), np.array([1.0]))
    with pytest.raises(ValueError, match="does not match"):
        thomas_solve(A, np.ones(2))


def test_l2_norm_values():
    mesh = uniform_mesh(0.0, 1.0, 16)
    assert l2_norm(np.ones(17), mesh) == pytest.approx(1.0, rel=1e-14)
    assert l2_norm(mesh.nodes.copy(), mesh) == pytest.approx(1 / math.sqrt(3.0), rel=1e-14)
    assert l2_norm(np.zeros(17), mesh) == 0.0


def test_l2_norm_converges_for_sine():
    # interpolant norm approaches 1/sqrt(2) at second order in h
    errs = []
    for m in (16, 32):
        mesh = uniform_mesh(0.0, 1.0, m)
        errs.append(abs(l2_norm(np.sin(np.pi * mesh.nodes), mesh) - 1 / math.sqrt(2.0)))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.15)


def test_load_vector_exact_for_cubic():
    mesh = uniform_mesh(0.0, 1.0, 7)
    g = lambda x: x ** 3 - 2.0 * x + 1.0
    np.testing.assert_allclose(load_vector(g, mesh), dense_load(mesh.nodes, g),
                               rtol=1e-13, atol=1e-16)


def test_dof_roundtrip():
    v = np.arange(9.0)
    for bc in BcMode:
        d = to_dof(v, bc)
        full = to_full(d, bc)
        if bc is BcMode.DIRICHLET:
            assert d.size == 7
            assert full[0] == 0.0 and full[-1] == 0.0
            np.testing.assert_allclose(full[1:-1], v[1:-1], rtol=0)
        else:
            np.testing.assert_allclose(full, v, rtol=0)


def test_projections_reproduce_p1_data():
    # a hat with its kink on a node lies in the P1 space: all three
    # projections must return it exactly (up to solver roundoff)
    mesh = uniform_mesh(0.0, 1.0, 16)
    hat = lambda x: np.minimum(x, 1.0 - x)
    want = hat(mesh.nodes)
    for mode in ("nodal", "l2", "ritz"):
        got = project_initial(hat, mesh, BcMode.DIRICHLET, mode,
                              kappa=lambda x: 1.0,
                              u0_prime=lambda x: np.where(x <= 0.5, 1.0, -1.0),
                              stiffness=assemble_G(mesh, BcMode.DIRICHLET, 1.0))
        np.testing.assert_allclose(got, want, atol=1e-12)


def test_ritz_equals_nodal_for_constant_kappa():
    # classical 1D identity: with constant kappa and Dirichlet ends the Ritz
    # projection interpolates at the nodes
    mesh = uniform_mesh(0.0, 1.0, 64)
    u0 = lambda x: np.sin(np.pi * x) * (1.0 + x)
    u0p = lambda x: np.pi * np.cos(np.pi * x) * (1.0 + x) + np.sin(np.pi * x)
    ritz = project_initial(u0, mesh, BcMode.DIRICHLET, "ritz",
                           kappa=lambda x: 2.0, u0_prime=u0p,
                           stiffness=assemble_G(mesh, BcMode.DIRICHLET, 2.0))
    np.testing.assert_allclose(ritz, u0(mesh.nodes), atol=5e-9)


def test_l2_projection_is_mass_orthogonal():
    mesh = uniform_mesh(0.0, 1.0, 32)
    u0 = lambda x: np.exp(x) * np.sin(2 * np.pi * x)
    p = project_initial(u0, mesh, BcMode.ZERO_FLUX, "l2")
    # residual load must vanish against every basis function
    res = load_vector(u0, mesh) - assemble_mass(mesh, BcMode.ZERO_FLUX).matvec(p)
    np.testing.assert_allclose(res, 0.0, atol=1e-12)


def test_mesh_validation():
    with pytest.raises(ValueError, match="b > a"):
        uniform_mesh(1.0, 1.0, 8)
    with pytest.raises(ValueError, match="b > a"):
        uniform_mesh(1.0, 0.0, 8)
    with pytest.raises(ValueError, match="2 elements"):
        uniform_mesh(0.0, 1.0, 1)


@pytest.mark.parametrize("change", [{"b": 2.0}, {"M_x": 20}, {"a": 0.5}], ids=["b", "M_x", "a"])
def test_mesh_replace_rebuilds_derived_fields(change):
    # a mesh is (a, b, M_x); replacing one of them rebuilds h, the nodes and
    # the quadrature points from the new values
    mesh = replace(uniform_mesh(0.0, 1.0, 10), **change)
    want = uniform_mesh(mesh.a, mesh.b, mesh.M_x)
    assert mesh == want and mesh.h == want.h
    for name in ("nodes", "gauss2", "load_x"):
        np.testing.assert_array_equal(getattr(mesh, name), getattr(want, name))
    assert mesh.nodes.size == mesh.M_x + 1 and list(mesh.load_x[-2:]) == [mesh.a, mesh.b]


@pytest.mark.parametrize("derived", ["h", "nodes"])
def test_mesh_replace_rejects_derived_fields(derived):
    mesh = uniform_mesh(0.0, 1.0, 10)
    with pytest.raises(ValueError, match="init=False"):
        replace(mesh, **{derived: getattr(mesh, derived)})


def test_spatial_mesh_is_a_value_of_its_parameters():
    mesh = SpatialMesh(0, 1, 10)
    built = uniform_mesh(0, 1, 10)
    assert mesh == built and hash(mesh) == hash(built) and mesh != uniform_mesh(0, 1, 11)
    assert mesh.h == built.h
    for name in ("nodes", "gauss2", "load_x"):
        assert getattr(mesh, name).tobytes() == getattr(built, name).tobytes()
    with pytest.raises(ValueError, match="read-only"):
        mesh.nodes[0] = 1.0


def test_spatial_mesh_checks_its_parameters_when_built():
    with pytest.raises(ValueError, match="2 elements"):
        SpatialMesh(a=0.0, b=1.0, M_x=1)
    with pytest.raises(ValueError, match="b > a"):
        SpatialMesh(a=1.0, b=0.0, M_x=8)
    for bad in (4.0, True, "4"):
        with pytest.raises(ValueError, match="M_x must be an integer"):
            SpatialMesh(a=0.0, b=1.0, M_x=bad)
    mesh = SpatialMesh(0.0, 1.0, np.int64(4))
    assert type(mesh.M_x) is int and mesh == SpatialMesh(0.0, 1.0, 4)


@pytest.mark.parametrize("a,b", [(0.0, math.inf), (-math.inf, 0.0)])
def test_mesh_rejects_infinite_domain(a, b):
    with pytest.raises(ValueError, match="finite"):
        uniform_mesh(a, b, 10)


def test_tridiag_rejects_mismatched_bands():
    with pytest.raises(ValueError, match="band lengths"):
        TriDiagMatrix(np.ones(2), np.ones(4), np.ones(3))
    with pytest.raises(ValueError, match="band lengths"):
        TriDiagMatrix(np.ones(3), np.ones(4), np.ones(4))


def test_l2_norm_rejects_wrong_length():
    mesh = uniform_mesh(0.0, 1.0, 8)
    with pytest.raises(ValueError, match="expected 9 nodal values"):
        l2_norm(np.ones(8), mesh)


def test_projection_validation():
    mesh = uniform_mesh(0.0, 1.0, 8)
    with pytest.raises(ValueError):
        project_initial(lambda x: x, mesh, BcMode.DIRICHLET, "spline")
    with pytest.raises(ValueError):
        project_initial(lambda x: x, mesh, BcMode.DIRICHLET, "ritz")  # no kappa
    with pytest.raises(ValueError):
        project_initial(lambda x: x, mesh, BcMode.ZERO_FLUX, "ritz",
                        kappa=lambda x: 1.0)
    with pytest.raises(ValueError, match="stiffness"):
        project_initial(lambda x: x * (1.0 - x), mesh, BcMode.DIRICHLET, "ritz",
                        kappa=lambda x: 1.0, u0_prime=lambda x: 1.0 - 2.0 * x)


def test_projection_modes_are_spelled_as_the_problem_spells_them():
    # project_initial accepts exactly the modes ProblemSpec.default_projection does
    mesh = uniform_mesh(0.0, 1.0, 8)
    with pytest.raises(ValueError, match="unknown projection mode"):
        project_initial(lambda x: x * (1.0 - x), mesh, BcMode.DIRICHLET, "RITZ",
                        kappa=lambda x: 1.0, u0_prime=lambda x: 1.0 - 2.0 * x)
    with pytest.raises(ValueError, match="unknown projection mode"):
        replace(example1(0.5), default_projection="RITZ")


def test_ritz_needs_u0_prime():
    mesh = uniform_mesh(0.0, 1.0, 8)
    with pytest.raises(ValueError, match="u0_prime"):
        project_initial(lambda x: x * (1.0 - x), mesh, BcMode.DIRICHLET, "ritz",
                        kappa=lambda x: 1.0)
