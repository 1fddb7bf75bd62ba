import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erfcx, rgamma

from fracfp import (
    ConvolutionWeights,
    build_mesh,
    interp_probe,
    mittag_leffler,
    omega,
    omega_increment,
)

from oracles import ml_oracle


# ---------------------------------------------------------------- omega

def test_omega_values():
    assert omega(2.0, 1.0) == 1.0
    assert omega(1.0, 0.0) == 1.0          # constant kernel
    assert omega(3.0, 0.0) == 0.0
    assert omega(0.5, 2.0) == pytest.approx(2.0 ** (-0.5) / math.gamma(0.5), rel=1e-14)
    np.testing.assert_allclose(omega(1.5, np.array([1.0, 4.0])),
                               np.array([1.0, 2.0]) / math.gamma(1.5), rtol=1e-14)


def test_omega_validation():
    with pytest.raises(ValueError):
        omega(0.0, 1.0)
    with pytest.raises(ValueError):
        omega(1.0, -0.1)
    with pytest.raises(ValueError):
        omega(0.5, 0.0)  # singular at the origin


def test_omega_increment_matches_direct():
    # near intervals use the plain difference; verify both agree with mpmath
    import mpmath as mp
    beta = 1.7
    for a, b in [(0.0, 0.3), (0.5, 0.9), (10.0, 10.0001), (1e4, 1e4 + 1e-3)]:
        got = omega_increment(beta, a, b)
        with mp.workdps(40):
            want = (mp.mpf(b) ** (beta - 1) - mp.mpf(a) ** (beta - 1)) / mp.gamma(beta)
        assert got == pytest.approx(float(want), rel=1e-12, abs=1e-300)


def test_omega_increment_cancellation_regime():
    # the far-field branch must beat the naive difference once it cancels
    beta = 1.3
    a, b = 1e8, 1e8 + 1e-6
    import mpmath as mp
    with mp.workdps(60):
        want = float((mp.mpf(b) ** (beta - 1) - mp.mpf(a) ** (beta - 1)) / mp.gamma(beta))
    naive = (b ** (beta - 1.0) - a ** (beta - 1.0)) * rgamma(beta)
    got = omega_increment(beta, a, b)
    assert abs(got - want) <= 1e-12 * abs(want)
    assert abs(naive - want) > abs(got - want)  # the rewrite is the point


def test_omega_increment_beta_one_is_zero():
    assert omega_increment(1.0, 2.0, 5.0) == 0.0


def test_omega_increment_validation():
    with pytest.raises(ValueError):
        omega_increment(1.5, 2.0, 1.0)
    with pytest.raises(ValueError):
        omega_increment(0.5, 0.0, 1.0)


# ------------------------------------------------------- convolution weights

@pytest.mark.parametrize("alpha", [0.3, 0.7, 1.0])
@pytest.mark.parametrize("gamma", [1.0, 2.0, 4.0])
def test_weights_positive_and_telescoping(alpha, gamma):
    """sum_j w_{n,j} == omega_{a+2}(t_n) - omega_{a+2}(t_{n-1}) - omega_{a+2}(tau_n)."""
    mesh = build_mesh(1.0, 64, gamma)
    t = mesh.nodes
    for n in range(2, 65):
        w = ConvolutionWeights(mesh, alpha).row(n)
        assert np.all(w > 0.0)
        want = (omega(alpha + 2.0, t[n]) - omega(alpha + 2.0, t[n - 1])
                - omega(alpha + 2.0, t[n] - t[n - 1]))
        assert w.sum() == pytest.approx(want, rel=1e-10)


@given(alpha=st.floats(min_value=0.05, max_value=1.0),
       gamma=st.floats(min_value=1.0, max_value=4.0),
       N=st.integers(min_value=2, max_value=600),
       data=st.data())
@settings(max_examples=40, deadline=None)
def test_weights_positive_and_telescoping_property(alpha, gamma, N, data):
    # the last row reaches deepest into the far-field (Gauss) branch
    mesh = build_mesh(1.0, N, gamma)
    t = mesh.nodes
    for n in {N, data.draw(st.integers(min_value=2, max_value=N), label="n")}:
        w = ConvolutionWeights(mesh, alpha).row(n)
        assert np.all(w > 0.0)
        want = (omega(alpha + 2.0, t[n]) - omega(alpha + 2.0, t[n - 1])
                - omega(alpha + 2.0, t[n] - t[n - 1]))
        assert w.sum() == pytest.approx(want, rel=1e-10)


def test_weights_alpha_one_are_step_products():
    # omega_1 == 1, so w_{n,j} = tau_j * tau_n exactly
    mesh = build_mesh(1.0, 16, 1.7)
    tau = mesh.steps
    for n in (2, 9, 16):
        w = ConvolutionWeights(mesh, 1.0).row(n)
        np.testing.assert_allclose(w, tau[: n - 1] * tau[n - 1], rtol=1e-12)


def test_weights_far_history_against_quadrature():
    # the analytic increments must agree with brute-force double quadrature
    from scipy import integrate
    mesh = build_mesh(1.0, 32, 3.0)
    alpha = 0.6
    n = 32
    w = ConvolutionWeights(mesh, alpha).row(n)
    t = mesh.nodes
    for j in (1, 2, 16, 31):
        val, _ = integrate.dblquad(
            lambda s, sig: (sig - s) ** (alpha - 1.0) * rgamma(alpha),
            t[n - 1], t[n], lambda sig: t[j - 1], lambda sig: t[j],
            epsabs=1e-14, epsrel=1e-12)
        assert w[j - 1] == pytest.approx(val, rel=1e-9)


def test_weight_accessors():
    mesh = build_mesh(1.0, 8, 2.0)
    cw = ConvolutionWeights(mesh, 0.5)
    assert cw.row(1).size == 0
    t = mesh.nodes
    # w_{2,1} = [t_2^1.5 - t_1^1.5 - (t_2 - t_1)^1.5] / Gamma(2.5)
    assert cw.row(2)[0] == pytest.approx(
        (t[2] ** 1.5 - t[1] ** 1.5 - (t[2] - t[1]) ** 1.5) * rgamma(2.5), rel=1e-12)
    assert cw.w0(3) == pytest.approx(
        (t[3] ** 0.5 - t[2] ** 0.5) / math.gamma(1.5), rel=1e-12)
    assert cw.d(4) == pytest.approx(mesh.steps[3] ** 0.5 * rgamma(2.5), rel=1e-13)
    with pytest.raises(IndexError):
        cw.row(9)
    with pytest.raises(IndexError):
        cw.row(0)


def test_weights_alpha_validation():
    mesh = build_mesh(1.0, 8, 1.0)
    with pytest.raises(ValueError):
        ConvolutionWeights(mesh, 0.0)
    with pytest.raises(ValueError):
        ConvolutionWeights(mesh, 1.2)


# ------------------------------------------------------------ Mittag-Leffler

def test_ml_exponential_row():
    x = np.linspace(0.0, 30.0, 121)
    np.testing.assert_allclose(mittag_leffler(1.0, 1.0, -x), np.exp(-x), rtol=1e-13)


def test_ml_half_is_erfcx():
    x = np.linspace(0.0, 30.0, 121)
    got = mittag_leffler(0.5, 1.0, -x)
    # contract is 1e-10; observed worst case sits near 2e-12 mid-range
    np.testing.assert_allclose(got, erfcx(x), rtol=1e-11)


def test_ml_frozen_value():
    # E_{1/2,1}(-1) = e * erfc(1)
    assert mittag_leffler(0.5, 1.0, -1.0) == pytest.approx(0.4275835761558070, rel=1e-13)


def test_ml_at_zero_and_shape():
    assert mittag_leffler(0.7, 1.0, 0.0) == 1.0
    assert mittag_leffler(0.7, 0.7, 0.0) == pytest.approx(rgamma(0.7), rel=1e-14)
    arg = -np.array([[0.0, 1.0], [10.0, 1e6]])
    out = mittag_leffler(0.6, 1.0, arg)
    assert out.shape == arg.shape
    assert isinstance(mittag_leffler(0.6, 1.0, -1.0), float)


def test_ml_domain_validation():
    with pytest.raises(ValueError):
        mittag_leffler(0.5, 1.0, 1.0)
    with pytest.raises(ValueError):
        mittag_leffler(1.5, 1.0, -1.0)
    with pytest.raises(ValueError):
        mittag_leffler(0.5, 0.0, -1.0)


@pytest.mark.parametrize("mu", [0.15, 0.4, 0.6, 0.8, 0.95])
@pytest.mark.parametrize("beta_kind", ["one", "mu"])
def test_ml_against_oracle(mu, beta_kind):
    # spans the Taylor, asymptotic and spectral branches
    beta = 1.0 if beta_kind == "one" else mu
    xs = np.logspace(-6, 8, 15)
    got = mittag_leffler(mu, beta, -xs)
    for x, g in zip(xs, got):
        want = ml_oracle(mu, beta, float(x))
        assert g == pytest.approx(want, rel=2e-12), (mu, beta, x)


def test_ml_monotone_decay():
    # complete monotonicity on the negative axis (beta = 1): decreasing, positive
    x = np.logspace(-4, 6, 200)
    v = mittag_leffler(0.35, 1.0, -x)
    assert np.all(v > 0.0)
    assert np.all(np.diff(v) < 0.0)


# ------------------------------------------------------- interpolation probe

def test_probe_exact_on_linear_data():
    # nu = 1 is piecewise linear on every mesh: quadrature error is roundoff
    for gamma in (1.0, 2.0, 4.0):
        assert interp_probe(1.0, 0.6, build_mesh(1.0, 128, gamma)) < 1e-24


def test_probe_decay_rates():
    vals = [interp_probe(0.6, 0.6, build_mesh(1.0, N, 4.0)) for N in (64, 128, 256)]
    rates = np.log2(np.array(vals[:-1]) / np.array(vals[1:]))
    assert np.all(np.abs(rates - 4.0) < 0.1)
    vals1 = [interp_probe(0.6, 0.6, build_mesh(1.0, N, 1.0)) for N in (64, 128, 256)]
    rates1 = np.log2(np.array(vals1[:-1]) / np.array(vals1[1:]))
    assert np.all(rates1 >= 2 * 0.6 - 0.1)


def test_probe_validation():
    mesh = build_mesh(1.0, 8, 1.0)
    with pytest.raises(ValueError):
        interp_probe(0.0, 0.5, mesh)
    with pytest.raises(ValueError):
        interp_probe(1.5, 0.5, mesh)
