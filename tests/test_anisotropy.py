"""Surface-energy densities: identities, duality, and mollification."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from facetflow.anisotropy import (EllipticAnisotropy, EuclideanAnisotropy,
                                  MollifiedAnisotropy, PowerFourAnisotropy,
                                  SingularGradientError, dual_norm,
                                  k_operator, make_anisotropy,
                                  subdifferential_contains, wulff_membership)

MODELS = [EuclideanAnisotropy(2), EllipticAnisotropy(np.diag([4.0, 1.0])),
          PowerFourAnisotropy(2)]


@pytest.mark.parametrize("W", MODELS)
def test_one_homogeneity(W):
    rng = np.random.default_rng(0)
    p = rng.standard_normal((50, 2))
    for alpha in (0.25, 1.0, 7.5):
        assert np.allclose(W.eval(alpha * p), alpha * W.eval(p), rtol=1e-12)


@pytest.mark.parametrize("W", MODELS)
def test_lower_bound_constant(W):
    rng = np.random.default_rng(1)
    p = rng.standard_normal((200, 2))
    norms = np.linalg.norm(p, axis=-1)
    assert np.all(W.eval(p) >= W.lambda0 * norms - 1e-12)


@pytest.mark.parametrize("W", MODELS)
def test_gradient_euler_identity(W):
    """Homogeneity degree one: <grad W(p), p> = W(p)."""
    rng = np.random.default_rng(2)
    p = rng.standard_normal((100, 2))
    p = p[np.linalg.norm(p, axis=-1) > 0.1]
    assert np.allclose(np.sum(W.grad(p) * p, axis=-1), W.eval(p), rtol=1e-10)


@pytest.mark.parametrize("W", MODELS)
def test_gradient_matches_finite_differences(W):
    rng = np.random.default_rng(3)
    p = rng.standard_normal((40, 2))
    p = p[np.linalg.norm(p, axis=-1) > 0.3]
    eps = 1e-6
    for i in range(2):
        e = np.zeros(2)
        e[i] = eps
        fd = (W.eval(p + e) - W.eval(p - e)) / (2 * eps)
        assert np.allclose(W.grad(p)[:, i], fd, atol=1e-6)


@pytest.mark.parametrize("W", MODELS)
def test_hessian_annihilates_radial_direction(W):
    rng = np.random.default_rng(4)
    p = rng.standard_normal((30, 2))
    p = p[np.linalg.norm(p, axis=-1) > 0.3]
    Hp = np.einsum("kij,kj->ki", W.hess(p), p)
    assert np.max(np.abs(Hp)) < 1e-8


def test_gradient_singular_at_origin():
    W = EuclideanAnisotropy(2)
    with pytest.raises(SingularGradientError):
        W.grad(np.zeros((1, 2)))


@pytest.mark.parametrize("W", MODELS)
def test_wulff_projection_is_idempotent_and_feasible(W):
    rng = np.random.default_rng(5)
    z = 3.0 * rng.standard_normal((40, 2))
    pz = W.wulff_project(z)
    assert all(wulff_membership(W, v, tol=1e-6) for v in pz)
    ppz = W.wulff_project(pz.copy())
    assert np.allclose(pz, ppz, atol=1e-9)


@settings(max_examples=40, deadline=None)
@given(theta=st.floats(0.0, np.pi), e1=st.floats(0.2, 5.0),
       e2=st.floats(0.2, 5.0), seed=st.integers(0, 2**16))
def test_elliptic_projection_with_rotated_matrix(theta, e1, e2, seed):
    """Any SPD M: the projection is feasible, idempotent, and leaves the
    points already inside the Wulff set where they are."""
    R = np.array([[np.cos(theta), -np.sin(theta)],
                  [np.sin(theta), np.cos(theta)]])
    M = R @ np.diag([e1, e2]) @ R.T
    W = EllipticAnisotropy(0.5 * (M + M.T))
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((60, 2)) * rng.uniform(0.0, 4.0, size=(60, 1))
    pz = W.wulff_project(z)
    assert np.all(W.gauge(pz) <= 1.0 + 1e-9)
    assert np.allclose(W.wulff_project(pz), pz, atol=1e-9)
    inside = W.gauge(z) < 1.0 - 1e-9
    assert np.array_equal(pz[inside], z[inside])


def test_models_reject_three_dimensions():
    for make in (lambda: EuclideanAnisotropy(3),
                 lambda: PowerFourAnisotropy(3),
                 lambda: EllipticAnisotropy(np.eye(3))):
        with pytest.raises(ValueError):
            make()


@pytest.mark.parametrize("W", MODELS)
def test_cahn_hoffman_vector_in_subdifferential(W):
    rng = np.random.default_rng(6)
    p = rng.standard_normal((20, 2))
    p = p[np.linalg.norm(p, axis=-1) > 0.3]
    z = W.grad(p)
    assert all(subdifferential_contains(W, pi, zi, tol=1e-8)
               for pi, zi in zip(p, z))


def test_subdifferential_at_zero_is_wulff_set():
    W = EuclideanAnisotropy(2)
    assert subdifferential_contains(W, np.zeros(2), np.array([0.3, 0.4]))
    assert not subdifferential_contains(W, np.zeros(2), np.array([1.3, 0.4]))


def test_dual_norm_euclidean_is_euclidean():
    W = EuclideanAnisotropy(2)
    rng = np.random.default_rng(7)
    for z in rng.standard_normal((10, 2)):
        assert dual_norm(W, z) == pytest.approx(np.linalg.norm(z), rel=1e-6)


def test_dual_norm_elliptic_closed_form():
    diag = np.array([4.0, 1.0])
    W = EllipticAnisotropy(np.diag(diag))
    rng = np.random.default_rng(8)
    for z in rng.standard_normal((10, 2)):
        want = np.sqrt(np.sum(z**2 / diag))
        assert dual_norm(W, z) == pytest.approx(want, rel=1e-6)


def test_k_operator_trace_form():
    """With X = I the operator returns trace Hess W(p) = 1/|p| for |.|."""
    W = EuclideanAnisotropy(2)
    rng = np.random.default_rng(9)
    p = rng.standard_normal((10, 2))
    p = p[np.linalg.norm(p, axis=-1) > 0.5]
    for pi in p:
        want = 1.0 / np.linalg.norm(pi)
        assert k_operator(W, pi, np.eye(2)) == pytest.approx(want, rel=1e-6)


def test_mollified_above_original_by_jensen():
    W = EuclideanAnisotropy(1)
    W_m = MollifiedAnisotropy(W, 8.0)
    p = np.linspace(-2, 2, 41).reshape(-1, 1)
    assert np.all(W_m.eval(p) >= W.eval(p) - 1e-12)


def test_mollified_second_derivative_at_zero():
    """W_m''(0) = 2 phi_m(0) + 2/m exactly for the bump mollifier."""
    W = EuclideanAnisotropy(1)
    for m in (4.0, 16.0):
        W_m = MollifiedAnisotropy(W, m)
        bump = lambda s: np.exp(-1.0 / (1 - s**2))
        k = W_m.QUAD_POINTS
        s = (np.arange(k) + 0.5) / k * 2 - 1
        w = bump(s)
        w /= w.sum()
        phi0 = m * w[np.argmin(np.abs(s))] / (2.0 / k)  # density at 0
        got = W_m.hess(np.zeros((1, 1)))[0, 0, 0]
        want = 2 * phi0 + 2.0 / m
        assert got == pytest.approx(want, rel=1e-10)


def test_mollified_convex_along_lines():
    W = EuclideanAnisotropy(2)
    W_m = MollifiedAnisotropy(W, 16.0)
    t = np.linspace(-1.5, 1.5, 201)
    d = np.array([0.6, -0.8])
    vals = W_m.eval(t[:, None] * d[None, :])
    second = vals[:-2] - 2 * vals[1:-1] + vals[2:]
    assert np.all(second >= -1e-12)


def test_mollified_am_positive_and_growing():
    W = EuclideanAnisotropy(1)
    a4 = MollifiedAnisotropy(W, 4.0).a_m
    a32 = MollifiedAnisotropy(W, 32.0).a_m
    assert 0 < a4 < a32


def test_make_anisotropy_factory():
    W = make_anisotropy("elliptic", 2, {"diag": [4.0, 1.0]})
    assert isinstance(W, EllipticAnisotropy)
    with pytest.raises(KeyError):
        make_anisotropy("unknown", 2)
