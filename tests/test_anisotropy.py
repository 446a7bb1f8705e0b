"""Surface-energy densities: identities, duality, and mollification."""

import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from facetflow.anisotropy import (EllipticAnisotropy, EuclideanAnisotropy,
                                  MollifiedAnisotropy, PowerFourAnisotropy,
                                  SingularGradientError, make_anisotropy)

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
    assert np.all(W.gauge(pz) <= 1.0 + 1e-6)
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


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("name", ["euclidean", "elliptic", "l4"])
def test_wulff_project_out_forms_match_allocating_form(name, n):
    """The projection written to a C-ordered (*shape, n) array, to a
    moveaxis view of (n, *shape) storage, or in place over its input
    (also such a view) equals the allocating form bit for bit, and every
    projected point lies in the Wulff set.  The l4 projection's Cardano
    root loses digits to cancellation for points just outside the set
    (small multipliers) and leaves them up to ~2.3e-9 outside (seen on
    10,000 normal points), so its bound is 1e-8."""
    W = make_anisotropy(name, n)
    rng = np.random.default_rng(12)
    shape = {1: (33,), 2: (9, 7)}[n]
    z = 2.0 * rng.standard_normal(shape + (n,))
    ref = W.wulff_project(z)
    assert ref.shape == z.shape
    assert np.all(W.gauge(ref) <= 1.0 + (1e-8 if name == "l4" else 1e-12))
    z_first = np.moveaxis(np.ascontiguousarray(np.moveaxis(z, -1, 0)), 0, -1)
    outs = [np.empty_like(z), np.moveaxis(np.empty((n,) + shape), 0, -1)]
    for zz in (z, z_first):
        for out in outs:
            assert W.wulff_project(zz, out=out) is out
            assert np.array_equal(out, ref)
        inplace = zz.copy(order="K")
        assert W.wulff_project(inplace, out=inplace) is inplace
        assert np.array_equal(inplace, ref)
    flat = z.reshape(-1, n)
    assert np.array_equal(W.wulff_project(flat), ref.reshape(-1, n))


def test_models_reject_three_dimensions():
    for make in (lambda: EuclideanAnisotropy(3),
                 lambda: PowerFourAnisotropy(3),
                 lambda: EllipticAnisotropy(np.eye(3))):
        with pytest.raises(ValueError):
            make()


@pytest.mark.parametrize("W", MODELS)
def test_cahn_hoffman_vector_in_subdifferential(W):
    """z = grad W(p), batched, is grad W at each point alone, and lies in
    dW(p): on the boundary of the Wulff set, with z.p = W(p)."""
    rng = np.random.default_rng(6)
    p = rng.standard_normal((20, 2))
    p = p[np.linalg.norm(p, axis=-1) > 0.3]
    z = W.grad(p)
    assert all(np.max(np.abs(zi - W.grad(pi))) <= 1e-8 for pi, zi in zip(p, z))
    assert np.allclose(W.gauge(z), 1.0, rtol=0.0, atol=1e-12)
    assert np.allclose(np.sum(z * p, axis=-1), W.eval(p), rtol=1e-12)


def test_subdifferential_at_zero_is_wulff_set():
    """dW(0) is the Wulff set {gauge <= 1}, which the projection fixes."""
    W = EuclideanAnisotropy(2)
    inside, outside = np.array([0.3, 0.4]), np.array([1.3, 0.4])
    assert W.gauge(inside) <= 1.0 < W.gauge(outside)
    assert np.array_equal(W.wulff_project(inside), inside)
    assert not np.array_equal(W.wulff_project(outside), outside)


@pytest.mark.parametrize("W", MODELS, ids=["euclidean", "elliptic", "l4"])
def test_gauge_is_sampled_dual_norm(W):
    """gauge(x) = sup_d x.d / W(d), the sup sampled over 2^16 directions."""
    theta = np.linspace(0.0, 2 * np.pi, 2**16, endpoint=False)
    d = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    x = np.random.default_rng(7).standard_normal((10, 2))
    sampled = np.max((x @ d.T) / W.eval(d), axis=-1)
    assert np.allclose(W.gauge(x), sampled, rtol=1e-7, atol=0.0)
    assert np.all(sampled <= W.gauge(x) * (1 + 1e-12))


def test_k_operator_trace_form():
    """The local curvature operator trace[Hess W(p) X] with X = I is
    trace Hess W(p) = 1/|p| for |.|."""
    W = EuclideanAnisotropy(2)
    rng = np.random.default_rng(9)
    p = rng.standard_normal((10, 2))
    p = p[np.linalg.norm(p, axis=-1) > 0.5]
    for pi in p:
        want = 1.0 / np.linalg.norm(pi)
        assert np.sum(W.hess(pi) * np.eye(2)) == pytest.approx(want, rel=1e-6)


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


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(["euclidean", "elliptic", "l4"]),
       n=st.sampled_from([1, 2]), m=st.floats(1.0, 128.0),
       radius=st.sampled_from(["origin", "core", "far"]),
       u=st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=2))
def test_mollified_derivatives_are_centered_differences(name, n, m, radius,
                                                        u):
    """grad and hess equal centered differences of eval at fd_step, with
    the four-point mixed stencil off the diagonal."""
    W_m = MollifiedAnisotropy(make_anisotropy(name, n), m)
    scale = {"origin": 0.0, "core": 0.7 / m, "far": 2.0}[radius]
    p = np.array(u[:n]) * scale
    s = W_m.fd_step
    e = np.eye(n) * s

    def f(x):
        return float(W_m.eval(x[None])[0])

    g = np.array([(f(p + e[i]) - f(p - e[i])) / (2 * s) for i in range(n)])
    H = np.array([[(f(p + e[i]) - 2 * f(p) + f(p - e[i])) / s**2 if i == j
                   else (f(p + e[i] + e[j]) + f(p - e[i] - e[j])
                         - f(p + e[i] - e[j]) - f(p - e[i] + e[j]))
                   / (4 * s**2) for j in range(n)] for i in range(n)])
    assert np.all(np.abs(W_m.grad(p) - g) <= 1e-7 * (1 + np.abs(g)))
    assert np.all(np.abs(W_m.hess(p) - H) <= 1e-7 * (1 + np.abs(H)))


def test_mollified_memory_bounded_and_batch_independent():
    """No call on 16,384 2D points builds more than the quadrature's
    temporary budget (plus its output), and a point's derivatives do not
    depend on the batch it comes in."""
    W_m = MollifiedAnisotropy(EuclideanAnisotropy(2), 8.0)
    p = np.random.default_rng(5).normal(size=(16384, 2))

    def fused(x):
        return W_m.hess(x, with_grad=True)

    for f in (W_m.eval, W_m.grad, W_m.hess, fused):
        tracemalloc.start()
        try:
            f(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20, (f.__name__, peak / 2**20)
    q = p[:5000]
    cuts = [0, 1, 8, 1000, 5000]
    parts = [W_m.hess(q[a:b]) for a, b in zip(cuts, cuts[1:])]
    assert np.array_equal(W_m.hess(q), np.concatenate(parts))
    g, H = fused(q)
    parts = [fused(q[a:b]) for a, b in zip(cuts, cuts[1:])]
    assert np.array_equal(g, np.concatenate([gp for gp, _ in parts]))
    assert np.array_equal(H, np.concatenate([hp for _, hp in parts]))


@pytest.mark.parametrize("name", ["euclidean", "elliptic", "l4"])
@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("m", [1.0, 8.0, 64.0])
def test_mollified_kernel_matches_node_loop(name, n, m):
    """The fused call equals grad and hess bit for bit, and the kernel
    (the chunked lattice in 2D, the breakpoint table in 1D) equals
    sum_j W(p - y_j) w_j summed node by node."""
    W_m = MollifiedAnisotropy(make_anisotropy(name, n), m)
    rng = np.random.default_rng(11)
    # 300 points span two chunks of the 2D kernel
    p = np.concatenate([rng.normal(size=(150, n)) / m,
                        rng.normal(size=(150, n)) * 2.0])
    if n == 1:
        # the breakpoints themselves, the origin and the far field
        far = np.logspace(0, 6, 13)
        p = np.concatenate([p, W_m._y_der[0].T, np.zeros((1, 1)),
                            far[:, None], -far[:, None]])
        # beyond the nodes the derivative columns' totals and first moments
        # are exact: hess is 2/m and grad is +-W(+-1) + 2p/m bit for bit,
        # however far out
        up, down = W_m.base.eval(np.array([[1.0], [-1.0]]))
        a = np.array([[1e3], [1e6], [1e9], [1e300]])
        for x, edge in ((a, up), (-a, -down)):
            gx, Hx = W_m.hess(x, with_grad=True)
            assert np.all(Hx == 2.0 / W_m.m)
            assert np.array_equal(gx, edge + 2.0 * x / W_m.m)
            assert np.array_equal(W_m.grad(x), gx)
    g, H = W_m.hess(p, with_grad=True)
    assert np.array_equal(g, W_m.grad(p))
    assert np.array_equal(H, W_m.hess(p))
    assert np.array_equal(W_m._y_val[:, 0, :].T, W_m.nodes)
    for y, cols, which in ((W_m._y_val, W_m._w_val, slice(0, 1)),
                           (W_m._y_der, W_m._dw, slice(1, None))):
        w = np.stack(cols, axis=-1)
        want = np.zeros((len(p), w.shape[1]))
        scale = np.zeros_like(want)
        for j in range(w.shape[0]):
            term = W_m.base.eval(p - y[:, 0, j])[:, None] * w[j]
            want += term
            scale += np.abs(term)
        got = W_m._quad(p, which)
        assert np.all(np.abs(got - want) <= 1e-13 * scale)


def test_mollified_tables_shared_read_only_and_small():
    """Densities of one (n, m) share one read-only quadrature table, so
    twenty more of them hold almost no memory."""
    a = MollifiedAnisotropy(EuclideanAnisotropy(2), 16.0)
    b = MollifiedAnisotropy(PowerFourAnisotropy(2), 16)
    for name in ("nodes", "_y_val", "_y_der"):
        assert getattr(a, name) is getattr(b, name)
    assert a._dw is b._dw and a._w_val is b._w_val
    assert MollifiedAnisotropy(EuclideanAnisotropy(2), 8.0).nodes is not a.nodes
    for arr in (a.nodes, a._y_val, a._y_der, a._w_val[0], *a._dw):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    W = EuclideanAnisotropy(2)
    kept = [MollifiedAnisotropy(W, 16)]        # fills the table if need be
    tracemalloc.start()
    try:
        kept += [MollifiedAnisotropy(W, 16) for _ in range(20)]
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(kept) == 21 and held < 0.2 * 2**20, held


def test_no_quadrature_table_is_built_at_import():
    code = ("import facetflow, facetflow.anisotropy as a; "
            "print(a._quadrature_table.cache_info().currsize)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "0"


@pytest.mark.parametrize("n", [1, 2])
def test_l4_eval_is_the_fourth_root_of_the_fourth_powers(n):
    """Two squarings instead of the general power keep l4 within 4 ulp
    of (sum_i p_i^4)^(1/4)."""
    p = np.random.default_rng(4).normal(size=(2000, n)) * np.logspace(
        -3, 3, 2000)[:, None]
    want = np.sum(p**4, axis=-1) ** 0.25
    got = PowerFourAnisotropy(n).eval(p)
    assert np.all(np.abs(got - want) <= 4 * np.spacing(want))


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
