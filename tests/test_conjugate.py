"""Legendre transforms, barrier constants, and conjugate bounds."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from facetflow.anisotropy import (EuclideanAnisotropy, MollifiedAnisotropy,
                                  make_anisotropy)
from facetflow.conjugate import (BarrierFamily, ParameterError,
                                 SampledConvexFunction, beta_Aq, build_barrier,
                                 cap_function, cap_grad, choose_parameters,
                                 legendre_transform)
from facetflow.evolution import SpeedLaw


def _tabulate(f, lo, hi, k, n):
    axes = [np.linspace(lo, hi, k) for _ in range(n)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    vals = f(pts).reshape((k,) * n)
    return SampledConvexFunction(np.full(n, lo), np.full(n, hi), vals)


def test_legendre_of_quadratic_is_quadratic():
    """(|p|^2/2)* = |x|^2/2, so the transform should reproduce it."""
    for n in (1, 2):
        f = _tabulate(lambda p: 0.5 * np.sum(p**2, axis=-1), -4, 4, 257, n)
        g = legendre_transform(f, -np.ones(n), np.ones(n), (65,) * n)
        xs = np.stack(np.meshgrid(*[np.linspace(-1, 1, 65)] * n,
                                  indexing="ij"), axis=-1)
        want = 0.5 * np.sum(xs**2, axis=-1)
        assert np.max(np.abs(g.values - want)) < 1e-3


def test_legendre_of_norm_is_ball_indicator():
    """|p|* = indicator of the unit ball: 0 inside, +inf outside."""
    f = _tabulate(lambda p: np.abs(p[..., 0]), -6, 6, 1025, 1)
    g = legendre_transform(f, np.array([-2.0]), np.array([2.0]), (81,))
    x = np.linspace(-2, 2, 81)
    inside = np.abs(x) <= 0.95
    outside = np.abs(x) >= 1.05
    assert np.max(np.abs(g.values[inside])) < 1e-8
    assert np.all(~np.isfinite(g.values[outside]))


def test_biconjugate_recovers_convex_function():
    f = _tabulate(lambda p: np.cosh(p[..., 0]) - 1.0, -3, 3, 513, 1)
    g = legendre_transform(f, np.array([-8.0]), np.array([8.0]), (513,))
    h = legendre_transform(g, np.array([-2.5]), np.array([2.5]), (401,))
    x = np.linspace(-2.5, 2.5, 401)
    want = np.cosh(x) - 1.0
    core = np.abs(x) <= 2.0
    assert np.max(np.abs(h.values[core] - want[core])) < 5e-3


def test_cap_function_blows_up_at_unit_sphere():
    p = np.array([[0.0, 0.0], [0.5, 0.0], [0.0, 0.999]])
    v = cap_function(p)
    assert v[0] == 0.0
    assert v[1] == pytest.approx(-np.log(0.75))
    assert v[2] > 6.0


def test_choose_parameters_constants():
    W = EuclideanAnisotropy(2)
    delta, K = 0.5, 2.0
    m0, A, q, mu = choose_parameters(delta, K, W)
    assert A == pytest.approx(delta / (8 * mu))
    assert q == pytest.approx(8 * K / delta)
    assert m0 > 0 and mu > 0


def test_build_barrier_bounds_and_conjugate():
    W = EuclideanAnisotropy(1)
    delta, K = 0.5, 1.0
    m0, A, q, _mu = choose_parameters(delta, K, W)
    fam = build_barrier(m0, A, q, W, n_check=100)
    # conjugate gradient stays inside the cap ball
    rng = np.random.default_rng(0)
    xs = rng.normal(scale=2.0, size=(200, 1))
    _v, p, _H = fam.conjugate(xs, with_derivatives=True)
    assert np.all(np.abs(p) < q)
    # conjugate of a finite convex function is >= linear minus value at 0
    vals = fam.conjugate(xs)
    assert np.all(vals >= -1e-12)


def test_conjugate_fenchel_inequality():
    """phi(p) + phi*(x) >= <p, x> on random pairs, equality at p = grad."""
    W = EuclideanAnisotropy(1)
    fam = build_barrier(16.0, 0.05, 8.0, W, n_check=50)
    rng = np.random.default_rng(1)
    xs = rng.normal(scale=1.5, size=(100, 1))
    ps = rng.uniform(-0.9, 0.9, size=(100, 1)) * fam.q
    lhs = fam.capped(ps) + fam.conjugate(xs)
    rhs = np.sum(ps * xs, axis=-1)
    assert np.all(lhs >= rhs - 1e-9)
    _v, pstar, _H = fam.conjugate(xs, with_derivatives=True)
    tight = fam.capped(pstar) + fam.conjugate(xs) - np.sum(pstar * xs, axis=-1)
    assert np.max(np.abs(tight)) < 1e-8


def test_operator_bound_positive_and_capped():
    W = EuclideanAnisotropy(2)
    fam = build_barrier(16.0, 0.05, 8.0, W, n_check=50)
    rng = np.random.default_rng(2)
    Lm = fam.conjugate(rng.normal(scale=1.0, size=(100, 2)),
                       with_derivatives=True).Lm
    assert np.all(Lm > 0)
    assert np.all(Lm <= W.n / fam.A + 1e-6)


def test_beta_dominates_speed_on_the_box():
    speed = lambda p, xi: -2.0 * xi + 0.3
    A, q = 0.05, 8.0
    beta = beta_Aq(speed, A, q, n=2)
    assert beta >= 2.0 * (2 / A) + 0.3 + 1.0 - 1e-9
    # the supremum of |F| = |xi| sits on the edge |xi| = n/A of the box;
    # a refinement window reaching past that edge would overshoot it
    beta = beta_Aq(lambda p, xi: -xi, A, q, n=2)
    assert beta == pytest.approx(2 / A + 1.0, abs=1e-12)
    for n in (1, 2):
        assert beta_Aq(SpeedLaw(2.0, -0.3), A, q, n) == 2.0 * (n / A) + 0.3 + 1.0


def test_conjugate_freezes_stalled_core_points():
    """Inside the mollifier core two of these points stall; they used to
    take Newton sweeps until the 80-sweep cap (81 W_m.hess calls)."""
    W = EuclideanAnisotropy(2)
    m0, A, q, _mu = choose_parameters(0.5, 2.0, W, n_verify=200)
    fam = build_barrier(m0, A, q, W, n_check=100)
    calls = []
    hess = fam.W_m.hess

    def counted_hess(p, **kw):
        calls.append(p.shape[0])
        return hess(p, **kw)

    fam.W_m.hess = counted_hess
    xs = np.random.default_rng(7).normal(size=(250, 2))
    vals, _p, _Hc = fam.conjugate(xs, with_derivatives=True)
    assert len(calls) <= 20
    # two well-converged points and the two stalled ones (|p| < 0.07)
    ref = {0: 1.5632603500818494, 1: 16.300994403291284,
           84: 0.0017231327326715637, 129: 0.0015275925050049657}
    for i, want in ref.items():
        assert abs(vals[i] - want) <= 1e-14 * (1.0 + abs(want)), i


def test_choose_parameters_rejects_impossible_demand():
    W = EuclideanAnisotropy(2)
    with pytest.raises((ParameterError, ValueError)):
        choose_parameters(-1.0, 2.0, W)


def _sampled_parameters(delta, K, W):
    """(m0, A, q, mu) with W_m sampled on every direction for every m of
    the doubling, as choose_parameters did before it skipped the m that
    the Jensen bound rules out."""
    if W.n == 1:
        dirs = np.array([[1.0], [-1.0]])
    else:
        th = np.linspace(0, 2 * np.pi, 2048, endpoint=False)
        dirs = np.stack([np.cos(th), np.sin(th)], axis=-1)
    half = 0.5 * dirs
    mu = float(np.max(W.eval(half) + cap_function(half)))
    A = delta / (8.0 * mu)
    q = 8.0 * K / delta
    for e in range(17):
        m0 = 2.0**e
        W_m = MollifiedAnisotropy(W, m0)
        pts = (q / 2.0) * dirs
        w0 = float(W_m.eval(np.zeros((1, W.n)))[0])
        if np.max(np.abs(W_m.eval(pts) - w0 - W.eval(pts))) <= q * mu:
            return m0, A, q, mu
    raise ParameterError("no m0 found up to m = 2^16")


@settings(max_examples=30, deadline=None, derandomize=True)
@given(name=st.sampled_from(["euclidean", "elliptic", "l4"]),
       n=st.sampled_from([1, 2]), delta=st.floats(0.05, 2.0),
       K=st.floats(0.05, 4.0))
@example(name="euclidean", n=2, delta=1.0, K=0.1)      # m0 = 1
@example(name="l4", n=1, delta=2.0, K=0.05)            # m0 = 1
@example(name="elliptic", n=2, delta=0.1, K=3.0)       # m0 = 64
@example(name="euclidean", n=1, delta=0.05, K=4.0)     # m0 = 256
def test_choose_parameters_matches_sampling_every_m(name, n, delta, K):
    """Skipping the m the Jensen bound rejects changes no bit of
    (m0, A, q, mu)."""
    W = make_anisotropy(name, n)
    want = _sampled_parameters(delta, K, W)
    assert choose_parameters(delta, K, W, n_verify=20) == want


def test_choose_parameters_samples_only_the_accepted_m(monkeypatch):
    """m = 1, 2, 4, 8 fail the Jensen bound for the default 2D constants,
    so only m0 = 16 is sampled on the 2048 directions."""
    sizes = []
    eval_ = MollifiedAnisotropy.eval

    def counted(self, p):
        sizes.append(np.shape(p)[0])
        return eval_(self, p)

    monkeypatch.setattr(MollifiedAnisotropy, "eval", counted)
    m0, *_ = choose_parameters(0.5, 2.0, EuclideanAnisotropy(2), n_verify=100)
    assert m0 == 16.0
    assert sizes.count(2048) == 1


def test_build_barrier_checks_the_hessian_in_one_conjugate_call(monkeypatch):
    """One solve for the sample, one for all 2n shifted copies of the
    Hessian check's points; the stalled count comes from the first."""
    sizes = []
    conjugate = BarrierFamily.conjugate

    def counted(self, x, with_derivatives=False):
        sizes.append(len(x))
        return conjugate(self, x, with_derivatives)

    monkeypatch.setattr(BarrierFamily, "conjugate", counted)
    fam = build_barrier(16.0, 0.05, 8.0, EuclideanAnisotropy(2), n_check=50)
    assert sizes[0] == 50 and len(sizes) == 2
    assert sizes[1] % 4 == 0 and 0 < sizes[1] <= 4 * 24
    assert "hess_fd_err" in fam.provenance
    assert 0 <= fam.provenance["stalled"] <= 50


def test_conjugate_reports_the_residual_and_Lm_of_its_solve():
    """The solution carries Hess W_m at p and the Newton residuals; L_m
    taken from it equals the one from a second W_m.hess call."""
    W = EuclideanAnisotropy(2)
    fam = build_barrier(16.0, 0.05, 8.0, W, n_check=50)
    xs = np.random.default_rng(7).normal(size=(100, 2))
    sol = fam.conjugate(xs, with_derivatives=True)
    val, p, Hc = sol
    assert np.array_equal(val, fam.conjugate(xs))
    assert np.array_equal(sol.Hm, fam.W_m.hess(p))
    assert np.array_equal(sol.Lm, np.einsum("kij,kji->k", sol.Hm, Hc))
    g, _H = fam.W_m.hess(p, with_grad=True)
    want = np.linalg.norm(xs - fam.A * (g + cap_grad(p / fam.q)), axis=-1)
    assert np.array_equal(sol.resid, want)
