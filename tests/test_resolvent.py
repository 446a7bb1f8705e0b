"""Singular resolvent: closed forms, duality gap, order, and curvature."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from facetflow.anisotropy import (EllipticAnisotropy, EuclideanAnisotropy,
                                  make_anisotropy)
from facetflow.grid import Grid, GridFunction
from facetflow.resolvent import (ResolventConfig, curvature_dq, essinf_ball,
                                 esssup_ball, facet_interior,
                                 monotonicity_check, resolve_singular,
                                 resolvent_bruteforce,
                                 total_variation_energy)


def _tent(g, slope=0.5):
    x = g.coords()[..., 0]
    d = np.minimum(np.abs(x - 0.5), 1 - np.abs(x - 0.5))
    return GridFunction(g, slope * (0.25 - d))


@pytest.mark.parametrize("a", [0.0, -1e-3, np.nan])
def test_resolvent_config_rejects_nonpositive_or_nan_scale(a):
    with pytest.raises(ValueError):
        ResolventConfig(a=a)


def test_total_variation_energy_of_tent():
    g = Grid(1, 256)
    u = _tent(g, 0.5)
    # |u'| = 1/2 on the whole circle, so the energy is 1/2
    assert total_variation_energy(u, EuclideanAnisotropy(1)) == \
        pytest.approx(0.5, rel=1e-10)


def test_resolvent_tent_closed_form():
    """Facet half-length sqrt(2a/s) and peak drop sqrt(2as)."""
    g = Grid(1, 512)
    s, a = 0.5, 0.005
    psi = _tent(g, s)
    psi_a, z, rep = resolve_singular(psi, EuclideanAnisotropy(1),
                                     ResolventConfig(a=a, max_iter=100000,
                                                     rel_gap_tol=1e-10))
    assert rep.converged
    drop = np.max(psi.values) - np.max(psi_a.values)
    assert drop == pytest.approx(np.sqrt(2 * a * s), rel=0.05)
    flat = np.abs(psi_a.values - np.max(psi_a.values)) <= 0.5 * g.h * s
    half_len = 0.5 * np.sum(flat) * g.h
    assert abs(half_len - np.sqrt(2 * a / s)) <= max(3 * g.h,
                                                     0.05 * np.sqrt(2 * a / s))


def test_resolvent_agrees_with_bruteforce():
    g = Grid(1, 128)
    psi = _tent(g, 0.5)
    W = EuclideanAnisotropy(1)
    a = 0.005
    fast, _, rep = resolve_singular(psi, W, ResolventConfig(
        a=a, max_iter=60000, rel_gap_tol=1e-12))
    slow = resolvent_bruteforce(psi, W, a, iterations=200000)
    assert np.max(np.abs(fast.values - slow.values)) < 1e-6


def test_resolvent_error_bound_from_gap():
    g = Grid(1, 128)
    psi = _tent(g, 0.5)
    W = EuclideanAnisotropy(1)
    fast, _, rep = resolve_singular(psi, W, ResolventConfig(
        a=0.005, max_iter=60000, rel_gap_tol=1e-12))
    slow = resolvent_bruteforce(psi, W, 0.005, iterations=300000)
    err = np.sqrt(np.sum((fast.values - slow.values) ** 2) * g.h)
    assert err <= rep.l2_error_bound + 1e-8


def test_resolvent_preserves_mean_and_constants():
    g = Grid(1, 64)
    W = EuclideanAnisotropy(1)
    c = GridFunction.constant(g, 0.7)
    out, _, _ = resolve_singular(c, W, ResolventConfig(a=0.01, max_iter=2000))
    assert np.allclose(out.values, 0.7, atol=1e-8)


def test_resolvent_order_preservation():
    g = Grid(1, 128)
    rng = np.random.default_rng(4)
    from facetflow.grid import mollify
    lo = mollify(GridFunction(g, 0.2 * rng.standard_normal(g.shape)), 4 * g.h)
    hi = GridFunction(g, lo.values + 0.05)
    rep = monotonicity_check(lo, hi, EuclideanAnisotropy(1), 0.005,
                             max_iter=60000, rel_gap_tol=1e-10)
    assert rep["violation"] <= 1e-6


def test_curvature_dq_of_1d_facet():
    """A flat segment of length L at the top moves down at rate 2/L."""
    g = Grid(1, 512)
    x = g.coords()[..., 0]
    L, delta = 0.25, 0.06
    d = np.minimum(np.abs(x - 0.5), 1 - np.abs(x - 0.5))
    psi = GridFunction(g, np.clip(L / 2 + delta - d, 0, delta))
    lam, rep = curvature_dq(psi, EuclideanAnisotropy(1), 2e-4,
                            max_iter=100000, rel_gap_tol=1e-8)
    assert rep.converged
    on_facet = d <= L / 2 - 6 * g.h
    assert np.mean(lam.values[on_facet]) == pytest.approx(-2.0 / L, rel=0.05)


def test_essinf_esssup_ball():
    g = Grid(1, 64)
    u = GridFunction(g, np.sin(2 * np.pi * g.coords()[..., 0]))
    x0 = np.array([0.25])
    assert essinf_ball(u, x0, 3 * g.h) <= 1.0
    assert esssup_ball(u, x0, 3 * g.h) == pytest.approx(1.0, abs=0.05)
    assert essinf_ball(u, x0, 10 * g.h) <= essinf_ball(u, x0, 3 * g.h)


def test_facet_interior_finds_plateau():
    g = Grid(1, 256)
    x = g.coords()[..., 0]
    d = np.minimum(np.abs(x - 0.5), 1 - np.abs(x - 0.5))
    psi = GridFunction(g, np.clip(0.1 + 0.05 - d, 0, 0.05))
    mask = facet_interior(psi, float(np.max(psi.values)))
    assert np.sum(mask) > 0
    assert np.all(psi.values[mask] == np.max(psi.values))


def test_resolvent_certified_for_rotated_elliptic_model():
    """A non-diagonal M goes through the same Wulff projection."""
    W = EllipticAnisotropy(np.array([[2.0, 0.5], [0.5, 1.0]]))
    g = Grid(2, 16)
    c = g.coords()
    psi = GridFunction(g, 0.1 * np.sin(2 * np.pi * c[..., 0])
                       * np.cos(2 * np.pi * c[..., 1]))
    psi_a, _z, rep = resolve_singular(
        psi, W, ResolventConfig(a=5e-3, rel_gap_tol=1e-8))
    assert rep.converged
    assert psi_a.mean() == pytest.approx(psi.mean(), abs=1e-12)


def test_gap_history_records_every_check():
    """One (iteration, gap) per check: every 25 iterations, and at max_iter
    when that is not a multiple of 25; the last is the reported pair."""
    g = Grid(1, 64)
    psi = _tent(g, 0.5)
    W = EuclideanAnisotropy(1)
    for max_iter in (25, 80, 137):
        _, _, rep = resolve_singular(psi, W, ResolventConfig(
            a=0.005, max_iter=max_iter, rel_gap_tol=1e-30))
        its = [k for k, _ in rep.gap_history]
        expect = list(range(25, max_iter + 1, 25))
        if max_iter % 25:
            expect.append(max_iter)
        assert its == expect
        assert rep.gap_history[-1] == (rep.iterations, rep.gap)
    _, _, rep = resolve_singular(psi, W, ResolventConfig(a=0.005,
                                                         rel_gap_tol=1e-8))
    assert rep.converged and rep.iterations % 25 == 0
    assert rep.gap_history[-1] == (rep.iterations, rep.gap)
    assert all(gap > rep.gap_tol for _, gap in rep.gap_history[:-1])


def _oracle_grad(v, h):
    return np.stack([(np.roll(v, -1, axis=i) - v) / h for i in range(v.ndim)],
                    axis=-1)


def _oracle_div(z, h):
    out = np.zeros(z.shape[:-1])
    for i in range(z.shape[-1]):
        out += (z[..., i] - np.roll(z[..., i], 1, axis=i)) / h
    return out


def _oracle_resolve(psi, W, config):
    """The primal-dual loop as first written, a fresh array for every
    step: a frozen reference that resolve_singular must match bit for
    bit.  Returns (psi_a, z, iterations, gap, converged)."""
    g = psi.grid
    a = config.a
    n, h = g.n, g.h
    L2 = 4.0 * n / h**2
    tau = np.sqrt(a) / np.sqrt(L2)
    sigma = 1.0 / (tau * L2)
    gamma = 1.0 / a
    v = psi.values.copy()
    v_bar = v.copy()
    z = np.zeros(g.shape + (n,))
    psi_v = psi.values
    voln = h**n
    gap = np.inf
    scale = max(float(np.sum(psi_v**2)) * voln, 1e-30)
    gap_tol = config.rel_gap_tol * scale / a
    it = 0
    for it in range(1, config.max_iter + 1):
        z = z + sigma * _oracle_grad(v_bar, h)
        z = W.wulff_project(z.reshape(-1, n)).reshape(z.shape)
        v_old = v
        v = ((v + tau * _oracle_div(z, h) + (tau / a) * psi_v)
             / (1.0 + tau / a))
        theta = 1.0 / np.sqrt(1.0 + 2.0 * gamma * tau)
        tau *= theta
        sigma /= theta
        v_bar = v + theta * (v - v_old)
        if it % 25 == 0 or it == config.max_iter:
            dz = _oracle_div(z, h)
            v_rec = psi_v + a * dz
            primal = (float(np.sum(W.eval(_oracle_grad(v_rec, h)))) * voln
                      + 0.5 / a * float(np.sum((v_rec - psi_v)**2)) * voln)
            dual = (-float(np.sum(psi_v * dz)) * voln
                    - 0.5 * a * float(np.sum(dz**2)) * voln)
            gap = primal - dual
            if gap <= gap_tol:
                break
    psi_a = psi_v + a * _oracle_div(z, h)
    return psi_a, z, it, gap, bool(gap <= gap_tol)


@settings(max_examples=40, deadline=None)
@given(n=st.sampled_from([1, 2]),
       name=st.sampled_from(["euclidean", "elliptic", "l4"]),
       N=st.integers(8, 24), a=st.floats(1e-4, 1e-2),
       max_iter=st.integers(1, 80), seed=st.integers(0, 2**32 - 1))
def test_resolvent_matches_frozen_oracle_bit_for_bit(n, name, N, a, max_iter,
                                                     seed):
    """The fused in-place loop does the oracle's arithmetic in its order:
    psi_a and z are equal bit for bit, and so are the iteration count,
    the gap and the verdict, whether or not the last iteration is a
    gap check."""
    g = Grid(n, N)
    rng = np.random.default_rng(seed)
    x = g.coords()
    vals = np.zeros(g.shape)
    for k in (1, 2, 3):
        for i in range(n):
            vals += (rng.normal() / k
                     * np.sin(2 * np.pi * k * x[..., i] + rng.uniform(0, 7)))
    psi = GridFunction(g, 0.1 * vals)
    W = make_anisotropy(name, n)
    cfg = ResolventConfig(a=a, max_iter=max_iter, rel_gap_tol=1e-3)
    psi_a, z, rep = resolve_singular(psi, W, cfg)
    o_psi_a, o_z, o_it, o_gap, o_conv = _oracle_resolve(psi, W, cfg)
    assert np.array_equal(psi_a.values, o_psi_a)
    assert z.values.shape == o_z.shape
    assert np.array_equal(z.values, o_z)
    assert (rep.iterations, rep.gap, rep.converged) == (o_it, o_gap, o_conv)
