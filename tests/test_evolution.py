"""Explicit graph evolutions: stability, decay laws, comparison."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from facetflow.anisotropy import (EuclideanAnisotropy, MollifiedAnisotropy,
                                  make_anisotropy)
from facetflow.evolution import (EvolutionConfig, SpeedLaw, StabilityError,
                                 comparison_harness, evolve,
                                 lipschitz_monitor, m_refinement_study,
                                 stable_dt, step_count, step_explicit,
                                 tv_flow)
from facetflow.grid import (Grid, GridFunction, backward_divergence,
                            forward_gradient, mollify)


def _tent(g, slope=0.5):
    x = g.coords()[..., 0]
    d = np.minimum(np.abs(x - 0.5), 1 - np.abs(x - 0.5))
    return GridFunction(g, slope * (0.25 - d))


def test_speed_law_affine_with_positive_scale():
    law = SpeedLaw(2.0, 0.3)
    assert law(np.zeros((1, 1)), np.array([1.0]))[0] == pytest.approx(-1.7)
    for s in (-1.0, 0.0, np.nan):
        with pytest.raises(ValueError):
            SpeedLaw(s)


def test_stable_dt_scaling():
    W_m = MollifiedAnisotropy(EuclideanAnisotropy(1), 8.0)
    g1, g2 = Grid(1, 64), Grid(1, 128)
    law = tv_flow(1)
    assert stable_dt(g2, W_m, law, 0.4) == \
        pytest.approx(stable_dt(g1, W_m, law, 0.4) / 4)


def test_divergence_operator_of_smooth_graph():
    """On a smooth graph the operator of the explicit step, one unit step
    of u_t = L_m u less u, approaches div grad W_m(grad u)."""
    g = Grid(1, 512)
    x = g.coords()[..., 0]
    u = GridFunction(g, 0.05 * np.sin(2 * np.pi * x))
    W_m = MollifiedAnisotropy(EuclideanAnisotropy(1), 4.0)
    lu = step_explicit(u, W_m, SpeedLaw(1.0), 1.0).values - u.values
    # compare with a centered evaluation of the same flux balance
    p = 0.05 * 2 * np.pi * np.cos(2 * np.pi * x)
    second = -0.05 * (2 * np.pi) ** 2 * np.sin(2 * np.pi * x)
    want = W_m.hess(p.reshape(-1, 1)).reshape(-1) * second
    assert np.max(np.abs(lu - want)) < 0.2 * np.max(np.abs(want))


def test_constant_state_is_stationary():
    g = Grid(1, 64)
    u0 = GridFunction.constant(g, 0.3)
    W_m = MollifiedAnisotropy(EuclideanAnisotropy(1), 8.0)
    tr = evolve(u0, W_m, tv_flow(1), EvolutionConfig(t_end=0.01))
    assert np.allclose(tr.final().values, 0.3, atol=1e-13)


def test_tent_peak_decay_law():
    """The tent of slope s loses height sqrt(2 s t) under u_t = L u."""
    g = Grid(1, 256)
    s, t_end = 0.5, 0.002
    u0 = _tent(g, s)
    W_m = MollifiedAnisotropy(EuclideanAnisotropy(1), 32.0)
    tr = evolve(u0, W_m, tv_flow(1), EvolutionConfig(t_end=t_end, cfl=0.5))
    drop = np.max(u0.values) - np.max(tr.final().values)
    assert drop == pytest.approx(np.sqrt(2 * s * t_end), rel=0.05)


def test_lipschitz_constant_never_grows():
    g = Grid(1, 128)
    u0 = _tent(g, 0.5)
    W_m = MollifiedAnisotropy(EuclideanAnisotropy(1), 16.0)
    tr = evolve(u0, W_m, tv_flow(1), EvolutionConfig(t_end=0.002,
                                                     record_every=200))
    mon = lipschitz_monitor(tr)
    assert mon["max"] <= mon["initial"] * 1.001 + 1e-3
    assert mon["final"] <= mon["initial"] + 1e-12


def test_unstable_time_step_raises():
    g = Grid(1, 64)
    u0 = _tent(g, 0.5)
    W_m = MollifiedAnisotropy(EuclideanAnisotropy(1), 16.0)
    with pytest.raises(StabilityError):
        evolve(u0, W_m, tv_flow(1), EvolutionConfig(t_end=0.01, cfl=30.0))


def test_comparison_harness_no_crossing():
    g = Grid(1, 64)
    rng = np.random.default_rng(6)
    lo = mollify(GridFunction(g, 0.1 * rng.standard_normal(g.shape)), 3 * g.h)
    hi = GridFunction(g, lo.values + 0.02)
    W_m = MollifiedAnisotropy(EuclideanAnisotropy(1), 8.0)
    rep = comparison_harness(lo, hi, W_m, tv_flow(1),
                             EvolutionConfig(t_end=0.01, record_every=100))
    assert rep["max_crossing"] <= 1e-10


def test_m_refinement_distances_shrink():
    g = Grid(1, 128)
    u0 = _tent(g, 0.5)
    W = EuclideanAnisotropy(1)
    study = m_refinement_study(
        u0, W, tv_flow(1), 0.001, [4.0, 8.0, 16.0],
        lambda W, m: MollifiedAnisotropy(W, m))
    d = study["gaps"]
    assert len(d) == 2
    assert d[1] < d[0]


def _oracle_step(u, W_m, speed, dt):
    """One allocating forward Euler step, a new GridFunction a step: the
    explicit step as it was before the in-place loop."""
    h = u.grid.h
    gr = forward_gradient(u.values, h)
    flux = W_m.grad(gr.reshape(-1, u.grid.n)).reshape(gr.shape)
    rate = speed.xi_scale * backward_divergence(flux, h) - speed.forcing
    return GridFunction(u.grid, u.values + dt * rate)


def _oracle_evolve(u0, W_m, speed, config):
    """Recorded times and states of the allocating loop."""
    steps = int(step_count(u0.grid, W_m, speed, config))
    dt = config.t_end / steps
    times, states = [0.0], [u0.copy()]
    u = u0.copy()
    for k in range(1, steps + 1):
        u = _oracle_step(u, W_m, speed, dt)
        if (config.record_every and k % config.record_every == 0) \
                or k == steps:
            times.append(k * dt)
            states.append(u.copy())
    return times, states


@settings(max_examples=30, deadline=None)
@given(n=st.sampled_from([1, 2]),
       name=st.sampled_from(["euclidean", "elliptic", "l4"]),
       N=st.integers(8, 40), m=st.sampled_from([1.0, 4.0, 8.0, 16.0]),
       scale=st.floats(0.5, 2.0),
       forcing=st.sampled_from([-2.0, -0.3, 0.7, 1.5]),
       record_every=st.sampled_from([0, 1, 7]), n_steps=st.integers(1, 20),
       seed=st.integers(0, 2**32 - 1))
def test_evolve_matches_frozen_oracle_bit_for_bit(n, name, N, m, scale,
                                                  forcing, record_every,
                                                  n_steps, seed):
    """The in-place loop does the allocating loop's arithmetic in its
    order: the same times and states bit for bit, each state a copy of
    its own, and step_explicit is the oracle's one step."""
    g = Grid(n, N if n == 1 else min(N, 10))
    rng = np.random.default_rng(seed)
    x = g.coords()
    vals = np.zeros(g.shape)
    for k in (1, 2, 3):
        for i in range(n):
            vals += (rng.normal() / k
                     * np.sin(2 * np.pi * k * x[..., i] + rng.uniform(0, 7)))
    u0 = GridFunction(g, 0.1 * vals)
    W_m = MollifiedAnisotropy(make_anisotropy(name, n), m)
    law = SpeedLaw(scale, forcing)
    cfg = EvolutionConfig(t_end=n_steps * stable_dt(g, W_m, law, 0.4),
                          record_every=record_every)
    tr = evolve(u0, W_m, law, cfg)
    times, states = _oracle_evolve(u0, W_m, law, cfg)
    assert tr.times == times and tr.wall_s > 0
    assert len(tr.states) == len(states) == len(tr.lipschitz)
    for got, want in zip(tr.states, states):
        assert np.array_equal(got.values, want.values)
    arrays = [u0.values] + [s.values for s in tr.states]
    assert not any(np.shares_memory(a, b) for i, a in enumerate(arrays)
                   for b in arrays[i + 1:])
    one = step_explicit(u0, W_m, law, tr.dt)
    assert np.array_equal(one.values, _oracle_step(u0, W_m, law, tr.dt).values)
