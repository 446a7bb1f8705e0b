"""Explicit graph evolutions: stability, decay laws, comparison."""

import numpy as np
import pytest

from facetflow.anisotropy import EuclideanAnisotropy, MollifiedAnisotropy
from facetflow.evolution import (EvolutionConfig, SpeedLaw, StabilityError,
                                 comparison_harness, divergence_operator,
                                 evolve, lipschitz_monitor,
                                 m_refinement_study, sample_state, stable_dt,
                                 conventional_test_residual, tv_flow)
from facetflow.grid import Grid, GridFunction, lipschitz_constant, mollify


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
    """On a smooth graph the operator approaches div grad W_m(grad u)."""
    g = Grid(1, 512)
    x = g.coords()[..., 0]
    u = GridFunction(g, 0.05 * np.sin(2 * np.pi * x))
    W_m = MollifiedAnisotropy(EuclideanAnisotropy(1), 4.0)
    lu = divergence_operator(u, W_m)
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


def test_sample_state_picks_nearest_time():
    g = Grid(1, 64)
    u0 = _tent(g, 0.5)
    W_m = MollifiedAnisotropy(EuclideanAnisotropy(1), 8.0)
    tr = evolve(u0, W_m, tv_flow(1), EvolutionConfig(t_end=0.004,
                                                     record_every=50))
    mid = sample_state(tr, 0.002)
    assert np.max(mid.values) < np.max(u0.values)
    assert np.max(mid.values) > np.max(tr.final().values)


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


def test_conventional_test_residual_affine():
    law = SpeedLaw(2.0)
    r = conventional_test_residual(0.5, np.array([1.0]), 3.0, law)
    assert r == pytest.approx(0.5 - 6.0)
