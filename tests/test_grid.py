"""Periodic grid calculus: adjointness, consistency, and morphology."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from facetflow.facets import rho_neighborhood
from facetflow.grid import (Grid, GridFunction, GridMismatchError,
                            backward_divergence, dilate, erode,
                            forward_gradient, gradient_centered,
                            lipschitz_constant, mollify, torus_distance)


def test_grid_basic_geometry():
    g = Grid(2, 64)
    assert g.h == pytest.approx(1.0 / 64)
    assert g.shape == (64, 64)
    c = g.coords()
    assert c.shape == (64, 64, 2)
    assert c[0, 0, 0] == 0.0
    assert c[1, 0, 0] == pytest.approx(g.h)


def test_grid_rejects_bad_arguments():
    with pytest.raises(ValueError):
        Grid(4, 64)
    with pytest.raises(ValueError):
        Grid(3, 64)
    with pytest.raises(ValueError):
        Grid(1, 4)


def test_torus_distance_wraps():
    assert torus_distance(np.array([0.1]), np.array([0.9])) == pytest.approx(0.2)
    d = torus_distance(np.array([0.05, 0.05]), np.array([0.95, 0.5]))
    assert d == pytest.approx(np.hypot(0.1, 0.45))


def test_gridfunction_rejects_nonfinite():
    g = Grid(1, 16)
    vals = np.zeros(16)
    vals[3] = np.nan
    with pytest.raises(ValueError):
        GridFunction(g, vals)


def test_gradient_divergence_adjoint():
    """<grad u, z> = -<u, div z> exactly for the forward/backward pair."""
    rng = np.random.default_rng(3)
    for n in (1, 2):
        g = Grid(n, 32)
        u = rng.standard_normal(g.shape)
        z = rng.standard_normal(g.shape + (n,))
        lhs = np.sum(forward_gradient(u, g.h) * z) * g.h**n
        rhs = -np.sum(u * backward_divergence(z, g.h)) * g.h**n
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_gradient_centered_exact_on_sine():
    g = Grid(1, 256)
    x = g.coords()[..., 0]
    u = GridFunction(g, np.sin(2 * np.pi * x))
    got = gradient_centered(u).values[..., 0]
    want = 2 * np.pi * np.cos(2 * np.pi * x)
    assert np.max(np.abs(got - want)) < 2 * np.pi**3 * g.h**2


def test_erode_dilate_order():
    g = Grid(2, 32)
    rng = np.random.default_rng(9)
    u = GridFunction(g, rng.standard_normal(g.shape))
    lo = erode(u, 2 * g.h)
    hi = dilate(u, 2 * g.h)
    assert np.all(lo.values <= u.values + 1e-15)
    assert np.all(u.values <= hi.values + 1e-15)


def test_erode_dilate_duality():
    g = Grid(2, 32)
    rng = np.random.default_rng(11)
    u = GridFunction(g, rng.standard_normal(g.shape))
    a = erode(u, 3 * g.h).values
    b = -dilate(GridFunction(g, -u.values), 3 * g.h).values
    assert np.allclose(a, b, atol=1e-14)


def _ball_max(v, k):
    """Brute-force supremum over every shift in the l1 ball of k cells."""
    out = v.copy()
    for shift in itertools.product(range(-k, k + 1), repeat=v.ndim):
        if sum(abs(s) for s in shift) <= k:
            out = np.maximum(out, np.roll(v, shift, axis=tuple(range(v.ndim))))
    return out


@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from([1, 2]), N=st.integers(8, 32), data=st.data())
def test_dilation_is_max_over_graded_ball(n, N, data):
    """dilate, erode and rho_neighborhood against a brute-force max over
    the shifts in the l1 ball, grid balls wider than the torus included."""
    k = data.draw(st.integers(0, N + 3), label="k")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    g = Grid(n, N)
    u = GridFunction(g, rng.standard_normal(g.shape))
    up = dilate(u, k * g.h).values
    assert np.array_equal(up, _ball_max(u.values, k))
    down = erode(u, k * g.h).values
    assert np.array_equal(down, -dilate(GridFunction(g, -u.values), k * g.h).values)
    mask = rng.random(g.shape) < 0.3
    assert np.array_equal(rho_neighborhood(g, mask, k * g.h), _ball_max(mask, k))


@pytest.mark.parametrize("n", [1, 2])
def test_grid_pair_out_forms_match_allocating_forms(n):
    """forward_gradient and backward_divergence written to a C-ordered
    (*shape, n) array or to a moveaxis view of (n, *shape) storage equal
    their allocating forms bit for bit, and match np.roll differences."""
    g = Grid(n, 24)
    rng = np.random.default_rng(11)
    v = rng.standard_normal(g.shape)
    z = rng.standard_normal(g.shape + (n,))
    h = g.h
    grad = forward_gradient(v, h)
    div = backward_divergence(z, h)
    assert np.array_equal(grad, np.stack(
        [(np.roll(v, -1, axis=i) - v) / h for i in range(n)], axis=-1))
    assert np.array_equal(div, sum(
        (z[..., i] - np.roll(z[..., i], 1, axis=i)) / h for i in range(n)))
    c_order = np.empty(g.shape + (n,))
    first = np.moveaxis(np.empty((n,) + g.shape), 0, -1)
    for out in (c_order, first):
        assert forward_gradient(v, h, out=out) is out
        assert np.array_equal(out, grad)
    z_first = np.moveaxis(np.ascontiguousarray(np.moveaxis(z, -1, 0)), 0, -1)
    for zz in (z, z_first):
        out = np.empty(g.shape)
        assert backward_divergence(zz, h, out=out) is out
        assert np.array_equal(out, div)


def test_lipschitz_constant_of_known_slope():
    g = Grid(1, 128)
    x = g.coords()[..., 0]
    d = np.minimum(np.abs(x - 0.5), 1 - np.abs(x - 0.5))
    u = GridFunction(g, 0.5 * d)
    assert lipschitz_constant(u) == pytest.approx(0.5, abs=1e-12)


def test_mismatched_grids_raise():
    from facetflow.grid import inner
    u = GridFunction(Grid(1, 16), np.zeros(16))
    v = GridFunction(Grid(1, 32), np.zeros(32))
    with pytest.raises(GridMismatchError):
        inner(u, v)


def test_mollify_preserves_mean():
    g = Grid(2, 32)
    rng = np.random.default_rng(2)
    u = GridFunction(g, rng.standard_normal(g.shape))
    v = mollify(u, 4 * g.h)
    assert v.mean() == pytest.approx(u.mean(), abs=1e-12)
