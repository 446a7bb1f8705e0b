"""Periodic grid calculus: adjointness, consistency, and morphology."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from facetflow.facets import rho_neighborhood
from facetflow.grid import (Grid, GridFunction, GridMismatchError,
                            GridVectorField, backward_divergence,
                            dilate_cells, forward_gradient,
                            gradient_centered, lipschitz_constant, mollify)


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
    """Grey erosion (the negative dual of dilate_cells) lies below the
    values and dilation above them."""
    rng = np.random.default_rng(9)
    v = rng.standard_normal((32, 32))
    assert np.all(-dilate_cells(-v, 2) <= v)
    assert np.all(v <= dilate_cells(v, 2))


def test_erode_dilate_duality():
    """The two duals agree: thresholding the grey erosion (negative dual)
    or dilation of v gives the mask erosion (complementary dual) or
    dilation of the thresholded v, at every level."""
    g = Grid(2, 32)
    v = np.random.default_rng(11).standard_normal(g.shape)
    for t in (-1.0, 0.0, 0.5):
        up = v > t
        assert np.array_equal(-dilate_cells(-v, 3) > t,
                              rho_neighborhood(g, up, -3 * g.h))
        assert np.array_equal(dilate_cells(v, 3) > t,
                              rho_neighborhood(g, up, 3 * g.h))


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
    """dilate_cells on grey values and rho_neighborhood on masks against
    a brute-force max over the shifts in the l1 ball, grid balls wider
    than the torus included."""
    k = data.draw(st.integers(0, N + 3), label="k")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    g = Grid(n, N)
    v = rng.standard_normal(g.shape)
    assert np.array_equal(dilate_cells(v, k), _ball_max(v, k))
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


@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from([1, 2]), e=st.integers(0, 996),
       seed=st.integers(0, 2**32 - 1))
def test_lipschitz_constant_scales_without_overflow(n, e, seed):
    """lipschitz_constant(c u) = c lipschitz_constant(u) for amplitudes c
    up to 2^996 ~ 6.7e299, whose squared gradients would overflow; c is a
    power of two, so c u and its differences are exact, and the 1D norm
    is too."""
    g = Grid(n, 16)
    v = np.random.default_rng(seed).standard_normal(g.shape)
    c = 2.0 ** e
    lip = lipschitz_constant(GridFunction(g, v))
    big = lipschitz_constant(GridFunction(g, c * v))
    assert np.isfinite(big)
    if n == 1:
        assert big == c * lip
    else:
        assert big == pytest.approx(c * lip, rel=1e-15, abs=0.0)


def test_mismatched_grids_raise():
    """Values of another grid's shape are refused, for scalar and vector
    fields alike."""
    g = Grid(1, 16)
    with pytest.raises(GridMismatchError):
        GridFunction(g, np.zeros(32))
    with pytest.raises(GridMismatchError):
        GridVectorField(g, np.zeros((32, 1)))
    with pytest.raises(GridMismatchError):
        GridVectorField(Grid(2, 16), np.zeros((16, 16, 1)))


def test_mollify_preserves_mean():
    g = Grid(2, 32)
    rng = np.random.default_rng(2)
    u = GridFunction(g, rng.standard_normal(g.shape))
    v = mollify(u, 4 * g.h)
    assert v.mean() == pytest.approx(u.mean(), abs=1e-12)
