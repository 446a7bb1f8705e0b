"""Periodic uniform grids on the unit n-torus and their basic calculus.

Holds the discrete stand-ins for scalar fields and vector fields,
forward/backward difference calculus (exact adjoints), the graded-ball
dilation of node arrays and masks, and mollification.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage


class GridMismatchError(ValueError):
    """Two fields that must share a grid do not."""


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on the unit torus, n in {1, 2}."""

    n: int
    N: int

    def __post_init__(self):
        if self.n not in (1, 2):
            raise ValueError(f"dimension must be 1 or 2, got {self.n}")
        if self.N < 8:
            raise ValueError(f"resolution must be >= 8, got {self.N}")

    @property
    def h(self) -> float:
        return 1.0 / self.N

    @property
    def shape(self) -> tuple:
        return (self.N,) * self.n

    def coords(self) -> np.ndarray:
        """Node coordinates, shape (*shape, n)."""
        axes = [np.arange(self.N) * self.h] * self.n
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack(mesh, axis=-1)

    def euclidean_ball_offsets(self, radius: float) -> np.ndarray:
        """Integer offsets with torus distance <= radius, shape (m, n)."""
        k = int(np.ceil(radius / self.h + 1e-9))
        k = min(k, self.N // 2)
        g = np.arange(-k, k + 1)
        mesh = np.meshgrid(*([g] * self.n), indexing="ij")
        d2 = sum(m.astype(float) ** 2 for m in mesh) * self.h**2
        sel = d2 <= radius**2 + 1e-12
        return np.stack([m[sel] for m in mesh], axis=-1)


@dataclass
class GridFunction:
    """Real scalar field on a grid, stored on one fundamental domain."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.shape:
            raise GridMismatchError(
                f"values shape {self.values.shape} != grid shape {self.grid.shape}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("GridFunction values must be finite")

    @classmethod
    def constant(cls, grid: Grid, c: float) -> "GridFunction":
        return cls(grid, np.full(grid.shape, float(c)))

    def copy(self) -> "GridFunction":
        return GridFunction(self.grid, self.values.copy())

    def mean(self) -> float:
        return float(np.mean(self.values))


@dataclass
class GridVectorField:
    """n-component vector field on a grid."""

    grid: Grid
    values: np.ndarray  # shape (*grid.shape, n)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.shape + (self.grid.n,):
            raise GridMismatchError(
                f"values shape {self.values.shape} != {self.grid.shape + (self.grid.n,)}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("GridVectorField values must be finite")


def _axis_slices(i):
    """Index tuples along axis i: [1:], [:-1], [:1] and [-1:]."""
    lead = (slice(None),) * i
    return tuple(lead + (s,) for s in (slice(1, None), slice(None, -1),
                                      slice(None, 1), slice(-1, None)))


def forward_gradient(v: np.ndarray, h: float, out=None) -> np.ndarray:
    """Forward differences of a node array along every axis, stacked last.

    The one discrete gradient of the package; backward_divergence is its
    exact negative adjoint.  Works on raw arrays so that inner loops skip
    the finiteness checks of the GridFunction wrappers.  `out` may be any
    (*shape, n) array, such as an np.moveaxis view of component-first
    storage, whose planes out[..., i] are then contiguous.
    """
    if out is None:
        out = np.empty(v.shape + (v.ndim,))
    for i in range(v.ndim):
        hi, lo, first, last = _axis_slices(i)
        o = out[..., i]
        np.subtract(v[hi], v[lo], out=o[lo])
        np.subtract(v[first], v[last], out=o[last])
    out /= h
    return out


def backward_divergence(z: np.ndarray, h: float, out=None) -> np.ndarray:
    """Backward-difference divergence of a field of shape (*shape, n),
    written to `out` (shape `shape`) when given."""
    if out is None:
        out = np.empty(z.shape[:-1])
    d = out    # component 0 goes straight to out, later ones via a scratch d
    for i in range(z.shape[-1]):
        if i == 1:
            d = np.empty_like(out)
        hi, lo, first, last = _axis_slices(i)
        zi = z[..., i]
        np.subtract(zi[hi], zi[lo], out=d[hi])
        np.subtract(zi[first], zi[last], out=d[first])
        d /= h
        if i:
            out += d
    return out


def gradient_centered(u: GridFunction) -> GridVectorField:
    h = u.grid.h
    comps = [(np.roll(u.values, -1, axis=i) - np.roll(u.values, 1, axis=i)) / (2 * h)
             for i in range(u.grid.n)]
    return GridVectorField(u.grid, np.stack(comps, axis=-1))


def dilate_cells(v: np.ndarray, k: int) -> np.ndarray:
    """Supremum of a node array over the graded grid ball of k cells.

    The radius-k ball is the k-fold Minkowski sum of the one-cell ball
    (a node and its 2n axis neighbours; in 2D the l1 diamond), so k
    one-cell passes give it exactly, and dilation by j cells then by k
    cells is dilation by j + k.  Works on grey values and on boolean
    masks alike; erosion is the negative (for masks, complementary) dual.
    """
    out = v.copy()
    for _ in range(k):
        prev = out
        for i in range(v.ndim):
            out = np.maximum(out, np.maximum(np.roll(prev, 1, axis=i),
                                             np.roll(prev, -1, axis=i)))
    return out


def bump(r2):
    """Unnormalized bump exp(-1 / (1 - r2)) of a squared radius, 0 for r2 >= 1."""
    return np.where(r2 < 1.0, np.exp(-1.0 / np.maximum(1.0 - r2, 1e-300)), 0.0)


def mollify(u: GridFunction, radius: float) -> GridFunction:
    """Smooth u by a normalized bump-weighted average over a Euclidean ball."""
    if radius <= u.grid.h / 2:
        return u.copy()
    k = max(1, int(np.floor(radius / u.grid.h + 1e-9)))
    g = np.arange(-k, k + 1, dtype=float)
    mesh = np.meshgrid(*([g] * u.grid.n), indexing="ij")
    w = bump(sum(m**2 for m in mesh) / (k + 0.5) ** 2)
    w /= w.sum()
    out = ndimage.correlate(u.values, w, mode="wrap")
    return GridFunction(u.grid, out)


def lipschitz_constant(u: GridFunction) -> float:
    """Max magnitude of the discrete (forward-difference) gradient."""
    g = forward_gradient(u.values, u.grid.h)
    # |g| without squaring, so gradients past 1e154 do not overflow
    mag = np.hypot(g[..., 0], g[..., 1]) if u.grid.n == 2 else np.abs(g)
    return float(np.max(mag))
