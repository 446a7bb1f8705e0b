"""Anisotropy models: one-homogeneous convex densities and their calculus.

Provides evaluation of W, its gradient and Hessian away from the origin,
the dual norm, membership tests for the dual unit set and the
subdifferential, the local curvature operator trace[Hess(W) X], and the
mollified regularizations with a quadratic term.
"""

from __future__ import annotations

import functools

import numpy as np

from .grid import bump


class SingularGradientError(ValueError):
    """Derivative of a singular model requested at the origin."""


def _as_points(p, n):
    p = np.asarray(p, dtype=float)
    if p.shape == () and n == 1:
        p = p.reshape(1)
    if p.shape[-1] != n:
        raise ValueError(f"expected trailing dimension {n}, got shape {p.shape}")
    return p


def _multiplier(resid, size, steps):
    """Per-point root lam >= 0 of a decreasing residual: the bracket [0, 1]
    doubles its top until resid <= 0, then `steps` bisections follow."""
    lo = np.zeros(size)
    hi = np.ones(size)
    r = resid(hi)
    while np.any(r > 0):
        hi = np.where(r > 0, hi * 2.0, hi)
        r = resid(hi)
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        r = resid(mid)
        lo = np.where(r > 0, mid, lo)
        hi = np.where(r > 0, hi, mid)
    return 0.5 * (lo + hi)


def _flat_points(z, n):
    """Points as a C-ordered (P, n) array, and the shape they came in.

    Projections that rotate or reduce run on this one layout, so a view
    of component-first storage gives the same bits as a C-ordered copy.
    """
    z = _as_points(z, n)
    return np.ascontiguousarray(z).reshape(-1, n), z.shape


def _plane_sum(p, f):
    """sum_i f(p[..., i]), one component plane at a time, in the order
    np.sum(f(p), axis=-1) adds them; no temporary has a trailing axis of
    length n, and a component-first view is read plane by plane."""
    out = f(p[..., 0], out=np.empty(p.shape[:-1]))
    for i in range(1, p.shape[-1]):
        out += f(p[..., i])
    return out


def _fourth(x, out=None):
    """x**4 as two squarings, not numpy's general power."""
    return np.square(np.square(x, out=out), out=out)


def _emit(p, shape, out):
    """Return p in the given shape, or write it to out (which may alias
    the input) and return out."""
    p = p.reshape(shape)
    if out is None:
        return p
    out[...] = p
    return out


class AnisotropyModel:
    """Convex, one-homogeneous density, C2 away from the origin.

    Subclasses implement eval/grad/hess vectorized over leading axes of
    p (shape (..., n)); grad and hess must reject the origin.
    """

    name = "base"

    def __init__(self, n: int, lambda0: float):
        if n not in (1, 2):
            raise ValueError(f"dimension must be 1 or 2, got {n}")
        self.n = n
        self.lambda0 = float(lambda0)

    def eval(self, p) -> np.ndarray:
        raise NotImplementedError

    def grad(self, p) -> np.ndarray:
        raise NotImplementedError

    def hess(self, p) -> np.ndarray:
        raise NotImplementedError

    def _check_nonzero(self, p):
        nrm = np.sqrt(np.sum(p**2, axis=-1))
        if np.any(nrm == 0.0):
            raise SingularGradientError(
                f"{self.name}: derivative requested at the origin")

    # Dual-set helpers.  gauge is the dual norm W°, closed form per model;
    # wulff_project is the Euclidean projection onto the Wulff set
    # {W° <= 1}, written to `out` when given (out may be z itself).
    def gauge(self, x) -> np.ndarray:
        raise NotImplementedError

    def wulff_project(self, z, out=None) -> np.ndarray:
        raise NotImplementedError


class EuclideanAnisotropy(AnisotropyModel):
    """W(p) = |p| (isotropic total variation)."""

    name = "euclidean"

    def __init__(self, n: int):
        super().__init__(n, 1.0)

    def eval(self, p):
        p = _as_points(p, self.n)
        nrm = _plane_sum(p, np.square)
        return np.sqrt(nrm, out=nrm)[()]

    def grad(self, p):
        p = _as_points(p, self.n)
        self._check_nonzero(p)
        nrm = np.sqrt(np.sum(p**2, axis=-1, keepdims=True))
        return p / nrm

    def hess(self, p):
        p = _as_points(p, self.n)
        self._check_nonzero(p)
        nrm = np.sqrt(np.sum(p**2, axis=-1))
        eye = np.broadcast_to(np.eye(self.n), p.shape + (self.n,))
        outer = p[..., :, None] * p[..., None, :] / (nrm**2)[..., None, None]
        return (eye - outer) / nrm[..., None, None]

    def gauge(self, x):
        x = _as_points(x, self.n)
        return np.sqrt(np.sum(x**2, axis=-1))

    def wulff_project(self, z, out=None):
        # z / max(|z|, 1), the squared norm summed component by component
        z = _as_points(z, self.n)
        nrm = _plane_sum(z, np.square)
        np.sqrt(nrm, out=nrm)
        np.maximum(nrm, 1.0, out=nrm)
        return np.divide(z, nrm[..., None], out=out)


class EllipticAnisotropy(AnisotropyModel):
    """W(p) = sqrt(p^T M p) for symmetric positive definite M."""

    name = "elliptic"

    def __init__(self, M):
        M = np.asarray(M, dtype=float)
        n = M.shape[0]
        if M.shape != (n, n) or not np.allclose(M, M.T):
            raise ValueError("M must be symmetric")
        eigs, vecs = np.linalg.eigh(M)
        if eigs[0] <= 0:
            raise ValueError("M must be positive definite")
        super().__init__(n, float(np.sqrt(eigs[0])))
        self.M = M
        self.Minv = np.linalg.inv(M)
        self._eigs = eigs
        self._eigvecs = vecs

    def eval(self, p):
        p = _as_points(p, self.n)
        return np.sqrt(np.einsum("...i,ij,...j->...", p, self.M, p))

    def grad(self, p):
        p = _as_points(p, self.n)
        self._check_nonzero(p)
        w = self.eval(p)
        return np.einsum("ij,...j->...i", self.M, p) / w[..., None]

    def hess(self, p):
        p = _as_points(p, self.n)
        self._check_nonzero(p)
        w = self.eval(p)
        Mp = np.einsum("ij,...j->...i", self.M, p)
        outer = Mp[..., :, None] * Mp[..., None, :]
        M = np.broadcast_to(self.M, p.shape + (self.n,))
        return M / w[..., None, None] - outer / (w**3)[..., None, None]

    def gauge(self, x):
        x = _as_points(x, self.n)
        return np.sqrt(np.einsum("...i,ij,...j->...", x, self.Minv, x))

    def wulff_project(self, z, out=None):
        # Projection onto {x : x^T M^-1 x <= 1}, in the eigenbasis of M
        # where the set is an axis-aligned ellipse; multiplier found by
        # vectorized bisection on the monotone constraint residual.  For a
        # diagonal M the eigenbasis is a signed permutation, so the
        # rotations below are exact.
        z, shape = _flat_points(z, self.n)
        m = self._eigs
        y = z @ self._eigvecs
        g = np.einsum("...i,i->...", y**2, 1.0 / m)
        outside = g > 1.0
        res = z.copy()
        if not np.any(outside):
            return _emit(res, shape, out)
        zo = y[outside]
        # p_i = z_i / (1 + lam/m_i)
        def resid(lam):
            p = zo / (1.0 + lam[:, None] / m)
            return np.einsum("...i,i->...", p**2, 1.0 / m) - 1.0
        lam = _multiplier(resid, zo.shape[0], 80)
        res[outside] = (zo / (1.0 + lam[:, None] / m)) @ self._eigvecs.T
        return _emit(res, shape, out)


class PowerFourAnisotropy(AnisotropyModel):
    """W(p) = (sum_i p_i^4)^(1/4); smooth stand-in for crystalline behavior."""

    name = "l4"

    def __init__(self, n: int):
        # (sum p_i^4)^(1/4) >= |p| / n^(1/4)
        super().__init__(n, float(n) ** (-0.25))

    def eval(self, p):
        p = _as_points(p, self.n)
        return _plane_sum(p, _fourth) ** 0.25

    def grad(self, p):
        p = _as_points(p, self.n)
        self._check_nonzero(p)
        w = self.eval(p)
        return p**3 / (w**3)[..., None]

    def hess(self, p):
        p = _as_points(p, self.n)
        self._check_nonzero(p)
        w = self.eval(p)
        diag = 3.0 * p**2 / (w**3)[..., None]
        H = np.zeros(p.shape + (self.n,))
        for i in range(self.n):
            H[..., i, i] = diag[..., i]
        outer = (p**3)[..., :, None] * (p**3)[..., None, :]
        return H - 3.0 * outer / (w**7)[..., None, None]

    def gauge(self, x):
        # Hoelder conjugate of the l4 norm
        x = _as_points(x, self.n)
        return np.sum(np.abs(x) ** (4.0 / 3.0), axis=-1) ** 0.75

    def wulff_project(self, z, out=None):
        # Projection onto the l^{4/3} unit ball.  KKT gives, per component,
        # the depressed cubic t^3 + (4 lam / 3) t = |z_i| for t = p_i^(1/3);
        # bisection on the scalar multiplier lam.
        z, shape = _flat_points(z, self.n)
        g = self.gauge(z)
        outside = g > 1.0 + 1e-12
        res = z.copy()
        if not np.any(outside):
            return _emit(res, shape, out)
        zo = np.abs(z[outside])
        sgn = np.sign(z[outside])

        def comp(lam):
            # real root of t^3 + c t = b, c = 4 lam / 3 >= 0 (Cardano)
            c = (4.0 * lam / 3.0)[:, None]
            b = zo
            disc = np.sqrt((b / 2.0) ** 2 + (c / 3.0) ** 3)
            t = np.cbrt(b / 2.0 + disc) + np.cbrt(b / 2.0 - disc)
            return t**3

        def resid(lam):
            p = comp(lam)
            return np.sum(p ** (4.0 / 3.0), axis=-1) - 1.0

        res[outside] = sgn * comp(_multiplier(resid, zo.shape[0], 100))
        return _emit(res, shape, out)


def wulff_membership(W: AnisotropyModel, z, tol: float = 1e-9) -> bool:
    """True iff z lies in the Wulff set {W° <= 1} up to tol."""
    return float(W.gauge(np.atleast_1d(np.asarray(z, float)))) <= 1.0 + tol


def subdifferential_contains(W: AnisotropyModel, p, z, tol: float = 1e-9) -> bool:
    """Membership z in dW(p): gradient match for p != 0, Wulff test at p = 0."""
    p = np.atleast_1d(np.asarray(p, dtype=float))
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if np.all(p == 0.0):
        return wulff_membership(W, z, tol)
    g = W.grad(p)
    return bool(np.max(np.abs(z - g)) <= tol)


def k_operator(W: AnisotropyModel, p, X) -> float:
    """Local curvature operator trace[Hess(W)(p) X], p != 0."""
    p = np.atleast_1d(np.asarray(p, dtype=float))
    X = np.atleast_2d(np.asarray(X, dtype=float))
    H = W.hess(p)
    return float(np.sum(H * X))


@functools.lru_cache(maxsize=64)
def _quadrature_table(n, m, k):
    """The W_m quadrature of dimension n, index m and k midpoints an axis:
    (nodes, fd_step, node offsets and value weights, node offsets and
    derivative weights).  It does not depend on the base density, so
    every MollifiedAnisotropy of one (n, m) shares one read-only table,
    built on first use."""
    # midpoint nodes of [-1, 1] and an outer ring where the bump is 0
    t = (np.arange(-1, k + 1) + 0.5) / k * 2.0 - 1.0
    mesh = np.meshgrid(*([t] * n), indexing="ij")
    r = np.stack([mm.ravel() for mm in mesh], axis=-1)  # unit-ball coords
    kappa = bump(np.sum(r**2, axis=-1))
    w = kappa / kappa[kappa > 0].sum()            # value weights, sum 1
    # finite-difference step equal to the quadrature lattice spacing:
    # differences of the sampled convolution then act as differences
    # of the bump weights (precomputed below, one weighted sum a call),
    # so the kinks of the base density cancel and convexity
    # (nonnegative second differences) is inherited
    s = 2.0 / (m * k)

    def shifted(d):  # weight at node y + d for every node y
        return np.roll(w.reshape((k + 2,) * n), -d, range(n)).ravel()

    E = np.eye(n, dtype=int)
    G = np.stack([shifted(a) - shifted(-a) for a in E], -1) / (2 * s)
    H = np.stack([np.stack([
        (shifted(a) - 2 * w + shifted(-a)) / s**2 if i == j
        else (shifted(a + b) + shifted(-a - b)
              - (shifted(a - b) + shifted(b - a))) / (4 * s**2)
        for j, b in enumerate(E)], -1) for i, a in enumerate(E)], 1)

    def nonzero(v):  # offsets r / m and weights of the nodes where v != 0
        on = np.any(v.reshape(len(r), -1) != 0, axis=1)
        return r[on] / m, v[on]

    nodes, w_val = nonzero(w)
    # one derivative table on the hessian's nodes, which include the
    # gradient's: n gradient and then n*n hessian weight columns, each
    # one contiguous row of a (columns, nodes) block
    y_der, dw = nonzero(np.concatenate([G, H.reshape(len(r), n * n)], axis=1))
    dw = np.ascontiguousarray(dw.T)
    # node coordinates component-first, (n, 1, nodes), for _quad
    y_val, y_der = (y.T[:, None, :].copy() for y in (nodes, y_der))
    for a in (nodes, w_val, dw, y_val, y_der):
        a.setflags(write=False)
    return nodes, s, y_val, (w_val,), y_der, tuple(dw)


class MollifiedAnisotropy:
    """W_m = W * phi_(1/m) + |p|^2/m via fixed tensor-midpoint quadrature.

    Only values of W are ever sampled, so the origin singularity never
    enters.  The discrete convolution weights are normalized to sum to
    one, which makes the Jensen lower bound W_m >= W + |p|^2/m exact.
    The gradient and hessian are centered differences of the quadrature
    value at the lattice spacing (the four-point stencil off the
    diagonal), not its derivatives: inside the core |p| < 1/m the value
    is only piecewise smooth, and in 2D the differences also carry an
    O(spacing^2) error outside it.
    """

    QUAD_POINTS = 33
    _TEMP_BYTES = 8 * 2**20  # temporaries one quadrature call may build

    def __init__(self, base: AnisotropyModel, m: float):
        if m < 1:
            raise ValueError(f"mollification index must be >= 1, got {m}")
        self.base = base
        self.m = float(m)
        self.n = base.n
        # read-only views of the table every density of this (n, m) shares
        (self.nodes, self.fd_step, self._y_val, self._w_val, self._y_der,
         self._dw) = _quadrature_table(self.n, self.m, self.QUAD_POINTS)
        self._a_m = None

    def _quad(self, p, y, cols):
        """sum_j W(p - y_j) c_j for each weight column c in cols, over
        chunks of points.  A chunk's differences are one C-ordered
        (n, points, nodes) array, read by the base model through a
        (points, nodes, n) view, so no temporary has a trailing axis of
        length n.  They and the base model's temporaries, about 2n + 2
        floats a node, stay under _TEMP_BYTES.  Each column is summed on
        its own, so it does not depend on which others a call asks for."""
        pts = p.reshape(-1, self.n).T[:, :, None]
        out = np.empty((pts.shape[1], len(cols)))
        step = max(1, self._TEMP_BYTES // (16 * (self.n + 1) * y.shape[2]))
        for a in range(0, len(out), step):
            vals = self.base.eval((pts[:, a:a + step] - y).transpose(1, 2, 0))
            for k, c in enumerate(cols):
                np.einsum("pm,m->p", vals, c, out=out[a:a + step, k])
        return out.reshape(p.shape[:-1] + (len(cols),))

    def eval(self, p):
        p = _as_points(p, self.n)
        return (self._quad(p, self._y_val, self._w_val)[..., 0]
                + np.sum(p**2, axis=-1) / self.m)

    def grad(self, p):
        p = _as_points(p, self.n)
        return (self._quad(p, self._y_der, self._dw[:self.n])
                + 2.0 * p / self.m)

    def hess(self, p, with_grad=False):
        """Hessian, or (gradient, hessian) from one sampling of the
        derivative table when with_grad is true."""
        p = _as_points(p, self.n)
        n = self.n
        d = self._quad(p, self._y_der, self._dw if with_grad else self._dw[n:])
        H = (d[..., -n * n:].reshape(p.shape[:-1] + (n, n))
             + 2.0 * np.eye(n) / self.m)
        if with_grad:
            return d[..., :n] + 2.0 * p / self.m, H
        return H

    @property
    def a_m(self) -> float:
        """Sampled two-sided ellipticity bound for Hess(W_m) over |p| <= 10."""
        if self._a_m is None:
            rng = np.random.default_rng(1234)
            pts = rng.uniform(-1.0, 1.0, size=(512, self.n))
            pts *= (rng.uniform(0.0, 10.0, size=(512, 1))
                    / np.maximum(np.sqrt(np.sum(pts**2, axis=-1, keepdims=True)), 1e-12))
            pts = np.concatenate([pts, rng.uniform(-2.0 / self.m, 2.0 / self.m,
                                                   size=(256, self.n))], axis=0)
            H = self.hess(pts)
            eigs = np.linalg.eigvalsh(H)
            lo = float(np.min(eigs))
            hi = float(np.max(eigs))
            lo = max(lo, 1e-12)
            self._a_m = max(hi, 1.0 / lo)
        return self._a_m


_BUILTINS = {
    "euclidean": lambda n, params: EuclideanAnisotropy(n),
    "elliptic": lambda n, params: EllipticAnisotropy(
        np.diag(params.get("diag", [4.0, 1.0][:n]))),
    "l4": lambda n, params: PowerFourAnisotropy(n),
}


def make_anisotropy(name: str, n: int, params: dict | None = None) -> AnisotropyModel:
    """Model lookup used by the CLI config."""
    params = params or {}
    if name not in _BUILTINS:
        raise KeyError(f"unknown anisotropy model '{name}'")
    return _BUILTINS[name](n, params)
