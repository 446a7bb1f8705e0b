"""Anisotropy models: one-homogeneous convex densities and their calculus.

Provides evaluation of W, its gradient and Hessian away from the origin,
the dual norm, membership tests for the dual unit set and the
subdifferential, the local curvature operator trace[Hess(W) X], and the
mollified regularizations with a quadratic term.
"""

from __future__ import annotations

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
    # project is the Euclidean projection onto the Wulff set {W° <= 1}.
    def gauge(self, x) -> np.ndarray:
        raise NotImplementedError

    def wulff_project(self, z) -> np.ndarray:
        raise NotImplementedError


class EuclideanAnisotropy(AnisotropyModel):
    """W(p) = |p| (isotropic total variation)."""

    name = "euclidean"

    def __init__(self, n: int):
        super().__init__(n, 1.0)

    def eval(self, p):
        p = _as_points(p, self.n)
        return np.sqrt(np.sum(p**2, axis=-1))

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

    def wulff_project(self, z):
        z = _as_points(z, self.n)
        nrm = np.sqrt(np.sum(z**2, axis=-1, keepdims=True))
        scale = np.where(nrm > 1.0, nrm, 1.0)
        return z / scale


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

    def wulff_project(self, z):
        # Projection onto {x : x^T M^-1 x <= 1}, in the eigenbasis of M
        # where the set is an axis-aligned ellipse; multiplier found by
        # vectorized bisection on the monotone constraint residual.  For a
        # diagonal M the eigenbasis is a signed permutation, so the
        # rotations below are exact.
        z = _as_points(z, self.n)
        m = self._eigs
        y = z @ self._eigvecs
        g = np.einsum("...i,i->...", y**2, 1.0 / m)
        outside = g > 1.0
        if not np.any(outside):
            return z.copy()
        zo = y[outside]
        # p_i = z_i / (1 + lam/m_i)
        def resid(lam):
            p = zo / (1.0 + lam[:, None] / m)
            return np.einsum("...i,i->...", p**2, 1.0 / m) - 1.0
        lam = _multiplier(resid, zo.shape[0], 80)
        out = z.copy()
        out[outside] = (zo / (1.0 + lam[:, None] / m)) @ self._eigvecs.T
        return out


class PowerFourAnisotropy(AnisotropyModel):
    """W(p) = (sum_i p_i^4)^(1/4); smooth stand-in for crystalline behavior."""

    name = "l4"

    def __init__(self, n: int):
        # (sum p_i^4)^(1/4) >= |p| / n^(1/4)
        super().__init__(n, float(n) ** (-0.25))

    def eval(self, p):
        p = _as_points(p, self.n)
        return np.sum(p**4, axis=-1) ** 0.25

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

    def wulff_project(self, z):
        # Projection onto the l^{4/3} unit ball.  KKT gives, per component,
        # the depressed cubic t^3 + (4 lam / 3) t = |z_i| for t = p_i^(1/3);
        # bisection on the scalar multiplier lam.
        z = _as_points(z, self.n)
        g = self.gauge(z)
        outside = g > 1.0 + 1e-12
        if not np.any(outside):
            return z.copy()
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

        out = z.copy()
        out[outside] = sgn * comp(_multiplier(resid, zo.shape[0], 100))
        return out


def dual_norm(W: AnisotropyModel, x) -> float:
    """Numeric dual norm sup{x.p : W(p) <= 1} by direction search.

    One-homogeneous in x.  Uses a dense direction grid followed by
    golden-section refinement on the direction angle (2D).
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    nrm = float(np.sqrt(np.sum(x**2)))
    if nrm == 0.0:
        return 0.0
    xhat = x / nrm
    if W.n == 1:
        best = max(xhat[0] / W.eval(np.array([1.0])),
                   -xhat[0] / W.eval(np.array([-1.0])))
        return float(nrm * best)

    def val(theta):
        d = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
        return (d @ xhat) / W.eval(d)

    thetas = np.linspace(0.0, 2 * np.pi, 1024, endpoint=False)
    vals = val(thetas)
    i = int(np.argmax(vals))
    lo = thetas[i] - 2 * np.pi / 1024
    hi = thetas[i] + 2 * np.pi / 1024
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = val(np.array([c]))[0], val(np.array([d]))[0]
    # the bracket shrinks by invphi per step: < 1e-13 within 54 steps
    while b - a >= 1e-13:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = val(np.array([c]))[0]
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = val(np.array([d]))[0]
    return float(nrm * max(fc, fd))


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


class MollifiedAnisotropy:
    """W_m = W * phi_(1/m) + |p|^2/m via fixed tensor-midpoint quadrature.

    Only values of W are ever sampled, so the origin singularity never
    enters.  The discrete convolution weights are normalized to sum to
    one, which makes the Jensen lower bound W_m >= W + |p|^2/m exact.
    Derivatives are centered finite differences of the quadrature value,
    which keeps value, gradient and hessian mutually consistent (the
    exposed object is one smooth function, differentiated as such).
    """

    QUAD_POINTS = 33

    def __init__(self, base: AnisotropyModel, m: float):
        if m < 1:
            raise ValueError(f"mollification index must be >= 1, got {m}")
        self.base = base
        self.m = float(m)
        self.n = base.n
        k = self.QUAD_POINTS
        # midpoint nodes of [-1, 1] scaled by 1/m
        t = (np.arange(k) + 0.5) / k * 2.0 - 1.0
        mesh = np.meshgrid(*([t] * self.n), indexing="ij")
        r = np.stack([mm.ravel() for mm in mesh], axis=-1)  # unit-ball coords
        r2 = np.sum(r**2, axis=-1)
        kappa = bump(r2)
        sel = kappa > 0
        r, r2, kappa = r[sel], r2[sel], kappa[sel]
        Z = kappa.sum()
        self.nodes = r / self.m                       # (M, n), offsets s_i
        self.w_val = kappa / Z                        # value weights, sum 1
        # finite-difference step equal to the quadrature lattice spacing:
        # differences of the sampled convolution then act as differences
        # of the bump weights, so the kinks of the base density cancel
        # and convexity (nonnegative second differences) is inherited
        self.fd_step = 2.0 / (self.m * k)
        self._a_m = None

    def _conv(self, p):
        diffs = p[..., None, :] - self.nodes          # (..., M, n)
        wv = self.base.eval(diffs)                    # (..., M)
        return np.einsum("...m,m->...", wv, self.w_val)

    def eval(self, p):
        p = _as_points(p, self.n)
        return self._conv(p) + np.sum(p**2, axis=-1) / self.m

    def grad(self, p):
        p = _as_points(p, self.n)
        s = self.fd_step
        out = np.empty(p.shape)
        for i in range(self.n):
            e = np.zeros(self.n)
            e[i] = s
            out[..., i] = (self._conv(p + e) - self._conv(p - e)) / (2 * s)
        return out + 2.0 * p / self.m

    def hess(self, p):
        p = _as_points(p, self.n)
        s = self.fd_step
        H = np.empty(p.shape + (self.n,))
        c0 = self._conv(p)
        basis = np.eye(self.n) * s
        for i in range(self.n):
            ei = basis[i]
            H[..., i, i] = (self._conv(p + ei) - 2 * c0
                            + self._conv(p - ei)) / s**2
            for j in range(i + 1, self.n):
                ej = basis[j]
                cross = (self._conv(p + ei + ej) + self._conv(p - ei - ej)
                         - self._conv(p + ei - ej)
                         - self._conv(p - ei + ej)) / (4 * s**2)
                H[..., i, j] = cross
                H[..., j, i] = cross
        return H + 2.0 * np.eye(self.n) / self.m

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
