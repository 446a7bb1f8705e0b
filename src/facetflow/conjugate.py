"""Discrete Legendre-Fenchel transforms and the gradient-capped barrier family.

The barrier construction caps large gradients of the regularized density by
adding a convex function that blows up at a finite gradient bound, then
passes to the convex conjugate, evaluated per point by a strictly concave
maximization (smooth, used for derivatives).  The tabulated transform with
a monotone argmax sweep (generic, grid-based) handles sampled convex
functions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .anisotropy import AnisotropyModel, MollifiedAnisotropy

INF = np.inf


class BarrierConstructionError(RuntimeError):
    def __init__(self, msg, worst=None):
        super().__init__(msg)
        self.worst = worst


class ParameterError(RuntimeError):
    def __init__(self, msg, counterexample=None):
        super().__init__(msg)
        self.counterexample = counterexample


@dataclass
class SampledConvexFunction:
    """Convex function tabulated on a box, with an infinite sentinel."""

    lo: np.ndarray          # (n,)
    hi: np.ndarray          # (n,)
    values: np.ndarray      # shape (k1, ..., kn); np.inf marks "outside"

    def __post_init__(self):
        self.lo = np.atleast_1d(np.asarray(self.lo, dtype=float))
        self.hi = np.atleast_1d(np.asarray(self.hi, dtype=float))
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != self.lo.shape[0]:
            raise ValueError("dimension mismatch between box and values")

    @property
    def n(self):
        return self.values.ndim

    def axis_nodes(self, i):
        return np.linspace(self.lo[i], self.hi[i], self.values.shape[i])


def _lt_1d(p, f, x, inner_flags):
    """1D transform g(x) = max_j x p_j - f_j with a monotone argmax sweep.

    Returns (g, flags) where flags marks x nodes whose argmax either lies
    on the boundary of the finite p-range (true sup likely unbounded) or
    inherits a flag from an inner stage.
    """
    finite = np.isfinite(f)
    if not np.any(finite):
        return np.full(x.shape, -INF), np.zeros(x.shape, dtype=bool)
    pf = p[finite]
    ff = f[finite]
    fl = inner_flags[finite]
    g = np.empty(x.shape)
    flags = np.zeros(x.shape, dtype=bool)
    M = pf.shape[0]
    j = 0
    for i, xi in enumerate(x):
        # argmax of xi * p - f is nondecreasing in xi for convex f
        while j + 1 < M and xi * pf[j + 1] - ff[j + 1] >= xi * pf[j] - ff[j]:
            j += 1
        while j > 0 and xi * pf[j - 1] - ff[j - 1] > xi * pf[j] - ff[j]:
            j -= 1
        g[i] = xi * pf[j] - ff[j]
        flags[i] = (j == 0) or (j == M - 1) or fl[j]
    return g, flags


def legendre_transform(f: SampledConvexFunction, x_lo, x_hi,
                       x_shape) -> SampledConvexFunction:
    """Discrete Legendre-Fenchel transform, factorized one axis at a time.

    Output nodes whose maximizer sits on the boundary of the finite
    p-domain are marked with the infinite sentinel (the true supremum is
    not captured by the box there); this reproduces indicator conjugates.
    """
    if not np.any(np.isfinite(f.values)):
        raise ValueError("legendre_transform of an everywhere-infinite input")
    x_lo = np.atleast_1d(np.asarray(x_lo, dtype=float))
    x_hi = np.atleast_1d(np.asarray(x_hi, dtype=float))
    vals = f.values
    flags = np.zeros(vals.shape, dtype=bool)
    n = f.n
    for stage, axis in enumerate(range(n - 1, -1, -1)):
        pnodes = f.axis_nodes(axis)
        xnodes = np.linspace(x_lo[axis], x_hi[axis], x_shape[axis])
        moved = np.moveaxis(vals, axis, -1)
        movedf = np.moveaxis(flags, axis, -1)
        flat = moved.reshape(-1, moved.shape[-1])
        flatf = movedf.reshape(flat.shape)
        out = np.empty((flat.shape[0], x_shape[axis]))
        outf = np.zeros(out.shape, dtype=bool)
        for r in range(flat.shape[0]):
            row = flat[r] if stage == 0 else -flat[r]
            out[r], outf[r] = _lt_1d(pnodes, row, xnodes, flatf[r])
        vals = np.moveaxis(out.reshape(moved.shape[:-1] + (x_shape[axis],)),
                           -1, axis)
        flags = np.moveaxis(outf.reshape(moved.shape[:-1] + (x_shape[axis],)),
                            -1, axis)
    out_vals = np.where(flags | ~np.isfinite(vals), INF, vals)
    return SampledConvexFunction(x_lo, x_hi, out_vals)


def cap_function(p) -> np.ndarray:
    """Convex gradient cap: -log(1 - |p|^2) inside the unit ball, inf outside."""
    r2 = np.sum(np.asarray(p, dtype=float)**2, axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(r2 < 1.0, -np.log(np.maximum(1.0 - r2, 1e-300)), INF)
    return out


def cap_grad(p) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    r2 = np.sum(p**2, axis=-1, keepdims=True)
    return 2.0 * p / np.maximum(1.0 - r2, 1e-300)


def cap_hess(p) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    n = p.shape[-1]
    r2 = np.sum(p**2, axis=-1)
    q = 1.0 / np.maximum(1.0 - r2, 1e-300)
    eye = np.broadcast_to(np.eye(n), p.shape + (n,))
    outer = p[..., :, None] * p[..., None, :]
    return 2.0 * q[..., None, None] * eye + 4.0 * (q**2)[..., None, None] * outer


@dataclass
class BarrierFamily:
    """Capped-and-conjugated density with its constants and provenance."""

    W_m: MollifiedAnisotropy
    A: float
    q: float
    beta: float | None = None
    provenance: dict = field(default_factory=dict)

    @property
    def m(self):
        return self.W_m.m

    @property
    def n(self):
        return self.W_m.n

    def capped(self, p):
        """A (W_m(p) + q cap(p/q) - W_m(0)) for |p| < q, inf outside."""
        p = np.atleast_2d(np.asarray(p, dtype=float))
        r = np.sqrt(np.sum(p**2, axis=-1))
        inside = r < self.q
        out = np.full(r.shape, INF)
        if np.any(inside):
            pi = p[inside]
            w0 = float(self.W_m.eval(np.zeros((1, self.n)))[0])
            out[inside] = self.A * (self.W_m.eval(pi)
                                    + self.q * cap_function(pi / self.q) - w0)
        return out

    def _capped_grad_hess(self, p):
        g = self.A * (self.W_m.grad(p) + cap_grad(p / self.q))
        H = self.A * (self.W_m.hess(p) + cap_hess(p / self.q) / self.q)
        return g, H

    def conjugate(self, x, with_derivatives=False):
        """Exact-pointwise conjugate by concave maximization over |p| < q.

        Solves grad of the capped density = x by damped Newton; the cap
        keeps iterates strictly inside the ball.  Vectorized over points.
        """
        x = np.atleast_2d(np.asarray(x, dtype=float))
        B = x.shape[0]
        p = np.zeros((B, self.n))
        w0 = float(self.W_m.eval(np.zeros((1, self.n)))[0])

        def objective(xx, pp):
            return (np.sum(xx * pp, axis=-1)
                    - self.A * (self.W_m.eval(pp)
                                + self.q * cap_function(pp / self.q) - w0))

        tol = 1e-11 * (1.0 + np.max(np.abs(x)))
        obj = objective(x, p)
        active = np.arange(B)
        for _ in range(80):
            g, H = self._capped_grad_hess(p[active])
            resid = x[active] - g
            rn = np.sqrt(np.sum(resid**2, axis=-1))
            live = rn >= tol
            active = active[live]
            if active.size == 0:
                break
            resid, H = resid[live], H[live]
            xa, pa, oa = x[active], p[active], obj[active]
            step = np.linalg.solve(H, resid[..., None])[..., 0]
            # damped line search, keeping iterates strictly inside the
            # gradient cap ball; points drop out once they accept a step
            t = np.ones(active.size)
            newp, newo = pa.copy(), oa.copy()
            todo = np.arange(active.size)
            for _ls in range(60):
                cand = pa[todo] + t[todo, None] * step[todo]
                r = np.sqrt(np.sum(cand**2, axis=-1))
                co = np.full(todo.size, -INF)
                feas = r < self.q * (1 - 1e-12)
                if np.any(feas):
                    co[feas] = objective(xa[todo][feas], cand[feas])
                good = co >= oa[todo] - 1e-14 * np.abs(oa[todo])
                newp[todo[good]] = cand[good]
                newo[todo[good]] = co[good]
                todo = todo[~good]
                if todo.size == 0:
                    break
                t[todo] *= 0.5
            p[active] = newp
            obj[active] = newo
            # points that no halving could move are stalled: freeze them
            active = np.delete(active, todo)
            if active.size == 0:
                break
        val = objective(x, p)
        if not with_derivatives:
            return val
        g, H = self._capped_grad_hess(p)
        hess_conj = np.linalg.inv(H)
        return val, p, hess_conj

    def operator_Lm(self, x):
        """trace[Hess(W_m)(grad conj)(x) Hess(conj)(x)] at sampled x."""
        _, p, Hc = self.conjugate(x, with_derivatives=True)
        Hm = self.W_m.hess(p)
        return np.einsum("...ij,...ji->...", Hm, Hc)


def build_barrier(m, A, q, W: AnisotropyModel, speed=None,
                  n_check: int = 400) -> BarrierFamily:
    """Construct and verify the capped-conjugate barrier family."""
    if m <= 0 or A <= 0 or q <= 0:
        raise ValueError("m, A, q must be positive")
    tol = 1e-7      # absolute slack of the operator bound L_m <= n/A
    W_m = MollifiedAnisotropy(W, m)
    fam = BarrierFamily(W_m=W_m, A=float(A), q=float(q))
    rng = np.random.default_rng(7)
    xs = rng.normal(scale=max(1.0, q * A), size=(n_check, W.n))
    val, p, Hc = fam.conjugate(xs, with_derivatives=True)
    gn = np.sqrt(np.sum(p**2, axis=-1))
    if np.any(gn >= q):
        raise BarrierConstructionError("conjugate gradient bound violated",
                                       worst=xs[int(np.argmax(gn))])
    Lm = np.einsum("...ij,...ji->...", W_m.hess(p), Hc)
    bad = (Lm <= 0) | (Lm > W.n / A + tol)
    if np.any(bad):
        raise BarrierConstructionError("operator bound violated",
                                       worst=xs[int(np.argmax(bad))])
    # the conjugate Hessian must invert the capped-density Hessian at the
    # conjugate gradient; verify against a centered difference of that
    # gradient.
    # Inside the mollification core |p| <= 1/m the quadrature value is only
    # Lipschitz, so the identity is checked where the density is smooth.
    core = 1.0 / W_m.m + 2 * W_m.fd_step
    smooth = gn > core
    idx = np.flatnonzero(smooth)[:24]
    if idx.size:
        xh = xs[idx]
        eps = 1e-5 * max(1.0, float(np.max(np.abs(xh))))
        hess_err = 0.0
        for i in range(W.n):
            e = np.zeros(W.n)
            e[i] = eps
            _, pp, _ = fam.conjugate(xh + e, with_derivatives=True)
            _, pm, _ = fam.conjugate(xh - e, with_derivatives=True)
            col = (pp - pm) / (2 * eps)
            hess_err = max(hess_err,
                           float(np.max(np.abs(col - Hc[idx, :, i])
                                        / (1.0 + np.abs(col)))))
        if hess_err > 1e-3:
            raise BarrierConstructionError(
                f"conjugate Hessian disagrees with finite differences "
                f"(relative error {hess_err:.2e})")
        fam.provenance["hess_fd_err"] = hess_err
    fam.provenance.update({"n_check": n_check, "tol": tol,
                           "Lm_max": float(np.max(Lm)),
                           "grad_max": float(np.max(gn))})
    if speed is not None:
        fam.beta = beta_Aq(speed, A, q, n=W.n)
    return fam


def beta_Aq(speed, A, q, n) -> float:
    """sup |F(p, xi)| over |p| <= q, |xi| <= n/A, plus one, by sampling."""
    samples = 64
    xi_max = n / A

    def scan(p_lo, p_hi, xi_lo, xi_hi, k):
        if n == 1:
            ps = np.linspace(p_lo[0], p_hi[0], k).reshape(-1, 1)
        else:
            axes = [np.linspace(p_lo[i], p_hi[i], k) for i in range(n)]
            mesh = np.meshgrid(*axes, indexing="ij")
            ps = np.stack([mm.ravel() for mm in mesh], axis=-1)
            ps = ps[np.sqrt(np.sum(ps**2, axis=-1)) <= q + 1e-12]
        xis = np.linspace(xi_lo, xi_hi, k)
        P = np.repeat(ps, xis.shape[0], axis=0)
        X = np.tile(xis, ps.shape[0])
        vals = np.abs(speed(P, X))
        i = int(np.argmax(vals))
        return float(vals[i]), P[i], X[i]

    lo = -q * np.ones(n)
    hi = q * np.ones(n)
    best, pb, xb = scan(lo, hi, -xi_max, xi_max, samples)
    span_p = 2 * q / (samples - 1)
    span_x = 2 * xi_max / (samples - 1)
    for _ in range(2):
        # refinement windows stay inside the box the supremum is over
        b2, pb, xb = scan(np.maximum(pb - span_p, lo),
                          np.minimum(pb + span_p, hi),
                          max(xb - span_x, -xi_max), min(xb + span_x, xi_max),
                          samples)
        best = max(best, b2)
        span_p /= samples / 2
        span_x /= samples / 2
    return best + 1.0


def choose_parameters(delta, K, W: AnisotropyModel, n_verify: int = 1000):
    """Barrier constants: mu by sphere sampling, then A, q, and m0 by doubling.

    Returns (m0, A, q, mu).  Verifies the conjugate lower bound 2K on a
    sample of |x| >= delta and raises ParameterError with a counterexample.
    """
    if delta <= 0 or K <= 0:
        raise ValueError("delta and K must be positive")
    if W.n == 1:
        dirs = np.array([[1.0], [-1.0]])
    else:
        th = np.linspace(0, 2 * np.pi, 2048, endpoint=False)
        dirs = np.stack([np.cos(th), np.sin(th)], axis=-1)
    half = 0.5 * dirs
    mu = float(np.max(W.eval(half) + cap_function(half)))
    A = delta / (8.0 * mu)
    q = 8.0 * K / delta
    m0 = None
    m = 1.0
    while m <= 2**16:
        W_m = MollifiedAnisotropy(W, m)
        pts = (q / 2.0) * dirs
        w0 = float(W_m.eval(np.zeros((1, W.n)))[0])
        gap = np.max(np.abs(W_m.eval(pts) - w0 - W.eval(pts)))
        if gap <= q * mu:
            m0 = m
            break
        m *= 2.0
    if m0 is None:
        raise ParameterError("no m0 found up to m = 2^16")
    fam = BarrierFamily(W_m=MollifiedAnisotropy(W, m0), A=A, q=q)
    rng = np.random.default_rng(11)
    radii = rng.uniform(delta, max(2.0, 2 * delta), size=n_verify)
    if W.n == 1:
        xs = (radii * rng.choice([-1.0, 1.0], size=n_verify)).reshape(-1, 1)
    else:
        th = rng.uniform(0, 2 * np.pi, size=n_verify)
        xs = radii[:, None] * np.stack([np.cos(th), np.sin(th)], axis=-1)
    vals = fam.conjugate(xs)
    bad = vals < 2.0 * K
    if np.any(bad):
        raise ParameterError("conjugate lower bound 2K fails",
                             counterexample=xs[np.argmax(bad)])
    return m0, A, q, mu
