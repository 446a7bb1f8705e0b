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

    def __post_init__(self):
        self._w0 = float(self.W_m.eval(np.zeros((1, self.n)))[0])

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
            out[inside] = self.A * (self.W_m.eval(pi)
                                    + self.q * cap_function(pi / self.q)
                                    - self._w0)
        return out

    def _capped_grad_hess(self, p):
        """Gradient and Hessian of the capped density at p, and Hess W_m(p),
        from one sampling of the W_m derivative table."""
        g, H = self.W_m.hess(p, with_grad=True)
        return (self.A * (g + cap_grad(p / self.q)),
                self.A * (H + cap_hess(p / self.q) / self.q), H)

    def _newton(self, x):
        """Maximizer p of x.p - capped(p) for each row of x, |p| < q.

        Solves grad of the capped density = x by damped Newton; the cap
        keeps iterates strictly inside the ball.  Vectorized over points.
        """
        B = x.shape[0]
        p = np.zeros((B, self.n))
        tol = _newton_tol(x)
        obj = np.zeros(B)           # the objective x.p - capped(p) at p = 0
        active = np.arange(B)
        for _ in range(80):
            g, H, _Hm = self._capped_grad_hess(p[active])
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
                    cf = cand[feas]
                    co[feas] = (np.sum(xa[todo][feas] * cf, axis=-1)
                                - self.capped(cf))
                good = co >= oa[todo] - 1e-14 * np.abs(oa[todo])
                newp[todo[good]] = cand[good]
                newo[todo[good]] = co[good]
                todo = todo[~good]
                if todo.size == 0:
                    break
                t[todo] *= 0.5
            p[active] = newp
            obj[active] = newo
            # a point that no halving could move, or whose accepted step
            # moved p by roundoff only, has stalled: freeze it
            moved = np.max(np.abs(newp - pa), axis=-1)
            active = active[moved > 1e-13 * self.q]
            if active.size == 0:
                break
        return p

    def conjugate(self, x, with_derivatives=False):
        """Exact-pointwise conjugate by concave maximization over |p| < q.

        Returns its values or, when with_derivatives is true, a
        ConjugateSolution: the triple (values, maximizers p = grad
        conj(x), conjugate Hessians), which also carries Hess W_m at p
        and the final Newton residuals, all from one W_m.hess call.
        """
        x = np.atleast_2d(np.asarray(x, dtype=float))
        p = self._newton(x)
        val = np.sum(x * p, axis=-1) - self.capped(p)
        if not with_derivatives:
            return val
        g, H, Hm = self._capped_grad_hess(p)
        return ConjugateSolution(val, p, np.linalg.inv(H), Hm,
                                 np.sqrt(np.sum((x - g)**2, axis=-1)))

    def operator_Lm(self, x):
        """trace[Hess(W_m)(grad conj)(x) Hess(conj)(x)] at sampled x."""
        return self.conjugate(x, with_derivatives=True).Lm


def _newton_tol(x):
    """Residual |x - grad capped(p)| at which the conjugate Newton stops."""
    return 1e-11 * (1.0 + np.max(np.abs(x)))


class ConjugateSolution(tuple):
    """The triple (val, p, Hc) of one conjugate solve, with Hess W_m at
    the maximizers (Hm) and the final Newton residuals |x - grad
    capped(p)| (resid) as attributes."""

    def __new__(cls, val, p, Hc, Hm, resid):
        sol = super().__new__(cls, (val, p, Hc))
        sol.Hm, sol.resid = Hm, resid
        return sol

    @property
    def Lm(self):
        """trace[Hess W_m(p) Hc], the operator L_m at each point."""
        return np.einsum("...ij,...ji->...", self.Hm, self[2])


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
    sol = fam.conjugate(xs, with_derivatives=True)
    _val, p, Hc = sol
    gn = np.sqrt(np.sum(p**2, axis=-1))
    if np.any(gn >= q):
        raise BarrierConstructionError("conjugate gradient bound violated",
                                       worst=xs[int(np.argmax(gn))])
    Lm = sol.Lm
    bad = (Lm <= 0) | (Lm > W.n / A + tol)
    if np.any(bad):
        raise BarrierConstructionError("operator bound violated",
                                       worst=xs[int(np.argmax(bad))])
    # the conjugate Hessian must invert the capped-density Hessian at the
    # conjugate gradient; verify against a centered difference of that
    # gradient, all 2n shifted copies of the points in one solve.
    # Inside the mollification core |p| <= 1/m the quadrature value is only
    # Lipschitz, so the identity is checked where the density is smooth.
    core = 1.0 / W_m.m + 2 * W_m.fd_step
    smooth = gn > core
    idx = np.flatnonzero(smooth)[:24]
    if idx.size:
        xh = xs[idx]
        eps = 1e-5 * max(1.0, float(np.max(np.abs(xh))))
        shifts = np.concatenate([np.eye(W.n), -np.eye(W.n)]) * eps
        _, ps, _ = fam.conjugate((xh + shifts[:, None]).reshape(-1, W.n),
                                 with_derivatives=True)
        pp, pm = ps.reshape(2, W.n, idx.size, W.n)
        # col[j, a, i]: centred difference of p_a along x_i at point j
        col = (pp - pm).transpose(1, 2, 0) / (2 * eps)
        hess_err = float(np.max(np.abs(col - Hc[idx]) / (1.0 + np.abs(col))))
        if hess_err > 1e-3:
            raise BarrierConstructionError(
                f"conjugate Hessian disagrees with finite differences "
                f"(relative error {hess_err:.2e})")
        fam.provenance["hess_fd_err"] = hess_err
    fam.provenance.update({"n_check": n_check, "tol": tol,
                           "Lm_max": float(np.max(Lm)),
                           "stalled": int(np.sum(sol.resid
                                                 >= _newton_tol(xs))),
                           "grad_max": float(np.max(gn))})
    if speed is not None:
        fam.beta = beta_Aq(speed, A, q, n=W.n)
    return fam


def beta_Aq(speed, A, q, n) -> float:
    """sup |F(p, xi)| over |p| <= q, |xi| <= n/A, plus one.

    Every speed law the package uses is affine in xi and independent of
    p, so |F| is largest at an end of the xi range, evaluated at p = 0.
    """
    xi = np.array([-n / A, n / A])
    return float(np.max(np.abs(speed(np.zeros((2, n)), xi)))) + 1.0


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
    pts = (q / 2.0) * dirs
    # Jensen: the node weights sum to one around a symmetric lattice, so
    # W_m(p) - W_m(0) - W(p) >= |p|^2/m - W_m(0); an m whose bound already
    # exceeds q mu fails the sampled check below and is skipped unsampled
    jensen = np.max(np.sum(pts**2, axis=-1))
    for e in range(17):
        m0 = 2.0**e
        W_m = MollifiedAnisotropy(W, m0)
        w0 = float(W_m.eval(np.zeros((1, W.n)))[0])
        if jensen / m0 - w0 > q * mu * (1.0 + 1e-9):
            continue
        gap = np.max(np.abs(W_m.eval(pts) - w0 - W.eval(pts)))
        if gap <= q * mu:
            break
    else:
        raise ParameterError("no m0 found up to m = 2^16")
    fam = BarrierFamily(W_m=W_m, A=A, q=q)
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
