"""Resolvent of the singular surface-energy operator and curvature probes.

The central object is the proximal map

    psi_a = argmin_v  (1/2a) ||v - psi||^2 + E(v),   E(v) = sum h^n W(grad v),

computed by an accelerated primal-dual iteration on the exact saddle form
with a per-node projection onto the Wulff set of W.  The difference
quotient (psi_a - psi)/a approaches minus the minimal section of the
subdifferential of E, the nonlocal curvature that drives the flow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import (GridFunction, GridVectorField, backward_divergence,
                   forward_gradient)

_GAP_CHECK_EVERY = 25    # PD iterations between duality-gap evaluations


@dataclass
class ResolventConfig:
    a: float
    max_iter: int = 20000
    rel_gap_tol: float = 1e-12

    def __post_init__(self):
        if not self.a > 0:
            raise ValueError(f"resolvent scale a must be positive, got {self.a}")


@dataclass
class ResolventReport:
    iterations: int
    gap: float
    gap_tol: float
    l2_error_bound: float
    gap_history: tuple = ()    # (iteration, gap) of every gap check

    @property
    def converged(self) -> bool:
        """The solve is certified: a finite duality gap within tolerance."""
        return bool(np.isfinite(self.gap) and self.gap <= self.gap_tol)


def resolve_singular(psi: GridFunction, W, config: ResolventConfig):
    """Proximal map of the singular energy by accelerated primal-dual.

    Returns (psi_a, z, report).  The output is reconstructed from the
    dual field, psi_a = psi + a div z, which satisfies the optimality
    relation exactly for the returned z and preserves the mean of psi to
    machine precision (the discrete divergence has zero mean).

    The duality gap of the reconstructed pair bounds the distance to the
    true minimizer: ||psi_a - psi_a*|| <= sqrt(2 a gap).

    Every array of the iteration is allocated once per solve and updated
    in place.  z and the gradient step are stored component first,
    (n, *shape), and reach the grid pair and W.wulff_project as
    (*shape, n) views whose planes [..., i] are contiguous.
    """
    g = psi.grid
    a = config.a
    n, h = g.n, g.h
    shape = g.shape

    # operator norm of the forward-difference gradient
    L2 = 4.0 * n / h**2
    tau = float(np.sqrt(a) / np.sqrt(L2))
    sigma = 1.0 / (tau * L2)
    gamma = 1.0 / a

    psi_v = psi.values
    voln = h**n
    v = psi_v.copy()
    v_old = np.empty(shape)
    v_bar = v.copy()
    zc = np.zeros((n,) + shape)
    z = np.moveaxis(zc, 0, -1)
    # one buffer for the gradient: component first in the dual step,
    # C-ordered (*shape, n) for the energy of the gap check
    gflat = np.empty(zc.size)
    grad_step = np.moveaxis(gflat.reshape(zc.shape), 0, -1)
    grad_gap = gflat.reshape(shape + (n,))
    zflat = zc.reshape(-1)
    div = np.empty(shape)
    work = np.empty(shape)

    gap = np.inf
    scale = max(float(np.sum(psi_v**2)) * voln, 1e-30)
    gap_tol = config.rel_gap_tol * scale / a
    history = []
    it = 0
    for it in range(1, config.max_iter + 1):
        forward_gradient(v_bar, h, out=grad_step)
        gflat *= sigma
        zflat += gflat
        W.wulff_project(z, out=z)
        # v <- (v + tau div z + (tau/a) psi) / (1 + tau/a), old v kept
        v, v_old = v_old, v
        backward_divergence(z, h, out=div)
        div *= tau
        np.add(v_old, div, out=v)
        np.multiply(psi_v, tau / a, out=work)
        v += work
        v /= 1.0 + tau / a
        theta = 1.0 / math.sqrt(1.0 + 2.0 * gamma * tau)
        tau *= theta
        sigma /= theta
        np.subtract(v, v_old, out=v_bar)
        v_bar *= theta
        v_bar += v
        if it % _GAP_CHECK_EVERY == 0 or it == config.max_iter:
            gap = _duality_gap(psi_v, W, a, h, voln, z, div, work, grad_gap)
            history.append((it, gap))
            if gap <= gap_tol:
                break

    backward_divergence(z, h, out=div)
    psi_a = GridFunction(g, psi_v + a * div)
    zf = GridVectorField(g, np.ascontiguousarray(z))
    report = ResolventReport(
        iterations=it,
        gap=float(gap),
        gap_tol=float(gap_tol),
        l2_error_bound=float(np.sqrt(max(2.0 * a * gap, 0.0))),
        gap_history=tuple(history),
    )
    return psi_a, zf, report


def _duality_gap(psi_v, W, a, h, voln, z, dz, v_rec, grad):
    """Duality gap of z and the primal point psi + a div z it gives.

    Overwrites the caller's buffers: dz and v_rec of the grid's shape,
    grad of shape (*shape, n).
    """
    backward_divergence(z, h, out=dz)
    np.multiply(dz, a, out=v_rec)
    np.add(psi_v, v_rec, out=v_rec)
    energy = float(np.sum(W.eval(forward_gradient(v_rec, h, out=grad))))
    v_rec -= psi_v
    np.square(v_rec, out=v_rec)
    primal = energy * voln + 0.5 / a * float(np.sum(v_rec)) * voln
    np.multiply(psi_v, dz, out=v_rec)
    pair = float(np.sum(v_rec))
    np.square(dz, out=v_rec)
    dual = -pair * voln - 0.5 * a * float(np.sum(v_rec)) * voln
    return primal - dual


def resolvent_bruteforce(psi: GridFunction, W, a: float,
                         iterations: int = 200000):
    """Slow reference for the singular resolvent: plain projected dual ascent.

    Maximizes the dual of the proximal problem by projected gradient with
    a fixed safe step; intended for small grids and cross-checks only.
    """
    g = psi.grid
    n, h = g.n, g.h
    z = np.zeros(g.shape + (n,))
    step = h**2 / (4.0 * n * a)
    psi_v = psi.values
    for _ in range(iterations):
        v = psi_v + a * backward_divergence(z, h)
        z = z + step * forward_gradient(v, h)
        z = W.wulff_project(z.reshape(-1, n)).reshape(z.shape)
    return GridFunction(g, psi_v + a * backward_divergence(z, h))


def curvature_dq(psi: GridFunction, W, a: float, **kw):
    """Difference-quotient curvature (psi_a - psi)/a = div z.

    Returns (curvature, report), the report of the resolvent solve that
    certifies it.  Approaches minus the minimal section of the energy
    subdifferential as a -> 0 (the quotient is monotone in a and
    converges in L^2).
    """
    cfg = ResolventConfig(a=a, **kw)
    psi_a, _z, rep = resolve_singular(psi, W, cfg)
    return GridFunction(psi.grid, (psi_a.values - psi.values) / a), rep


def essinf_ball(u: GridFunction, x0, delta: float) -> float:
    """Infimum of u over the closed Euclidean torus ball B_delta(x0)."""
    g = u.grid
    if delta < 0:
        raise ValueError("ball radius must be nonnegative")
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    center = np.round(x0 / g.h).astype(int) % g.N
    offs = g.euclidean_ball_offsets(delta)
    idx = (center[None, :] + offs) % g.N
    return float(np.min(u.values[tuple(idx[:, i] for i in range(g.n))]))


def monotonicity_check(psi_lo: GridFunction, psi_hi: GridFunction, W, a: float,
                       **kw) -> dict:
    """Order preservation of the resolvent: psi_lo <= psi_hi pointwise
    should give (psi_lo)_a <= (psi_hi)_a.  Reports the worst violation."""
    if np.any(psi_lo.values > psi_hi.values):
        raise ValueError("inputs are not ordered")
    cfg = ResolventConfig(a=a, **kw)
    lo_a, _, rep_lo = resolve_singular(psi_lo, W, cfg)
    hi_a, _, rep_hi = resolve_singular(psi_hi, W, cfg)
    gapv = hi_a.values - lo_a.values
    return {
        "violation": float(max(0.0, -np.min(gapv))),
        "reports": (rep_lo, rep_hi),
    }
