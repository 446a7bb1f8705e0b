"""Time stepping for graph evolutions driven by anisotropic curvature.

Solves u_t + F(grad u, L u) = 0 on the torus, where L is either the
operator div grad W_m(grad u) of a mollified density, or (through the
resolvent module) the singular curvature itself.  The explicit scheme
steps the mollified problem; the singular flow is recovered in the
large-m limit, which the m-refinement diagnostics below monitor.

Speed laws are affine in the curvature argument, F(p, xi) = -s xi + c
with s > 0, so F is nonincreasing in xi and the comparison structure
survives discretization.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from .grid import (Grid, GridFunction, backward_divergence, forward_gradient,
                   lipschitz_constant)
from .resolvent import curvature_dq, essinf_ball


# relative and absolute growth of the Lipschitz seminorm that an explicit
# run tolerates as scheme error before it counts as unstable
LIPSCHITZ_SLACK = 1e-3


class StabilityError(RuntimeError):
    """The explicit scheme detected a stability violation."""


@dataclass
class SpeedLaw:
    """The affine law F(p, xi) = -xi_scale xi + forcing.

    xi_scale must be positive, which keeps F nonincreasing in xi; it is
    also |dF/dxi|, which sets the explicit time-step restriction.
    """

    xi_scale: float
    forcing: float = 0.0

    def __post_init__(self):
        if not self.xi_scale > 0:
            raise ValueError("speed scale must be positive")

    def __call__(self, p, xi):
        return -self.xi_scale * xi + self.forcing


def tv_flow(n: int) -> SpeedLaw:
    """Plain singular diffusion: u_t = L u, i.e. F = -xi."""
    return SpeedLaw(1.0)


@dataclass
class EvolutionConfig:
    t_end: float
    cfl: float = 0.4
    record_every: int = 0       # 0 -> only first and last states recorded


@dataclass
class EvolutionTrace:
    times: list = field(default_factory=list)
    states: list = field(default_factory=list)
    lipschitz: list = field(default_factory=list)
    dt: float = 0.0
    steps: int = 0
    wall_s: float = 0.0         # wall-clock time of the run

    def record(self, t, grid: Grid, values: np.ndarray):
        """Keep a copy of the node array values as the state at time t;
        GridFunction refuses a non-finite one."""
        u = GridFunction(grid, values.copy())
        self.times.append(float(t))
        self.states.append(u)
        self.lipschitz.append(lipschitz_constant(u))

    def final(self) -> GridFunction:
        return self.states[-1]


def _step(v, h, W_m, speed: SpeedLaw, dt: float, gr=None, div=None):
    """One forward Euler step of the node array v, in place: v += dt (s L_m v
    - c) for the law F = -s xi + c, with L_m v = div grad W_m(grad v) in
    conservative form (the forward/backward pair), through the gradient
    buffer gr and the divergence buffer div when they are given."""
    gr = forward_gradient(v, h, out=gr)
    flux = W_m.grad(gr.reshape(-1, v.ndim)).reshape(gr.shape)
    div = backward_divergence(flux, h, out=div)
    div *= speed.xi_scale
    div -= speed.forcing
    div *= dt
    v += div


def step_explicit(u: GridFunction, W_m, speed: SpeedLaw, dt: float) -> GridFunction:
    """One forward Euler step of u_t + F(grad u, L_m u) = 0.

    The step is taken in conservative (divergence) form, which tracks
    facet motion through the exact discrete flux balance.
    """
    v = u.values.copy()
    _step(v, u.grid.h, W_m, speed, dt)
    return GridFunction(u.grid, v)


def stable_dt(grid: Grid, W_m, speed: SpeedLaw, cfl: float) -> float:
    """Forward Euler restriction dt <= cfl h^2 / (2 n a_m xi_scale)."""
    return cfl * grid.h**2 / (2.0 * grid.n * W_m.a_m * speed.xi_scale)


def step_count(grid: Grid, W_m, speed: SpeedLaw,
               config: EvolutionConfig) -> float:
    """Fewest equal explicit steps that reach t_end within stable_dt.

    A whole number held as a float, so that a caller can refuse a plan
    too long to run before it is converted to an int.
    """
    dt = stable_dt(grid, W_m, speed, config.cfl)
    return max(1.0, float(np.ceil(config.t_end / dt)))


def _lipschitz_budget(lip0: float) -> float:
    """Largest Lipschitz seminorm a stable run from seminorm lip0 may reach."""
    return lip0 * (1.0 + LIPSCHITZ_SLACK) + LIPSCHITZ_SLACK


def evolve(u0: GridFunction, W_m, speed: SpeedLaw,
           config: EvolutionConfig) -> EvolutionTrace:
    """Run the explicit scheme to t_end, monitoring the Lipschitz norm.

    The state, a gradient and a divergence buffer are allocated once and
    every step updates them in place.  The Lipschitz seminorm of the
    solution must not grow (up to scheme slack); a violation aborts the
    run since it signals instability.  A non-finite state stays
    non-finite, and it is refused (ValueError) at the next recorded
    step, the last one at the latest.
    """
    t0 = perf_counter()
    grid = u0.grid
    steps = int(step_count(grid, W_m, speed, config))
    dt = config.t_end / steps
    trace = EvolutionTrace(dt=dt, steps=steps)
    v = u0.values.copy()
    trace.record(0.0, grid, v)
    lip0 = trace.lipschitz[0]
    budget = _lipschitz_budget(lip0)
    gr = np.empty(v.shape + (v.ndim,))
    div = np.empty_like(v)
    for k in range(1, steps + 1):
        _step(v, grid.h, W_m, speed, dt, gr, div)
        rec = config.record_every and (k % config.record_every == 0)
        if rec or k == steps:
            trace.record(k * dt, grid, v)
            if trace.lipschitz[-1] > budget:
                raise StabilityError(
                    f"Lipschitz norm grew from {lip0:.6g} to "
                    f"{trace.lipschitz[-1]:.6g} at t={k * dt:.6g}")
    trace.wall_s = perf_counter() - t0
    return trace


def comparison_harness(u0_lo: GridFunction, u0_hi: GridFunction, W_m,
                       speed: SpeedLaw, config: EvolutionConfig) -> dict:
    """Evolve an ordered pair with one shared scheme and report crossings."""
    if np.any(u0_lo.values > u0_hi.values):
        raise ValueError("initial states are not ordered")
    tr_lo = evolve(u0_lo, W_m, speed, config)
    tr_hi = evolve(u0_hi, W_m, speed, config)
    worst = max(float(max(0.0, -np.min(hi.values - lo.values)))
                for lo, hi in zip(tr_lo.states, tr_hi.states))
    return {"max_crossing": worst}


def lipschitz_monitor(trace: EvolutionTrace) -> dict:
    lips = np.asarray(trace.lipschitz)
    return {"initial": float(lips[0]), "max": float(np.max(lips)),
            "final": float(lips[-1]),
            "budget": _lipschitz_budget(float(lips[0]))}


def m_refinement_study(u0: GridFunction, W, speed: SpeedLaw, t_end: float,
                      m_values, mollifier) -> dict:
    """Evolve the same data for increasing mollification index m.

    mollifier maps (W, m) to the smooth density; returns the sup-norm
    distances between consecutive solutions, which should shrink as the
    singular flow is approached.
    """
    finals = []
    for m in m_values:
        W_m = mollifier(W, m)
        tr = evolve(u0, W_m, speed, EvolutionConfig(t_end=t_end))
        finals.append(tr.final())
    gaps = [float(np.max(np.abs(a.values - b.values)))
            for a, b in zip(finals, finals[1:])]
    return {"gaps": gaps, "finals": finals}


def faceted_test_residual(g_prime: float, psi: GridFunction, W, x0,
                          deltas, a: float, speed: SpeedLaw,
                          **resolvent_kw) -> dict:
    """Residual of the faceted test  g' + F(0, essinf_B_delta Lambda).

    Lambda is the difference-quotient curvature of the support function
    psi at scale a; the essential infimum is taken over Euclidean balls
    of each radius in deltas around x0.  Returns the residuals and the
    essential infima per delta (for a subsolution test the residuals
    should be <= 0 up to scheme error), the curvature and the report of
    the resolvent solve behind it.
    """
    lam, rep = curvature_dq(psi, W, a, **resolvent_kw)
    zero_p = np.zeros((1, psi.grid.n))
    out, infs = {}, {}
    for d in deltas:
        xi = infs[float(d)] = essinf_ball(lam, x0, d)
        out[float(d)] = g_prime + float(np.asarray(
            speed(zero_p, np.atleast_1d(xi)))[0])
    return {"residuals": out, "essinf": infs, "curvature": lam,
            "report": rep}
