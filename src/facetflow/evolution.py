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

    def record(self, t, u: GridFunction):
        self.times.append(float(t))
        self.states.append(u.copy())
        self.lipschitz.append(lipschitz_constant(u))

    def final(self) -> GridFunction:
        return self.states[-1]


def divergence_operator(u: GridFunction, W_m) -> np.ndarray:
    """div grad W_m(grad u) in conservative form (forward/backward pair)."""
    g = u.grid
    gr = forward_gradient(u.values, g.h)
    flux = W_m.grad(gr.reshape(-1, g.n)).reshape(gr.shape)
    return backward_divergence(flux, g.h)


def step_explicit(u: GridFunction, W_m, speed: SpeedLaw, dt: float) -> GridFunction:
    """One forward Euler step of u_t + F(grad u, L_m u) = 0.

    The step is taken in conservative (divergence) form, which tracks
    facet motion through the exact discrete flux balance.
    """
    rate = speed.xi_scale * divergence_operator(u, W_m) - speed.forcing
    return GridFunction(u.grid, u.values + dt * rate)


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

    The Lipschitz seminorm of the solution must not grow (up to scheme
    slack); a violation aborts the run since it signals instability.
    """
    steps = int(step_count(u0.grid, W_m, speed, config))
    dt = config.t_end / steps
    trace = EvolutionTrace(dt=dt, steps=steps)
    trace.record(0.0, u0)
    lip0 = trace.lipschitz[0]
    budget = _lipschitz_budget(lip0)
    u = u0.copy()
    for k in range(1, steps + 1):
        u = step_explicit(u, W_m, speed, dt)
        rec = config.record_every and (k % config.record_every == 0)
        if rec or k == steps:
            trace.record(k * dt, u)
            if trace.lipschitz[-1] > budget:
                raise StabilityError(
                    f"Lipschitz norm grew from {lip0:.6g} to "
                    f"{trace.lipschitz[-1]:.6g} at t={k * dt:.6g}")
    return trace


def sample_state(trace: EvolutionTrace, t: float) -> GridFunction:
    """Recorded state nearest to time t."""
    times = np.asarray(trace.times)
    return trace.states[int(np.argmin(np.abs(times - t)))]


def comparison_harness(u0_lo: GridFunction, u0_hi: GridFunction, W_m,
                       speed: SpeedLaw, config: EvolutionConfig) -> dict:
    """Evolve an ordered pair with one shared scheme and report crossings."""
    if np.any(u0_lo.values > u0_hi.values):
        raise ValueError("initial states are not ordered")
    tr_lo = evolve(u0_lo, W_m, speed, config)
    tr_hi = evolve(u0_hi, W_m, speed, config)
    worst = 0.0
    worst_t = 0.0
    for t, s_lo, s_hi in zip(tr_lo.times, tr_lo.states, tr_hi.states):
        crossing = float(max(0.0, -np.min(s_hi.values - s_lo.values)))
        if crossing > worst:
            worst, worst_t = crossing, t
    return {"max_crossing": worst, "at_time": worst_t,
            "traces": (tr_lo, tr_hi)}


def lipschitz_monitor(trace: EvolutionTrace) -> dict:
    lips = np.asarray(trace.lipschitz)
    return {"initial": float(lips[0]), "max": float(np.max(lips)),
            "final": float(lips[-1]),
            "growth": float(np.max(lips) / max(lips[0], 1e-300)),
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
    return {"m_values": list(m_values), "gaps": gaps, "finals": finals}


def conventional_test_residual(phi_t: float, p, xi, speed: SpeedLaw) -> float:
    """Residual phi_t + F(grad phi, k) of a smooth test at a touching point."""
    p = np.atleast_2d(np.asarray(p, dtype=float))
    val = float(np.asarray(speed(p, np.atleast_1d(np.asarray(xi, float))))[0])
    return phi_t + val


def faceted_test_residual(g_prime: float, psi: GridFunction, W, x0,
                          deltas, a: float, speed: SpeedLaw,
                          **resolvent_kw) -> dict:
    """Residual of the faceted test  g' + F(0, essinf_B_delta Lambda).

    Lambda is the difference-quotient curvature of the support function
    psi at scale a; the essential infimum is taken over Euclidean balls
    of each radius in deltas around x0.  Returns the residuals per delta
    (for a subsolution test they should be <= 0 up to scheme error).
    """
    lam = curvature_dq(psi, W, a, **resolvent_kw)
    zero_p = np.zeros((1, psi.grid.n))
    out = {}
    for d in deltas:
        xi = essinf_ball(lam, x0, d)
        out[float(d)] = g_prime + float(np.asarray(
            speed(zero_p, np.atleast_1d(xi)))[0])
    return {"residuals": out, "curvature": lam}
