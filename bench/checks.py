"""Independent output checks for the facetflow benchmark.

Nothing here imports facetflow.  Every check recomputes what it needs
from the raw arrays with its own forward/backward differences and its
own closed-form densities and gauges, then returns ``None`` when the
output passes or a one-line reason when it does not.  Each workload
collects the reasons of one operation; any reason marks the operation
as failed.
"""

from __future__ import annotations

import numpy as np


# ---------------------------------------------------------------------------
# calculus and densities

def fwd_grad(v, h):
    """Forward differences, components on a trailing axis."""
    return np.stack([(np.roll(v, -1, axis=i) - v) / h for i in range(v.ndim)],
                    axis=-1)


def bwd_div(z, h):
    """Backward-difference divergence of a field with a trailing axis."""
    out = np.zeros(z.shape[:-1])
    for i in range(z.shape[-1]):
        out += (z[..., i] - np.roll(z[..., i], 1, axis=i)) / h
    return out


class Density:
    """Closed-form one-homogeneous density W and its gauge (dual norm)."""

    def __init__(self, W, gauge):
        self.W = W
        self.gauge = gauge


EUCLIDEAN = Density(
    lambda p: np.sqrt(np.sum(p**2, axis=-1)),
    lambda x: np.sqrt(np.sum(x**2, axis=-1)))


def elliptic(diag):
    m = np.asarray(diag, dtype=float)
    return Density(
        lambda p: np.sqrt(np.sum(m * p**2, axis=-1)),
        lambda x: np.sqrt(np.sum(x**2 / m, axis=-1)))


L4 = Density(
    lambda p: np.sum(p**4, axis=-1) ** 0.25,
    lambda x: np.sum(np.abs(x) ** (4.0 / 3.0), axis=-1) ** 0.75)


# ---------------------------------------------------------------------------
# resolvent

def gap_of(psi, psi_a, z, a, density, h):
    """Duality gap of (psi_a, z) for the proximal problem, recomputed."""
    vol = h ** psi.ndim
    dz = bwd_div(z, h)
    primal = (float(np.sum(density.W(fwd_grad(psi_a, h)))) * vol
              + 0.5 / a * float(np.sum((psi_a - psi) ** 2)) * vol)
    dual = (-float(np.sum(psi * dz)) * vol
            - 0.5 * a * float(np.sum(dz ** 2)) * vol)
    return primal - dual, abs(primal) + abs(dual)


def check_certified(converged):
    return None if converged else "resolvent reported no certificate"


def check_gap(psi, psi_a, z, a, density, h, rel_gap_tol):
    """Recomputed gap is within the relative tolerance the solve was given."""
    tol = rel_gap_tol * max(float(np.sum(psi ** 2)) * h ** psi.ndim, 1e-30) / a
    gap, size = gap_of(psi, psi_a, z, a, density, h)
    if not gap <= tol * (1 + 1e-6) + 1e-13 * size:
        return f"recomputed gap {gap:.3e} above tolerance {tol:.3e}"
    return None


def check_reconstruction(psi, psi_a, z, a, h):
    """psi_a = psi + a div z, the optimality relation of the dual field."""
    err = float(np.max(np.abs(psi_a - psi - a * bwd_div(z, h))))
    scale = 1.0 + float(np.max(np.abs(psi)))
    if not err <= 1e-12 * scale:
        return f"psi_a differs from psi + a div z by {err:.3e}"
    return None


def check_wulff(z, density, tol=1e-9):
    """Every dual vector lies in the Wulff set {gauge <= 1}."""
    worst = float(np.max(density.gauge(z)))
    if not worst <= 1.0 + tol:
        return f"z leaves the Wulff set: gauge {worst:.6f}"
    return None


def check_mean(before, after, tol=1e-12):
    err = abs(float(np.mean(after)) - float(np.mean(before)))
    scale = 1.0 + float(np.max(np.abs(before)))
    if not err <= tol * scale:
        return f"mean moved by {err:.3e}"
    return None


def resolvent_checks(psi, a, psi_a, z, converged, density, h, rel_gap_tol):
    """The checks every certified resolvent output must pass."""
    return [check_certified(converged),
            check_gap(psi, psi_a, z, a, density, h, rel_gap_tol),
            check_reconstruction(psi, psi_a, z, a, h),
            check_wulff(z, density),
            check_mean(psi, psi_a)]


def tent_measurements(psi, psi_a, slope, h):
    """Peak drop and facet half-length of a resolved 1D tent."""
    drop = float(np.max(psi) - np.max(psi_a))
    flat = np.abs(psi_a - np.max(psi_a)) <= 0.5 * h * slope
    return drop, 0.5 * float(np.sum(flat)) * h


def check_tent(psi, psi_a, a, slope, h):
    """Tent closed forms: drop sqrt(2as), facet half-length sqrt(2a/s)."""
    drop, half = tent_measurements(psi, psi_a, slope, h)
    t_drop, t_half = np.sqrt(2 * a * slope), np.sqrt(2 * a / slope)
    if not abs(drop - t_drop) <= 0.01 * t_drop:
        return f"tent drop {drop:.6g}, closed form {t_drop:.6g}"
    if not abs(half - t_half) <= max(3 * h, 0.05 * t_half):
        return f"tent facet half-length {half:.6g}, closed form {t_half:.6g}"
    return None


def check_facet_curvature(lam, facet, target, rel_tol):
    """Mean curvature on the facet interior equals the closed form."""
    if not np.any(facet):
        return "facet interior is empty"
    mean = float(np.mean(lam[facet]))
    if not abs(mean - target) <= rel_tol * abs(target):
        return f"facet curvature {mean:.6g}, closed form {target:.6g}"
    return None


def check_order(lo, hi, budget):
    """Ordered inputs keep ordered outputs, up to a pointwise budget."""
    worst = float(np.min(hi - lo))
    if not worst >= -budget:
        return f"order violated by {-worst:.3e} (budget {budget:.3e})"
    return None


def check_nested(lam_inner, lam_outer, common, rel_tol=0.02):
    """The smaller facet moves at least as fast on the common facet."""
    scale = float(np.max(np.abs(lam_inner[common])))
    worst = float(np.max(lam_inner[common] - lam_outer[common]))
    if not worst <= rel_tol * scale:
        return f"nested curvatures out of order by {worst:.3e}"
    return None


def check_same_curvature(lam_a, lam_b, facet, rel_tol=0.02):
    """Rescaling the wings leaves the facet curvature unchanged."""
    scale = float(np.max(np.abs(lam_a[facet])))
    diff = float(np.max(np.abs(lam_a[facet] - lam_b[facet])))
    if not diff <= rel_tol * scale:
        return f"wing rescaling moved the facet curvature by {diff:.3e}"
    return None


# ---------------------------------------------------------------------------
# support function

def check_support_sign(psi, plus, minus):
    """psi > 0 exactly on the plus set and < 0 exactly on the minus set."""
    if not np.array_equal(psi > 0, plus):
        return f"psi > 0 off the plus set at {int(np.sum((psi > 0) != plus))} nodes"
    if not np.array_equal(psi < 0, minus):
        return f"psi < 0 off the minus set at {int(np.sum((psi < 0) != minus))} nodes"
    return None


def check_support_lipschitz(psi, h):
    """Difference quotients along every axis and diagonal stay <= 1 + 2h."""
    worst = 0.0
    n = psi.ndim
    steps = [np.eye(n, dtype=int)[i] for i in range(n)]
    if n == 2:
        steps += [np.array([1, 1]), np.array([1, -1])]
    for s in steps:
        shifted = np.roll(psi, tuple(-s), axis=tuple(range(n)))
        q = np.max(np.abs(shifted - psi)) / (h * np.sqrt(np.sum(s ** 2)))
        worst = max(worst, float(q))
    if not worst <= 1.0 + 2 * h:
        return f"support function Lipschitz constant {worst:.6f}"
    return None


# ---------------------------------------------------------------------------
# explicit flow

def check_peak_law(u0, peak, slope, t, rel_tol=0.05):
    """Tent peak follows h0 - sqrt(2 s t)."""
    h0 = float(np.max(u0))
    target = h0 - np.sqrt(2 * slope * t)
    if not abs(peak - target) <= rel_tol * (h0 - target):
        return f"peak {peak:.6g}, law h0 - sqrt(2st) = {target:.6g}"
    return None


def check_max_principle(states, tol=1e-12):
    """max is nonincreasing and min nondecreasing along the recorded states."""
    hi = [float(np.max(s)) for s in states]
    lo = [float(np.min(s)) for s in states]
    scale = 1.0 + abs(hi[0]) + abs(lo[0])
    for k in range(1, len(states)):
        if hi[k] > hi[k - 1] + tol * scale:
            return f"max grew from {hi[k - 1]:.17g} to {hi[k]:.17g}"
        if lo[k] < lo[k - 1] - tol * scale:
            return f"min fell from {lo[k - 1]:.17g} to {lo[k]:.17g}"
    return None


def lipschitz_of(u, h):
    return float(np.max(np.sqrt(np.sum(fwd_grad(u, h) ** 2, axis=-1))))


def check_lipschitz_decay(states, h, tol=1e-9):
    """The Lipschitz constant never exceeds its initial value."""
    lip0 = lipschitz_of(states[0], h)
    worst = max(lipschitz_of(s, h) for s in states)
    if not worst <= lip0 * (1 + tol):
        return f"Lipschitz constant grew from {lip0:.12g} to {worst:.12g}"
    return None


def check_ordered_states(lo_states, hi_states, tol=1e-12):
    """An ordered pair stays ordered at every recorded time."""
    worst = min(float(np.min(b - a)) for a, b in zip(lo_states, hi_states))
    if not worst >= -tol:
        return f"ordered pair crossed by {-worst:.3e}"
    return None


def check_ladder(finals):
    """sup|u_m - u_2m| strictly decreases along the m ladder."""
    gaps = [float(np.max(np.abs(a - b))) for a, b in zip(finals, finals[1:])]
    if not all(b < a for a, b in zip(gaps, gaps[1:])):
        return "m-refinement gaps do not decrease: " + ", ".join(
            f"{g:.3e}" for g in gaps)
    return None


# ---------------------------------------------------------------------------
# barrier

def check_constants(A, q, delta, K):
    """A = delta / (8 (1/2 + ln 4/3)) and q = 8K/delta."""
    A_ref = delta / (8.0 * (0.5 + np.log(4.0 / 3.0)))
    if not abs(A - A_ref) <= 1e-12 * A_ref:
        return f"A = {A:.17g}, closed form {A_ref:.17g}"
    if not abs(q - 8 * K / delta) <= 1e-12 * q:
        return f"q = {q:.17g}, closed form {8 * K / delta:.17g}"
    return None


def check_beta(beta, A, n):
    """beta bounds |F| = |xi| <= n/A, plus one."""
    if not beta >= n / A + 1.0 - 1e-12:
        return f"beta {beta:.6g} below n/A + 1 = {n / A + 1:.6g}"
    return None


def check_fenchel(x, val, trial_p, trial_capped):
    """x.p' - capped(p') <= W*(x) for trial points p' in the cap ball."""
    lhs = np.max(x @ trial_p.T - trial_capped[None, :], axis=1)
    excess = lhs - val
    slack = 1e-9 * (1.0 + np.abs(val))
    if not np.all(excess <= slack):
        return f"a trial point beats the conjugate by {float(np.max(excess)):.3e}"
    return None


def check_local_max(x, val, moved, moved_capped):
    """x.p' - capped(p') <= W*(x) for p' a small move from each maximizer."""
    gain = np.sum(x * moved, axis=-1) - moved_capped - val
    if not np.all(gain <= 1e-9 * (1.0 + np.abs(val))):
        return f"a nearby point beats the conjugate by {float(np.max(gain)):.3e}"
    return None


def check_gradient_fd(x, grad_fd, rel_tol=1e-4):
    """A centered difference of the capped density at p reproduces x."""
    err = float(np.max(np.abs(grad_fd - x) / (1.0 + np.abs(x))))
    if not err <= rel_tol:
        return f"finite-difference gradient misses x by {err:.3e}"
    return None


def check_cap_ball(p, q):
    r = float(np.max(np.sqrt(np.sum(p ** 2, axis=-1))))
    if not r < q:
        return f"|p| = {r:.6g} reaches the cap radius {q:.6g}"
    return None


def check_Lm(Lm, A, n, tol=1e-7):
    """0 < L_m <= n/A."""
    if not np.all(Lm > 0):
        return f"L_m not positive: min {float(np.min(Lm)):.3e}"
    if not np.all(Lm <= n / A + tol):
        return f"L_m {float(np.max(Lm)):.6g} above n/A = {n / A:.6g}"
    return None


def check_lower_bound(x, val, delta, K):
    """W*(x) >= 2K wherever |x| >= delta."""
    far = np.sqrt(np.sum(x ** 2, axis=-1)) >= delta
    if not np.any(far):
        return "no sample with |x| >= delta"
    worst = float(np.min(val[far]))
    if not worst >= 2 * K - 1e-9:
        return f"W* = {worst:.6g} below 2K = {2 * K:g} at |x| >= delta"
    return None


def check_midpoint_convex(v_x, v_y, v_mid):
    excess = v_mid - 0.5 * (v_x + v_y)
    slack = 1e-9 * (1.0 + np.abs(v_mid))
    if not np.all(excess <= slack):
        return f"W* not midpoint-convex by {float(np.max(excess)):.3e}"
    return None


def check_residual(residual):
    """Supersolution residual beta + F(grad W*, L_m W*) stays >= 1."""
    worst = float(np.min(residual))
    if not worst >= 1.0 - 1e-9:
        return f"supersolution residual {worst:.6g} below 1"
    return None


# ---------------------------------------------------------------------------
# CLI artifacts

def read_grid(path):
    """Parse a FACETFLOW-GRID v1 snapshot: (values, t)."""
    with open(path) as f:
        if f.readline().strip() != "FACETFLOW-GRID v1":
            raise ValueError(f"{path}: not a grid snapshot")
        head = dict(kv.split("=") for kv in f.readline().split())
        n, N = int(head["n"]), int(head["N"])
        vals = np.array([float(v) for v in f.read().split()])
    return vals.reshape((N,) * n), float(head["t"])


def read_manifest(path):
    """Manifest check lines as {name: (passed, note)}."""
    out = {}
    with open(path) as f:
        for line in f:
            if not line.startswith("check "):
                continue
            name, rest = line[6:].split(":", 1)
            note = rest[rest.find("(") + 1:rest.rfind(")")] if "(" in rest else ""
            out[name] = (rest.split()[0] == "pass", note)
    return out


def note_value(note, key):
    """Value of key=<number> inside a manifest note."""
    for tok in note.replace(",", " ").split():
        if tok.startswith(key + "="):
            return float(tok[len(key) + 1:])
    raise KeyError(key)


def check_exit(status):
    return None if status == 0 else f"CLI exit status {status}"
