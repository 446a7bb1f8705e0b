"""Set pairs, graded neighborhoods, and support-function constructions.

A pair of sets (A_minus, A_plus) records the sign structure of a
function: A_minus where it is negative, A_plus where it is positive,
disjoint by construction.  The partial order

    (A-, A+) <= (B-, B+)   iff   A+ subset B+  and  B- subset A-

is what comparison arguments for faceted evolutions run on.

Neighborhoods use a graded ball family: the radius-k structuring element
is the k-fold Minkowski sum of the elementary one-cell ball.  This makes
dilation by r1 followed by r2 *exactly* dilation by r1 + r2 on masks,
so the whole morphology algebra below holds as set identities rather
than up-to-a-cell approximations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .grid import (Grid, GridFunction, GridVectorField, backward_divergence,
                   dilate_cells, gradient_centered, mollify)

_CERT_TOL = 5e-2    # distance of z from dW(grad psi) a certificate tolerates


class PairDisjointError(ValueError):
    """Raised when the two components of a pair overlap."""


class SeparationError(ValueError):
    """Raised when two pair components are too close for a construction."""


def rho_neighborhood(grid: Grid, mask: np.ndarray, rho: float) -> np.ndarray:
    """Signed neighborhood of a mask: dilation for rho > 0, erosion below.

    rho is in physical units and rounded to whole cells.  Erosion is the
    complement of dilating the complement, so the duality
    (U^rho(A))^c = U^(-rho)(A^c) is exact.
    """
    mask = np.asarray(mask, dtype=bool)
    k = int(round(abs(rho) / grid.h))
    if rho > 0:
        return dilate_cells(mask, k)
    return ~dilate_cells(~mask, k)


def _distance_to(grid: Grid, mask: np.ndarray) -> np.ndarray:
    """Periodic Euclidean distance from every node to the nearest mask node."""
    tiled = np.tile(mask, (3,) * grid.n)
    d = ndimage.distance_transform_edt(~tiled, sampling=grid.h)
    return d[tuple(slice(grid.N, 2 * grid.N) for _ in range(grid.n))]


def signed_distance(grid: Grid, mask: np.ndarray) -> GridFunction:
    """Periodic signed distance dist(x, A) - dist(x, A^c), exact Euclidean.

    Negative inside the set, positive outside.  An empty mask saturates
    at +2.0 (beyond any distance on the unit torus), a full mask at -2.0.
    Distances are node-to-node; the half-cell offset puts the zero level
    on the boundary between inside and outside nodes.
    """
    mask = np.asarray(mask, dtype=bool)
    if not np.any(mask):
        return GridFunction(grid, np.full(grid.shape, 2.0))
    if np.all(mask):
        return GridFunction(grid, np.full(grid.shape, -2.0))
    vals = np.where(mask, -(_distance_to(grid, ~mask) - 0.5 * grid.h),
                    _distance_to(grid, mask) - 0.5 * grid.h)
    return GridFunction(grid, vals)


def mask_distance(grid: Grid, a: np.ndarray, b: np.ndarray) -> float:
    """Smallest periodic Euclidean distance between two masks.

    Follows the empty-set convention dist(emptyset, .) = +infinity,
    saturated at 2.0.
    """
    a = np.asarray(a, dtype=bool)
    b = np.asarray(b, dtype=bool)
    if not (np.any(a) and np.any(b)):
        return 2.0
    if np.any(a & b):
        return 0.0
    return float(np.min(_distance_to(grid, b)[a]))


@dataclass
class PairOfSets:
    """Disjoint (negative, positive) node sets on one grid."""

    grid: Grid
    minus: np.ndarray
    plus: np.ndarray

    def __post_init__(self):
        self.minus = np.asarray(self.minus, dtype=bool)
        self.plus = np.asarray(self.plus, dtype=bool)
        if self.minus.shape != self.grid.shape or self.plus.shape != self.grid.shape:
            raise ValueError("pair masks must match the grid shape")
        if np.any(self.minus & self.plus):
            raise PairDisjointError("pair components must be disjoint")

    def copy(self) -> "PairOfSets":
        return PairOfSets(self.grid, self.minus.copy(), self.plus.copy())


def pair_of(psi: GridFunction) -> PairOfSets:
    """Sign pair of a function: ({psi < 0}, {psi > 0})."""
    return PairOfSets(psi.grid, psi.values < 0.0, psi.values > 0.0)


def pair_leq(a: PairOfSets, b: PairOfSets) -> bool:
    """Partial order: a <= b iff a.plus subset b.plus and b.minus subset
    a.minus."""
    return bool(np.all(~a.plus | b.plus) and np.all(~b.minus | a.minus))


def pair_reverse(a: PairOfSets) -> PairOfSets:
    """The pair of -psi: swap the two components.  Involution; flips
    the ordering."""
    return PairOfSets(a.grid, a.plus.copy(), a.minus.copy())


def pair_nbhd(pair: PairOfSets, rho: float) -> PairOfSets:
    """Signed neighborhood of a pair: (U^(-rho) minus, U^rho plus).

    For rho > 0 the positive set grows and the negative set shrinks, so
    the result dominates the input in the pair order; disjointness is
    preserved exactly by the dilation/erosion adjunction.
    """
    g = pair.grid
    return PairOfSets(g, rho_neighborhood(g, pair.minus, -rho),
                      rho_neighborhood(g, pair.plus, rho))


def _between(grid: Grid, lo: np.ndarray, hi: np.ndarray, k: int) -> np.ndarray:
    """A mask with resolvably smooth boundary between lo and lo dilated
    by k cells (then clipped into [lo, hi])."""
    if not np.any(lo):
        return lo.copy()
    half = max(1, k // 2)
    seed = dilate_cells(lo, half)
    d = mollify(signed_distance(grid, seed), half * grid.h)
    cand = d.values <= 0.0
    return (cand | lo) & hi


def smooth_pair_between(pair: PairOfSets, rho1: float, rho2: float) -> PairOfSets:
    """A smoothed pair squeezed strictly between two neighborhoods.

    For 0 <= rho1 < rho2 returns (G-, G+) with

        U^rho1(pair) <= (G-, G+) <= U^rho2(pair)

    and dist(G-, G+) at least a third of the gap, following the
    three-band construction: with delta = (rho2 - rho1)/3, the positive
    set lands in the first band above rho1 and the negative set keeps
    two bands of clearance.  Boundaries come from thresholded mollified
    signed distances; exact mask clipping restores the sandwich wherever
    mollification would break it.
    """
    g = pair.grid
    if rho1 < 0 or rho2 <= rho1:
        raise ValueError("need 0 <= rho1 < rho2")
    if rho2 - rho1 < 3 * g.h:
        raise SeparationError(
            f"gap rho2 - rho1 = {rho2 - rho1:.3g} is below 3 grid cells")
    k1 = int(round(rho1 / g.h))
    kd = max(1, int(round((rho2 - rho1) / (3.0 * g.h))))

    plus_lo = dilate_cells(pair.plus, k1)
    plus_hi = dilate_cells(pair.plus, k1 + kd) if np.any(pair.plus) else plus_lo
    g_plus = _between(g, plus_lo, plus_hi, kd)

    minus_lo = rho_neighborhood(g, pair.minus, -(k1 + 3 * kd) * g.h)
    minus_hi = rho_neighborhood(g, pair.minus, -(k1 + 2 * kd) * g.h)
    g_minus = _between(g, minus_lo, minus_hi, kd)
    return PairOfSets(g, g_minus, g_plus)


@dataclass
class SupportFunctionCertificate:
    """A support function of a pair with a selection field certifying it.

    psi is Lipschitz, positive exactly on the pair's plus set and
    negative exactly on its minus set; z satisfies z(x) in dW(grad
    psi(x)) away from a small defect set recorded in the report.
    """

    psi: GridFunction
    pair: PairOfSets
    z: GridVectorField
    delta: float
    report: dict


def _chi(s, delta):
    return np.clip(s, 0.0, delta)


def _theta(s, delta):
    """C^1 plateau cutoff: 1 on [0, delta], 0 outside (-delta, 2 delta)."""
    t_up = np.clip((s + delta) / delta, 0.0, 1.0)
    t_dn = np.clip((2.0 * delta - s) / delta, 0.0, 1.0)

    def smooth(t):
        return t * t * (3.0 - 2.0 * t)

    return smooth(t_up) * smooth(t_dn)


def _smoothness_radius(grid: Grid, depth: np.ndarray, band: float) -> float:
    """Distance from the zero level to the nearest kink of the distance
    field.  A signed distance is smooth with unit gradient up to the
    medial axis, where gradients from competing boundary pieces meet and
    the centered slope drops below one; ramps must stay this side of it.
    """
    p = gradient_centered(GridFunction(grid, depth)).values
    norms = np.linalg.norm(p, axis=-1)
    kink = (norms < 0.9) & (np.abs(depth) > band)
    if not np.any(kink):
        return 2.0
    return float(np.min(np.abs(depth[kink])))


def _cahn_hoffman(W, grid: Grid, v: np.ndarray):
    """Magnitudes of the centred gradient p of node values v, and the
    Cahn-Hoffman field grad W(p/|p|), 0 where p vanishes."""
    p = gradient_centered(GridFunction(grid, v)).values
    norms = np.linalg.norm(p, axis=-1)
    keep = norms > 1e-8
    unit = np.where(keep[..., None], p / np.where(keep, norms, 1.0)[..., None],
                    np.eye(grid.n)[0])
    return norms, np.where(keep[..., None], W.grad(unit), 0.0)


def support_from_smooth_pair(pair: PairOfSets,
                             W) -> SupportFunctionCertificate:
    """Support function of a separated smooth pair, with its certificate.

    Writes the double ramp psi = chi(depth+) - chi(depth-), where
    depth+/- are the signed distances into the plus/minus sets and
    chi(s) = clip(s, 0, delta); psi saturates at +-delta one band into
    each set and vanishes on and outside both boundaries.  The field

        z = theta(depth+) grad W(grad depth+)
          + theta(depth-) grad W(-grad depth-)

    carries the Cahn-Hoffman vector of each ramp across a plateau
    cutoff theta, and decays to a Wulff-interior value on the facet.
    """
    g = pair.grid
    gap = mask_distance(g, pair.minus, pair.plus)
    if gap <= 4 * g.h:
        raise SeparationError("pair components are not separated enough")
    depth_p = -signed_distance(g, pair.plus).values    # > 0 inside plus
    depth_m = -signed_distance(g, pair.minus).values   # > 0 inside minus
    r_p = _smoothness_radius(g, depth_p, 2 * g.h) if np.any(pair.plus) else 2.0
    r_m = _smoothness_radius(g, depth_m, 2 * g.h) if np.any(pair.minus) else 2.0
    delta = min(gap, r_p, r_m) / 3.0
    delta = max(delta, 2 * g.h)

    psi_vals = _chi(depth_p, delta) - _chi(depth_m, delta)

    def branch(depth):
        return _cahn_hoffman(W, g, np.minimum(depth, 3 * delta))[1]

    z_vals = (_theta(depth_p, delta)[..., None] * branch(depth_p)
              + _theta(depth_m, delta)[..., None] * (-branch(depth_m)))
    # wherever the two plateaus overlapped, pull back into the Wulff set
    z_vals = W.wulff_project(z_vals.reshape(-1, g.n)).reshape(z_vals.shape)

    cert = SupportFunctionCertificate(
        psi=GridFunction(g, psi_vals),
        pair=pair.copy(),
        z=GridVectorField(g, z_vals),
        delta=float(delta),
        report={},
    )
    cert.report = admissibility_check(cert, W)
    return cert


def admissibility_check(cert: SupportFunctionCertificate, W) -> dict:
    """Node-wise audit of z in dW(grad psi) plus a divergence bound.

    The ramps of a support function built from distance functions have
    unit slope almost everywhere, so any node whose centered gradient
    magnitude falls clearly below one sits in a kink layer where the
    stencil straddles a corner of the clipped ramp.  On genuinely sloped
    nodes (|p| >= 0.9) the test is proximity of z to the Cahn-Hoffman
    vector grad W(p/|p|); on the rest it is membership of z in the Wulff
    set dW(0) (a necessary condition for membership at any p), checked
    by projection distance.
    """
    g = cert.psi.grid
    norms, ch = _cahn_hoffman(W, g, cert.psi.values)
    sloped = norms.reshape(-1) >= 0.9
    z = cert.z.values.reshape(-1, g.n)

    gauge_dist = np.linalg.norm(z - W.wulff_project(z.copy()), axis=-1)
    flat_ok = gauge_dist <= _CERT_TOL

    ch_dist = np.linalg.norm(z - ch.reshape(-1, g.n), axis=-1)
    sloped_ok = ch_dist <= _CERT_TOL

    ok = np.where(sloped, sloped_ok, flat_ok)
    div = backward_divergence(cert.z.values, g.h)
    worst = int(np.argmin(ok * 1.0 - (~ok) * ch_dist))
    return {
        "defect_fraction": float(np.mean(~ok)),
        "n_defects": int(np.sum(~ok)),
        "sloped_fraction": float(np.mean(sloped)),
        "max_divergence": float(np.max(np.abs(div))),
        "worst_node": np.unravel_index(worst, g.shape),
        "tol": _CERT_TOL,
    }


def ordered_support_function(theta_usc: GridFunction, H: PairOfSets,
                             cert: SupportFunctionCertificate):
    """Support function of H dominating an obstacle, by cone rescaling.

    Given an obstacle theta_usc whose sign pair sits strictly inside H
    and a certified support function psi_H of H, returns (alpha, beta,
    certificate) with psi = alpha [psi_H]_+ - beta [psi_H]_- >= theta_usc
    everywhere.  The certificate field z is reused unchanged: positive
    rescalings of the two wings leave the subdifferential membership
    intact, so the curvature of the support function is unaffected.
    """
    g = theta_usc.grid
    theta = theta_usc.values
    psi_h = cert.psi.values
    if np.any((theta > 0) & ~(psi_h > 0)):
        raise ValueError("obstacle is positive outside the support of psi_H")

    pos_region = dilate_cells(theta > 0, 1) & (psi_h > 0)
    if np.any(pos_region) and np.max(theta) > 0:
        alpha = float(np.max(theta) / np.min(psi_h[pos_region]))
        alpha = max(alpha, 1.0)
    else:
        alpha = 1.0
    neg_region = dilate_cells(H.minus, 1)
    if np.any(neg_region) and np.min(psi_h[H.minus] if np.any(H.minus)
                                     else [0.0]) < 0:
        top = float(np.max(theta[neg_region]))
        bottom = float(np.min(psi_h[neg_region]))
        beta = top / bottom if top < 0 and bottom < 0 else 1.0
        beta = min(max(beta, 1e-12), 1.0)
    else:
        beta = 1.0

    psi = alpha * np.clip(psi_h, 0.0, None) + beta * np.clip(psi_h, None, 0.0)
    if np.any(theta > psi + 1e-12):
        raise ValueError("rescaled support function fails to dominate obstacle")
    out = SupportFunctionCertificate(
        psi=GridFunction(g, psi),
        pair=cert.pair.copy(),
        z=cert.z,
        delta=cert.delta,
        report=dict(cert.report, alpha=alpha, beta=beta),
    )
    return alpha, beta, out
