"""The four benchmark workloads: inputs from a seed, timed operations, checks.

A workload is a list of operations.  Each operation has a ``run(k)``
that performs the timed work of round ``k`` and returns its raw output,
and a ``check(out)`` that turns that output into a list of reasons it is
wrong (empty when it passes).  Checks run after the clock stops and use
only ``checks``, never facetflow.

The program is always called through module attributes
(``resolvent.resolve_singular``, ``cli.run`` ...) so that a traced run
sees every call.
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage

import checks as C

import facetflow.anisotropy as anisotropy
import facetflow.cli as cli
import facetflow.conjugate as conjugate
import facetflow.evolution as evolution
import facetflow.facets as facets
import facetflow.grid as grid
import facetflow.resolvent as resolvent


class Op:
    def __init__(self, name, run, check):
        self.name = name
        self.run = run
        self.check = check


# ---------------------------------------------------------------------------
# input shapes (benchmark side)

def torus_offsets(N, n, center):
    """Wrap-around offsets of every node of an n-dimensional N-grid."""
    axes = np.meshgrid(*([np.arange(N) / N] * n), indexing="ij")
    return np.stack([(ax - c + 0.5) % 1.0 - 0.5 for ax, c in zip(axes, center)],
                    axis=-1)


def random_center(rng, N, n):
    """A node-aligned center, so every seed costs the same work."""
    return tuple(0.5 + int(k) / N for k in rng.integers(0, N, size=n))


def plateau(dist, radius, delta, offset=0.0):
    """Flat top of height delta on {dist <= radius}, unit slope around it."""
    return np.clip(radius + delta - dist, 0.0, delta) - offset


def smooth_noise(shape, rng, amp):
    v = ndimage.gaussian_filter(rng.standard_normal(shape),
                                max(2.0, shape[0] / 24), mode="wrap")
    return amp * v / np.max(np.abs(v))


def ordered_pair(shape, rng, amp, pad, bump):
    lo = smooth_noise(shape, rng, amp)
    return lo, lo + pad + np.abs(smooth_noise(shape, rng, bump))


# The random-smooth fields that a resolvent solves are drawn once from
# this stream; the seed picks their node-aligned torus shift.  How many
# PD iterations a solve takes depends on the field, and a shift leaves
# that count as it is, so every seed costs the same solver work.
FIELD_SEED = 20130523


def shifted_pair(shape, rng, fields, amp, pad, bump):
    lo, hi = ordered_pair(shape, fields, amp, pad, bump)
    k = tuple(int(i) for i in rng.integers(0, shape[0], size=len(shape)))
    axes = tuple(range(len(shape)))
    return np.roll(lo, k, axis=axes), np.roll(hi, k, axis=axes)


def template_config(name, overrides=None):
    """A built-in template's text, with some of its keys set anew."""
    overrides = dict(overrides or {})
    lines = []
    for line in cli.TEMPLATES[name].splitlines():
        k = line.partition("=")[0].strip()
        if k in overrides:
            line = f"{k} = {overrides.pop(k)}"
        lines.append(line)
    lines += [f"{k} = {v}" for k, v in overrides.items()]
    return "\n".join(lines) + "\n"


def config_value(text, key):
    for line in text.splitlines():
        k, _, v = line.partition("=")
        if k.strip() == key:
            return float(v)
    raise KeyError(key)


# ---------------------------------------------------------------------------
# shared operation builders

def solve(psi, W, a, rel_gap_tol):
    """One certified resolvent: (psi_a, z, converged, l2 bound)."""
    g = grid.Grid(psi.ndim, psi.shape[0])
    cfg = resolvent.ResolventConfig(a=a, max_iter=200000,
                                    rel_gap_tol=rel_gap_tol)
    psi_a, z, rep = resolvent.resolve_singular(grid.GridFunction(g, psi), W, cfg)
    return psi_a.values, z.values, rep.converged, rep.l2_error_bound


def solve_checks(psi, a, out, density, rel_gap_tol):
    psi_a, z, converged, _bound = out
    return C.resolvent_checks(psi, a, psi_a, z, converged, density,
                              1.0 / psi.shape[0], rel_gap_tol)


def pair_op(name, pairs, W, density, a, rel_gap_tol):
    """Ordered pairs: every solve certified, outputs ordered within the
    pointwise form of the summed certified L2 bounds."""

    def run(_k):
        return [(solve(lo, W, a, rel_gap_tol), solve(hi, W, a, rel_gap_tol))
                for lo, hi in pairs]

    def check(out):
        reasons = []
        for (lo, hi), (olo, ohi) in zip(pairs, out):
            reasons += solve_checks(lo, a, olo, density, rel_gap_tol)
            reasons += solve_checks(hi, a, ohi, density, rel_gap_tol)
            budget = (olo[3] + ohi[3]) / np.sqrt((1.0 / lo.shape[0]) ** lo.ndim)
            reasons.append(C.check_order(olo[0], ohi[0], budget))
        return reasons

    return Op(name, run, check)


def cli_op(name, text, workdir, seed, check_artifacts):
    """A template config through facetflow.cli.run, one directory a round."""
    cfg = workdir / f"{name}.cfg"
    cfg.write_text(text)

    def run(k):
        out = workdir / f"{name}-r{k}"
        return cli.run(cfg, out_dir=out, seed=seed, quiet=True), out

    def check(out):
        status, path = out
        if status != 0:
            return [C.check_exit(status)]
        return check_artifacts(path)

    return Op(f"cli:{name}", run, check)


# ---------------------------------------------------------------------------
# resolvent-1d

def resolvent_1d(rng, workdir, seed):
    W = anisotropy.EuclideanAnisotropy(1)
    dens = C.EUCLIDEAN

    # tent closed form
    N, s, a_tent, tol = 256, 0.5, 5e-3, 1e-6
    d = np.abs(torus_offsets(N, 1, random_center(rng, N, 1))[..., 0])
    tent = s * (0.25 - d)

    def tent_check(out):
        return solve_checks(tent, a_tent, out, dens, tol) + [
            C.check_tent(tent, out[0], a_tent, s, 1.0 / N)]

    # nested and wing-rescaled plateaus
    Np, a_p, tol_p, delta, off = 128, 2e-4, 1e-5, 0.06, 0.03
    hp = 1.0 / Np
    dp = np.abs(torus_offsets(Np, 1, random_center(rng, Np, 1))[..., 0])
    inner = plateau(dp, 0.1, delta, off)
    outer = plateau(dp, 0.15, delta, off)
    wings = 2.0 * np.clip(outer, 0, None) + 0.5 * np.clip(outer, None, 0)
    plates = (inner, outer, wings)
    f_in = dp <= 0.1 - 6 * hp
    f_out = dp <= 0.15 - 6 * hp

    def plates_run(_k):
        return [solve(p, W, a_p, tol_p) for p in plates]

    def plates_check(out):
        reasons = []
        for p, o in zip(plates, out):
            reasons += solve_checks(p, a_p, o, dens, tol_p)
        lam = [(o[0] - p) / a_p for p, o in zip(plates, out)]
        reasons += [C.check_facet_curvature(lam[0], f_in, -2 / 0.2, 0.03),
                    C.check_facet_curvature(lam[1], f_out, -2 / 0.3, 0.03),
                    C.check_nested(lam[0], lam[1], f_in),
                    C.check_same_curvature(lam[1], lam[2], f_out)]
        return reasons

    # ordered random-smooth pairs
    fields = np.random.default_rng(FIELD_SEED)
    pairs = [shifted_pair((128,), rng, fields, 0.15, 0.02, 0.1)
             for _ in range(2)]

    # the template at N=128 and a certified tolerance, read back from its
    # artifacts
    t_cfg = template_config("resolvent-tent-1d", {"grid.N": 128,
                                                  "resolvent.rel-gap-tol": 1e-6})
    t_s = config_value(t_cfg, "init.slope")
    t_a = config_value(t_cfg, "resolvent.a")

    def tent_artifacts(path):
        psi, _ = C.read_grid(path / "input.grid")
        psi_a, _ = C.read_grid(path / "resolvent.grid")
        return [C.check_tent(psi, psi_a, t_a, t_s, 1.0 / psi.shape[0]),
                C.check_mean(psi, psi_a, 1e-11)]

    return [
        Op("tent", lambda _k: solve(tent, W, a_tent, tol), tent_check),
        Op("plateaus", plates_run, plates_check),
        pair_op("pairs", pairs, W, dens, 5e-4, tol),
        cli_op("resolvent-tent-1d", t_cfg, workdir, seed, tent_artifacts),
    ]


# ---------------------------------------------------------------------------
# resolvent-2d

def resolvent_2d(rng, workdir, seed):
    eu = anisotropy.EuclideanAnisotropy(2)
    dens = C.EUCLIDEAN

    # Euclidean disks, nested
    N, a_d, tol, delta = 32, 5e-4, 1e-5, 0.05
    h = 1.0 / N
    r_d = np.sqrt(np.sum(torus_offsets(N, 2, random_center(rng, N, 2)) ** 2,
                         axis=-1))
    disks = (plateau(r_d, 0.15, delta), plateau(r_d, 0.2, delta))
    f_in, f_out = r_d <= 0.15 - 2 * h, r_d <= 0.2 - 2 * h

    def disks_check(out):
        reasons = []
        for p, o in zip(disks, out):
            reasons += solve_checks(p, a_d, o, dens, tol)
        lam = [(o[0] - p) / a_d for p, o in zip(disks, out)]
        reasons += [C.check_facet_curvature(lam[0], f_in, -2 / 0.15, 0.08),
                    C.check_facet_curvature(lam[1], f_out, -2 / 0.2, 0.08),
                    C.check_nested(lam[0], lam[1], f_in)]
        return reasons

    # ordered random-smooth pair
    pairs = [shifted_pair((48, 48), rng, np.random.default_rng(FIELD_SEED),
                          0.15, 0.02, 0.1)]

    # Wulff-shaped plateaus of the anisotropic models
    def wulff_op(name, W, density, Nw, r, a, tol):
        off = torus_offsets(Nw, 2, random_center(rng, Nw, 2))
        gdist = density.gauge(off)
        psi = plateau(gdist, r, delta)
        facet = gdist <= r - 2.0 / Nw

        def check(out):
            lam = (out[0] - psi) / a
            return solve_checks(psi, a, out, density, tol) + [
                C.check_facet_curvature(lam, facet, -2 / r, 0.15)]

        return Op(name, lambda _k: solve(psi, W, a, tol), check)

    # support-function certificate of a disk and its curvature
    off = torus_offsets(N, 2, random_center(rng, N, 2))
    plus = np.sum(off ** 2, axis=-1) <= 0.2 ** 2
    g = grid.Grid(2, N)
    a_s = 5e-4

    def support_run(_k):
        pair = facets.PairOfSets(g, np.zeros(g.shape, bool), plus)
        sp = facets.smooth_pair_between(pair, 2 * h, 14 * h)
        cert = facets.support_from_smooth_pair(sp, eu)
        return (sp.plus, sp.minus, cert.psi.values, cert.z.values,
                solve(cert.psi.values, eu, a_s, tol))

    def support_check(out):
        sp_plus, sp_minus, psi, z, sol = out
        top = psi >= np.max(psi) - 1e-12
        r_top = np.sqrt(np.sum(top) * h * h / np.pi)
        lam = (sol[0] - psi) / a_s
        return [C.check_support_sign(psi, sp_plus, sp_minus),
                C.check_support_lipschitz(psi, h),
                C.check_wulff(z, dens),
                C.check_order(plus.astype(float), sp_plus.astype(float), 0.0),
                ] + solve_checks(psi, a_s, sol, dens, tol) + [
                C.check_facet_curvature(lam, top, -2 / r_top, 0.1)]

    return [
        Op("disks", lambda _k: [solve(p, eu, a_d, tol) for p in disks],
           disks_check),
        pair_op("pair", pairs, eu, dens, 5e-4, 1e-6),
        wulff_op("wulff-elliptic",
                 anisotropy.EllipticAnisotropy(np.diag([4.0, 1.0])),
                 C.elliptic([4.0, 1.0]), 32, 0.15, 1e-4, 1e-4),
        wulff_op("wulff-l4", anisotropy.PowerFourAnisotropy(2), C.L4,
                 32, 0.2, 1e-4, 1e-4),
        Op("support", support_run, support_check),
    ]


# ---------------------------------------------------------------------------
# evolve-1d

def flow_checks(states, h):
    return [C.check_mean(states[0], states[-1]),
            C.check_max_principle(states),
            C.check_lipschitz_decay(states, h)]


def evolve_1d(rng, workdir, seed):
    W = anisotropy.EuclideanAnisotropy(1)
    speed = evolution.tv_flow(1)

    # the template to t=5e-4: peak law and flow properties from its
    # snapshots
    t_cfg = template_config("evolve-tent-1d", {"evolve.t-end": 5e-4})
    t_s = config_value(t_cfg, "init.slope")

    def tent_artifacts(path):
        u0, _ = C.read_grid(path / "initial.grid")
        uT, t = C.read_grid(path / "final.grid")
        return [C.check_peak_law(u0, float(np.max(uT)), t_s, t)] + flow_checks(
            [u0, uT], 1.0 / u0.shape[0])

    # ordered random-smooth pair, N=64, m=8, t=0.01
    N = 64
    g = grid.Grid(1, N)
    lo, hi = ordered_pair((N,), rng, 0.1, 0.01, 0.08)
    W8 = anisotropy.MollifiedAnisotropy(W, 8.0)
    cfg = evolution.EvolutionConfig(t_end=0.01, record_every=200)

    def pair_run(_k):
        return [[s.values for s in evolution.evolve(
            grid.GridFunction(g, u), W8, speed, cfg).states] for u in (lo, hi)]

    def pair_check(out):
        s_lo, s_hi = out
        return (flow_checks(s_lo, 1.0 / N) + flow_checks(s_hi, 1.0 / N)
                + [C.check_ordered_states(s_lo, s_hi)])

    # m-refinement ladder on a shifted tent, N=128, m = 4 ... 32
    Nl = 128
    gl = grid.Grid(1, Nl)
    tent = 0.5 * (0.25 - np.abs(
        torus_offsets(Nl, 1, random_center(rng, Nl, 1))[..., 0]))
    ms = [4.0, 8.0, 16.0, 32.0]

    def ladder_run(_k):
        st = evolution.m_refinement_study(
            grid.GridFunction(gl, tent), W, speed, 5e-4, ms,
            anisotropy.MollifiedAnisotropy)
        return [u.values for u in st["finals"]]

    def ladder_check(out):
        reasons = [C.check_ladder(out)]
        for uT in out:
            reasons += flow_checks([tent, uT], 1.0 / Nl)
        return reasons

    return [
        cli_op("evolve-tent-1d", t_cfg, workdir, seed, tent_artifacts),
        Op("pair", pair_run, pair_check),
        Op("ladder", ladder_run, ladder_check),
    ]


# ---------------------------------------------------------------------------
# barrier-2d

def barrier_2d(rng, workdir, seed):
    W = anisotropy.EuclideanAnisotropy(2)
    n, delta, K = 2, 0.5, 2.0

    def F(p, xi):
        return -xi

    # 250 sample points as (x, y, (x + y)/2) triples, plus 1 spare
    T = 83
    xy = rng.normal(scale=1.0, size=(2, T, 2))
    xs = np.concatenate([xy[0], xy[1], 0.5 * (xy[0] + xy[1]),
                         rng.normal(scale=1.0, size=(1, 2))])
    trial_dirs = rng.normal(size=(200, 2))
    trial_dirs /= np.linalg.norm(trial_dirs, axis=-1, keepdims=True)
    trial_r = rng.uniform(0.0, 1.0, size=(200, 1))
    local = rng.normal(size=(4, 2))
    state = {}

    def choose_run(_k):
        state["params"] = conjugate.choose_parameters(delta, K, W, n_verify=200)
        return state["params"]

    def choose_check(out):
        _m0, A, q, _mu = out
        return [C.check_constants(A, q, delta, K)]

    def build_run(_k):
        m0, A, q, _mu = state["params"]
        state["fam"] = conjugate.build_barrier(m0, A, q, W, speed=F, n_check=100)
        return state["fam"]

    def build_check(fam):
        return [C.check_beta(fam.beta, fam.A, n),
                C.check_Lm(np.array([fam.provenance["Lm_max"]]), fam.A, n)]

    def conj_run(_k):
        fam = state["fam"]
        val, p, Hc = fam.conjugate(xs, with_derivatives=True)
        Lm = np.einsum("kij,kji->k", fam.W_m.hess(p), Hc)
        return fam, val, p, Lm, fam.beta + F(p, Lm)

    def conj_check(out):
        fam, val, p, Lm, resid = out
        q, A = fam.q, fam.A
        # random trial points in the cap ball
        trial = trial_dirs * (trial_r * q * (1 - 1e-6))
        reasons = [C.check_cap_ball(p, q), C.check_Lm(Lm, A, n),
                   C.check_lower_bound(xs, val, delta, K),
                   C.check_midpoint_convex(val[:T], val[T:2 * T],
                                           val[2 * T:3 * T]),
                   C.check_residual(resid),
                   C.check_fenchel(xs, val, trial, fam.capped(trial))]
        # small moves around p and a centered difference of capped at p,
        # both away from the mollifier core, where W_m is only Lipschitz
        core = 1.0 / fam.W_m.m + 2 * fam.W_m.fd_step
        smooth = np.sqrt(np.sum(p ** 2, axis=-1)) > core
        for u in local:
            moved = p[smooth] + 1e-3 * u
            reasons.append(C.check_local_max(xs[smooth], val[smooth], moved,
                                             fam.capped(moved)))
        sel = np.flatnonzero(smooth)[:50]
        eps = 1e-6
        fd = np.stack([(fam.capped(p[sel] + eps * e) - fam.capped(p[sel] - eps * e))
                       / (2 * eps) for e in np.eye(n)], axis=-1)
        reasons.append(C.check_gradient_fd(xs[sel], fd))
        return reasons

    t_cfg = template_config("barrier-euclidean-2d", {"barrier.samples": 100})

    def barrier_artifacts(path):
        man = C.read_manifest(path / "manifest.txt")
        A = C.note_value(man["constant-A"][1], "A")
        q = C.note_value(man["constant-q"][1], "q")
        beta = C.note_value(man["barrier-bounds"][1], "beta")
        with open(path / "series.csv") as f:
            head = f.readline().strip().split(",")
            row = dict(zip(head, (float(v) for v in f.readline().split(","))))
        return [C.check_constants(A, q, config_value(t_cfg, "barrier.delta"),
                                  config_value(t_cfg, "barrier.K")),
                C.check_beta(beta, A, n),
                C.check_residual(row["min_residual"])]

    return [
        Op("choose-parameters", choose_run, choose_check),
        Op("build-barrier", build_run, build_check),
        Op("conjugate", conj_run, conj_check),
        cli_op("barrier-euclidean-2d", t_cfg, workdir, seed, barrier_artifacts),
    ]


WORKLOADS = {
    "resolvent-1d": resolvent_1d,
    "resolvent-2d": resolvent_2d,
    "evolve-1d": evolve_1d,
    "barrier-2d": barrier_2d,
}


def warm_up():
    """First-call costs (lazy imports, ufunc set-up) paid before the clock."""
    for n in (1, 2):
        g = grid.Grid(n, 8)
        psi = grid.GridFunction(g, np.linspace(0, 1, 8 ** n).reshape(g.shape))
        resolvent.resolve_singular(psi, anisotropy.EuclideanAnisotropy(n),
                                   resolvent.ResolventConfig(a=1e-3, max_iter=50))
        anisotropy.MollifiedAnisotropy(anisotropy.EuclideanAnisotropy(n), 4.0
                                       ).grad(np.ones((4, n)))
