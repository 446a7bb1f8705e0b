"""Every benchmark check passes on a genuine output and fails on a corrupted one.

    python3 -m pytest bench/test_checks.py -q

Genuine outputs come from small, fast facetflow calls; each corruption
is the smallest change that the check exists to catch.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import checks as C  # noqa: E402
from facetflow import (EuclideanAnisotropy, Grid, GridFunction,  # noqa: E402
                       MollifiedAnisotropy, PairOfSets, ResolventConfig,
                       EvolutionConfig, build_barrier, choose_parameters,
                       evolve, resolve_singular, smooth_pair_between,
                       support_from_smooth_pair, tv_flow)
from facetflow.cli import run as cli_run  # noqa: E402
from workloads import ordered_pair, plateau, torus_offsets  # noqa: E402

N, S, A = 128, 0.5, 5e-3
H = 1.0 / N
TOL = 1e-6


def fails(reason):
    return reason is not None


def _solve(psi, a=A, n=1):
    g = Grid(n, psi.shape[0])
    psi_a, z, rep = resolve_singular(GridFunction(g, psi), EuclideanAnisotropy(n),
                                     ResolventConfig(a=a, max_iter=200000,
                                                     rel_gap_tol=TOL))
    return psi_a.values, z.values, rep


@pytest.fixture(scope="module")
def tent():
    psi = S * (0.25 - np.abs(torus_offsets(N, 1, (0.5,))[..., 0]))
    psi_a, z, rep = _solve(psi)
    return psi, psi_a, z, rep


@pytest.fixture(scope="module")
def plateaus():
    d = np.abs(torus_offsets(N, 1, (0.5,))[..., 0])
    inner, outer = plateau(d, 0.1, 0.06, 0.03), plateau(d, 0.15, 0.06, 0.03)
    lam = [(_solve(p, 2e-4)[0] - p) / 2e-4 for p in (inner, outer)]
    return lam, d <= 0.1 - 6 * H, d <= 0.15 - 6 * H


# -- resolvent ---------------------------------------------------------------

def test_resolvent_checks_pass_on_genuine_output(tent):
    psi, psi_a, z, rep = tent
    assert not any(C.resolvent_checks(psi, A, psi_a, z, rep.converged,
                                      C.EUCLIDEAN, H, TOL))
    assert not fails(C.check_tent(psi, psi_a, A, S, H))


def test_uncertified_solve_fails():
    assert fails(C.check_certified(False))


def test_perturbed_psi_a_fails_gap_and_reconstruction(tent):
    psi, psi_a, z, _ = tent
    bad = psi_a + 1e-3 * np.sin(2 * np.pi * np.arange(N) / N)
    assert fails(C.check_gap(psi, bad, z, A, C.EUCLIDEAN, H, TOL))
    assert fails(C.check_reconstruction(psi, bad, z, A, H))


def test_scaled_z_fails_wulff_and_reconstruction(tent):
    psi, psi_a, z, _ = tent
    assert fails(C.check_wulff(1.1 * z, C.EUCLIDEAN))
    assert fails(C.check_reconstruction(psi, psi_a, 1.1 * z, A, H))


def test_wulff_check_uses_each_gauge():
    z = np.array([[1.5, 0.0]])        # inside the diag(4,1) ellipse only
    assert not fails(C.check_wulff(z, C.elliptic([4.0, 1.0])))
    assert fails(C.check_wulff(z, C.EUCLIDEAN))
    assert fails(C.check_wulff(np.array([[0.8, 0.8]]), C.L4))


def test_shifted_mean_fails(tent):
    psi, psi_a, _, _ = tent
    assert fails(C.check_mean(psi, psi_a + 1e-9))


def test_shifted_tent_peak_fails(tent):
    psi, psi_a, _, _ = tent
    lower = np.minimum(psi_a, np.max(psi_a) - 0.02 * np.sqrt(2 * A * S))
    assert fails(C.check_tent(psi, lower, A, S, H))
    wide = np.minimum(psi_a, np.max(psi_a))
    wide[np.abs(psi_a - np.max(psi_a)) < 0.05] = np.max(psi_a)
    assert fails(C.check_tent(psi, wide, A, S, H))


def test_facet_curvature_fails_off_closed_form(plateaus):
    lam, f_in, _ = plateaus
    assert not fails(C.check_facet_curvature(lam[0], f_in, -2 / 0.2, 0.03))
    assert fails(C.check_facet_curvature(1.1 * lam[0], f_in, -2 / 0.2, 0.03))
    assert fails(C.check_facet_curvature(lam[0], np.zeros_like(f_in), -10, 0.03))


def test_swapped_nested_plateaus_fail(plateaus):
    lam, f_in, _ = plateaus
    assert not fails(C.check_nested(lam[0], lam[1], f_in))
    assert fails(C.check_nested(lam[1], lam[0], f_in))


def test_rescaled_wing_check_fails_on_other_curvature(plateaus):
    lam, _, f_out = plateaus
    assert not fails(C.check_same_curvature(lam[1], lam[1].copy(), f_out))
    assert fails(C.check_same_curvature(lam[1], 1.05 * lam[1], f_out))


def test_swapped_pair_fails():
    lo, hi = ordered_pair((64,), np.random.default_rng(3), 0.15, 0.02, 0.1)
    (lo_a, _, r1), (hi_a, _, r2) = _solve(lo, 5e-4), _solve(hi, 5e-4)
    budget = (r1.l2_error_bound + r2.l2_error_bound) * np.sqrt(64)
    assert not fails(C.check_order(lo_a, hi_a, budget))
    assert fails(C.check_order(hi_a, lo_a, budget))


# -- support function --------------------------------------------------------

@pytest.fixture(scope="module")
def support():
    g = Grid(2, 48)
    off = torus_offsets(48, 2, (0.5, 0.5))
    plus = np.sum(off ** 2, axis=-1) <= 0.2 ** 2
    sp = smooth_pair_between(PairOfSets(g, np.zeros(g.shape, bool), plus),
                             2 * g.h, 14 * g.h)
    cert = support_from_smooth_pair(sp, EuclideanAnisotropy(2))
    return sp, cert.psi.values, cert.z.values, g.h


def test_support_checks(support):
    sp, psi, z, h = support
    assert not fails(C.check_support_sign(psi, sp.plus, sp.minus))
    assert not fails(C.check_support_lipschitz(psi, h))
    assert not fails(C.check_wulff(z, C.EUCLIDEAN))
    flipped = psi.copy()
    flipped[sp.plus] = np.where(flipped[sp.plus] == np.max(psi), -1e-3,
                                flipped[sp.plus])
    assert fails(C.check_support_sign(flipped, sp.plus, sp.minus))
    assert fails(C.check_support_sign(psi, sp.plus, ~sp.plus))
    assert fails(C.check_support_lipschitz(1.5 * psi, h))
    assert fails(C.check_wulff(1.1 * z, C.EUCLIDEAN))


# -- explicit flow -----------------------------------------------------------

@pytest.fixture(scope="module")
def flow():
    g = Grid(1, 64)
    lo, hi = ordered_pair((64,), np.random.default_rng(4), 0.1, 0.01, 0.08)
    W8 = MollifiedAnisotropy(EuclideanAnisotropy(1), 8.0)
    cfg = EvolutionConfig(t_end=0.01, record_every=200)
    return [[s.values for s in evolve(GridFunction(g, u), W8, tv_flow(1),
                                      cfg).states] for u in (lo, hi)]


def test_flow_checks(flow):
    s_lo, s_hi = flow
    h = 1.0 / 64
    assert not fails(C.check_mean(s_lo[0], s_lo[-1]))
    assert not fails(C.check_max_principle(s_lo))
    assert not fails(C.check_lipschitz_decay(s_lo, h))
    assert not fails(C.check_ordered_states(s_lo, s_hi))
    assert fails(C.check_mean(s_lo[0], s_lo[-1] + 1e-9))
    raised = [s.copy() for s in s_lo]
    raised[-1][np.argmax(raised[-1])] = np.max(s_lo[0]) + 1e-6
    assert fails(C.check_max_principle(raised))
    lowered = [s.copy() for s in s_lo]
    lowered[-1][np.argmin(lowered[-1])] = np.min(s_lo[0]) - 1e-6
    assert fails(C.check_max_principle(lowered))
    assert fails(C.check_lipschitz_decay(s_lo[:-1] + [1.01 * s_lo[0]], h))
    assert fails(C.check_ordered_states(s_hi, s_lo))


def test_shifted_peak_fails_peak_law():
    g = Grid(1, 128)
    u0 = S * (0.25 - np.abs(torus_offsets(128, 1, (0.5,))[..., 0]))
    tr = evolve(GridFunction(g, u0), MollifiedAnisotropy(EuclideanAnisotropy(1), 16.0),
                tv_flow(1), EvolutionConfig(t_end=0.002))
    peak, t = float(np.max(tr.final().values)), tr.times[-1]
    assert not fails(C.check_peak_law(u0, peak, S, t))
    drop = np.max(u0) - peak
    assert fails(C.check_peak_law(u0, peak + 0.1 * drop, S, t))


def test_ladder_fails_when_gaps_grow():
    base = np.zeros(8)
    finals = [base + d for d in (0.0, 0.4, 0.6, 0.7)]   # gaps 0.4, 0.2, 0.1
    assert not fails(C.check_ladder(finals))
    assert fails(C.check_ladder([base + d for d in (0.0, 0.1, 0.4, 0.6)]))


# -- barrier -----------------------------------------------------------------

@pytest.fixture(scope="module")
def barrier():
    W = EuclideanAnisotropy(1)
    m0, A_, q, _mu = choose_parameters(0.5, 2.0, W, n_verify=100)
    fam = build_barrier(m0, A_, q, W, speed=lambda p, xi: -xi, n_check=50)
    rng = np.random.default_rng(5)
    x = rng.normal(size=(60, 1))
    xs = np.concatenate([x[:20], x[20:40], 0.5 * (x[:20] + x[20:40])])
    val, p, Hc = fam.conjugate(xs, with_derivatives=True)
    Lm = np.einsum("kij,kji->k", fam.W_m.hess(p), Hc)
    return fam, xs, val, p, Lm


def test_barrier_checks(barrier):
    fam, xs, val, p, Lm = barrier
    n, A_, q = 1, fam.A, fam.q
    assert not fails(C.check_constants(A_, q, 0.5, 2.0))
    assert fails(C.check_constants(A_ * (1 + 1e-6), q, 0.5, 2.0))
    assert fails(C.check_constants(A_, q + 1e-6, 0.5, 2.0))
    assert not fails(C.check_beta(fam.beta, A_, n))
    assert fails(C.check_beta(n / A_ + 0.5, A_, n))
    assert not fails(C.check_cap_ball(p, q))
    assert fails(C.check_cap_ball(p / np.max(np.abs(p)) * q, q))
    assert not fails(C.check_Lm(Lm, A_, n))
    assert fails(C.check_Lm(-Lm, A_, n))
    assert fails(C.check_Lm(Lm + n / A_, A_, n))
    assert not fails(C.check_lower_bound(xs, val, 0.5, 2.0))
    assert fails(C.check_lower_bound(xs, np.minimum(val, 2 * 2.0 - 0.1), 0.5, 2.0))
    assert not fails(C.check_midpoint_convex(val[:20], val[20:40], val[40:]))
    assert fails(C.check_midpoint_convex(val[:20], val[20:40], val[40:] + 1.0))
    assert not fails(C.check_residual(fam.beta - Lm))
    assert fails(C.check_residual(np.max(Lm) + 0.5 - Lm))     # a wrong beta


def test_fenchel_and_gradient_checks(barrier):
    fam, xs, val, p, _ = barrier
    trial = np.linspace(-1, 1, 41)[:, None] * fam.q * (1 - 1e-6)
    assert not fails(C.check_fenchel(xs, val, trial, fam.capped(trial)))
    near = p[:5] + 1e-3
    assert fails(C.check_fenchel(xs[:5], val[:5] - 1e-2, near, fam.capped(near)))
    assert not fails(C.check_local_max(xs[:5], val[:5], near, fam.capped(near)))
    assert fails(C.check_local_max(xs[:5], val[:5] - 1e-6, near,
                                   fam.capped(near)))
    eps = 1e-6
    fd = (fam.capped(p + eps) - fam.capped(p - eps))[:, None] / (2 * eps)
    far = np.abs(p[:, 0]) > 1.0 / fam.m + 2 * fam.W_m.fd_step
    assert not fails(C.check_gradient_fd(xs[far], fd[far]))
    assert fails(C.check_gradient_fd(xs[far] + 1e-2, fd[far]))


# -- CLI artifacts -----------------------------------------------------------

def test_cli_readback(tmp_path):
    cfg = tmp_path / "tent.cfg"
    cfg.write_text("scenario = resolvent\ngrid.n = 1\ngrid.N = 128\n"
                   "init.kind = tent\ninit.slope = 0.5\nresolvent.a = 0.005\n"
                   "resolvent.rel-gap-tol = 1e-6\n")
    assert cli_run(cfg, out_dir=tmp_path / "out", quiet=True) == 0
    psi, _ = C.read_grid(tmp_path / "out" / "input.grid")
    psi_a, t = C.read_grid(tmp_path / "out" / "resolvent.grid")
    assert t == 0.005 and psi.shape == (128,)
    assert not fails(C.check_tent(psi, psi_a, 0.005, 0.5, 1.0 / 128))
    assert fails(C.check_exit(3))
    man = tmp_path / "manifest.txt"
    man.write_text("check constant-A: pass margin=1e-15 (A=0.25)\n"
                   "check barrier-bounds: pass margin=1 (beta=8.5 Lm_max=8)\n")
    parsed = C.read_manifest(man)
    A_ = C.note_value(parsed["constant-A"][1], "A")
    beta = C.note_value(parsed["barrier-bounds"][1], "beta")
    assert parsed["constant-A"][0] and A_ == 0.25 and beta == 8.5
    assert fails(C.check_constants(A_, 32.0, 0.5, 2.0))
    assert fails(C.check_beta(beta, A_, 2))
