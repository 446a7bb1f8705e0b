"""End-to-end acceptance battery.

Each test prints a single `[acceptance NN] <name>: PASS/FAIL` line and
enforces the stated tolerance and, where given, the runtime budget.
"""

import filecmp
import time

import numpy as np
import pytest
from scipy import ndimage

from facetflow.anisotropy import EuclideanAnisotropy, MollifiedAnisotropy
from facetflow.cli import main as cli_main
from facetflow.conjugate import (SampledConvexFunction, build_barrier,
                                 choose_parameters, legendre_transform)
from facetflow.evolution import (EvolutionConfig, comparison_harness, evolve,
                                 m_refinement_study, sample_state, tv_flow)
from facetflow.facets import rho_neighborhood
from facetflow.grid import Grid, GridFunction, lipschitz_constant
from facetflow.resolvent import (ResolventConfig, curvature_dq,
                                 monotonicity_check, resolve_singular,
                                 resolvent_bruteforce)

# the battery takes about ten minutes; `pytest -m "not slow"` leaves it out
pytestmark = pytest.mark.slow


def _report(num, name, ok):
    print(f"[acceptance {num:02d}] {name}: {'PASS' if ok else 'FAIL'}")
    return ok


def _smooth_noise(g, rng, amp=0.15):
    v = ndimage.gaussian_filter(rng.standard_normal(g.shape),
                                max(2.0, g.N / 24), mode="wrap")
    return amp * v / np.max(np.abs(v))


def _tent(g, slope=0.5):
    x = g.coords()[..., 0]
    d = np.minimum(np.abs(x - 0.5), 1 - np.abs(x - 0.5))
    return GridFunction(g, slope * (0.25 - d))


def _plateau_1d(g, L, delta, offset=0.0):
    x = g.coords()[..., 0]
    d = np.minimum(np.abs(x - 0.5), 1 - np.abs(x - 0.5))
    return GridFunction(g, np.clip(L / 2 + delta - d, 0, delta) - offset)


def _plateau_disk(g, R, delta):
    c = g.coords()
    d = np.sqrt(sum(np.minimum(np.abs(c[..., i] - 0.5),
                               1 - np.abs(c[..., i] - 0.5)) ** 2
                    for i in range(2)))
    return GridFunction(g, np.clip(R + delta - d, 0, delta))


# -- shared barrier family (criteria 7 and 8) -------------------------------

_BARRIER = {}


def _barrier_setup():
    if not _BARRIER:
        W = EuclideanAnisotropy(2)
        delta, K = 0.5, 2.0
        m0, A, q, mu = choose_parameters(delta, K, W)
        fam = build_barrier(m0, A, q, W, speed=lambda p, xi: -xi,
                            n_check=400)
        _BARRIER.update(W=W, delta=delta, K=K, m0=m0, A=A, q=q, mu=mu,
                        fam=fam)
    return _BARRIER


def test_01_morphology_algebra():
    """Six neighborhood-operator properties, exactly, on random masks."""
    g = Grid(2, 128)
    rng = np.random.default_rng(100)
    rhos = [g.h, 4 * g.h, 16 * g.h, -g.h, -4 * g.h, -16 * g.h]
    t0 = time.perf_counter()
    ok = True
    for _ in range(100):
        noise = ndimage.gaussian_filter(rng.standard_normal(g.shape),
                                        rng.uniform(2, 6), mode="wrap")
        A = noise > np.quantile(noise, rng.uniform(0.3, 0.7))
        B = ndimage.gaussian_filter(rng.standard_normal(g.shape), 3,
                                    mode="wrap") > 0
        U = {r: rho_neighborhood(g, A, r) for r in rhos}
        UB = {r: rho_neighborhood(g, B, r) for r in rhos}
        for r in rhos:
            # 1. nesting
            if r > 0:
                ok &= bool(np.all(~A | U[r]))
            else:
                ok &= bool(np.all(~U[r] | A))
            # 3. monotonicity
            ok &= bool(np.all(~rho_neighborhood(g, A & B, r) | U[r]))
            # 4. intersection inclusion, equality for rho < 0
            inter = rho_neighborhood(g, A & B, r)
            ok &= bool(np.all(~inter | (U[r] & UB[r])))
            if r < 0:
                ok &= bool(np.array_equal(inter, U[r] & UB[r]))
        for r in (g.h, 4 * g.h, 16 * g.h):
            # 2. complement duality (both signs via the pair r, -r)
            ok &= bool(np.array_equal(rho_neighborhood(g, ~A, r),
                                      ~U[-r]))
            # 6. adjunction: dilation and erosion are adjoint
            C = U[r]
            ok &= bool(np.all(~A | rho_neighborhood(g, C, -r)))
            D = UB[-r]
            ok &= bool(np.all(~rho_neighborhood(g, D, r) | B))
        # 5. composition: exact semigroup for same-sign radii
        ok &= bool(np.array_equal(rho_neighborhood(g, U[4 * g.h], g.h),
                                  rho_neighborhood(g, A, 5 * g.h)))
        ok &= bool(np.array_equal(rho_neighborhood(g, U[-4 * g.h], -g.h),
                                  rho_neighborhood(g, A, -5 * g.h)))
        ok &= bool(np.all(~rho_neighborhood(g, U[-4 * g.h], g.h)
                          | rho_neighborhood(g, A, -3 * g.h)))
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 30.0
    assert _report(1, "morphology algebra", ok), f"elapsed={elapsed:.1f}s"


def test_02_resolvent_comparison():
    """Ordered data keeps ordered resolvents after gap certification."""
    rng = np.random.default_rng(200)
    t0 = time.perf_counter()
    worst = 0.0
    for n, N, pairs in ((1, 256, 25), (2, 64, 25)):
        g = Grid(n, N)
        W = EuclideanAnisotropy(n)
        for _ in range(pairs):
            lo = _smooth_noise(g, rng)
            bump = np.abs(_smooth_noise(g, rng, amp=0.1))
            rep = monotonicity_check(GridFunction(g, lo),
                                     GridFunction(g, lo + 0.02 + bump),
                                     W, 5e-4, max_iter=100000,
                                     rel_gap_tol=1e-8)
            worst = max(worst, rep["violation"])
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 120.0
    assert _report(2, "resolvent comparison", ok), \
        f"worst={worst:.2e} elapsed={elapsed:.1f}s"


def test_03_resolvent_closed_form():
    """Tent resolvent: facet half-length sqrt(2a/s), drop sqrt(2as)."""
    t0 = time.perf_counter()
    s, a = 0.5, 0.005
    g = Grid(1, 512)
    psi = _tent(g, s)
    W = EuclideanAnisotropy(1)
    psi_a, _z, rep = resolve_singular(psi, W, ResolventConfig(
        a=a, max_iter=100000, rel_gap_tol=1e-10))
    drop = np.max(psi.values) - np.max(psi_a.values)
    flat = np.abs(psi_a.values - np.max(psi_a.values)) <= 0.5 * g.h * s
    half_len = 0.5 * np.sum(flat) * g.h
    tgt_len, tgt_drop = np.sqrt(2 * a / s), np.sqrt(2 * a * s)
    ok = rep.converged
    ok &= abs(half_len - tgt_len) <= max(3 * g.h, 0.05 * tgt_len)
    ok &= abs(drop - tgt_drop) <= 0.05 * tgt_drop
    # brute-force cross-check on the coarse grid
    g2 = Grid(1, 128)
    psi2 = _tent(g2, s)
    fast, _, _ = resolve_singular(psi2, W, ResolventConfig(
        a=a, max_iter=100000, rel_gap_tol=1e-12))
    slow = resolvent_bruteforce(psi2, W, a, iterations=200000)
    ok &= np.max(np.abs(fast.values - slow.values)) < 1e-6
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 60.0
    assert _report(3, "resolvent closed form", ok), \
        f"len={half_len:.4f} drop={drop:.4f} elapsed={elapsed:.1f}s"


def test_04_curvature_values():
    """Difference-quotient curvature on smooth, 1D facet, and disk data."""
    t0 = time.perf_counter()
    # (i) smooth graph vs the analytic divergence of the Cahn-Hoffman field
    g = Grid(2, 128)
    c = g.coords()
    x, y = c[..., 0], c[..., 1]
    al, be = 0.1, 0.07
    psi = GridFunction(g, al * np.sin(2 * np.pi * x)
                       + be * np.cos(2 * np.pi * y))
    px = 2 * np.pi * al * np.cos(2 * np.pi * x)
    py = -2 * np.pi * be * np.sin(2 * np.pi * y)
    pxx = -(2 * np.pi) ** 2 * al * np.sin(2 * np.pi * x)
    pyy = -(2 * np.pi) ** 2 * be * np.cos(2 * np.pi * y)
    grad = np.hypot(px, py)
    kappa = (pxx * py**2 + pyy * px**2) / np.maximum(grad, 1e-12) ** 3
    mask = grad >= 0.4 * grad.max()
    W2 = EuclideanAnisotropy(2)
    lam, _ = curvature_dq(psi, W2, 2e-5, max_iter=100000, rel_gap_tol=1e-8)
    err = np.sqrt(np.sum((lam.values - kappa)[mask] ** 2)
                  / np.sum(kappa[mask] ** 2))
    ok = err <= 0.05
    # (ii) 1D local-max facet of length L moves at -2/L
    g1 = Grid(1, 512)
    L = 0.25
    psi1 = _plateau_1d(g1, L, 0.06)
    lam1, _ = curvature_dq(psi1, EuclideanAnisotropy(1), 2e-4,
                           max_iter=100000, rel_gap_tol=1e-8)
    d = np.minimum(np.abs(g1.coords()[..., 0] - 0.5),
                   1 - np.abs(g1.coords()[..., 0] - 0.5))
    on1 = d <= L / 2 - 6 * g1.h
    mean1 = float(np.mean(lam1.values[on1]))
    ok &= abs(mean1 - (-2 / L)) <= 0.05 * (2 / L)
    # (iii) 2D disk facet of radius R moves at -2/R
    g2 = Grid(2, 256)
    R = 0.2
    psi2 = _plateau_disk(g2, R, 0.05)
    lam2, _ = curvature_dq(psi2, W2, 2e-4, max_iter=100000, rel_gap_tol=1e-5)
    c2 = g2.coords()
    d2 = np.sqrt(sum(np.minimum(np.abs(c2[..., i] - 0.5),
                                1 - np.abs(c2[..., i] - 0.5)) ** 2
                     for i in range(2)))
    on2 = d2 <= R - 4 * g2.h
    mean2 = float(np.mean(lam2.values[on2]))
    ok &= abs(mean2 - (-2 / R)) <= 0.10 * (2 / R)
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 300.0
    assert _report(4, "curvature values", ok), \
        f"smooth={err:.3f} facet={mean1:.3f} disk={mean2:.3f} " \
        f"elapsed={elapsed:.1f}s"


def test_05_rescaling_invariance():
    """Curvature on the facet ignores positive rescaling of each wing."""
    g = Grid(1, 512)
    L, delta = 0.25, 0.06
    base = _plateau_1d(g, L, delta, offset=0.03)
    resc = GridFunction(g, 2 * np.clip(base.values, 0, None)
                        + 0.5 * np.clip(base.values, None, 0))
    W = EuclideanAnisotropy(1)
    kw = dict(max_iter=100000, rel_gap_tol=1e-8)
    l1, _ = curvature_dq(base, W, 2e-4, **kw)
    l2, _ = curvature_dq(resc, W, 2e-4, **kw)
    d = np.minimum(np.abs(g.coords()[..., 0] - 0.5),
                   1 - np.abs(g.coords()[..., 0] - 0.5))
    facet = d <= L / 2 - 6 * g.h
    diff = np.max(np.abs(l1.values[facet] - l2.values[facet]))
    scale = np.max(np.abs(l1.values[facet]))
    ok = diff <= 0.02 * scale
    assert _report(5, "rescaling invariance", ok), f"rel diff={diff/scale:.4f}"


def test_06_curvature_monotonicity():
    """Nested facets produce ordered curvature on the common facet."""
    kw = dict(max_iter=100000, rel_gap_tol=1e-8)
    delta, a = 0.06, 2e-4
    # 1D nested plateaus
    g = Grid(1, 512)
    lo = _plateau_1d(g, 0.2, delta)
    hi = _plateau_1d(g, 0.3, delta)
    W1 = EuclideanAnisotropy(1)
    ll, _ = curvature_dq(lo, W1, a, **kw)
    lh, _ = curvature_dq(hi, W1, a, **kw)
    d = np.minimum(np.abs(g.coords()[..., 0] - 0.5),
                   1 - np.abs(g.coords()[..., 0] - 0.5))
    inter = d <= 0.1 - 6 * g.h
    scale1 = np.max(np.abs(ll.values[inter]))
    worst1 = float(np.max(ll.values[inter] - lh.values[inter]))
    # 2D nested disks
    g2 = Grid(2, 128)
    lo2 = _plateau_disk(g2, 0.15, delta)
    hi2 = _plateau_disk(g2, 0.2, delta)
    W2 = EuclideanAnisotropy(2)
    cl, _ = curvature_dq(lo2, W2, a, **kw)
    ch, _ = curvature_dq(hi2, W2, a, **kw)
    c2 = g2.coords()
    d2 = np.sqrt(sum(np.minimum(np.abs(c2[..., i] - 0.5),
                                1 - np.abs(c2[..., i] - 0.5)) ** 2
                     for i in range(2)))
    inter2 = d2 <= 0.15 - 6 * g2.h
    scale2 = np.max(np.abs(cl.values[inter2]))
    worst2 = float(np.max(cl.values[inter2] - ch.values[inter2]))
    ok = worst1 <= 0.02 * scale1 and worst2 <= 0.02 * scale2
    assert _report(6, "curvature monotonicity", ok), \
        f"worst1={worst1:.3e} worst2={worst2:.3e}"


def test_07_conjugate_lemmas():
    """Biconjugation, Hessian-inverse identity, and conjugate bounds."""
    # biconjugation f** = f within two sample cells of value resolution
    f = SampledConvexFunction(np.array([-3.0]), np.array([3.0]),
                              np.cosh(np.linspace(-3, 3, 513)) - 1.0)
    gstar = legendre_transform(f, np.array([-8.0]), np.array([8.0]), (513,))
    back = legendre_transform(gstar, np.array([-2.5]), np.array([2.5]), (401,))
    xx = np.linspace(-2.5, 2.5, 401)
    core = np.abs(xx) <= 2.0
    spacing = 6.0 / 512
    bound = 2 * spacing * np.sinh(2.0)
    bic_err = float(np.max(np.abs(back.values[core] - (np.cosh(xx[core]) - 1))))
    ok = bic_err <= bound
    # Hessian-inverse identity at 100 samples outside the mollifier core,
    # where the capped density is twice differentiable
    bar = _barrier_setup()
    fam = bar["fam"]
    rng = np.random.default_rng(700)
    xs = rng.normal(scale=max(1.0, bar["q"] * bar["A"]), size=(600, 2))
    _v, p, Hc = fam.conjugate(xs, with_derivatives=True)
    keep = np.flatnonzero(np.linalg.norm(p, axis=-1)
                          > 1.0 / fam.m + 2 * fam.W_m.fd_step)[:100]
    assert keep.size == 100
    xh = xs[keep]
    eps = 1e-5 * max(1.0, float(np.max(np.abs(xh))))
    hess_err = 0.0
    for i in range(2):
        e = np.zeros(2)
        e[i] = eps
        _, pp, _ = fam.conjugate(xh + e, with_derivatives=True)
        _, pm, _ = fam.conjugate(xh - e, with_derivatives=True)
        col = (pp - pm) / (2 * eps)
        hess_err = max(hess_err, float(np.max(
            np.abs(col - Hc[keep, :, i]) / (1.0 + np.abs(col)))))
    ok &= hess_err <= 1e-3
    # conjugate-estimate bounds at 10^4 samples, zero violations
    xs4 = rng.normal(scale=max(1.0, bar["q"] * bar["A"]), size=(10000, 2))
    _v4, p4, Hc4 = fam.conjugate(xs4, with_derivatives=True)
    Lm = np.einsum("kij,kji->k", fam.W_m.hess(p4), Hc4)
    viol = int(np.sum((Lm <= 0) | (Lm > 2.0 / fam.A + 1e-7)))
    viol += int(np.sum(np.linalg.norm(p4, axis=-1) >= fam.q))
    ok &= viol == 0
    assert _report(7, "conjugate lemmas", ok), \
        f"biconj={bic_err:.2e} hess={hess_err:.2e} violations={viol}"


def test_08_barrier_program():
    """Proof constants, conjugate lower bound, supersolution residual."""
    bar = _barrier_setup()
    fam, delta, K, mu = bar["fam"], bar["delta"], bar["K"], bar["mu"]
    ok = abs(bar["A"] - delta / (8 * mu)) <= 1e-14
    ok &= abs(bar["q"] - 8 * K / delta) <= 1e-14
    # conjugate dominates 2K outside the delta-ball, for m0 and beyond
    rng = np.random.default_rng(800)
    d = rng.standard_normal((1000, 2))
    d /= np.linalg.norm(d, axis=-1, keepdims=True)
    xs = d * rng.uniform(delta, 4.0, size=(1000, 1))
    for m in (bar["m0"], 2 * bar["m0"]):
        famm = build_barrier(m, bar["A"], bar["q"], bar["W"], n_check=100)
        ok &= bool(np.all(famm.conjugate(xs) >= 2 * K - 1e-9))
    # the translated-and-lifted barrier is a discrete supersolution
    _v, p, Hc = fam.conjugate(rng.normal(scale=1.0, size=(500, 2)),
                              with_derivatives=True)
    Lm = np.einsum("kij,kji->k", fam.W_m.hess(p), Hc)
    resid = fam.beta + (-Lm)     # residual of phi_t + F with F = -xi
    min_resid = float(np.min(resid))
    ok &= min_resid >= -1e-6
    assert _report(8, "barrier program", ok), f"min residual={min_resid:.2e}"


def test_09_evolution_facet_law():
    """Tent under u_t = L_m u: peak h0 - sqrt(2st), Lipschitz bounded."""
    t0 = time.perf_counter()
    g = Grid(1, 512)
    s = 0.5
    u0 = _tent(g, s)
    W_m = MollifiedAnisotropy(EuclideanAnisotropy(1), 32.0)
    tr = evolve(u0, W_m, tv_flow(1),
                EvolutionConfig(t_end=0.004, cfl=0.4, record_every=2000))
    h0 = float(np.max(u0.values))
    ok = True
    for t_probe in (0.002, 0.004):
        state = sample_state(tr, t_probe)
        target = h0 - np.sqrt(2 * s * t_probe)
        peak = float(np.max(state.values))
        ok &= abs(peak - target) <= 0.05 * (h0 - target)
    lip0 = lipschitz_constant(u0)
    lips = max(tr.lipschitz)
    ok &= lips <= lip0 * 1.001 + g.h
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 180.0
    assert _report(9, "evolution facet law", ok), \
        f"lip={lips:.4f} elapsed={elapsed:.1f}s"


def test_10_evolution_comparison():
    """Ordered smooth data stays ordered along the evolution."""
    g = Grid(1, 64)
    rng = np.random.default_rng(1000)
    W_m = MollifiedAnisotropy(EuclideanAnisotropy(1), 8.0)
    cfgev = EvolutionConfig(t_end=0.05, record_every=200)
    worst = 0.0
    for _ in range(20):
        lo = _smooth_noise(g, rng, amp=0.1)
        bump = np.abs(_smooth_noise(g, rng, amp=0.08))
        rep = comparison_harness(GridFunction(g, lo),
                                 GridFunction(g, lo + 0.01 + bump),
                                 W_m, tv_flow(1), cfgev)
        worst = max(worst, rep["max_crossing"])
    ok = worst <= 10 * g.h
    assert _report(10, "evolution comparison", ok), f"worst={worst:.3e}"


def test_11_m_stability():
    """sup|u_m - u_2m| strictly decreasing for tent and sine data."""
    g = Grid(1, 128)
    x = g.coords()[..., 0]
    W = EuclideanAnisotropy(1)
    ok = True
    gaps_all = {}
    for name, u0 in (("tent", _tent(g, 0.5)),
                     ("sin", GridFunction(g, 0.1 * np.sin(2 * np.pi * x)))):
        st = m_refinement_study(u0, W, tv_flow(1), 0.002,
                                [4.0, 8.0, 16.0, 32.0],
                                lambda W, m: MollifiedAnisotropy(W, m))
        gaps = st["gaps"]
        gaps_all[name] = gaps
        ok &= all(b < a for a, b in zip(gaps, gaps[1:]))
    assert _report(11, "m-stability proxy", ok), str(gaps_all)


def test_12_determinism(tmp_path, monkeypatch):
    """Identical config and seed reproduce every artifact bit-for-bit."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("scenario = evolve\ngrid.n = 1\ngrid.N = 64\n"
                   "init.kind = random-smooth\nevolve.t-end = 0.001\n"
                   "evolve.m = 8\nevolve.record-every = 500\n"
                   "out.dir = artifacts\nseed = 5\n")
    d1 = tmp_path / "first"
    d2 = tmp_path / "second"
    d1.mkdir()
    d2.mkdir()
    monkeypatch.chdir(d1)
    assert cli_main(["run", str(cfg), "--quiet"]) == 0
    monkeypatch.chdir(d2)
    assert cli_main(["run", str(cfg), "--quiet"]) == 0
    names = sorted(p.name for p in (d1 / "artifacts").iterdir())
    ok = names == sorted(p.name for p in (d2 / "artifacts").iterdir())
    for name in names:
        if name == "timing.txt":    # wall clock lives outside the artifacts
            continue
        ok &= filecmp.cmp(d1 / "artifacts" / name, d2 / "artifacts" / name,
                          shallow=False)
    assert _report(12, "determinism", ok)
