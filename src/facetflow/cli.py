"""Command-line runner: scenario configs, checks, and reproducible artifacts.

Usage:
    facetflow run <config> [--out DIR] [--seed N] [--quiet]
    facetflow list

Configs are flat key = value text with dotted section keys; `facetflow
list` prints the built-in templates, each of which parses back through
the same reader.  Every run writes a manifest (structured text, one
check per line), a comma-separated monitor table with a leading time
column, and grid snapshots in the FACETFLOW-GRID v1 text format.  All
floating-point output uses 17 significant digits so artifacts round-trip
exactly; reruns with identical config and seed are bit-for-bit
identical.  Wall-clock timing goes to a separate timing file so the
deterministic artifacts stay deterministic.

Exit codes: 0 all checks pass; 2 config/schema error; 3 numerical
failure (solver or stability, manifest still written); 4 check failure.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np
from scipy import ndimage

from . import __version__
from .anisotropy import MollifiedAnisotropy, make_anisotropy
from .conjugate import (BarrierConstructionError, ParameterError,
                        build_barrier, choose_parameters)
from .evolution import (EvolutionConfig, SpeedLaw, StabilityError,
                        comparison_harness, evolve, faceted_test_residual,
                        lipschitz_monitor, step_count)
from .facets import PairOfSets, smooth_pair_between, support_from_smooth_pair
from .grid import Grid, GridFunction
from .resolvent import (ResolventConfig, curvature_dq, monotonicity_check,
                        resolve_singular)


class SchemaError(ValueError):
    """Config file is missing, malformed, or out of documented range."""


_MAX_STEPS = 10**7     # explicit steps a run may plan; templates plan < 2e4


def fmt(x) -> str:
    """17 significant digits: exact round-trip for doubles."""
    return f"{float(x):.17g}"


# ---------------------------------------------------------------------------
# config parsing

SCENARIO_KINDS = ("anisotropy-check", "resolvent", "curvature", "monotonicity",
                  "evolve", "compare", "barrier", "viscosity-test")

# documented schema, one row per key: its type, the scenario kinds that
# accept it (None for all), its default (None: left out of the parsed
# config unless set) and its allowed values (None for any, a tuple or
# range of admissible values, _POSITIVE, _NONNEGATIVE or _AT_LEAST_ONE).
# Float values must be finite.
_POSITIVE = "positive"
_NONNEGATIVE = "nonnegative"
_AT_LEAST_ONE = "at least 1"
_RESOLVE = ("resolvent", "curvature", "monotonicity", "viscosity-test")
_FLOW = ("evolve", "compare")
_SPEED = ("evolve", "compare", "barrier", "viscosity-test")
_SCHEMA = {
    "scenario": (str, None, None, None),
    "seed": (int, None, 1234, _NONNEGATIVE),
    "out.dir": (str, None, "facetflow-out", None),
    "grid.n": (int, None, 1, (1, 2)),
    "grid.N": (int, None, 128, range(8, 4097)),
    "anisotropy.model": (str, None, "euclidean",
                         ("euclidean", "elliptic", "l4")),
    "anisotropy.diag": (str, None, None, None),
    "init.kind": (str, None, "tent",
                  ("tent", "sin", "disk", "constant", "random-smooth")),
    "init.slope": (float, None, 0.5, _POSITIVE),
    "init.amplitude": (float, None, 0.1, None),
    "init.radius": (float, None, 0.2, _POSITIVE),
    "init.level": (float, None, 0.0, None),
    "check.samples": (int, ("anisotropy-check",), 200, _POSITIVE),
    "resolvent.a": (float, ("resolvent", "monotonicity", "viscosity-test"),
                    0.005, _POSITIVE),
    "resolvent.max-iter": (int, _RESOLVE, 100000, _POSITIVE),
    "resolvent.rel-gap-tol": (float, _RESOLVE, 1e-10, _POSITIVE),
    "curvature.a": (float, ("curvature",), 0.001, _POSITIVE),
    "mono.pairs": (int, ("monotonicity",), 5, _POSITIVE),
    "evolve.m": (float, _FLOW, 16.0, _AT_LEAST_ONE),
    "evolve.t-end": (float, _FLOW, 0.001, _POSITIVE),
    "evolve.cfl": (float, _FLOW, 0.4, _POSITIVE),
    "evolve.scale": (float, _SPEED, 1.0, _POSITIVE),
    "evolve.forcing": (float, _FLOW, 0.0, None),
    "evolve.record-every": (int, _FLOW, 0, _NONNEGATIVE),
    "check.peak-law": (int, ("evolve",), 0, (0, 1)),
    "compare.pairs": (int, ("compare",), 3, _POSITIVE),
    "barrier.delta": (float, ("barrier",), 0.5, _POSITIVE),
    "barrier.K": (float, ("barrier",), 2.0, _POSITIVE),
    "barrier.samples": (int, ("barrier",), 400, _POSITIVE),
    "viscosity.radius": (float, ("viscosity-test",), 0.2, _POSITIVE),
}


def parse_config(text: str) -> dict:
    """Parse flat key = value config text into a typed dict."""
    cfg = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise SchemaError(f"line {lineno}: expected 'key = value'")
        key, val = (part.strip() for part in line.split("=", 1))
        if key not in _SCHEMA:
            raise SchemaError(f"line {lineno}: unknown key '{key}'")
        typ = _SCHEMA[key][0]
        try:
            cfg[key] = typ(val)
        except ValueError as e:
            raise SchemaError(f"line {lineno}: bad value for '{key}': {e}")
        if typ is float and not np.isfinite(cfg[key]):
            raise SchemaError(f"line {lineno}: '{key}' must be finite")
    if "scenario" not in cfg:
        raise SchemaError("missing required key 'scenario'")
    kind = cfg["scenario"]
    if kind not in SCENARIO_KINDS:
        raise SchemaError(f"unknown scenario '{kind}'")
    for key in cfg:
        kinds = _SCHEMA[key][1]
        if kinds is not None and kind not in kinds:
            raise SchemaError(f"key '{key}' not valid for scenario '{kind}'")
    full = {key: default for key, (_t, _k, default, _a) in _SCHEMA.items()
            if default is not None}
    full.update(cfg)
    for key, value in full.items():
        _check_value(key, value)
    if "anisotropy.diag" in full:
        if full["anisotropy.model"] != "elliptic":
            raise SchemaError("anisotropy.diag needs anisotropy.model = "
                              "elliptic")
        _diag(full)
    if full["check.peak-law"] and (full["grid.n"] != 1
                                   or full["init.kind"] != "tent"):
        raise SchemaError("check.peak-law is a 1D tent law: it needs "
                          "grid.n = 1 and init.kind = tent")
    return full


def _check_value(key, value):
    allowed = _SCHEMA[key][3]
    if allowed == _POSITIVE:
        if value <= 0:
            raise SchemaError(f"{key} must be positive")
    elif allowed == _NONNEGATIVE:
        if value < 0:
            raise SchemaError(f"{key} must be nonnegative")
    elif allowed == _AT_LEAST_ONE:
        if value < 1:
            raise SchemaError(f"{key} must be at least 1")
    elif allowed is not None and value not in allowed:
        raise SchemaError(f"{key} must be one of {_describe(allowed)}")


def _describe(allowed):
    if isinstance(allowed, range):
        return f"[{allowed.start}, {allowed.stop - 1}]"
    return ", ".join(str(v) for v in allowed)


def _dimension(cfg):
    """Space dimension of the run; the viscosity test is 2D whatever grid.n."""
    return 2 if cfg["scenario"] == "viscosity-test" else cfg["grid.n"]


def _diag(cfg):
    """anisotropy.diag as one positive finite float per dimension."""
    n = _dimension(cfg)
    try:
        diag = [float(v) for v in cfg["anisotropy.diag"].split(",")]
    except ValueError as e:
        raise SchemaError(f"bad value for 'anisotropy.diag': {e}")
    if len(diag) != n or not all(np.isfinite(d) and d > 0 for d in diag):
        raise SchemaError(f"anisotropy.diag must be {n} positive finite "
                          "comma-separated numbers")
    return diag


def _build_anisotropy(cfg):
    params = {"diag": _diag(cfg)} if "anisotropy.diag" in cfg else {}
    return make_anisotropy(cfg["anisotropy.model"], _dimension(cfg), params)


def _resolvent_kw(cfg):
    """Solver limits shared by every resolvent scenario."""
    return {"max_iter": cfg["resolvent.max-iter"],
            "rel_gap_tol": cfg["resolvent.rel-gap-tol"]}


def _certify(man, reports):
    """The gap-certified check of a run's resolvent solves.  Each solve
    that is not certified is also a numerical failure (exit 3)."""
    for rep in reports:
        if not rep.converged:
            man.numerical_failure(
                f"resolvent gap {rep.gap:.3e} above tol {rep.gap_tol:.3e} "
                f"after {rep.iterations} iterations")
    man.check("gap-certified", all(rep.converged for rep in reports),
              min(rep.gap_tol - rep.gap for rep in reports))


def _center_offsets(grid: Grid) -> np.ndarray:
    """Wrapped distance of every node from the centre along each axis."""
    d = np.abs(grid.coords() - 0.5)
    return np.minimum(d, 1.0 - d)


def _wulff_radius(W, grid: Grid) -> np.ndarray:
    """W°(x - c) of every node x: the Wulff-ball radius from the centre c."""
    return W.gauge(grid.coords() - 0.5)


def _build_initial(cfg, grid: Grid, rng) -> GridFunction:
    kind = cfg["init.kind"]
    if kind == "constant":
        return GridFunction.constant(grid, cfg["init.level"])
    if kind == "tent":
        d = np.max(_center_offsets(grid), axis=-1)
        return GridFunction(grid, cfg["init.slope"] * (0.25 - d))
    if kind == "sin":
        c = grid.coords()
        v = np.sin(2 * np.pi * c[..., 0])
        for i in range(1, grid.n):
            v = v * np.sin(2 * np.pi * c[..., i])
        return GridFunction(grid, cfg["init.amplitude"] * v)
    if kind == "disk":
        # the Wulff ball of the run's model, a Euclidean disk for euclidean
        depth = cfg["init.radius"] - _wulff_radius(_build_anisotropy(cfg), grid)
        delta = cfg["init.amplitude"]
        return GridFunction(grid, np.clip(depth + delta, 0.0, delta))
    # random-smooth: band-limited noise, normalized amplitude
    v = ndimage.gaussian_filter(rng.standard_normal(grid.shape),
                                max(2.0, grid.N / 24), mode="wrap")
    v = v / max(np.max(np.abs(v)), 1e-12)
    return GridFunction(grid, cfg["init.amplitude"] * v)


def _ordered_pair(cfg, grid: Grid, rng, pad: float):
    """Random-smooth lo and hi = lo + pad + |bump| for a random-smooth bump."""
    smooth = dict(cfg, **{"init.kind": "random-smooth"})
    lo = _build_initial(smooth, grid, rng)
    bump = _build_initial(smooth, grid, rng)
    return lo, GridFunction(grid, lo.values + pad + np.abs(bump.values))


# ---------------------------------------------------------------------------
# artifacts

class Manifest:
    def __init__(self, cfg):
        self.cfg = cfg
        self.checks = []       # (name, passed, margin, note)
        self.failures = []     # numerical diagnostics

    def check(self, name, passed, margin, note=""):
        self.checks.append((name, bool(passed), float(margin), note))

    def check_target(self, name, measured, target, tol, label="measured"):
        """Pass when |measured - target| <= tol."""
        err = abs(measured - target)
        self.check(name, err <= tol, tol - err,
                   f"{label} {fmt(measured)} target {fmt(target)}")

    def numerical_failure(self, note):
        self.failures.append(note)

    def all_passed(self):
        return all(p for _n, p, _m, _note in self.checks) and not self.failures

    def render(self):
        lines = ["facetflow-manifest v1", f"version = {__version__}"]
        kind = self.cfg["scenario"]
        for key in sorted(self.cfg):
            kinds = _SCHEMA[key][1]
            if kinds is None or kind in kinds:
                lines.append(f"config {key} = {self.cfg[key]}")
        for note in self.failures:
            lines.append(f"numerical-failure: {note}")
        for name, passed, margin, note in self.checks:
            status = "pass" if passed else "FAIL"
            extra = f" ({note})" if note else ""
            lines.append(f"check {name}: {status} margin={fmt(margin)}{extra}")
        lines.append(f"checks-total = {len(self.checks)}")
        return "\n".join(lines) + "\n"


def write_snapshot(path, u: GridFunction, t: float):
    g = u.grid
    with open(path, "w") as f:
        f.write(f"FACETFLOW-GRID v1\nn={g.n} N={g.N} t={fmt(t)}\n")
        rows = u.values.reshape(-1, g.N) if g.n > 1 else u.values[None, :]
        for row in rows:
            f.write(" ".join(fmt(v) for v in row) + "\n")


def read_snapshot(path):
    with open(path) as f:
        magic = f.readline().strip()
        if magic != "FACETFLOW-GRID v1":
            raise ValueError(f"not a facetflow snapshot: {path}")
        header = dict(kv.split("=") for kv in f.readline().split())
        n, N = int(header["n"]), int(header["N"])
        vals = np.loadtxt(f).reshape((N,) * n)
    return GridFunction(Grid(n, N), vals), float(header["t"])


def write_series(path, columns, rows):
    with open(path, "w") as f:
        f.write(",".join(columns) + "\n")
        for row in rows:
            f.write(",".join(fmt(v) for v in row) + "\n")


# ---------------------------------------------------------------------------
# scenarios

def _scenario_anisotropy_check(cfg, out, man, rng):
    W = _build_anisotropy(cfg)
    n = cfg["grid.n"]
    k = cfg["check.samples"]
    p = rng.standard_normal((k, n))
    p = p[np.linalg.norm(p, axis=-1) > 1e-6]
    alphas = rng.uniform(0.1, 10.0, size=p.shape[0])
    hom = np.max(np.abs(W.eval(alphas[:, None] * p) - alphas * W.eval(p))
                 / np.maximum(alphas * W.eval(p), 1e-300))
    man.check("one-homogeneity", hom <= 1e-12, 1e-12 - hom)
    lower = np.min(W.eval(p) - W.lambda0 * np.linalg.norm(p, axis=-1))
    man.check("lower-bound", lower >= -1e-12, lower)
    q = rng.standard_normal(p.shape)
    conv = np.max(W.eval((p + q) / 2) - (W.eval(p) + W.eval(q)) / 2)
    man.check("midpoint-convexity", conv <= 1e-12, -conv)
    euler = np.max(np.abs(np.einsum("kij,kj->ki", W.hess(p), p)))
    man.check("euler-identity", euler <= 1e-8, 1e-8 - euler)
    write_series(out / "series.csv", ["time", "samples"], [(0.0, p.shape[0])])


def _tent_measurements(psi, psi_a, slope):
    g = psi.grid
    drop = float(np.max(psi.values) - np.max(psi_a.values))
    flat = np.abs(psi_a.values - np.max(psi_a.values)) <= 0.5 * g.h * slope
    half_len = 0.5 * float(np.sum(flat)) * g.h
    return half_len, drop


def _scenario_resolvent(cfg, out, man, rng):
    grid = Grid(cfg["grid.n"], cfg["grid.N"])
    W = _build_anisotropy(cfg)
    psi = _build_initial(cfg, grid, rng)
    a = cfg["resolvent.a"]
    rc = ResolventConfig(a=a, **_resolvent_kw(cfg))
    psi_a, _z, rep = resolve_singular(psi, W, rc)
    write_snapshot(out / "input.grid", psi, 0.0)
    write_snapshot(out / "resolvent.grid", psi_a, a)
    cols = ["time", "gap", "iterations", "l2_error_bound"]
    row = [0.0, rep.gap, rep.iterations, rep.l2_error_bound]
    if cfg["init.kind"] == "tent" and grid.n == 1:
        s = cfg["init.slope"]
        half_len, drop = _tent_measurements(psi, psi_a, s)
        tgt_len, tgt_drop = np.sqrt(2 * a / s), np.sqrt(2 * a * s)
        man.check_target("facet-half-length", half_len, tgt_len,
                         max(3 * grid.h, 0.05 * tgt_len))
        man.check_target("peak-drop", drop, tgt_drop, 0.05 * tgt_drop)
        cols += ["half_length", "target_half_length", "drop", "target_drop"]
        row += [half_len, tgt_len, drop, tgt_drop]
    _certify(man, [rep])
    write_series(out / "series.csv", cols, [row])


def _scenario_curvature(cfg, out, man, rng):
    grid = Grid(cfg["grid.n"], cfg["grid.N"])
    W = _build_anisotropy(cfg)
    psi = _build_initial(cfg, grid, rng)
    a = cfg["curvature.a"]
    disk = cfg["init.kind"] == "disk" and grid.n == 2
    if disk:
        R = cfg["init.radius"]
        delta = cfg["init.amplitude"]
        # average over the eroded facet {psi = max}, inside the Wulff ball
        # of radius R, whose curvature is -2/R for every model
        facet = _wulff_radius(W, grid) <= R - delta - 4 * grid.h
        if not np.any(facet):
            raise SchemaError("init.radius leaves the disk no facet node")
    lam, rep = curvature_dq(psi, W, a, **_resolvent_kw(cfg))
    write_snapshot(out / "input.grid", psi, 0.0)
    write_snapshot(out / "curvature.grid", lam, 0.0)
    rows = [(0.0, a, float(np.min(lam.values)), float(np.max(lam.values)))]
    if disk:
        val = float(np.mean(lam.values[facet]))
        target = -2.0 / R
        man.check_target("disk-curvature", val, target, 0.1 * abs(target))
        rows[0] = rows[0] + (val, target)
    cols = ["time", "a", "min", "max"] + (
        ["facet_mean", "facet_target"] if disk else [])
    _certify(man, [rep])
    write_series(out / "series.csv", cols, rows)


def _scenario_monotonicity(cfg, out, man, rng):
    grid = Grid(cfg["grid.n"], cfg["grid.N"])
    W = _build_anisotropy(cfg)
    pad = 0.2 * abs(cfg["init.amplitude"])    # hi >= lo for either sign
    worst = 0.0
    rows, reports = [], []
    for k in range(cfg["mono.pairs"]):
        lo, hi = _ordered_pair(cfg, grid, rng, pad)
        res = monotonicity_check(lo, hi, W, cfg["resolvent.a"],
                                 **_resolvent_kw(cfg))
        reports += res["reports"]
        worst = max(worst, res["violation"])
        rows.append((float(k), res["violation"], reports[-2].gap,
                     reports[-1].gap))
    man.check("order-preserved", worst <= 1e-6, 1e-6 - worst,
              f"worst violation {fmt(worst)}")
    _certify(man, reports)
    write_series(out / "series.csv", ["time", "violation", "gap_lo", "gap_hi"],
                 rows)


def _explicit_setup(cfg, record_every):
    """Grid, W_m, speed law and config of an explicit run.  Raises
    StabilityError for a CFL constant over 1 and SchemaError over
    _MAX_STEPS steps."""
    grid = Grid(cfg["grid.n"], cfg["grid.N"])
    W_m = MollifiedAnisotropy(_build_anisotropy(cfg), cfg["evolve.m"])
    speed = SpeedLaw(cfg["evolve.scale"], cfg["evolve.forcing"])
    ec = EvolutionConfig(t_end=cfg["evolve.t-end"], cfl=cfg["evolve.cfl"],
                         record_every=record_every)
    if ec.cfl > 1.0:
        raise StabilityError(
            f"CFL constant {ec.cfl} exceeds the explicit-scheme "
            "bound 1 (dt would exceed h^2 / (2 n a_m xi_scale))")
    steps = step_count(grid, W_m, speed, ec)
    if steps > _MAX_STEPS:
        raise SchemaError(f"evolve.t-end = {ec.t_end} needs "
                          f"{steps:.3g} explicit steps, over the budget of "
                          f"{_MAX_STEPS:.0e}")
    return grid, W_m, speed, ec


def _scenario_evolve(cfg, out, man, rng):
    grid, W_m, speed, ec = _explicit_setup(cfg, cfg["evolve.record-every"])
    u0 = _build_initial(cfg, grid, rng)
    trace = evolve(u0, W_m, speed, ec)
    write_snapshot(out / "initial.grid", u0, 0.0)
    write_snapshot(out / "final.grid", trace.final(), trace.times[-1])
    rows = []
    # a tent of slope s under speed scale c loses height sqrt(2 s c t); a
    # constant forcing commutes with the flow and lowers it by forcing * t
    s_eff = cfg["init.slope"] * speed.xi_scale
    h0 = float(np.max(u0.values))
    for t, st, lip in zip(trace.times, trace.states, trace.lipschitz):
        row = [t, float(np.max(st.values)), float(np.min(st.values)), lip]
        if cfg["check.peak-law"]:
            row.append(h0 - np.sqrt(2 * s_eff * t) - speed.forcing * t)
        rows.append(row)
    cols = ["time", "peak", "min", "lipschitz"] + (
        ["peak_target"] if cfg["check.peak-law"] else [])
    write_series(out / "series.csv", cols, rows)
    mon = lipschitz_monitor(trace)
    budget = mon["budget"]
    man.check("lipschitz-bound", mon["max"] <= budget, budget - mon["max"],
              f"max {fmt(mon['max'])} initial {fmt(mon['initial'])}")
    if cfg["check.peak-law"]:
        t = trace.times[-1]
        law = h0 - np.sqrt(2 * s_eff * t)
        man.check_target("peak-law", float(np.max(trace.final().values)),
                         law - speed.forcing * t, 0.05 * (h0 - law), "peak")


def _scenario_compare(cfg, out, man, rng):
    grid, W_m, speed, ec = _explicit_setup(
        cfg, cfg["evolve.record-every"] or 200)
    worst = 0.0
    rows = []
    for k in range(cfg["compare.pairs"]):
        lo, hi = _ordered_pair(cfg, grid, rng, 0.02)
        crossing = comparison_harness(lo, hi, W_m, speed, ec)["max_crossing"]
        worst = max(worst, crossing)
        rows.append((float(k), crossing))
    tol = 10 * grid.h
    man.check("no-crossing", worst <= tol, tol - worst,
              f"worst crossing {fmt(worst)}")
    write_series(out / "series.csv", ["time", "crossing"], rows)


def _scenario_barrier(cfg, out, man, rng):
    W = _build_anisotropy(cfg)
    delta, K = cfg["barrier.delta"], cfg["barrier.K"]
    samples = cfg["barrier.samples"]
    speed = SpeedLaw(cfg["evolve.scale"], cfg["evolve.forcing"])
    stage = "conjugate-lower-bound"    # the check that an error below fails
    try:
        m0, A, q, mu = choose_parameters(delta, K, W, n_verify=samples)
        man.check("constant-A", abs(A - delta / (8 * mu)) <= 1e-15, 1e-15,
                  f"A={fmt(A)}")
        man.check("constant-q", abs(q - 8 * K / delta) <= 1e-15, 1e-15,
                  f"q={fmt(q)}")
        man.check(stage, True, 1.0, f"m0={fmt(m0)}")
        stage = "barrier-bounds"
        fam = build_barrier(m0, A, q, W, speed=speed, n_check=samples)
    except (ParameterError, BarrierConstructionError) as e:
        man.check(stage, False, -1.0, str(e))
        write_series(out / "series.csv", ["time"], [(0.0,)])
        return
    man.check("barrier-bounds", True, 1.0,
              f"beta={fmt(fam.beta)} Lm_max={fmt(fam.provenance['Lm_max'])}")
    # supersolution residual of phi(x,t) = beta t + W*(x): residual =
    # beta + F(grad W*, L_m W*) >= beta - sup|F| >= 1 by construction
    xs = rng.normal(scale=1.0, size=(samples, W.n))
    _v, p, Hc = fam.conjugate(xs, with_derivatives=True)
    Lm = np.einsum("kij,kji->k", fam.W_m.hess(p), Hc)
    resid = fam.beta + np.asarray(speed(p, Lm))
    man.check("supersolution-residual", float(np.min(resid)) >= -1e-6,
              float(np.min(resid)) + 1e-6,
              f"min residual {fmt(float(np.min(resid)))}")
    rows = [(0.0, fam.beta, float(np.min(resid)), float(np.max(Lm)))]
    write_series(out / "series.csv",
                 ["time", "beta", "min_residual", "Lm_max"], rows)


def _scenario_viscosity_test(cfg, out, man, rng):
    grid = Grid(2, cfg["grid.N"])
    W = _build_anisotropy(cfg)
    R = cfg["viscosity.radius"]
    plus = np.sum(_center_offsets(grid)**2, axis=-1) <= np.square(R)
    pair = PairOfSets(grid, np.zeros(grid.shape, bool), plus)
    sp = smooth_pair_between(pair, 2 * grid.h, 14 * grid.h)
    cert = support_from_smooth_pair(sp, W)
    man.check("certificate-defects", cert.report["defect_fraction"] <= 0.005,
              0.005 - cert.report["defect_fraction"],
              f"defects {fmt(cert.report['defect_fraction'])}")
    deltas = [3 * grid.h, 6 * grid.h, 12 * grid.h]
    speed = SpeedLaw(cfg["evolve.scale"], cfg["evolve.forcing"])
    res = faceted_test_residual(0.0, cert.psi, W, np.array([0.5, 0.5]),
                                deltas, cfg["resolvent.a"], speed,
                                **_resolvent_kw(cfg))
    _certify(man, [res["report"]])
    # g' = 0, so each residual is F(0, essinf Lambda): positive on every
    # ball when the top facet descends
    low = min(res["residuals"].values())
    man.check("faceted-test-signs", low > 0, low)
    write_snapshot(out / "support.grid", cert.psi, 0.0)
    write_snapshot(out / "curvature.grid", res["curvature"], 0.0)
    write_series(out / "series.csv",
                 ["time", "delta", "essinf"],
                 [(0.0, d, v) for d, v in res["essinf"].items()])


_RUNNERS = {
    "anisotropy-check": _scenario_anisotropy_check,
    "resolvent": _scenario_resolvent,
    "curvature": _scenario_curvature,
    "monotonicity": _scenario_monotonicity,
    "evolve": _scenario_evolve,
    "compare": _scenario_compare,
    "barrier": _scenario_barrier,
    "viscosity-test": _scenario_viscosity_test,
}


# ---------------------------------------------------------------------------
# templates

TEMPLATES = {
    "anisotropy-check": """\
# sampled identities of a surface-energy density
scenario = anisotropy-check
grid.n = 2
anisotropy.model = euclidean
check.samples = 200
seed = 1
""",
    "resolvent-tent-1d": """\
# 1D tent resolvent against the closed-form facet length and drop
scenario = resolvent
grid.n = 1
grid.N = 512
anisotropy.model = euclidean
init.kind = tent
init.slope = 0.5
resolvent.a = 0.005
seed = 1
""",
    "disk-curvature-2d": """\
# calibrable-disk curvature -2/R on a 2D plateau
scenario = curvature
grid.n = 2
grid.N = 256
anisotropy.model = euclidean
init.kind = disk
init.radius = 0.2
init.amplitude = 0.05
curvature.a = 0.0002
resolvent.rel-gap-tol = 1e-5
seed = 1
""",
    "monotonicity-2d": """\
# resolvent order preservation on random smooth ordered pairs
scenario = monotonicity
grid.n = 2
grid.N = 64
init.kind = random-smooth
init.amplitude = 0.15
resolvent.a = 0.002
resolvent.rel-gap-tol = 1e-8
mono.pairs = 5
seed = 1
""",
    "evolve-tent-1d": """\
# 1D tent total-variation flow with the peak decay law
scenario = evolve
grid.n = 1
grid.N = 256
init.kind = tent
init.slope = 0.5
evolve.m = 16
evolve.t-end = 0.002
evolve.record-every = 2000
check.peak-law = 1
seed = 1
""",
    "compare-1d": """\
# ordered evolutions stay ordered
scenario = compare
grid.n = 1
grid.N = 64
init.amplitude = 0.1
evolve.m = 8
evolve.t-end = 0.05
compare.pairs = 3
seed = 1
""",
    "barrier-euclidean-2d": """\
# barrier constants, conjugate bounds, and supersolution residual
scenario = barrier
grid.n = 2
anisotropy.model = euclidean
barrier.delta = 0.5
barrier.K = 2.0
barrier.samples = 400
seed = 1
""",
    "viscosity-disk-2d": """\
# faceted test residuals on a disk support function
scenario = viscosity-test
grid.n = 2
grid.N = 128
anisotropy.model = euclidean
viscosity.radius = 0.2
resolvent.a = 0.0005
resolvent.rel-gap-tol = 1e-8
seed = 1
""",
}


def list_scenarios():
    print("built-in scenario templates (run with: facetflow run <file>):")
    for name, text in TEMPLATES.items():
        print(f"\n--- {name} ---")
        print(text, end="")


# ---------------------------------------------------------------------------
# entry points

def run(config_path, out_dir=None, seed=None, quiet=False) -> int:
    from pathlib import Path
    try:
        text = Path(config_path).read_text()
    except OSError as e:
        print(f"error: cannot read config: {e}", file=sys.stderr)
        return 2
    try:
        cfg = parse_config(text)
        if seed is not None:
            cfg["seed"] = int(seed)
            _check_value("seed", cfg["seed"])
    except SchemaError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    if out_dir is not None:
        cfg["out.dir"] = str(out_dir)
    out = Path(cfg["out.dir"])
    out.mkdir(parents=True, exist_ok=True)
    man = Manifest(cfg)
    rng = np.random.default_rng(cfg["seed"])
    t0 = time.perf_counter()
    status = 0
    try:
        _RUNNERS[cfg["scenario"]](cfg, out, man, rng)
    except SchemaError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (StabilityError, ArithmeticError, ValueError) as e:
        man.numerical_failure(str(e))    # config errors were caught above
    wall = time.perf_counter() - t0
    (out / "manifest.txt").write_text(man.render())
    (out / "timing.txt").write_text(f"wall_clock_s = {wall:.3f}\n")
    if man.failures:
        status = 3
    elif not man.all_passed():
        status = 4
    if not quiet:
        print(man.render(), end="")
        print(f"exit status {status}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="facetflow",
        description="singular anisotropic curvature flow scenarios")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="execute a scenario config")
    p_run.add_argument("config")
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--quiet", action="store_true")
    sub.add_parser("list", help="print built-in scenario templates")
    args = parser.parse_args(argv)
    if args.command == "list":
        list_scenarios()
        return 0
    return run(args.config, out_dir=args.out, seed=args.seed,
               quiet=args.quiet)


if __name__ == "__main__":
    sys.exit(main())
