"""Scenario runner: config schema, artifacts, exit codes, determinism."""

import ast
import filecmp
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import facetflow
import facetflow.cli
from facetflow.cli import (SCENARIO_KINDS, SchemaError, TEMPLATES, _SCHEMA,
                           fmt, main, parse_config, read_snapshot,
                           write_snapshot)
from facetflow.anisotropy import EuclideanAnisotropy
from facetflow.conjugate import build_barrier, choose_parameters
from facetflow.grid import Grid, GridFunction

FLOAT_KEYS = sorted(k for k, row in _SCHEMA.items() if row[0] is float)
INT_KEYS = sorted(k for k, row in _SCHEMA.items() if row[0] is int)
# documented closed range of every int key (None: unbounded above)
INT_RANGES = {"seed": (0, None), "grid.n": (1, 2), "grid.N": (8, 4096),
              "check.samples": (1, None), "resolvent.max-iter": (1, None),
              "mono.pairs": (1, None), "evolve.record-every": (0, None),
              "check.peak-law": (0, 1), "compare.pairs": (1, None),
              "barrier.samples": (1, None)}


def test_all_templates_parse():
    for name, text in TEMPLATES.items():
        cfg = parse_config(text)
        assert cfg["scenario"] in SCENARIO_KINDS, name


def test_parse_rejects_unknown_key():
    with pytest.raises(SchemaError):
        parse_config("scenario = evolve\nbogus.key = 1\n")


def test_parse_rejects_missing_scenario():
    with pytest.raises(SchemaError):
        parse_config("grid.n = 1\n")


def test_parse_rejects_wrong_scenario_key():
    with pytest.raises(SchemaError):
        parse_config("scenario = evolve\nbarrier.delta = 0.5\n")


def test_parse_rejects_bad_value():
    with pytest.raises(SchemaError):
        parse_config("scenario = evolve\ngrid.N = tiny\n")
    with pytest.raises(SchemaError):
        parse_config("scenario = evolve\ngrid.N = 4\n")


@settings(max_examples=300, deadline=None)
@given(key=st.sampled_from(FLOAT_KEYS),
       text=st.floats().map(repr)
       | st.sampled_from(["nan", "-nan", "inf", "-inf", "Infinity", "1e999"]))
def test_parse_float_keys_finite_or_schema_error(key, text):
    kinds = _SCHEMA[key][1]
    kind = kinds[0] if kinds else "resolvent"
    try:
        cfg = parse_config(f"scenario = {kind}\n{key} = {text}\n")
    except SchemaError:
        return
    assert all(np.isfinite(v) for v in cfg.values() if isinstance(v, float))


def test_int_ranges_cover_every_int_key():
    assert sorted(INT_RANGES) == INT_KEYS


@settings(max_examples=300, deadline=None)
@given(key=st.sampled_from(INT_KEYS), value=st.integers())
def test_parse_int_keys_in_range_or_schema_error(key, value):
    kinds = _SCHEMA[key][1]
    kind = kinds[0] if kinds else "resolvent"
    try:
        cfg = parse_config(f"scenario = {kind}\n{key} = {value}\n")
    except SchemaError:
        return
    lo, hi = INT_RANGES[key]
    assert cfg[key] == value and lo <= value and (hi is None or value <= hi)


def test_every_schema_key_is_read():
    """Every key other than scenario, seed and out.dir is read by name
    outside the schema table, so no key is accepted and then ignored."""
    tree = ast.parse(Path(facetflow.cli.__file__).read_text())
    tree.body = [node for node in tree.body
                 if not (isinstance(node, ast.Assign)
                         and [t.id for t in node.targets] == ["_SCHEMA"])]
    names = {node.value for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    unread = set(_SCHEMA) - names - {"scenario", "seed", "out.dir"}
    assert not unread


def test_parse_comments_and_defaults():
    cfg = parse_config("# hello\nscenario = evolve  # trailing\n")
    assert cfg["grid.N"] == 128
    assert cfg["evolve.cfl"] == 0.4


def test_fmt_round_trips_doubles():
    rng = np.random.default_rng(0)
    for v in rng.standard_normal(50) * 10.0**rng.integers(-12, 12, 50):
        assert float(fmt(v)) == v


def test_snapshot_round_trip(tmp_path):
    g = Grid(2, 16)
    rng = np.random.default_rng(1)
    u = GridFunction(g, rng.standard_normal(g.shape))
    path = tmp_path / "state.grid"
    write_snapshot(path, u, 0.125)
    v, t = read_snapshot(path)
    assert t == 0.125
    assert np.array_equal(v.values, u.values)
    assert path.read_text().startswith("FACETFLOW-GRID v1\nn=2 N=16 t=0.125\n")


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "resolvent-tent-1d" in out
    assert "disk-curvature-2d" in out


def test_run_missing_config_exits_2(tmp_path):
    assert main(["run", str(tmp_path / "nope.cfg")]) == 2


def test_run_bad_schema_exits_2(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("scenario = evolve\nwhat = 1\n")
    assert main(["run", str(cfg)]) == 2


def test_run_nonfinite_value_exits_2(tmp_path):
    cfg = tmp_path / "nan.cfg"
    cfg.write_text("scenario = resolvent\nresolvent.a = nan\n")
    assert main(["run", str(cfg), "--out", str(tmp_path / "out"),
                 "--quiet"]) == 2


@pytest.mark.parametrize("text", [
    "scenario = anisotropy-check\ncheck.samples = 0\n",
    "scenario = barrier\nbarrier.samples = 0\n",
    "scenario = anisotropy-check\nseed = -1\n",
    "scenario = anisotropy-check\ngrid.n = 2\nanisotropy.model = elliptic\n"
    "anisotropy.diag = -1,1\n",
    "scenario = anisotropy-check\ngrid.n = 2\nanisotropy.model = elliptic\n"
    "anisotropy.diag = 1\n",
    "scenario = monotonicity\nmono.pairs = -2\n",
    "scenario = evolve\nevolve.m = 0.5\n",
    "scenario = compare\nevolve.scale = 0\n",
    "scenario = barrier\nevolve.scale = -1\n",
    "scenario = viscosity-test\nviscosity.radius = -0.1\n",
    "scenario = resolvent\nresolvent.rel-gap-tol = -1\n",
    "scenario = curvature\ninit.radius = 0\n",
    # a diag that l4 would ignore
    "scenario = anisotropy-check\ngrid.n = 2\nanisotropy.model = l4\n"
    "anisotropy.diag = 4,1\n",
    # R - amplitude - 4h < 0: the disk has no facet node to average over
    "scenario = curvature\ngrid.n = 2\ngrid.N = 16\ninit.kind = disk\n"
    "init.radius = 0.2\ninit.amplitude = 0.1\n",
])
def test_run_out_of_range_int_or_diag_exits_2(tmp_path, text):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    assert main(["run", str(cfg), "--out", str(tmp_path / "out"),
                 "--quiet"]) == 2


@pytest.mark.parametrize("text", [
    "scenario = evolve\ngrid.n = 2\ngrid.N = 16\ncheck.peak-law = 1\n",
    "scenario = evolve\ngrid.n = 1\ninit.kind = sin\ncheck.peak-law = 1\n",
])
def test_run_peak_law_off_the_1d_tent_exits_2(tmp_path, text):
    """The peak law sqrt(2 s t) is a law of the 1D tent only."""
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    assert main(["run", str(cfg), "--out", str(tmp_path / "out"),
                 "--quiet"]) == 2


def test_run_negative_seed_option_exits_2(tmp_path):
    cfg = tmp_path / "a.cfg"
    cfg.write_text(TEMPLATES["anisotropy-check"])
    assert main(["run", str(cfg), "--out", str(tmp_path / "out"),
                 "--seed", "-3", "--quiet"]) == 2


@pytest.mark.parametrize("scenario", ["evolve", "compare"])
def test_run_over_step_budget_exits_2(tmp_path, scenario):
    """evolve.t-end = 1e300 would plan ~1e305 explicit steps; the run is
    refused before the first one."""
    cfg = tmp_path / "long.cfg"
    cfg.write_text(f"scenario = {scenario}\ngrid.n = 1\ngrid.N = 64\n"
                   "evolve.t-end = 1e300\n")
    src = str(Path(facetflow.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-m", "facetflow.cli", "run", str(cfg),
         "--out", str(tmp_path / "out"), "--quiet"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True,
        text=True, timeout=60)
    assert out.returncode == 2
    assert "budget" in out.stderr


def test_import_leaves_scipy_sparse_out():
    """Importing the package and its CLI must not load scipy.sparse, whose
    import every CLI and benchmark process would pay."""
    src = str(Path(facetflow.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, facetflow, facetflow.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.sparse')))")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_run_anisotropy_check_passes(tmp_path):
    cfg = tmp_path / "a.cfg"
    cfg.write_text(TEMPLATES["anisotropy-check"])
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out), "--quiet"]) == 0
    manifest = (out / "manifest.txt").read_text()
    assert manifest.startswith("facetflow-manifest v1\n")
    assert "FAIL" not in manifest
    assert (out / "series.csv").read_text().splitlines()[0].startswith("time")


def test_run_cfl_violation_exits_3(tmp_path):
    cfg = tmp_path / "cfl.cfg"
    cfg.write_text("scenario = evolve\ngrid.n = 1\ngrid.N = 64\n"
                   "evolve.t-end = 0.001\nevolve.cfl = 10\n")
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out), "--quiet"]) == 3
    assert "CFL" in (out / "manifest.txt").read_text()


def test_run_constant_data_flat_series(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("scenario = evolve\ngrid.n = 1\ngrid.N = 64\n"
                   "init.kind = constant\ninit.level = 0.25\n"
                   "evolve.t-end = 0.001\nevolve.m = 8\n"
                   "evolve.record-every = 100\n")
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out), "--quiet"]) == 0
    rows = (out / "series.csv").read_text().splitlines()
    peaks = {row.split(",")[1] for row in rows[1:]}
    assert peaks == {fmt(0.25)}


def test_run_deterministic_artifacts(tmp_path):
    cfg = tmp_path / "d.cfg"
    cfg.write_text("scenario = evolve\ngrid.n = 1\ngrid.N = 64\n"
                   "init.kind = random-smooth\nevolve.t-end = 0.001\n"
                   "evolve.m = 8\nevolve.record-every = 500\n")
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["run", str(cfg), "--out", str(out1), "--seed", "42",
                 "--quiet"]) == 0
    assert main(["run", str(cfg), "--out", str(out2), "--seed", "42",
                 "--quiet"]) == 0
    for name in ("initial.grid", "final.grid", "series.csv"):
        assert filecmp.cmp(out1 / name, out2 / name, shallow=False), name
    # the manifest differs only through out.dir, never through results
    m1 = [l for l in (out1 / "manifest.txt").read_text().splitlines()
          if not l.startswith("config out.dir")]
    m2 = [l for l in (out2 / "manifest.txt").read_text().splitlines()
          if not l.startswith("config out.dir")]
    assert m1 == m2


def test_run_different_seed_changes_artifacts(tmp_path):
    cfg = tmp_path / "d.cfg"
    cfg.write_text("scenario = evolve\ngrid.n = 1\ngrid.N = 64\n"
                   "init.kind = random-smooth\nevolve.t-end = 0.0005\n"
                   "evolve.m = 8\n")
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    main(["run", str(cfg), "--out", str(out1), "--seed", "1", "--quiet"])
    main(["run", str(cfg), "--out", str(out2), "--seed", "2", "--quiet"])
    assert not filecmp.cmp(out1 / "final.grid", out2 / "final.grid",
                           shallow=False)


# a tiny config per scenario kind (the key), and the checks its
# manifest lists
TINY_RUNS = {
    "anisotropy-check": ("scenario = anisotropy-check\ngrid.n = 2\n"
                         "check.samples = 20\n",
                         ["one-homogeneity", "lower-bound",
                          "midpoint-convexity", "euler-identity"]),
    "resolvent": ("scenario = resolvent\ngrid.n = 1\ngrid.N = 64\n",
                  ["facet-half-length", "peak-drop", "gap-certified"]),
    # the facet length and drop laws are 1D tent laws
    "resolvent-tent-2d": ("scenario = resolvent\ngrid.n = 2\ngrid.N = 16\n"
                          "init.kind = tent\n", ["gap-certified"]),
    "curvature": ("scenario = curvature\ngrid.n = 2\ngrid.N = 32\n"
                  "init.kind = disk\ninit.radius = 0.25\n"
                  "init.amplitude = 0.05\ncurvature.a = 0.001\n"
                  "resolvent.rel-gap-tol = 1e-6\n",
                  ["disk-curvature", "gap-certified"]),
    # the disk is the model's Wulff ball, whose curvature is -2/R for
    # every model (a Euclidean disk gave -14.96 and -8.81 against -10)
    "curvature-elliptic": ("scenario = curvature\ngrid.n = 2\ngrid.N = 48\n"
                           "anisotropy.model = elliptic\ninit.kind = disk\n"
                           "init.radius = 0.2\ninit.amplitude = 0.05\n"
                           "curvature.a = 0.0005\n"
                           "resolvent.rel-gap-tol = 1e-5\n",
                           ["disk-curvature", "gap-certified"]),
    "curvature-l4": ("scenario = curvature\ngrid.n = 2\ngrid.N = 48\n"
                     "anisotropy.model = l4\ninit.kind = disk\n"
                     "init.radius = 0.2\ninit.amplitude = 0.05\n"
                     "curvature.a = 0.0005\nresolvent.rel-gap-tol = 1e-5\n",
                     ["disk-curvature", "gap-certified"]),
    "monotonicity": ("scenario = monotonicity\ngrid.n = 1\ngrid.N = 32\n"
                     "mono.pairs = 2\n", ["order-preserved", "gap-certified"]),
    # a negative amplitude still gives ordered pairs
    "monotonicity-negative": ("scenario = monotonicity\ngrid.n = 1\n"
                              "grid.N = 64\ninit.amplitude = -0.15\n"
                              "mono.pairs = 2\n",
                              ["order-preserved", "gap-certified"]),
    "evolve": ("scenario = evolve\ngrid.n = 1\ngrid.N = 16\nevolve.m = 4\n"
               "evolve.t-end = 0.002\ncheck.peak-law = 1\n",
               ["lipschitz-bound", "peak-law"]),
    # a constant forcing lowers the peak law's target by forcing * t
    "evolve-forcing": ("scenario = evolve\ngrid.n = 1\ngrid.N = 16\n"
                       "evolve.m = 4\nevolve.t-end = 0.002\n"
                       "check.peak-law = 1\nevolve.forcing = -3\n",
                       ["lipschitz-bound", "peak-law"]),
    "compare": ("scenario = compare\ngrid.n = 1\ngrid.N = 16\nevolve.m = 4\n"
                "compare.pairs = 1\n", ["no-crossing"]),
    # the 1D W_m breakpoint table squares nothing, so data near 1e300
    # still give finite, ordered states
    "compare-huge": ("scenario = compare\ngrid.n = 1\ngrid.N = 16\n"
                     "init.kind = sin\ninit.amplitude = 1e300\n",
                     ["no-crossing"]),
    "barrier": ("scenario = barrier\ngrid.n = 1\nbarrier.samples = 20\n",
                ["constant-A", "constant-q", "conjugate-lower-bound",
                 "barrier-bounds", "supersolution-residual"]),
    "viscosity-test": ("scenario = viscosity-test\ngrid.N = 48\n",
                       ["certificate-defects", "gap-certified",
                        "faceted-test-signs"]),
}


# the two anisotropic disks take 10-20 s each on a 2-vCPU VM, so they run
# with the slow tier
@pytest.mark.parametrize("name", SCENARIO_KINDS + (
    "resolvent-tent-2d", "monotonicity-negative", "evolve-forcing",
    # the Lipschitz monitor squares gradients near 1e302 and overflows
    pytest.param("compare-huge", marks=pytest.mark.filterwarnings(
        "ignore::RuntimeWarning")),
    pytest.param("curvature-elliptic", marks=pytest.mark.slow),
    pytest.param("curvature-l4", marks=pytest.mark.slow)))
def test_run_tiny_scenario_passes(tmp_path, name):
    text, checks = TINY_RUNS[name]
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out), "--quiet"]) == 0
    manifest = (out / "manifest.txt").read_text().splitlines()
    assert [line.split(":")[0][len("check "):] for line in manifest
            if line.startswith("check ")] == checks


def test_run_uncertified_curvature_exits_3(tmp_path):
    """Ten primal-dual iterations leave the gap far above its tolerance:
    the run says so and fails rather than report an unchecked curvature."""
    cfg = tmp_path / "short.cfg"
    cfg.write_text("scenario = curvature\ngrid.n = 1\ngrid.N = 64\n"
                   "resolvent.max-iter = 10\n")
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out), "--quiet"]) == 3
    manifest = (out / "manifest.txt").read_text()
    assert "numerical-failure: resolvent gap" in manifest
    assert "check gap-certified: FAIL" in manifest


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_run_overflowing_data_is_a_numerical_failure(tmp_path):
    """Data near the largest double overflow the solver and the explicit
    scheme: exit 3 with a manifest, not a certified gap or a traceback.
    The explicit scheme needs 1e308, where the gradient of the data
    overflows (at 1e300 it stays finite, see TINY_RUNS)."""
    for scenario, amplitude in (("resolvent", "1e300"), ("compare", "1e308")):
        cfg = tmp_path / f"{scenario}.cfg"
        cfg.write_text(f"scenario = {scenario}\ngrid.n = 1\ngrid.N = 16\n"
                       f"init.kind = sin\ninit.amplitude = {amplitude}\n")
        out = tmp_path / scenario
        assert main(["run", str(cfg), "--out", str(out), "--quiet"]) == 3
        assert "numerical-failure" in (out / "manifest.txt").read_text()


def test_run_flat_support_fails_faceted_signs(tmp_path):
    """viscosity.radius = 0.8 puts the whole torus in the plus set, so the
    support function is flat, essinf Lambda = 0 and F(0, 0) = 0: the top
    facet does not descend and the check fails."""
    cfg = tmp_path / "flat.cfg"
    cfg.write_text("scenario = viscosity-test\ngrid.N = 48\n"
                   "viscosity.radius = 0.8\n")
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out), "--quiet"]) == 4
    assert "check faceted-test-signs: FAIL" in (out / "manifest.txt").read_text()


def test_run_barrier_reports_stalled_points(tmp_path):
    """The barrier-bounds note counts build_barrier's points whose
    conjugate Newton ends at or above its residual tolerance."""
    cfg = tmp_path / "b.cfg"
    cfg.write_text(TINY_RUNS["barrier"][0])
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out), "--quiet"]) == 0
    note = [line for line in (out / "manifest.txt").read_text().splitlines()
            if line.startswith("check barrier-bounds:")][0]
    W = EuclideanAnisotropy(1)
    m0, A, q, _mu = choose_parameters(0.5, 2.0, W, n_verify=20)
    fam = build_barrier(m0, A, q, W, n_check=20)
    assert f"stalled={fam.provenance['stalled']})" in note


def test_run_resolvent_template(tmp_path):
    cfg = tmp_path / "r.cfg"
    cfg.write_text(TEMPLATES["resolvent-tent-1d"])
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out), "--quiet"]) == 0
    manifest = (out / "manifest.txt").read_text()
    assert "check facet-half-length: pass" in manifest
    assert "check peak-drop: pass" in manifest
    assert (out / "resolvent.grid").exists()


# values for the hypothesis contract test: typical ones and both ends of
# the double range
_POS = st.sampled_from([1e-300, 1e-6, 0.05, 0.2, 1.0, 7.0, 1e300])
_SIGNED = _POS | _POS.map(lambda v: -v) | st.just(0.0)
# keys whose range is cut so that every example runs in well under a
# second: tiny grids, few iterations, a short flow and few samples
_TINY = {
    "grid.N": st.integers(8, 16),
    "seed": st.integers(0, 3),
    "check.samples": st.integers(1, 8),
    "resolvent.max-iter": st.integers(1, 60),
    "mono.pairs": st.integers(1, 2),
    "compare.pairs": st.integers(1, 2),
    "barrier.samples": st.integers(1, 8),
    "evolve.record-every": st.integers(0, 3),
    "evolve.m": st.sampled_from([1.0, 4.0, 32.0]),
    "evolve.t-end": st.sampled_from([1e-300, 1e-6, 1e-5]),
    "evolve.cfl": st.sampled_from([0.4, 1.0, 10.0]),
    "evolve.scale": st.sampled_from([1e-300, 0.2, 1.0, 7.0, 1e300]),
}


@st.composite
def _tiny_config(draw, kind):
    """Config text for a scenario kind: the keys of _TINY that the kind
    accepts are set, each other key is set to a value of its documented
    type or left to its default."""
    cfg = {"scenario": kind}
    for key, (typ, kinds, _default, allowed) in _SCHEMA.items():
        if key in ("scenario", "out.dir") or (kinds and kind not in kinds):
            continue
        if key in _TINY:
            cfg[key] = draw(_TINY[key])
        elif not draw(st.booleans()):
            continue
        elif key == "anisotropy.diag":
            if cfg.get("anisotropy.model") == "elliptic":
                n = 2 if kind == "viscosity-test" else cfg.get("grid.n", 1)
                cfg[key] = ",".join(repr(draw(_POS)) for _ in range(n))
        elif typ is str or key in ("grid.n", "check.peak-law"):
            cfg[key] = draw(st.sampled_from(list(allowed)))
        else:
            cfg[key] = draw(_SIGNED if allowed is None else _POS)
    return "".join(f"{key} = {value}\n" for key, value in cfg.items())


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("kind", SCENARIO_KINDS)
@settings(max_examples=12, deadline=None, derandomize=True)
@given(data=st.data())
def test_run_exit_contract(kind, data):
    """Any config of the documented types exits 0, 2, 3 or 4, never with
    a traceback, and writes a manifest unless the config is refused."""
    text = data.draw(_tiny_config(kind))
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "run.cfg"
        cfg.write_text(text)
        out = Path(tmp) / "out"
        status = main(["run", str(cfg), "--out", str(out), "--quiet"])
        assert status in (0, 2, 3, 4)
        assert status == 2 or (out / "manifest.txt").exists()


def test_every_export_is_used():
    """Every name the package exports is used in its modules outside its
    own definition, or in the tests: no public function that nothing
    calls and nothing tests."""
    src = Path(facetflow.__file__).parent
    init = ast.parse((src / "__init__.py").read_text())
    exported = {alias.asname or alias.name for node in init.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    files = ([p for p in src.glob("*.py") if p.name != "__init__.py"]
             + list(Path(__file__).parent.glob("*.py")))
    used = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert sorted(exported - used) == []
