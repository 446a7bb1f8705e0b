"""Scenario runner: config schema, artifacts, exit codes, determinism."""

import ast
import filecmp
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import facetflow
import facetflow.cli
from facetflow.cli import (SCENARIO_KINDS, SchemaError, TEMPLATES, _SCHEMA,
                           fmt, main, parse_config, read_snapshot,
                           write_snapshot)
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
])
def test_run_out_of_range_int_or_diag_exits_2(tmp_path, text):
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


def test_run_resolvent_template(tmp_path):
    cfg = tmp_path / "r.cfg"
    cfg.write_text(TEMPLATES["resolvent-tent-1d"])
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out), "--quiet"]) == 0
    manifest = (out / "manifest.txt").read_text()
    assert "check facet-half-length: pass" in manifest
    assert "check peak-drop: pass" in manifest
    assert (out / "resolvent.grid").exists()
