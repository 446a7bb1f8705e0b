"""Spans around facetflow's public functions, recorded from outside.

``Tracer.install`` swaps each traced function or method for a wrapper
that records a span (name, start, end, parent, operation) and restores
the originals on ``uninstall``.  Spans stay in memory; ``write`` dumps
them once the run ends.  ``layer_metrics`` turns one round of spans
into the per-layer metrics: a layer's self time is its spans' duration
minus the time of their child spans.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

import numpy as np

import facetflow.anisotropy as anisotropy
import facetflow.conjugate as conjugate
import facetflow.evolution as evolution
import facetflow.facets as facets
import facetflow.grid as grid
import facetflow.resolvent as resolvent
import facetflow.cli as cli

NAME, START, END, PARENT, OP, CHILD, ATTR = range(7)
MOLLIFIED = "anisotropy.mollified."
# conv evaluations per point for W_m.eval / grad / hess in dimension n
_CONVS = {"eval": lambda n: 1, "grad": lambda n: 2 * n,
          "hess": lambda n: 1 + 2 * n + 2 * n * (n - 1)}


def _points(p):
    p = np.asarray(p)
    return max(1, p.size // p.shape[-1]) if p.ndim else 1


def _mollified_attr(kind):
    def attr(args, _out):
        W_m, pts = args[0], _points(args[1])
        M = W_m.nodes.shape[0]
        return (pts, pts * M * _CONVS[kind](W_m.n),
                pts * M * (W_m.n + 1) * 8)
    return attr


def _functions():
    """(span name, owner, attribute, attr-extractor) of every traced call."""
    out = [
        ("resolvent.resolve_singular", resolvent, "resolve_singular",
         lambda a, o: o[2].iterations),
        ("conjugate.choose_parameters", conjugate, "choose_parameters", None),
        ("conjugate.build_barrier", conjugate, "build_barrier", None),
        ("conjugate.conjugate", conjugate.BarrierFamily, "conjugate",
         lambda a, o: _points(np.atleast_2d(a[1]))),
        ("evolution.evolve", evolution, "evolve", lambda a, o: o.steps),
        ("evolution.step_explicit", evolution, "step_explicit", None),
        ("grid.lipschitz", grid, "lipschitz_constant", None),
        ("facets.smooth_pair", facets, "smooth_pair_between", None),
        ("facets.support", facets, "support_from_smooth_pair", None),
        ("cli.run", cli, "run", None),
    ]
    for kind in ("eval", "grad", "hess"):
        out.append((MOLLIFIED + kind, anisotropy.MollifiedAnisotropy, kind,
                    _mollified_attr(kind)))
    for cls in (anisotropy.EuclideanAnisotropy, anisotropy.EllipticAnisotropy,
                anisotropy.PowerFourAnisotropy):
        out.append(("anisotropy.wulff_project", cls, "wulff_project",
                    lambda a, o: _points(a[1])))
        out.append(("anisotropy.eval", cls, "eval", None))
    return out


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = -1
        self._saved = []

    def _wrap(self, name, fn, attr):
        spans, stack = self.spans, self.stack
        base_eval = name == "anisotropy.eval"

        def wrapper(*args, **kw):
            # base-model values sampled by the W_m quadrature belong to W_m
            if base_eval and stack and spans[stack[-1]][NAME].startswith(MOLLIFIED):
                return fn(*args, **kw)
            parent = stack[-1] if stack else -1
            rec = [name, 0.0, 0.0, parent, self.op, 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            t0 = perf_counter()
            try:
                out = fn(*args, **kw)
            finally:
                t1 = perf_counter()
                stack.pop()
                rec[START], rec[END] = t0, t1
                if parent >= 0:
                    spans[parent][CHILD] += t1 - t0
            if attr is not None:
                rec[ATTR] = attr(args, out)
            return out

        return wrapper

    def install(self):
        """Wrap every traced callable wherever facetflow has bound it."""
        mods = [m for k, m in sys.modules.items()
                if k == "facetflow" or k.startswith("facetflow.")]
        for name, owner, attr_name, attr in _functions():
            fn = owner.__dict__[attr_name]
            wrapped = self._wrap(name, fn, attr)
            homes = [owner] if isinstance(owner, type) else [
                m for m in mods if getattr(m, attr_name, None) is fn]
            for home in homes:
                self._saved.append((home, attr_name, fn))
                setattr(home, attr_name, wrapped)

    def uninstall(self):
        for home, attr_name, fn in reversed(self._saved):
            setattr(home, attr_name, fn)
        self._saved.clear()

    def take(self):
        """Spans recorded since the last take, as a list."""
        out = list(self.spans)
        self.spans.clear()
        return out


def _ancestor(spans, i, name):
    p = spans[i][PARENT]
    while p >= 0:
        if spans[p][NAME] == name:
            return True
        p = spans[p][PARENT]
    return False


def layer_metrics(spans, artifact_bytes):
    """Per-layer counts and times of one traced round."""
    calls, self_s, incl, attr = {}, {}, {}, {}
    for s in spans:
        nm = s[NAME]
        d = s[END] - s[START]
        calls[nm] = calls.get(nm, 0) + 1
        self_s[nm] = self_s.get(nm, 0.0) + d - s[CHILD]
        incl[nm] = incl.get(nm, 0.0) + d
        attr.setdefault(nm, []).append(s[ATTR])

    def c(nm):
        return calls.get(nm, 0)

    def t(nm):
        return self_s.get(nm, 0.0)

    def total(nm, idx=None):
        vals = attr.get(nm, [])
        return int(sum(v if idx is None else v[idx] for v in vals))

    def ratio(num, den, scale):
        return num / den * scale if den else 0.0

    iters = total("resolvent.resolve_singular")
    wp_points = total("anisotropy.wulff_project")
    steps = total("evolution.evolve")
    mol = [MOLLIFIED + k for k in ("eval", "grad", "hess")]
    hess_in_conj = [i for i, s in enumerate(spans)
                    if s[NAME] == MOLLIFIED + "hess"
                    and _ancestor(spans, i, "conjugate.conjugate")]
    temp = max([v[2] for nm in mol for v in attr.get(nm, [])], default=0)
    return {
        "resolvent.solves": (c("resolvent.resolve_singular"), "count"),
        "resolvent.iterations": (iters, "count"),
        "resolvent.self_s": (t("resolvent.resolve_singular"), "s"),
        "resolvent.us_per_iter": (ratio(incl.get("resolvent.resolve_singular", 0.0),
                                        iters, 1e6), "us"),
        "anisotropy.wulff_project.calls": (c("anisotropy.wulff_project"), "count"),
        "anisotropy.wulff_project.points": (wp_points, "count"),
        "anisotropy.wulff_project.self_s": (t("anisotropy.wulff_project"), "s"),
        "anisotropy.wulff_project.ns_per_point": (
            ratio(t("anisotropy.wulff_project"), wp_points, 1e9), "ns"),
        "anisotropy.eval.calls": (c("anisotropy.eval"), "count"),
        "anisotropy.eval.self_s": (t("anisotropy.eval"), "s"),
        "anisotropy.mollified.eval.points": (total(mol[0], 0), "count"),
        "anisotropy.mollified.grad.points": (total(mol[1], 0), "count"),
        "anisotropy.mollified.hess.points": (total(mol[2], 0), "count"),
        "anisotropy.mollified.self_s": (sum(t(nm) for nm in mol), "s"),
        "anisotropy.mollified.quad_evals": (
            sum(total(nm, 1) for nm in mol), "count"),
        "anisotropy.mollified.temp_mib": (temp / 2**20, "MiB"),
        "conjugate.calls": (c("conjugate.conjugate"), "count"),
        "conjugate.points": (total("conjugate.conjugate"), "count"),
        "conjugate.self_s": (t("conjugate.conjugate"), "s"),
        "conjugate.newton_sweeps": (len(hess_in_conj), "count"),
        "conjugate.point_sweeps": (
            int(sum(spans[i][ATTR][0] for i in hess_in_conj)), "count"),
        "conjugate.choose_parameters.self_s": (
            t("conjugate.choose_parameters"), "s"),
        "conjugate.build_barrier.self_s": (t("conjugate.build_barrier"), "s"),
        "evolution.evolves": (c("evolution.evolve"), "count"),
        "evolution.steps": (steps, "count"),
        "evolution.self_s": (t("evolution.evolve"), "s"),
        "evolution.us_per_step": (ratio(incl.get("evolution.evolve", 0.0),
                                        steps, 1e6), "us"),
        "evolution.step_explicit.self_s": (t("evolution.step_explicit"), "s"),
        "grid.lipschitz.calls": (c("grid.lipschitz"), "count"),
        "grid.lipschitz.self_s": (t("grid.lipschitz"), "s"),
        "facets.smooth_pair.self_s": (t("facets.smooth_pair"), "s"),
        "facets.support.self_s": (t("facets.support"), "s"),
        "cli.runs": (c("cli.run"), "count"),
        "cli.self_s": (t("cli.run"), "s"),
        "cli.artifact_bytes": (artifact_bytes, "bytes"),
    }


def write(path, meta, rounds):
    """Spans of every traced round, one JSON document."""
    doc = dict(meta, fields=["name", "start", "end", "parent", "op",
                             "child_s", "attr"], rounds=[])
    for k, t0, spans in rounds:
        doc["rounds"].append({"round": k, "spans": [
            [s[NAME], s[START] - t0, s[END] - t0, s[PARENT], s[OP], s[CHILD],
             s[ATTR]] for s in spans]})
    with open(path, "w") as f:
        json.dump(doc, f, separators=(",", ":"))
