"""facetflow benchmark: one named workload, one seed, one process.

    python3 bench/run.py --workload resolvent-1d --seed 1 --seconds 30 --trace 0

Runs whole rounds of the workload's operations, as many as fit in
``--seconds`` (at least two), then checks every round's outputs with the
independent checks in ``checks.py``.  The last line of standard output
is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (setup_s, wall_s,
peak_rss_mib).  With ``--trace 1`` untraced and traced rounds alternate,
the spans go to ``bench/out/trace-<workload>.json`` and the metrics are
the per-layer ones.  See README.md.
"""

import os
import time

T0 = time.perf_counter()
# one thread for BLAS/OpenMP, here and in any child process
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

# The host's pace, timed between operations: a fixed numpy kernel that
# does not touch facetflow, made of the small-array calls that a PD or a
# flow step makes (rolls, differences, a clip, on 256 and 32x32 points).
# Other tenants of the host slow the kernel and the operations alike, so
# an operation's time over the kernel's time beside it measures the
# program rather than the host.  PACE_REF_S is the kernel's time on the
# reference machine (README.md), which turns that ratio back into
# seconds.
PACE_REF_S = 0.012
_PACE_1D = np.linspace(0.0, 1.0, 256)
_PACE_2D = np.linspace(0.0, 1.0, 1024).reshape(32, 32)


def pace():
    """Seconds the pace kernel takes now."""
    t = time.perf_counter()
    for a in (_PACE_1D, _PACE_2D):
        v = a.copy()
        for _ in range(300):
            z = np.roll(v, -1, axis=-1) - v
            z = z / np.maximum(1.0, np.abs(z))
            v = v + 0.1 * (z - np.roll(z, 1, axis=-1))
    return time.perf_counter() - t


def process_age():
    """Seconds since this process started (kernel start time, 10 ms ticks)."""
    try:
        with open("/proc/self/stat") as f:
            stat = f.read()
        ticks = int(stat[stat.rfind(")") + 2:].split()[19])
        start = ticks / os.sysconf("SC_CLK_TCK")
        return time.clock_gettime(time.CLOCK_BOOTTIME) - start
    except (OSError, ValueError, IndexError, AttributeError):
        return time.perf_counter() - T0


def import_program():
    """Import facetflow from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    if not (src / "facetflow" / "__init__.py").is_file():
        sys.exit(f"bench: no facetflow sources under {src}")
    sys.path.insert(0, str(src))
    import facetflow
    if Path(facetflow.__file__).resolve().parent != (src / "facetflow").resolve():
        sys.exit(f"bench: facetflow imported from {facetflow.__file__}")


def artifact_bytes(ops, outs):
    """Bytes the CLI operations of one round wrote."""
    return sum(p.stat().st_size for op, out in zip(ops, outs)
               if op.name.startswith("cli:") and out is not None
               for p in out[1].iterdir())


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import_program()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")

    workdir = OUT / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    rng = np.random.default_rng(args.seed)
    ops = workloads.WORKLOADS[args.workload](rng, workdir, args.seed)
    workloads.warm_up()

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()

    # Whole rounds until the next one would end past --seconds, and at
    # least two, so that a traced run has one plain and one traced round
    # and no operation is timed only once.
    plain, traced, outputs, op_walls, op_paced, paces = [], [], [], {}, {}, []
    setup_s = process_age()
    t_start = time.perf_counter()
    k = 0
    while True:
        trace_this = tracer is not None and k % 2 == 1
        if trace_this:
            tracer.install()
        r0 = time.perf_counter()
        outs = []
        before = pace()
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op = i
            t_op = time.perf_counter()
            try:
                outs.append(op.run(k))
            except Exception:  # the operation failed; keep going
                traceback.print_exc(file=sys.stderr)
                outs.append(None)
            dt = time.perf_counter() - t_op
            after = pace()
            if not trace_this:
                op_walls.setdefault(op.name, []).append(dt)
                op_paced.setdefault(op.name, []).append(dt / (0.5 * (before + after)))
                paces.append(after)
            before = after
        wall = time.perf_counter() - r0
        if trace_this:
            tracer.uninstall()
            traced.append((k, r0, wall, tracer.take()))
        else:
            plain.append(wall)
        outputs.append(outs)
        k += 1
        spent = time.perf_counter() - t_start
        if k >= 2 and spent + spent / k > args.seconds:
            break
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    t_check = time.perf_counter()
    attempted = failed = 0
    correct = True
    for k, outs in enumerate(outputs):
        for op, out in zip(ops, outs):
            attempted += 1
            if out is None:
                failed += 1
                continue
            try:
                reasons = [r for r in op.check(out) if r]
            except Exception as exc:  # a malformed output fails its op
                reasons = [f"check raised {exc!r}"]
            if reasons:
                failed += 1
                correct = False
                print(f"bench: round {k} {op.name}: " + "; ".join(reasons),
                      file=sys.stderr)

    t_check = time.perf_counter() - t_check

    if tracer is None:
        # each operation at its median paced time over the untraced rounds
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (PACE_REF_S * sum(statistics.median(r)
                                        for r in op_paced.values()), "s"),
            "peak_rss_mib": (peak_rss, "MiB"),
        }
    else:
        per_round = [tracing.layer_metrics(spans, artifact_bytes(ops, outputs[k]))
                     for k, _r, _w, spans in traced]
        metrics = {}
        for name, (value, unit) in per_round[0].items():
            if unit in ("count", "bytes"):
                metrics[name] = (value, unit)
            else:
                metrics[name] = (statistics.median(m[name][0] for m in per_round),
                                 unit)
        metrics["trace.overhead_s"] = (
            statistics.median(w for _k, _r, w, _s in traced)
            - statistics.median(plain), "s")
        tracing.write(OUT / f"trace-{args.workload}.json",
                      {"workload": args.workload, "seed": args.seed,
                       "ops": [op.name for op in ops]},
                      [(k, r0, spans) for k, r0, _w, spans in traced])

    print(f"bench: {args.workload} seed {args.seed}: {len(outputs)} rounds, "
          f"round walls {[round(w, 3) for w in plain]} untraced"
          + (f", {[round(w, 3) for _k, _r, w, _s in traced]} traced"
             if traced else "") + f"; checks {t_check:.2f} s", file=sys.stderr)
    print(f"bench: pace kernel median {statistics.median(paces) * 1e3:.2f} ms; "
          f"fastest-round sum {sum(min(w) for w in op_walls.values()):.3f} s, "
          f"median-round sum {sum(statistics.median(w) for w in op_walls.values()):.3f} s "
          "(unpaced)", file=sys.stderr)
    print("bench: op walls " + ", ".join(
        f"{name} {[round(w, 3) for w in ws]}" for name, ws in op_walls.items()),
        file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
