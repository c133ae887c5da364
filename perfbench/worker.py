"""One workload process: set up, say ``ready``, run timed passes, print one JSON line.

Started by ``run.py`` with BLAS/OpenMP threads pinned to 1 and ``src`` on the
import path.  With ``--setup-only`` it exits after ``ready``, which is how
``run.py`` samples set-up time in fresh processes.  Untraced, it repeats the
workload's pass while another pass fits in ``--seconds``.  Traced, it
runs pairs of an untraced and a traced pass, so that the trace overhead is the
difference of their pass times as ``op_times`` estimates them, and writes the
spans of the traced passes to ``--out-dir``.  Gates that need the whole run
(``Workload.finish``) count with the last pass.

The host is shared, and its speed moves by a fifth within a minute.  Before
each untraced pass the worker times host probes (see ``timed``): a fixed
piece of pure-Python and numpy work that is no part of ``detsums``.  Where
the program runs on one thread, the reported ``wall_s`` and ``cpu_s`` are the
measured times scaled by ``PROBE_REF_S`` over the run's fastest probe:
seconds on a host whose fastest probe takes ``PROBE_REF_S``.  The probe runs
on one thread, so it does not stand for the speed of two threads on the two
vCPUs: ``presets`` (``n_jobs=2``) reports its times unscaled, which on a
shared 2-vCPU VM spread less from run to run than scaled ones in each of
five sets of five to ten runs.  The unscaled times and the probe's are in
the detail line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

from run import THREAD_VARS

HERE = Path(__file__).resolve().parent
# Fastest host probe on the 2-vCPU VM the benchmark was defined on.
PROBE_REF_S = 2.0e-3
PROBES_PER_PASS = 3
PROBE_SHARE = 0.02
_PROBE_DATA = None


def _probe_work() -> None:
    global _PROBE_DATA
    import numpy as np
    if _PROBE_DATA is None:
        _PROBE_DATA = np.random.default_rng(0).random(20000)
    acc = 0
    for i in range(30000):
        acc += i * i
    np.sort(_PROBE_DATA)
    np.sort(_PROBE_DATA)


def probe() -> float:
    """Seconds of a fixed interpreter loop and two numpy sorts."""
    start = time.perf_counter()
    _probe_work()
    return time.perf_counter() - start


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def op_times(passes) -> tuple[float, float]:
    """Wall and CPU seconds of a pass, summed over its operations.

    Each operation counts with its fastest call over the passes: the host's
    speed drifts by a quarter within tens of seconds, and the fastest time
    varies least from run to run.  A family of operations (``family#member``)
    counts as its number of members times its median member, so that a member
    whose inputs are far slower than the rest, as in the sphere decoder's
    heavy tail, cannot swing the total.
    """
    per_op: dict[str, list[tuple[float, float]]] = {}
    for result, _, _ in passes:
        for op, times in result.times.items():
            per_op.setdefault(op, []).extend(times)
    families: dict[str, list[tuple[float, float]]] = {}
    for op, times in per_op.items():
        families.setdefault(op.split("#")[0], []).append(
            (min(w for w, _ in times), min(c for _, c in times)))
    wall = sum(len(f) * statistics.median(w for w, _ in f) for f in families.values())
    cpu = sum(len(f) * statistics.median(c for _, c in f) for f in families.values())
    return wall, cpu


def timed(workload, probes=None, last_wall=0.0):
    """One pass with its wall and CPU seconds.  If ``probes`` is a list, host
    probes go into it first: at least ``PROBES_PER_PASS``, and for at least
    ``PROBE_SHARE`` of ``last_wall``, the previous pass's wall time."""
    if probes is not None:
        start = time.perf_counter()
        for _ in range(PROBES_PER_PASS):
            probes.append(probe())
        while time.perf_counter() - start < PROBE_SHARE * last_wall:
            probes.append(probe())
    wall, cpu = time.perf_counter(), time.process_time()
    result = workload.run_pass()
    return result, time.perf_counter() - wall, time.process_time() - cpu


def untraced(workload, seconds: float) -> dict:
    start = time.perf_counter()
    passes, probes = [], []
    while True:
        passes.append(timed(workload, probes, passes[-1][1] if passes else 0.0))
        longest = max(p[1] for p in passes)
        if time.perf_counter() - start + longest > seconds:
            return {"passes": passes, "probes": probes}


def traced(workload, seconds: float, out_dir: Path, tag: str) -> dict:
    import tracer as tr
    t = tr.Tracer()
    start = time.perf_counter()
    plain, traced_passes, layers, spans, roots, probes = [], [], [], [], {}, []
    while True:
        # Alternate which of the pair runs first, so neither gets the warmer machine.
        if len(plain) % 2 == 0:
            plain.append(timed(workload, probes, plain[-1][1] if plain else 0.0))
        t.install()
        try:
            result, wall, cpu = timed(workload)
        finally:
            t.uninstall()
        traced_passes.append((result, wall, cpu))
        if len(plain) < len(traced_passes):
            plain.append(timed(workload, probes, plain[-1][1]))
        pass_spans, walks = t.take()
        layers.append(tr.layer_metrics(pass_spans, walks, result.points))
        roots = tr.walks_by_root(pass_spans, walks)
        spans.extend(pass_spans)
        longest = max(p[1] for p in plain) + max(p[1] for p in traced_passes)
        if time.perf_counter() - start + longest > seconds:
            break
    trace_path = out_dir / f"trace-{tag}.jsonl"
    tr.write_spans(trace_path, spans)
    per_layer = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
    per_layer["trace.overhead_s"] = op_times(traced_passes)[0] - op_times(plain)[0]
    return {"passes": plain, "probes": probes, "extra": traced_passes, "per_layer": per_layer,
            "absent": t.absent, "walks_by_root": roots, "trace_file": str(trace_path)}


def summarize(run: dict, workload) -> dict:
    passes = run["passes"]
    every = passes + run.get("extra", [])
    walls = [p[1] for p in passes]
    raw_wall, raw_cpu = op_times(passes)
    host = PROBE_REF_S / min(run["probes"]) if workload.threads == 1 else 1.0
    wall, cpu = raw_wall * host, raw_cpu * host
    first = passes[0][0]
    results = [p[0] for p in every] + [workload.finish()]
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    problems = [msg for r in results for msg in r.problems]
    out = {
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0,
        "problems": problems[:20],
        "overflows": sum(r.overflows for r in results),
        "samples": len(passes),
        "wall_s_samples": walls,
        "cpu_s_samples": [p[2] for p in passes],
        "wall_s_unscaled": raw_wall,
        "cpu_s_unscaled": raw_cpu,
        "probe_s_fastest": min(run["probes"]),
        "probe_s_median": statistics.median(run["probes"]),
        "metrics": {
            "wall_s": wall,
            "cpu_s": cpu,
            "points_per_s": first.points / wall,
            "trials_per_s": first.trials / wall,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "fail_ratio": failed / attempted,
        },
        "points_per_pass": first.points,
        "trials_per_pass": first.trials,
    }
    for key in ("per_layer", "absent", "walks_by_root", "trace_file"):
        if key in run:
            out[key] = run[key]
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--out-dir", type=Path, required=True)
    args = p.parse_args(argv)

    import detsums
    import workloads
    src = HERE.parent / "src"
    if Path(detsums.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"detsums imported from {detsums.__file__}, not from {src}")
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    workload = workloads.build(args.workload, args.seed, reference, args.out_dir)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    tag = f"{args.workload}-seed{args.seed}"
    if args.trace:
        run = traced(workload, args.seconds, args.out_dir, tag)
    else:
        run = untraced(workload, args.seconds)
    out = summarize(run, workload)
    out["env"] = environment()
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
