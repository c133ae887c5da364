"""detsums benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the repository root.  Workloads are ``sums-golden``, ``presets``
and ``sim-golden`` (see ``workloads.py`` for what each stresses and why).  Each
run starts the workload in a fresh process with BLAS/OpenMP threads pinned to
1, after ``SETUP_PROBES`` set-up-only processes; ``setup_s`` is the median
time from process start to ready over all of them.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The line before it
holds the details: samples, environment, seed, and any failed gates.
``--workload all`` runs every workload untraced and prints a table of all
end-to-end metrics, including those that are zero on some workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_build" / "perfbench"
SETUP_PROBES = 6
# Longest a worker may run beyond --seconds: its set-up and one last pass.
GRACE_S = 120.0

WORKLOADS = ("sums-golden", "presets", "sim-golden")

# End-to-end metrics that carry a regression bound: never 0 on any workload.
END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s",
              "points_per_s": "1/s", "peak_rss_mb": "MB"}
# End-to-end metrics that are 0 on some workload; printed by --workload all
# and reported, unbounded, with the traced run.
ZERO_ON_SOME = {"trials_per_s": "1/s", "fail_ratio": "ratio"}
PER_LAYER = {
    "lattice.walk_s": "s", "lattice.walk_ns_per_pt": "ns/pt",
    "lattice.points": "count", "lattice.blocks": "count",
    "lattice.enumerations": "count", "lattice.reuse_ratio": "ratio",
    "lattice.realize_s": "s", "lattice.realize_ns_per_pt": "ns/pt",
    "linalg.shifted_ns_per_pt": "ns/pt", "linalg.det_ns_per_pt": "ns/pt",
    "linalg.det_gram_ns_per_pt": "ns/pt",
    "sums.self_s": "s", "sums.shifted_ns_per_pt": "ns/pt",
    "sums.approximate_ns_per_pt": "ns/pt", "sums.mixed_ns_per_pt": "ns/pt",
    "codes.det_scan_s": "s", "bounds.s": "s", "pipeline.self_s": "s",
    "channel.ml_us_per_trial": "us/trial", "channel.naive_us_per_trial": "us/trial",
    "channel.sphere_cvp_s": "s", "channel.sphere_cvp_calls": "count",
    "channel.code_build_s": "s", "channel.union_bound_s": "s",
    "channel.overflows": "count", "trace.overhead_s": "s",
    **ZERO_ON_SOME,
}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(Exception):
    """The benchmark could not produce a result."""


def worker_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    return env


def start_worker(workload: str, seed: int, extra: list[str]) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for its ``ready`` line; returns it and its set-up time."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--out-dir", str(OUT_DIR), *extra]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE,
                            text=True)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise BenchError(f"{workload} worker failed during set-up")
    return proc, setup


def finish(proc: subprocess.Popen, timeout: float) -> str:
    """Wait for a worker and return the rest of its output; kill it on timeout."""
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("worker timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}")
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    setups = []
    for _ in range(SETUP_PROBES):
        proc, setup = start_worker(workload, seed, ["--setup-only"])
        finish(proc, GRACE_S)
        setups.append(setup)
    proc, setup = start_worker(workload, seed,
                               ["--seconds", str(seconds), "--trace", str(trace)])
    setups.append(setup)
    out = finish(proc, seconds + GRACE_S)
    result = json.loads(out.strip().splitlines()[-1])
    result["metrics"]["setup_s"] = statistics.median(setups)
    result["setup_s_samples"] = setups
    result["seed"] = seed
    result["workload"] = workload
    return result


def metric_line(result: dict, units: dict, source: dict) -> dict:
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: {"value": source[name], "unit": unit}
                        for name, unit in units.items()}}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "detsums" / "__init__.py").is_file():
        print(f"no detsums sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload == "all":
            return run_all(args.seed, args.seconds)
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if args.trace:
        per_layer = dict(result["per_layer"])
        per_layer.update({k: result["metrics"][k] for k in ZERO_ON_SOME})
        line = metric_line(result, PER_LAYER, per_layer)
    else:
        line = metric_line(result, END_TO_END, result["metrics"])
    detail = {k: v for k, v in result.items() if k not in ("metrics", "per_layer")}
    print(json.dumps(detail))
    print(json.dumps(line))
    return 0


def run_all(seed: int, seconds: float) -> int:
    units = {**END_TO_END, **ZERO_ON_SOME}
    rows = {w: run_workload(w, seed, seconds, 0) for w in WORKLOADS}
    print(f"{'metric':<14} {'unit':<6}" + "".join(f"{w:>16}" for w in WORKLOADS))
    for name, unit in units.items():
        print(f"{name:<14} {unit:<6}"
              + "".join(f"{rows[w]['metrics'][name]:>16.6g}" for w in WORKLOADS))
    print("correct        " + "".join(f"{str(rows[w]['correct']):>16}" for w in WORKLOADS))
    print(json.dumps({w: metric_line(r, units, r["metrics"]) for w, r in rows.items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
