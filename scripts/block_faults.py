#!/usr/bin/env python3
"""Minor page faults and best wall time per call of the benchmark's sum workloads.

    PYTHONPATH=src python3 scripts/block_faults.py [--passes 20] [--threads 2]

For each of the three ``sums-golden`` curves (the golden code over radii
1 .. 4, ``n_jobs=1``) and for ``pipeline.run`` on each preset (``n_jobs`` =
``--threads``, each preset's report into its own temporary directory), the
script makes one warm-up call and then ``--passes`` timed calls, and prints
the minor page faults per call (``getrusage``, whole process, mean over the
timed calls) and the fastest call's wall time.  The line ``sums-golden
pass`` adds the three curves up: faults per pass of the three, and the sum
of their best times.  The inputs mirror the ``sums-golden`` and ``presets``
workloads of ``perfbench/workloads.py``, one case at a time.  BLAS and
OpenMP threads are pinned to 1 unless the environment already sets them, as
``perfbench/run.py`` does.
"""

from __future__ import annotations

import argparse
import math
import os
import resource
import sys
import tempfile
import time

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
GOLDEN_RADII = (1.0, math.sqrt(2.0), 2.0, 2.0 * math.sqrt(2.0), 4.0)
GOLDEN_FAMILIES = {
    "shifted": {"family": "shifted", "m": 4, "c": 1.0},
    "approximate": {"family": "approximate", "m": 4},
    "mixed": {"family": "mixed", "m": 4, "i": 2},
}
PRESETS = ("golden", "diagonal-nf-2", "gaussian-diagonal-2")


def measure(call, passes: int) -> tuple[float, float]:
    """(Minor faults per call, best wall seconds) over ``passes`` calls after
    one warm-up call."""
    call()
    faults, best = 0, math.inf
    for _ in range(passes):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
        faults += resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    return faults / passes, best


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--passes", type=int, default=20, help="timed calls per case")
    ap.add_argument("--threads", type=int, default=2,
                    help="n_jobs of the preset runs (the benchmark uses 2)")
    args = ap.parse_args()
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")

    from detsums import codes, pipeline, presets, sums

    print(f"{'case':<28}{'faults/call':>12}{'best ms':>10}")
    lat = codes.golden_code()
    total_faults = total_best = 0.0
    for family, spec in GOLDEN_FAMILIES.items():
        spec = sums.SumSpec(**spec)
        faults, best = measure(
            lambda: sums.sum_curve(lat, spec, GOLDEN_RADII, n_jobs=1), args.passes)
        total_faults, total_best = total_faults + faults, total_best + best
        print(f"{'sums-golden ' + family:<28}{faults:>12.0f}{best * 1e3:>10.2f}")
    print(f"{'sums-golden pass':<28}{total_faults:>12.0f}{total_best * 1e3:>10.2f}")
    with tempfile.TemporaryDirectory(prefix="block-faults-") as tmp:
        for name in PRESETS:
            config = presets.build_preset(name, with_sim=False)
            faults, best = measure(
                lambda: pipeline.run(config, os.path.join(tmp, name),
                                     n_jobs=args.threads), args.passes)
            print(f"{'presets ' + name:<28}{faults:>12.0f}{best * 1e3:>10.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
