#!/usr/bin/env python3
"""Minor page faults and best wall time per call of the benchmark's sum workloads.

    PYTHONPATH=src python3 scripts/block_faults.py [--passes 20]

For each of the three ``sums-golden`` curves (the golden code over radii
1 .. 4) and for ``pipeline.run`` on each preset (each preset's report into
its own temporary directory), the script makes one warm-up call and then
``--passes`` timed calls, and prints the minor page faults per call
(``getrusage``, whole process, mean over the timed calls), the fastest
call's wall time, and the number of blocks the call's walks yield and the
rows of the largest, counted on one more, untimed call.  The line ``sums-golden pass`` adds the three curves up:
faults, best times and blocks summed, the largest block over the three.
The inputs mirror the ``sums-golden`` and ``presets`` workloads of
``perfbench/workloads.py``, one case at a time.  BLAS and OpenMP threads are
pinned to 1 unless the environment already sets them, as ``perfbench/run.py``
does.
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


def block_rows(call, modules) -> list[int]:
    """Rows of each block that the walks of one ``call`` yield, counted by
    wrapping ``esp_blocks`` or ``coefficient_blocks`` where each of
    ``modules`` looks it up."""
    rows = []

    def counted(walk):
        def blocks(*args, **kwargs):
            for block in walk(*args, **kwargs):
                rows.append(len(block[0]))
                yield block
        return blocks

    walks = {(mod, name): getattr(mod, name) for mod in modules
             for name in ("esp_blocks", "coefficient_blocks") if hasattr(mod, name)}
    for (mod, name), walk in walks.items():
        setattr(mod, name, counted(walk))
    try:
        call()
    finally:
        for (mod, name), walk in walks.items():
            setattr(mod, name, walk)
    return rows


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--passes", type=int, default=20, help="timed calls per case")
    args = ap.parse_args()
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")

    from detsums import channel, codes, pipeline, presets, sums
    walkers = (sums, codes, channel)

    def report(case, faults, best, rows):
        print(f"{case:<28}{faults:>12.0f}{best * 1e3:>10.2f}{len(rows):>8}"
              f"{max(rows, default=0):>10}")

    print(f"{'case':<28}{'faults/call':>12}{'best ms':>10}{'blocks':>8}{'largest':>10}")
    lat = codes.golden_code()
    total_faults = total_best = 0.0
    total_rows = []
    for family, spec in GOLDEN_FAMILIES.items():
        spec = sums.SumSpec(**spec)

        def call():
            sums.sum_curve(lat, spec, GOLDEN_RADII)

        faults, best = measure(call, args.passes)
        rows = block_rows(call, walkers)
        total_faults, total_best = total_faults + faults, total_best + best
        total_rows += rows
        report("sums-golden " + family, faults, best, rows)
    report("sums-golden pass", total_faults, total_best, total_rows)
    with tempfile.TemporaryDirectory(prefix="block-faults-") as tmp:
        for name in PRESETS:
            config = presets.build_preset(name, with_sim=False)

            def call():
                pipeline.run(config, os.path.join(tmp, name))

            faults, best = measure(call, args.passes)
            report("presets " + name, faults, best, block_rows(call, walkers))
    return 0


if __name__ == "__main__":
    sys.exit(main())
