#!/usr/bin/env python3
"""Where a ``sim-golden`` simulation spends its time: µs per step and nodes per search.

    PYTHONPATH=src python3 scripts/decode_profile.py [--seeds 400] [--seed 0] [--passes 3]

Runs ``channel.simulate``'s own chunk steps on the benchmark's simulations
(golden code, radius 1, n_r = 2, 2 trials at 5, 7.5, .., 25 dB; seeds drawn
from ``--seed``) and prints the median over seeds of each seed's fastest of
``--passes`` runs of each step (draw, naive front end, searches, ML metric),
then the nodes of each naive search: the least ``node_budget`` under which
it completes.  BLAS threads are pinned to 1 unless the environment sets them.
"""

import argparse
import contextlib
import math
import os
import random
import time

SNR_DB = tuple(5.0 + 2.5 * j for j in range(9))
TRIALS, N_R = 2, 2


def nodes_of(channel, A, y, front) -> int:
    """Least node budget under which the search completes, by bisection."""
    def completes(budget):
        try:
            return channel.sphere_cvp(A, y, front=front, node_budget=budget) is not None
        except channel.RadiusOverflow:
            return False
    low, high = 0, 1
    while not completes(high):
        low, high = high, 2 * high
    while high - low > 1:
        mid = (low + high) // 2
        low, high = (low, mid) if completes(mid) else (mid, high)
    return high


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=400, help="simulations (ChannelConfig seeds)")
    ap.add_argument("--seed", type=int, default=0, help="draws the simulations' seeds")
    ap.add_argument("--passes", type=int, default=3, help="timed runs per simulation")
    args = ap.parse_args()
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")     # as perfbench/run.py, before numpy
    import numpy as np
    from detsums import channel, codes

    lat = codes.golden_code()
    code = channel.fixed_code(lat, 1.0)
    rows = np.arange(len(SNR_DB) * TRIALS)
    points, trials = rows // TRIALS, rows % TRIALS
    amp = np.array([math.sqrt(10.0 ** (db / 10.0) / lat.n) * code.theta
                    for db in SNR_DB])[points]
    draw = random.Random(args.seed)
    steps = {"draw": [], "front end": [], "search": [], "ML metric": []}
    nodes = []
    for _ in range(args.seeds):
        streams = channel._TrialStreams(draw.getrandbits(32))
        best = [math.inf] * len(steps)
        for _ in range(args.passes):
            t = [time.perf_counter()]
            j, H, y = streams.draw(code, points, trials, amp, N_R, 1.0)
            t.append(time.perf_counter())
            gens, targets, _ = channel._naive_problems(code, H, y, amp, j)
            fronts = channel._front_ends(gens, targets)
            t.append(time.perf_counter())
            for A, target, front in zip(gens, targets, fronts):
                with contextlib.suppress(channel.RadiusOverflow):
                    channel.sphere_cvp(A, target, front=front)
            t.append(time.perf_counter())
            channel._ml_metrics(code, H, y, amp).argmin(axis=1)
            t.append(time.perf_counter())
            best = [min(b, t1 - t0) for b, t0, t1 in zip(best, t, t[1:])]
        for times, took in zip(steps.values(), best):
            times.append(took)
        nodes += [nodes_of(channel, *problem) for problem in zip(gens, targets, fronts)]
    print(f"{'step':<12}{'median us/simulation':>22}")
    for step, times in steps.items():
        print(f"{step:<12}{np.median(times) * 1e6:>22.1f}")
    p50, p90, p99 = np.percentile(nodes, [50, 90, 99])
    print(f"nodes per naive trial ({len(nodes)}): median {p50:.0f}, p90 {p90:.0f}, "
          f"p99 {p99:.0f}, mean {np.mean(nodes):.1f}, max {max(nodes)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
