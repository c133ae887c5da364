#!/usr/bin/env python3
"""Monte Carlo error rates against the analytic union bound.

Simulates a spherical section of a chosen code over an SNR grid, prints the
measured block error rate next to the Chernoff union bound, and estimates the
high-SNR slope from the points with enough error events.  The local slope of
a row is -d log10(rate) / d log10(rho) between it and the row above; it is
blank where either rate is zero.
"""

import argparse
import math
import sys

from detsums.channel import (ChannelConfig, diversity_slope, fixed_code,
                             simulate, union_bounds)
from detsums.codes import CodeSpec
from detsums.errors import InsufficientStatistics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--code", default="golden",
                    choices=["golden", "diagonal-nf", "gaussian-diagonal"])
    ap.add_argument("--n", type=int, default=2)
    ap.add_argument("--radius", type=float, default=1.0)
    ap.add_argument("--n-r", type=int, default=2)
    ap.add_argument("--snr-start", type=float, default=5.0)
    ap.add_argument("--snr-stop", type=float, default=25.0)
    ap.add_argument("--snr-step", type=float, default=2.5)
    ap.add_argument("--trials", type=int, default=10000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--decoder", default="ml-exhaustive",
                    choices=["ml-exhaustive", "naive-lattice"])
    args = ap.parse_args()

    params = {"n": args.n} if args.code != "golden" else {}
    lat = CodeSpec(kind=args.code, params=params).resolve()
    grid = []
    db = args.snr_start
    while db <= args.snr_stop + 1e-9:
        grid.append(round(db, 6))
        db += args.snr_step

    cfg = ChannelConfig(n_t=lat.n, n_r=args.n_r, T=lat.T, snr_grid_db=tuple(grid),
                        trials_per_point=args.trials, seed=args.seed,
                        decoder=args.decoder, fixed_radius=args.radius)
    result = simulate(lat, cfg)
    code = fixed_code(lat, args.radius)

    print(f"code size {code.size}, decoder {args.decoder}, "
          f"{args.trials} trials/point")
    print(f"{'snr_db':>7} {'rate':>12} {'errors':>7} {'union_bound':>12} "
          f"{'local_slope':>11}")
    rates = result.error_rate
    bounds = union_bounds(code, args.n_r, [10.0 ** (snr / 10.0) for snr in grid])
    for idx, snr in enumerate(grid):
        ub = bounds[idx]
        slope = ""
        if idx > 0 and rates[idx - 1] > 0 and rates[idx] > 0:
            drop = math.log10(rates[idx - 1]) - math.log10(rates[idx])
            slope = f"{drop / ((snr - grid[idx - 1]) / 10.0):.2f}"
        print(f"{snr:7.1f} {rates[idx]:12.3e} "
              f"{result.error_count[idx]:7d} {ub:12.3e} {slope:>11}")
    try:
        print(f"high-SNR slope (top 3 qualified points): "
              f"{diversity_slope(result, window=3):.2f}")
    except InsufficientStatistics as exc:
        print(f"high-SNR slope unavailable: {exc}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
