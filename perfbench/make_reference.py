"""Write perfbench/reference.json: the reference values the benchmark gates on.

Run from the repository root on the commit whose outputs are the reference:

    PYTHONPATH=src python3 perfbench/make_reference.py

It records the golden sum curves, every preset's report (curves, fits,
compare table, determinant scan) with the ball sizes behind the compare
cells and the determinant scan, and large-sample error counts of both
decoders on the simulation workload.  Takes about two minutes on one core.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads as w  # noqa: E402

# Trials per SNR point and seed of the reference simulation.
REF_TRIALS = 20000
REF_SEED = 14081506


def curve_ref(curve) -> dict:
    return {"point_counts": [int(c) for c in curve.point_counts],
            "values": [float(v) for v in curve.values]}


def sums_golden() -> dict:
    from detsums import codes, sums
    lat = codes.golden_code()
    families = {}
    for name, kw in w.GOLDEN_FAMILIES.items():
        families[name] = curve_ref(sums.sum_curve(lat, sums.SumSpec(**kw), w.GOLDEN_RADII))
    return {"radii": list(w.GOLDEN_RADII), "families": families}


def presets() -> dict:
    from detsums import lattice, pipeline
    from detsums.presets import build_preset
    out = {}
    for name in w.PRESET_NAMES:
        config = build_preset(name, with_sim=False)
        report = pipeline.run(config, None, n_jobs=1)
        lat = config.code.resolve()
        radii = sorted({float(M) for M in config.compare_radii}
                       | ({float(config.det_scan_radius)}
                          if config.det_scan_radius is not None else set()))
        balls = dict(zip(map(repr, radii), lattice.shell_counts(lat, radii)))
        out[name] = {
            "curves": {c.spec.label(): curve_ref(c) for c in report.curves},
            "fits": {k: fit.to_dict() for k, fit in report.fits.items()},
            "compare": [{"c": r["c"], "M": r["M"], "empirical": r["empirical"],
                         "ok": r["ok"]} for r in report.compare_table],
            "minAbsDet": report.lattice_summary.get("minAbsDet"),
            "balls": balls,
        }
    return out


def sim_golden() -> dict:
    from detsums import channel, codes, lattice
    lat = codes.golden_code()
    rates = {}
    for decoder in w.SIM_DECODERS:
        cfg = channel.ChannelConfig(
            n_t=2, n_r=w.SIM_N_R, T=2, snr_grid_db=w.SIM_SNR_DB,
            trials_per_point=REF_TRIALS, seed=REF_SEED, decoder=decoder,
            fixed_radius=w.SIM_RADIUS)
        sim = channel.simulate(lat, cfg)
        rates[decoder] = {"errors": list(sim.error_count), "trials": list(sim.trials)}
    code_ball, union_ball = lattice.shell_counts(lat, [w.SIM_RADIUS, 2 * w.SIM_RADIUS])
    return {"seed": REF_SEED, "rates": rates,
            "balls": {"code": code_ball, "union": union_ball}}


def main() -> int:
    ref = {"sums-golden": sums_golden(), "presets": presets(), "sim-golden": sim_golden()}
    path = HERE / "reference.json"
    path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
