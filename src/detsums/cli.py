"""Command-line surface.

Verbs: construct, enumerate, sum, fit, envelope, dmt, threshold, simulate,
run.  Output goes to --out when given, else stdout; scalars print as a single
JSON value and curves as CSV with a header line, so stdout is always machine
parseable.  Exit codes: 0 success, 1 computation error (stage-labeled message
on stderr), 2 usage error.

Radius grids are geometric ``start:factor:count`` progressions; the dmt and
simulate grids are linear ``start:stop:step``.  The DETSUMS_OUT environment
variable supplies the default output directory for ``run``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

from . import bounds, channel, codes, lattice, pipeline, presets, sums
from .errors import LatticeSumError

__all__ = ["main", "build_parser"]


def _geometric_grid(text: str) -> list[float]:
    try:
        start_s, factor_s, count_s = text.split(":")
        start, factor, count = float(start_s), float(factor_s), int(count_s)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected start:factor:count, got {text!r}") from exc
    if not start > 0 or not factor > 1 or count < 1:
        raise argparse.ArgumentTypeError("need start > 0, factor > 1, count >= 1")
    return [start * factor ** j for j in range(count)]


def _linear_grid(text: str) -> list[float]:
    try:
        start_s, stop_s, step_s = text.split(":")
        start, stop, step = float(start_s), float(stop_s), float(step_s)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected start:stop:step, got {text!r}") from exc
    if not all(map(math.isfinite, (start, stop, step))):
        raise argparse.ArgumentTypeError(f"start, stop and step must be finite, got {text!r}")
    if step <= 0:
        raise argparse.ArgumentTypeError("step must be positive")
    if start > stop:
        raise argparse.ArgumentTypeError(f"start must not exceed stop, got {text!r}")
    out = []
    j = 0
    while True:
        v = start + j * step
        if v > stop + step * 1e-9:
            break
        out.append(round(v, 12))
        j += 1
    return out


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_scalar(value, args) -> None:
    _emit(json.dumps(value) + "\n", getattr(args, "out", None))


def _resolve_code_arg(args) -> lattice.MatrixLattice:
    if getattr(args, "basis_json", None):
        return lattice.lattice_from_json(args.basis_json)
    params = {}
    if getattr(args, "n", None) is not None:
        params["n"] = args.n
    spec = codes.CodeSpec(kind=args.code, params=params,
                          normalization=getattr(args, "normalization", "raw"))
    return spec.resolve()


# ---------------------------------------------------------------------------
# verb handlers
# ---------------------------------------------------------------------------

def _cmd_construct(args) -> int:
    lat = _resolve_code_arg(args)
    doc = {
        "n": lat.n, "T": lat.T, "k": lat.k,
        "minNormSq": lat.min_norm_sq, "covolume": lat.covolume,
    }
    if args.emit_basis:
        doc["basis"] = lattice.lattice_to_json(lat)["basis"]
    _emit(json.dumps(doc, sort_keys=True) + "\n", args.out)
    return 0


def _cmd_enumerate(args) -> int:
    lat = _resolve_code_arg(args)
    rows = ["coeffs,norm_f"]
    for coeffs, norm_sq in lattice.coefficient_blocks(lat, args.M, budget=args.budget):
        # Each image of the block follows it in the same row order.
        norms = norm_sq.tolist()
        coeffs = lattice.orbit_images(lat, coeffs, dedup_signs=args.dedup_signs)
        rows.extend(f"\"{' '.join(map(str, z))}\",{math.sqrt(norms[j % len(norms)])!r}"
                    for j, z in enumerate(coeffs.tolist()))
        if 0 < args.limit < len(rows):
            del rows[args.limit + 1:]
            break
    _emit("\n".join(rows) + "\n", args.out)
    return 0


def _cmd_sum(args) -> int:
    if args.M is None and not args.grid:
        print("error[sum]: give --M or --grid", file=sys.stderr)
        return 2
    lat = _resolve_code_arg(args)
    spec = sums.SumSpec(family=args.family, m=args.m, c=args.c, i=args.i,
                        skip_singular=args.skip_singular)
    if args.grid:
        curve = sums.sum_curve(lat, spec, args.grid, budget=args.budget)
        _emit(curve.to_csv(), args.out)
    else:
        value, count = sums.evaluate_sum(lat, spec, args.M, budget=args.budget)
        _emit_scalar(value if not args.with_count else
                     {"value": value, "points": count}, args)
    return 0


def _cmd_fit(args) -> int:
    import csv as _csv
    with open(args.curve, "r", encoding="utf-8") as fh:
        reader = _csv.DictReader(fh)
        radii, values = [], []
        for row in reader:
            radii.append(float(row["M"]))
            values.append(float(row["value"]))
    fit = bounds.growth_fit((radii, values))
    _emit(json.dumps(fit.to_dict(), sort_keys=True) + "\n", args.out)
    return 0


def _parse_s_table(text: str) -> dict:
    table = {}
    for part in text.split(","):
        l_s, v_s = part.split("=")
        table[int(l_s)] = float(v_s)
    return table


def _cmd_envelope(args) -> int:
    indices = None
    if args.indices:
        indices = [int(v) for v in args.indices.split(",")]
    env = bounds.shift_bound_envelope(args.n, args.k, args.m,
                                      _parse_s_table(args.s), indices=indices)
    _emit(json.dumps(env.to_dict(), sort_keys=True) + "\n", args.out)
    return 0


def _cmd_dmt(args) -> int:
    if args.naive:
        curve = bounds.dmt_naive_bound(args.a, args.k, args.T)
    else:
        curve = bounds.dmt_ml_bound(args.a, args.b, args.k, args.T)
    if args.format == "json":
        _emit(json.dumps(curve.to_json_dict(), sort_keys=True) + "\n", args.out)
    else:
        _emit(curve.to_csv(args.grid), args.out)
    return 0


def _cmd_threshold(args) -> int:
    exponent = bounds.snr_threshold_exponent(args.d, args.t)
    if args.M is not None:
        _emit_scalar(bounds.snr_threshold(args.d, args.t, args.M), args)
    else:
        _emit_scalar(float(exponent), args)
    return 0


def _cmd_simulate(args) -> int:
    lat = _resolve_code_arg(args)
    cfg = channel.ChannelConfig(
        n_t=lat.n, n_r=args.n_r, T=lat.T, snr_grid_db=tuple(args.snr_db),
        trials_per_point=args.trials, seed=args.seed, decoder=args.decoder,
        multiplexing_r=args.r, fixed_radius=args.radius,
        noise_scale=args.noise_scale)
    result = channel.simulate(lat, cfg)
    if args.format == "json":
        _emit(json.dumps(result.to_json_dict(), sort_keys=True) + "\n", args.out)
    else:
        _emit(result.to_csv(), args.out)
    return 0


def _cmd_run(args) -> int:
    if (args.preset is None) == (args.config is None):
        print("error[run]: give exactly one of --preset and --config",
              file=sys.stderr)
        return 2
    if args.config is not None:
        with open(args.config, "r", encoding="utf-8") as fh:
            config = pipeline.ExperimentConfig.from_dict(json.load(fh))
    else:
        config = presets.build_preset(args.preset, seed=args.seed,
                                      with_sim=args.with_sim)
    out_dir = args.out or os.environ.get("DETSUMS_OUT")
    if out_dir is None:
        out_dir = Path.cwd() / "reports" / config.name
    out_dir = Path(out_dir)
    report = pipeline.run(config, out_dir)
    print(f"run: wrote report for {config.name} under {out_dir}", file=sys.stderr)
    sys.stdout.write(json.dumps({"outDir": str(out_dir), "hash": report.hash})
                     + "\n")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_code_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--code", default="golden",
                   choices=["golden", "diagonal-nf", "gaussian-diagonal"],
                   help="built-in construction")
    p.add_argument("--n", type=int, help="degree for diagonal constructions")
    p.add_argument("--basis-json", help="load a custom basis from a JSON file")
    p.add_argument("--normalization", default="raw",
                   choices=["raw", "unit-minnorm"])


def build_parser() -> argparse.ArgumentParser:
    root = argparse.ArgumentParser(prog="detsums",
                                   description="determinant sums over matrix lattices")
    subs = root.add_subparsers(dest="verb", required=True)

    p = subs.add_parser("construct", help="build a lattice and print its summary")
    _add_code_args(p)
    p.add_argument("--emit-basis", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_construct)

    p = subs.add_parser("enumerate", help="list lattice points inside a ball")
    _add_code_args(p)
    p.add_argument("--M", type=float, required=True)
    p.add_argument("--dedup-signs", action="store_true")
    p.add_argument("--limit", type=int, default=0)
    p.add_argument("--budget", type=int, default=lattice.DEFAULT_BUDGET)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_enumerate)

    p = subs.add_parser("sum", help="evaluate one sum family")
    _add_code_args(p)
    p.add_argument("--family", required=True,
                   choices=["shifted", "approximate", "mixed"])
    p.add_argument("--m", type=float, required=True)
    p.add_argument("--c", type=float, default=0.0)
    p.add_argument("--i", type=int)
    radius = p.add_mutually_exclusive_group()
    radius.add_argument("--M", type=float)
    radius.add_argument("--grid", type=_geometric_grid,
                        help="geometric radius grid start:factor:count")
    p.add_argument("--skip-singular", action="store_true")
    p.add_argument("--with-count", action="store_true")
    p.add_argument("--budget", type=int, default=lattice.DEFAULT_BUDGET)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_sum)

    p = subs.add_parser("fit", help="fit growth exponents from a curve CSV")
    p.add_argument("--curve", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_fit)

    p = subs.add_parser("envelope", help="shift-bound envelope from an exponent table")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--s", required=True, help="table l=value,l=value")
    p.add_argument("--indices", help="comma-separated split indices")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_envelope)

    p = subs.add_parser("dmt", help="DMT lower-bound line")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, default=0.0)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--T", type=int, required=True)
    p.add_argument("--naive", action="store_true",
                   help="use the infinite-lattice decoding formula (a, k, T)")
    p.add_argument("--grid", type=_linear_grid, default=_linear_grid("0:2:0.1"),
                   help="r grid start:stop:step")
    p.add_argument("--format", default="csv", choices=["csv", "json"])
    p.add_argument("--out")
    p.set_defaults(func=_cmd_dmt)

    p = subs.add_parser("threshold", help="SNR-threshold exponent (t+d)/d")
    p.add_argument("--d", type=float, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--M", type=float, help="also evaluate the threshold at M")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_threshold)

    p = subs.add_parser("simulate", help="Monte Carlo block error rates")
    _add_code_args(p)
    p.add_argument("--n-r", type=int, required=True)
    p.add_argument("--snr-db", type=_linear_grid, required=True,
                   help="SNR grid in dB, start:stop:step")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--decoder", default="ml-exhaustive", choices=channel.DECODERS)
    p.add_argument("--radius", type=float, help="fixed code radius M")
    p.add_argument("--r", type=float, help="multiplexing gain (scheme mode)")
    p.add_argument("--noise-scale", type=float, default=1.0)
    p.add_argument("--format", default="csv", choices=["csv", "json"])
    p.add_argument("--out")
    p.set_defaults(func=_cmd_simulate)

    p = subs.add_parser("run", help="run an experiment preset or config file")
    p.add_argument("--preset", choices=presets.preset_names())
    p.add_argument("--config", help="experiment config JSON file")
    p.add_argument("--seed", type=int, default=0,
                   help="seed of a preset's simulation (with --with-sim)")
    p.add_argument("--with-sim", action="store_true")
    p.add_argument("--out", help="report directory (default $DETSUMS_OUT)")
    p.set_defaults(func=_cmd_run)

    return root


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except LatticeSumError as exc:
        print(f"error[{args.verb}]: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error[{args.verb}]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
