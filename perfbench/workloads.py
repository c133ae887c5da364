"""The benchmark's workloads: generated inputs, one timed pass, and correctness gates.

Each workload is a closed loop: one process and one caller, each call waiting
for the previous one.  The only extra threads are the program's own
``n_jobs`` workers (BLAS threads are pinned to 1 by ``run.py``).

* ``sums-golden`` -- ``sum_curve`` on the golden code over radii 1 .. 4 for
  the shifted, approximate and mixed families with ``n_jobs=1``: one large
  enumeration per family (306,048 points), so the walk, realization and term
  kernels do almost all the work while ``channel``, ``bounds`` and
  ``pipeline`` stay idle.  The inputs are fixed; the seed only labels the
  run.  The grid stops at 4, not 4*sqrt(2) (4,558,736 points, the same cost
  per point): a 3 s call fits only four times in a run, and its fastest time
  swung between runs by a quarter with the shared host's load, while the
  fastest of some eighty 0.15 s calls stays within the benchmark's bounds.
* ``presets`` -- ``pipeline.run`` on the three embedded presets with
  ``n_jobs=2`` and ``with_sim=False``, into a fresh temporary directory: many
  medium enumerations of the same balls (the compare table re-walks R=2 and
  R=4 once per c value), plus the bounds, the determinant scan, persistence
  and thread partitioning.  The seed goes into ``build_preset(seed=...)``.
* ``sim-golden`` -- ``simulate`` on the 16-codeword golden code with the ML
  and the naive-lattice decoder, then ``union_bound`` at every SNR point:
  per-trial Python work, RNG setup and decoding, with almost no enumeration.
  The sphere decoder's cost has a heavy tail over the channel draws (one
  seed's 900 trials can take ten times another's), so a pass is
  ``SIM_CONFIGS`` small simulations per decoder, each with its own
  ``ChannelConfig`` seed drawn from the run's seed.  The simulations of a
  decoder form one operation family, so its time is their number times its
  median simulation, which the tail cannot swing.  Every pass repeats the
  same simulations, which must give the same result each time; their error
  counts (800 trials per SNR point and decoder) are gated once, when the run
  ends.

An operation is one sum evaluation, one preset run, one trial, or one union
bound; a raised package error or a failed gate counts it as failed.  A trial
whose sphere search exhausts its node budget is not a failed operation: the
decoder reports ``RadiusOverflow`` by design, ``simulate`` counts the trial as
a block error and reports it in ``overflow_count``, and the rate gate checks
the error counts that include it.  The benchmark reports those trials as
``overflows``.
"""

from __future__ import annotations

import math
import random
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

SQRT2 = math.sqrt(2.0)
REL_TOL = 1e-9
# Absolute floor for gated values that can sit at round-off scale (fit residuals).
ABS_TOL = 1e-12

GOLDEN_RADII = (1.0, SQRT2, 2.0, 2 * SQRT2, 4.0)
GOLDEN_FAMILIES = {
    "shifted": {"family": "shifted", "m": 4, "c": 1.0},
    "approximate": {"family": "approximate", "m": 4},
    "mixed": {"family": "mixed", "m": 4, "i": 2},
}
PRESET_NAMES = ("golden", "diagonal-nf-2", "gaussian-diagonal-2")
PRESET_JOBS = 2

SIM_SNR_DB = tuple(5.0 + 2.5 * j for j in range(9))
SIM_DECODERS = ("ml-exhaustive", "naive-lattice")
# Trials per SNR point of one simulation, and simulations per decoder in a pass.
SIM_TRIALS = 2
SIM_CONFIGS = 400
SIM_RADIUS = 1.0
SIM_N_R = 2
# Wilson score z for comparing a rate with the reference, and the tail
# probability below which a count is too high for a rate at the union bound.
# A run makes these 27 tests once, on the error counts pooled over its simulations.
# Each sits at five sigma or more, so a correct decoder fails a run with
# probability below 1e-4, while a decoder erring twice as often fails at 5 dB.
WILSON_Z = 5.0
BOUND_ALPHA = 1e-6


@dataclass
class PassResult:
    attempted: int = 0
    failed: int = 0
    # Trials that hit the sphere decoder's node budget (reported, not failed).
    overflows: int = 0
    points: int = 0
    trials: int = 0
    problems: list = field(default_factory=list)
    # Operation -> [(wall, cpu) seconds] of each program call it names.
    times: dict = field(default_factory=dict)

    def fail(self, what: str | None, count: int = 1) -> None:
        """Count ``count`` failed operations: outputs missing or differing
        from the reference."""
        self.failed += count
        if what:
            self.problems.append(what)

    @contextmanager
    def timing(self, op: str):
        wall, cpu = time.perf_counter(), time.process_time()
        try:
            yield
        finally:
            self.times.setdefault(op, []).append(
                (time.perf_counter() - wall, time.process_time() - cpu))


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def check_curve(curve, ref: dict, label: str, result: PassResult) -> bool:
    """Exact point counts and values within REL_TOL of the reference."""
    if list(curve.point_counts) != ref["point_counts"]:
        result.problems.append(f"{label}: point counts {curve.point_counts} "
                               f"!= {ref['point_counts']}")
        return False
    bad = [(v, r) for v, r in zip(curve.values, ref["values"]) if not close(v, r)]
    if bad or len(curve.values) != len(ref["values"]):
        result.problems.append(f"{label}: values differ {bad[:2]}")
        return False
    return True


def wilson_interval(errors: int, trials: int, z: float = WILSON_Z) -> tuple[float, float]:
    p = errors / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2.0 * trials)) / denom
    half = z / denom * math.sqrt(p * (1.0 - p) / trials + z * z / (4.0 * trials * trials))
    return center - half, center + half


def binom_tail(errors: int, trials: int, p: float) -> float:
    """P(X >= errors) for X ~ Binomial(trials, p), summed in log space."""
    if errors <= 0:
        return 1.0
    if p <= 0.0:
        return 0.0
    if p >= 1.0:
        return 1.0
    log_p, log_q = math.log(p), math.log1p(-p)
    base = math.lgamma(trials + 1)
    return math.fsum(
        math.exp(base - math.lgamma(k + 1) - math.lgamma(trials - k + 1)
                 + k * log_p + (trials - k) * log_q)
        for k in range(errors, trials + 1))


def check_rates(errors, trials, ref_errors, ref_trials, bounds) -> list[int]:
    """SNR indices whose error rate fails the statistical gate.

    A rate passes when its Wilson interval overlaps the reference's and, if
    ``bounds`` is given, where the union bound is at most 1, when its error
    count is not significantly above what a rate at the bound would give.
    """
    bad = []
    for idx, (e, n, re_, rn) in enumerate(zip(errors, trials, ref_errors, ref_trials)):
        if n == 0:
            continue
        lo, hi = wilson_interval(e, n)
        ref_lo, ref_hi = wilson_interval(re_, rn)
        over = (bounds is not None and bounds[idx] <= 1.0
                and binom_tail(e, n, bounds[idx]) < BOUND_ALPHA)
        if lo > ref_hi or ref_lo > hi or over:
            bad.append(idx)
    return bad


class Workload:
    """One workload: inputs built at set-up, then repeated timed passes.

    Every pass sees the same inputs and times each operation under a name of
    its own.  Operations named ``family#member`` form a family whose members
    differ only in their inputs.
    """

    # Threads the program runs on: its n_jobs.
    threads = 1

    def run_pass(self) -> PassResult:
        raise NotImplementedError

    def finish(self) -> PassResult:
        """Gates that need every pass of the run; none by default."""
        return PassResult()


class SumsGolden(Workload):
    def __init__(self, seed: int, ref: dict, workdir):
        from detsums import codes, sums
        self.sums = sums
        self.ref = ref["sums-golden"]
        self.lat = codes.golden_code()
        self.specs = {k: sums.SumSpec(**v) for k, v in GOLDEN_FAMILIES.items()}
        for spec in self.specs.values():
            sums.sum_curve(self.lat, spec, GOLDEN_RADII[:2])

    def run_pass(self) -> PassResult:
        from detsums.errors import LatticeSumError
        result = PassResult()
        for family, spec in self.specs.items():
            result.attempted += 1
            try:
                with result.timing(family):
                    curve = self.sums.sum_curve(self.lat, spec, GOLDEN_RADII, n_jobs=1)
            except LatticeSumError as exc:
                result.fail(f"{family}: {exc!r}")
                continue
            result.points += curve.point_counts[-1]
            if not check_curve(curve, self.ref["families"][family], family, result):
                result.fail(None)
        return result


class Presets(Workload):
    threads = PRESET_JOBS

    def __init__(self, seed: int, ref: dict, workdir):
        from detsums import pipeline, presets, sums
        self.pipeline = pipeline
        self.ref = ref["presets"]
        self.workdir = workdir
        self.configs = [presets.build_preset(name, seed=seed, with_sim=False)
                        for name in PRESET_NAMES]
        lat = self.configs[0].code.resolve()
        sums.sum_curve(lat, sums.SumSpec(family="shifted", m=4, c=1.0),
                       GOLDEN_RADII[:2], n_jobs=PRESET_JOBS)

    def run_pass(self) -> PassResult:
        from detsums.errors import LatticeSumError
        result = PassResult()
        for config in self.configs:
            result.attempted += 1
            try:
                with result.timing(config.name), \
                        tempfile.TemporaryDirectory(dir=self.workdir) as out:
                    report = self.pipeline.run(config, out, n_jobs=PRESET_JOBS)
            except LatticeSumError as exc:
                result.fail(f"{config.name}: {exc!r}")
                continue
            ref = self.ref[config.name]
            result.points += preset_points(report, ref)
            if not check_report(report, ref, result):
                result.fail(None)
        return result


def preset_points(report, ref: dict) -> int:
    """Logical points of one preset run: the curves' own counts plus the
    ball size behind every compare cell and the determinant scan."""
    balls = ref["balls"]
    points = sum(curve.point_counts[-1] for curve in report.curves)
    points += sum(balls[repr(float(row["M"]))] for row in report.compare_table)
    scan = report.config.det_scan_radius
    if report.lattice_summary.get("minAbsDet") is not None:
        points += balls[repr(float(scan))]
    return points


def check_report(report, ref: dict, result: PassResult) -> bool:
    name = report.config.name
    ok = True
    curves = {curve.spec.label(): curve for curve in report.curves}
    if sorted(curves) != sorted(ref["curves"]):
        result.problems.append(f"{name}: curves {sorted(curves)}")
        return False
    for label, curve in curves.items():
        ok &= check_curve(curve, ref["curves"][label], f"{name} {label}", result)
    if sorted(report.fits) != sorted(ref["fits"]):
        result.problems.append(f"{name}: fits {sorted(report.fits)}")
        return False
    for label, fit in report.fits.items():
        want = ref["fits"][label]
        got = fit.to_dict()
        if not all(close(got[k], want[k]) for k in ("s", "t", "logK", "residual")):
            result.problems.append(f"{name} fit {label}: {got} != {want}")
            ok = False
    rows = report.compare_table
    if len(rows) != len(ref["compare"]):
        result.problems.append(f"{name}: {len(rows)} compare rows")
        return False
    # The seed itself flags two cells (golden c=100 M=2, diagonal-nf-2 c=100
    # M=4) where the envelope anchored at the largest cell lies below the
    # sum, so the flags must match the reference rather than all be true.
    for row, want in zip(rows, ref["compare"]):
        if row["ok"] != want["ok"] or not close(row["empirical"], want["empirical"]):
            result.problems.append(f"{name} compare c={row['c']} M={row['M']}: {row}")
            ok = False
    min_det = report.lattice_summary.get("minAbsDet")
    if (min_det is None) != (ref["minAbsDet"] is None) or (
            min_det is not None and not close(min_det, ref["minAbsDet"])):
        result.problems.append(f"{name}: minAbsDet {min_det}")
        ok = False
    return ok


class SimGolden(Workload):
    def __init__(self, seed: int, ref: dict, workdir):
        from detsums import channel, codes
        self.channel = channel
        self.ref = ref["sim-golden"]
        self.lat = codes.golden_code()
        # The ChannelConfig seeds of the run's simulations, drawn from its seed.
        draw = random.Random(seed)
        self.seeds = [draw.getrandbits(32) for _ in range(SIM_CONFIGS)]
        # (decoder, seed) -> (error_count, overflow_count) of its first run.
        self.first = {}
        self.errors = {d: [0] * len(SIM_SNR_DB) for d in SIM_DECODERS}
        self.trials = {d: [0] * len(SIM_SNR_DB) for d in SIM_DECODERS}
        self.bounds = None
        for decoder in SIM_DECODERS:
            channel.simulate(self.lat, self.config(decoder, seed, SIM_SNR_DB[:1], 5))

    def config(self, decoder: str, seed: int, snr_db=SIM_SNR_DB, trials=SIM_TRIALS):
        return self.channel.ChannelConfig(
            n_t=2, n_r=SIM_N_R, T=2, snr_grid_db=snr_db, trials_per_point=trials,
            seed=seed, decoder=decoder, fixed_radius=SIM_RADIUS)

    def run_pass(self) -> PassResult:
        from detsums.errors import LatticeSumError
        result = PassResult()
        trials = len(SIM_SNR_DB) * SIM_TRIALS
        for idx, seed in enumerate(self.seeds):
            for decoder in SIM_DECODERS:
                result.attempted += trials
                try:
                    with result.timing(f"{decoder}#{idx}"):
                        sim = self.channel.simulate(self.lat, self.config(decoder, seed))
                except LatticeSumError as exc:
                    result.fail(f"{decoder} seed {seed}: {exc!r}", trials)
                    continue
                result.trials += trials
                result.overflows += sum(sim.overflow_count)
                outcome = (sim.error_count, sim.overflow_count)
                if (decoder, seed) in self.first:
                    first = self.first[decoder, seed]
                    if outcome != first:
                        result.fail(f"{decoder} seed {seed}: {outcome} on a rerun, "
                                    f"{first} before", trials)
                    continue
                self.first[decoder, seed] = outcome
                for snr, count in enumerate(sim.error_count):
                    self.errors[decoder][snr] += count
                    self.trials[decoder][snr] += sim.trials[snr]
        bounds = []
        result.attempted += len(SIM_SNR_DB)
        try:
            with result.timing("union_bound"):
                code = self.channel.fixed_code(self.lat, SIM_RADIUS)
                for db in SIM_SNR_DB:
                    bounds.append(self.channel.union_bound(code, SIM_N_R,
                                                           10.0 ** (db / 10.0)))
        except LatticeSumError as exc:
            result.fail(f"union bound: {exc!r}", len(SIM_SNR_DB) - len(bounds))
        else:
            self.bounds = bounds
            result.points += self.ref["balls"]["union"] * len(bounds)
            result.points += self.ref["balls"]["code"] * (
                1 + SIM_CONFIGS * len(SIM_DECODERS))
        return result

    def finish(self) -> PassResult:
        """Gate the error counts of all passes against the reference rates."""
        result = PassResult()
        for decoder in SIM_DECODERS:
            ref = self.ref["rates"][decoder]
            # The union bound bounds ML decoding of the finite code only; the
            # naive decoder searches the whole lattice and exceeds it at high
            # SNR (14/20000 errors at 25 dB against a bound of 1.6e-4).
            bounds = None
            if decoder == "ml-exhaustive":
                bounds = self.bounds or [math.inf] * len(SIM_SNR_DB)
            errors, trials = self.errors[decoder], self.trials[decoder]
            for idx in check_rates(errors, trials, ref["errors"], ref["trials"], bounds):
                result.fail(f"{decoder} {SIM_SNR_DB[idx]} dB: "
                            f"{errors[idx]}/{trials[idx]} errors, reference "
                            f"{ref['errors'][idx]}/{ref['trials'][idx]}, union bound "
                            f"{bounds[idx] if bounds else None}", trials[idx])
        return result


WORKLOADS = {"sums-golden": SumsGolden, "presets": Presets, "sim-golden": SimGolden}


def build(name: str, seed: int, ref: dict, workdir) -> Workload:
    """Set up a workload: its inputs and a small warm-up call."""
    return WORKLOADS[name](seed, ref, workdir)
