"""End-to-end studies: construct, enumerate, sum, fit, bound, compare, persist.

A run walks each ball it needs once: the determinant scan, then one
``sum_curves`` walk to the largest radius that evaluates every sum job and
every compare cell (one shifted spec per c), plus, with a simulation, one
walk at twice the code radius for the union bound at every SNR point.

A run is driven by an ``ExperimentConfig`` and produces a directory of CSV
and JSON artifacts plus a plain-text summary.  Every artifact embeds the
sha256 hash of the canonical config JSON; a run refuses to write into a
directory whose existing config hash differs.  Given the same config the
report is byte-for-byte reproducible.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, fields
from pathlib import Path

from .bounds import (BoundEnvelope, DmtCurve, dmt_envelope, dmt_ml_bound,
                     dmt_naive_bound, growth_fit, shift_bound_envelope,
                     snr_threshold_exponent)
from .channel import ChannelConfig, SimResult, fixed_code, simulate, union_bounds
from .codes import CodeSpec, min_abs_det_ball
from .lattice import DEFAULT_BUDGET, MatrixLattice, _radius_grid
from .schema import (BOOLEAN, INTEGER, INTEGERS, NUMBER, NUMBER_TABLE, NUMBERS,
                     STRING, JsonFields, json_field, section, sections)
from .sums import SumSpec, sum_curves

__all__ = [
    "SumJob",
    "EnvelopeJob",
    "DmtJob",
    "ExperimentConfig",
    "ExperimentReport",
    "run",
    "compare_bound_vs_truth",
    "config_hash",
]


@dataclass(frozen=True)
class SumJob(SumSpec, JsonFields):
    """A ``SumSpec`` with its radius grid; both are checked when the config
    is read."""

    radii: tuple = json_field("radii", NUMBERS, kw_only=True)

    def __post_init__(self):
        super().__post_init__()
        _radius_grid(self.radii)

    def spec(self) -> SumSpec:
        """The job as a plain ``SumSpec``, as ``sum_curves`` takes it."""
        return SumSpec(**{f.name: getattr(self, f.name) for f in fields(SumSpec)})


@dataclass(frozen=True)
class EnvelopeJob(JsonFields):
    """Envelope request: exponent table either given or fitted from curves.

    ``s_table`` maps the inverse-determinant power l to its growth exponent.
    When ``fit_from_curves`` is set, each l is fitted from the approximate
    curve with m = 2l (square lattices carry det(X X*) = |det X|^2).
    """

    m: int = json_field("m", INTEGER)
    indices: tuple = json_field("indices", INTEGERS)
    s_table: dict = json_field("sTable", NUMBER_TABLE, default_factory=dict)
    fit_from_curves: bool = json_field("fitFromCurves", BOOLEAN, default=False)


@dataclass(frozen=True)
class DmtJob(JsonFields):
    """DMT request: the ML lines of the envelope's entries, plus the naive
    line of diversity ``naive_a`` when given.  Every line uses the code's
    rank k and block length T."""

    naive_a: float | None = json_field("naiveA", NUMBER, default=None)


@dataclass(frozen=True)
class ExperimentConfig(JsonFields):
    """A whole study; ``name`` names its report directory, so it must be one
    path component."""

    name: str = json_field("name", STRING)
    code: CodeSpec = json_field("code", section(CodeSpec))
    sum_jobs: tuple = json_field("sumJobs", sections(SumJob), default=())
    envelope: EnvelopeJob | None = json_field("envelope", section(EnvelopeJob),
                                              default=None)
    dmt: DmtJob | None = json_field("dmt", section(DmtJob), default=None)
    sim: ChannelConfig | None = json_field("sim", section(ChannelConfig), default=None)
    compare_c_values: tuple = json_field("compareCValues", NUMBERS, default=())
    compare_radii: tuple = json_field("compareRadii", NUMBERS, default=())
    det_scan_radius: float | None = json_field("detScanRadius", NUMBER, default=None)
    budget: int = json_field("budget", INTEGER, default=DEFAULT_BUDGET)

    def __post_init__(self):
        if (not isinstance(self.name, str) or self.name in ("", ".", "..")
                or "/" in self.name or "\\" in self.name):
            raise ValueError(f"experiment name must be a nonempty single path "
                             f"component, got {self.name!r}")
        # The DMT lines and the compare cells are read off the envelope.
        given = [key for key, value in (("dmt", self.dmt is not None),
                                        ("compareCValues", self.compare_c_values),
                                        ("compareRadii", self.compare_radii)) if value]
        if given and self.envelope is None:
            raise ValueError(f"experiment config has {', '.join(map(repr, given))} "
                             "but no 'envelope'")
        if bool(self.compare_c_values) != bool(self.compare_radii):
            have, lack = (("compareCValues", "compareRadii") if self.compare_c_values
                          else ("compareRadii", "compareCValues"))
            raise ValueError(f"experiment config has {have!r} but no {lack!r}")
        for key, values in (("compareCValues", self.compare_c_values),
                            ("compareRadii", self.compare_radii)):
            if not all(v > 0 for v in values):
                raise ValueError(f"{key} must be positive in an experiment config, "
                                 f"got {list(values)!r}")
        if self.det_scan_radius is not None and not self.det_scan_radius > 0:
            raise ValueError(f"detScanRadius must be positive in an experiment config, "
                             f"got {self.det_scan_radius!r}")


def _canonical_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def config_hash(config: ExperimentConfig) -> str:
    return hashlib.sha256(_canonical_json(config.to_dict()).encode()).hexdigest()


@dataclass
class ExperimentReport:
    config: ExperimentConfig
    hash: str
    lattice_summary: dict
    curves: list
    fits: dict
    envelope: BoundEnvelope | None
    dmt_curves: list
    thresholds: list
    sim_result: SimResult | None
    sim_bound: list
    compare_table: list
    notes: list

    def summary_text(self) -> str:
        lines = [f"experiment: {self.config.name}", f"config hash: {self.hash}", ""]
        ls = self.lattice_summary
        lines.append(
            f"lattice: n={ls['n']} T={ls['T']} rank k={ls['k']} "
            f"min|X|_F={ls['minNorm']!r} covolume={ls['covolume']!r}")
        if ls.get("minAbsDet") is not None:
            lines.append(
                f"det scan: min |det X| over |X|_F <= {ls['detScanRadius']!r} "
                f"is {ls['minAbsDet']!r}")
        for curve in self.curves:
            lines.append(
                f"sum {curve.spec.label()}: {len(curve.radii)} radii up to "
                f"{curve.radii[-1]!r}, last value {curve.values[-1]!r}")
        for name, fit in sorted(self.fits.items()):
            lines.append(
                f"fit {name}: s={fit.s!r} t={fit.t!r} residual={fit.residual!r}"
                + ("" if fit.has_log_factor else " (no log factor)"))
        if self.envelope is not None:
            for e in self.envelope.entries:
                lines.append(
                    f"envelope i={e.split_index}: c^-{e.shift_exp} regime={e.regime} "
                    f"M-exponent={e.radius_exp!r} log-power={e.log_power}")
        for curve in self.dmt_curves:
            vals = ", ".join(f"d({r:g})={curve.evaluate(r)!r}" for r in (0.0, 1.0, 2.0))
            lines.append(f"dmt {curve.label}: {vals}")
        for row in self.thresholds:
            lines.append(
                f"snr threshold (d={row['d']}, t={row['t']}): M^{row['exponent']}")
        if self.sim_result is not None:
            for idx, db in enumerate(self.sim_result.snr_db):
                bound = self.sim_bound[idx] if idx < len(self.sim_bound) else None
                lines.append(
                    f"sim {db:g} dB: rate={self.sim_result.error_rate[idx]!r} "
                    f"({self.sim_result.error_count[idx]}/{self.sim_result.trials[idx]})"
                    + (f" union_bound={bound!r}" if bound is not None else ""))
        for row in self.compare_table:
            lines.append(
                f"compare c={row['c']:g} M={row['M']:g}: empirical={row['empirical']!r} "
                f"envelope={row['envelope']!r} ratio={row['ratio']!r} "
                f"active_i={row['active_i']} ok={row['ok']}")
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines) + "\n"


def compare_bound_vs_truth(lat: MatrixLattice, envelope: BoundEnvelope, c_values,
                           radii, *, budget: int = DEFAULT_BUDGET) -> list:
    """Empirical shifted sums, at the envelope's exponent m, against the
    anchored envelope shape.

    The envelope's unknown constant is fixed at the anchor cell (largest c,
    largest M); every other cell reports empirical / scaled-envelope with an
    ``ok`` flag for ratio <= 1 + 1e-9.  Every cell comes from one walk.
    """
    c_values, radii = list(c_values), list(radii)
    curves = sum_curves(lat, _compare_jobs(envelope.m, c_values, radii), budget=budget)
    return _compare_rows(envelope, c_values, radii, curves)


def _compare_jobs(m: int, c_values, radii) -> list:
    """One shifted spec of exponent ``m`` per c on the compare radii, as
    ``sum_curves`` jobs."""
    if not c_values or not radii:
        raise ValueError("need at least one c and one radius")
    grid = sorted({float(M) for M in radii})
    return [(SumSpec(family="shifted", m=float(m), c=float(c)), grid) for c in c_values]


def _compare_rows(envelope: BoundEnvelope, c_values, radii, curves) -> list:
    """The compare table from the curves of ``_compare_jobs``; a cell where
    the envelope shape is not positive (log M at M <= 1) is a ValueError."""
    table = {(curve.spec.c, M): v for curve in curves
             for M, v in zip(curve.radii, curve.values)}
    c_values = sorted(float(c) for c in c_values)
    radii = sorted(float(M) for M in radii)
    shape = {(c, M): envelope.shape_value(c, M) for c in c_values for M in radii}
    for (c, M), value in shape.items():
        if not value > 0:
            raise ValueError(f"envelope shape is {value!r} at (c, M) = ({c!r}, {M!r}); "
                             "compare cells need a positive shape")
    anchor = (c_values[-1], radii[-1])
    scale = table[anchor] / shape[anchor]
    rows = []
    for c in c_values:
        for M in radii:
            shaped = scale * shape[(c, M)]
            ratio = table[(c, M)] / shaped
            rows.append({
                "c": c, "M": M, "empirical": table[(c, M)], "envelope": shaped,
                "ratio": ratio, "active_i": envelope.active_index(c, M),
                "ok": ratio <= 1.0 + 1e-9,
            })
    return rows


def _write_text(path: Path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _json_text(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def run(config: ExperimentConfig, out_dir=None, *, n_jobs: int = 1) -> ExperimentReport:
    """Execute all configured stages and persist the report.

    Stage order: construct -> det scan -> sums (the curves and the compare
    cells, one walk) -> growth fits -> envelope -> DMT curves -> SNR
    thresholds -> simulation -> comparison.
    ``out_dir=None`` computes everything without touching the filesystem.
    ``config.budget`` caps every walk of the run: the determinant scan, the
    sums, the simulation's codes and the union bound.
    ``n_jobs`` (at least 1) does not change the walk, which runs once on the
    calling thread; the report is the same for every value.
    """
    if n_jobs < 1:
        raise ValueError(f"n_jobs must be at least 1, got {n_jobs}")
    h = config_hash(config)
    lat = config.code.resolve()
    notes = []

    min_abs_det = None
    if config.det_scan_radius is not None and lat.n == lat.T:
        min_abs_det, singular = min_abs_det_ball(lat, config.det_scan_radius,
                                                 budget=config.budget)
        if singular:
            notes.append("determinant scan found a singular nonzero point; "
                         "the lattice has no determinant gap")
    lattice_summary = {
        "n": lat.n, "T": lat.T, "k": lat.k,
        "minNorm": math.sqrt(lat.min_norm_sq), "covolume": lat.covolume,
        "normalization": config.code.normalization,
        "minAbsDet": min_abs_det, "detScanRadius": config.det_scan_radius,
    }

    jobs = [(job.spec(), job.radii) for job in config.sum_jobs]
    if config.compare_c_values:
        jobs += _compare_jobs(config.envelope.m, config.compare_c_values,
                              config.compare_radii)
    curves = sum_curves(lat, jobs, budget=config.budget)
    curves, compare_curves = curves[:len(config.sum_jobs)], curves[len(config.sum_jobs):]

    fits = {}
    for curve in curves:
        usable = [M for M in curve.radii if M >= 2.0 * (1 - 1e-12)]
        if len(usable) >= 4 and all(v > 0 for v in curve.values):
            fits[curve.spec.label()] = growth_fit(curve)

    envelope = None
    if config.envelope is not None:
        job = config.envelope
        s_table = dict(job.s_table)
        if job.fit_from_curves:
            for i in job.indices:
                l = job.m - i
                if l <= 0 or l in s_table:
                    continue
                label = SumSpec(family="approximate", m=2 * l).label()
                if label in fits:
                    s_table[l] = fits[label].s
        envelope = shift_bound_envelope(lat.n, lat.k, job.m, s_table,
                                        indices=job.indices)
        notes.extend(envelope.notes)

    dmt_curves = []
    thresholds = []
    if config.dmt is not None:
        lines = []
        for e in envelope.entries:
            line = dmt_ml_bound(e.shift_exp, e.radius_exp, lat.k, lat.T)
            lines.append(DmtCurve(segments=line.segments,
                                  label=f"ml-entry-i{e.split_index}",
                                  provenance=dict(line.provenance,
                                                  split_index=e.split_index)))
            thresholds.append({
                "d": e.shift_exp, "t": e.radius_exp,
                "exponent": str(snr_threshold_exponent(e.shift_exp, e.radius_exp)),
                "source": f"envelope entry i={e.split_index}",
            })
        dmt_curves.extend(lines)
        dmt_curves.append(dmt_envelope(lines))
        if config.dmt.naive_a is not None:
            dmt_curves.append(dmt_naive_bound(config.dmt.naive_a, lat.k, lat.T))

    sim_result = None
    sim_bound = []
    if config.sim is not None:
        sim_result = simulate(lat, config.sim, budget=config.budget)
        if config.sim.fixed_radius is not None:
            code = fixed_code(lat, config.sim.fixed_radius, budget=config.budget)
            sim_bound = union_bounds(
                code, config.sim.n_r, [10.0 ** (db / 10.0) for db in config.sim.snr_grid_db],
                chernoff_scaling=config.sim.chernoff_scaling, budget=config.budget)

    compare_table = []
    if compare_curves:
        compare_table = _compare_rows(envelope, config.compare_c_values,
                                      config.compare_radii, compare_curves)

    report = ExperimentReport(config=config, hash=h, lattice_summary=lattice_summary,
                              curves=curves, fits=fits, envelope=envelope,
                              dmt_curves=dmt_curves, thresholds=thresholds,
                              sim_result=sim_result, sim_bound=sim_bound,
                              compare_table=compare_table, notes=notes)
    if out_dir is not None:
        _persist(report, Path(out_dir))
    return report


def _persist(report: ExperimentReport, out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    cfg_path = out / "config.json"
    if cfg_path.exists():
        existing = json.loads(cfg_path.read_text(encoding="utf-8"))
        if existing.get("hash") != report.hash:
            raise RuntimeError(
                f"output directory {out} holds a report for config hash "
                f"{existing.get('hash')}; refusing to overwrite with {report.hash}")
    _write_text(cfg_path, _json_text({"hash": report.hash,
                                      "config": report.config.to_dict()}))
    _write_text(out / "lattice.json",
                _json_text(dict(report.lattice_summary, hash=report.hash)))
    for curve in report.curves:
        stem = f"curve_{curve.spec.label()}"
        _write_text(out / f"{stem}.csv", curve.to_csv())
        _write_text(out / f"{stem}.json",
                    _json_text(dict(curve.to_json_dict(), hash=report.hash)))
    if report.fits:
        _write_text(out / "fits.json", _json_text(
            {"hash": report.hash,
             "fits": {name: fit.to_dict() for name, fit in report.fits.items()}}))
    if report.envelope is not None:
        _write_text(out / "envelope.json",
                    _json_text(dict(report.envelope.to_dict(), hash=report.hash)))
    grid = [round(0.01 * j, 2) for j in range(0, 201)]
    for curve in report.dmt_curves:
        stem = "dmt_" + _slug(curve.label)
        _write_text(out / f"{stem}.csv", curve.to_csv(grid))
        _write_text(out / f"{stem}.json",
                    _json_text(dict(curve.to_json_dict(), hash=report.hash)))
    if report.thresholds:
        _write_text(out / "thresholds.json",
                    _json_text({"hash": report.hash, "thresholds": report.thresholds}))
    if report.sim_result is not None:
        _write_text(out / "sim.csv", report.sim_result.to_csv())
        _write_text(out / "sim.json", _json_text(
            dict(report.sim_result.to_json_dict(), hash=report.hash,
                 unionBound=report.sim_bound)))
    if report.compare_table:
        _write_text(out / "compare.json",
                    _json_text({"hash": report.hash, "table": report.compare_table}))
    _write_text(out / "summary.txt", report.summary_text())


def _slug(label: str) -> str:
    keep = []
    for ch in label:
        keep.append(ch if ch.isalnum() else "_")
    slug = "".join(keep).strip("_")
    while "__" in slug:
        slug = slug.replace("__", "_")
    return slug[:80]
