import json
import re
from dataclasses import fields, replace
from pathlib import Path

import pytest

from detsums.bounds import shift_bound_envelope
from detsums.codes import CodeSpec, gaussian_diagonal
from detsums.lattice import lattice_to_json
from detsums.pipeline import (DmtJob, EnvelopeJob, ExperimentConfig, SumJob,
                              compare_bound_vs_truth, config_hash, run)
from detsums.presets import build_preset, preset_names
from detsums.schema import JsonFields


def _dir_bytes(root: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir()) if p.is_file()}


def test_preset_names():
    assert preset_names() == ["diagonal-nf-2", "gaussian-diagonal-2", "golden"]


def test_config_json_round_trip():
    cfg = build_preset("golden", seed=5)
    doc = cfg.to_dict()
    again = ExperimentConfig.from_dict(json.loads(json.dumps(doc)))
    assert config_hash(again) == config_hash(cfg)


def test_gaussian_preset_report(tmp_path):
    cfg = build_preset("gaussian-diagonal-2")
    report = run(cfg, tmp_path / "out")
    assert (tmp_path / "out" / "config.json").exists()
    assert (tmp_path / "out" / "summary.txt").exists()
    # negative control: determinant scan finds the missing gap
    assert report.lattice_summary["minAbsDet"] == pytest.approx(0.0, abs=1e-12)
    assert any("no determinant gap" in n for n in report.notes)


@pytest.mark.parametrize("scale", [1e-5, 1e5])
@pytest.mark.parametrize("name,singular", [("golden", False),
                                           ("gaussian-diagonal-2", True)])
def test_det_scan_verdict_does_not_depend_on_the_scale(name, singular, scale):
    # Each scanned point is judged singular relative to its own norm, as the
    # sums judge it; the scale moves minAbsDet but not the verdict.
    cfg = build_preset(name)
    doc = lattice_to_json(cfg.code.resolve())
    doc["basis"] = [[[scale * re, scale * im] for re, im in B] for B in doc["basis"]]
    scaled = ExperimentConfig(name=name, code=CodeSpec(kind="custom", params={"basis": doc}),
                              det_scan_radius=scale * cfg.det_scan_radius)
    report = run(scaled)
    base = run(replace(cfg, sum_jobs=(), envelope=None, dmt=None, compare_c_values=(),
                       compare_radii=()))
    # |det X| of a 2 x 2 code scales as the square of the basis.
    assert report.lattice_summary["minAbsDet"] == pytest.approx(
        scale ** 2 * base.lattice_summary["minAbsDet"], rel=1e-9)
    gap = [n for n in report.notes if "no determinant gap" in n]
    assert bool(gap) == singular
    assert base.notes == report.notes


def test_det_scan_below_the_minimum_norm_rejected(tmp_path):
    # An empty det scan ball has no minimum; the run must not write
    # "minAbsDet": Infinity, which is not JSON.
    cfg = replace(build_preset("gaussian-diagonal-2"), det_scan_radius=0.5)
    with pytest.raises(ValueError, match=r"radius 0\.5 .* minimum norm 1\.0"):
        run(cfg, tmp_path / "out")
    assert not (tmp_path / "out" / "lattice.json").exists()


def test_golden_preset_core_numbers(tmp_path):
    report = run(build_preset("golden"), tmp_path / "out")
    env_curve = [c for c in report.dmt_curves if c.label.startswith("max(")][0]
    assert [env_curve.evaluate(r) for r in (0.0, 1.0, 2.0)] == [8.0, 3.0, 0.0]
    naive = [c for c in report.dmt_curves if c.label.startswith("naive")][0]
    assert [naive.evaluate(r) for r in (0.0, 1.0, 2.0)] == [4.0, 2.0, 0.0]
    exps = {row["exponent"] for row in report.thresholds}
    assert exps == {"3/2", "1"}
    assert report.lattice_summary["minAbsDet"] == pytest.approx(5 ** -0.5, rel=1e-9)
    # anchored comparison: anchor cell ratio is exactly 1 and the moderate
    # shift cells stay below the envelope shape
    anchor = [r for r in report.compare_table if r["c"] == 100.0 and r["M"] == 4.0][0]
    assert anchor["ratio"] == pytest.approx(1.0, rel=1e-12)
    for row in report.compare_table:
        if row["c"] <= 10.0:
            assert row["ok"]


def test_diagonal_nf_preset_naive_line(tmp_path):
    report = run(build_preset("diagonal-nf-2"), tmp_path / "out")
    naive = [c for c in report.dmt_curves if c.label.startswith("naive")][0]
    assert [naive.evaluate(r) for r in (0.0, 1.0)] == [3.0, 0.0]
    ml = [c for c in report.dmt_curves if c.label == "ml-entry-i1"][0]
    assert ml.evaluate(0.0) == 3.0


def test_empty_sum_jobs_constructions_only(tmp_path):
    cfg = ExperimentConfig(name="bare", code=CodeSpec(kind="gaussian-diagonal",
                                                      params={"n": 1}))
    report = run(cfg, tmp_path / "out")
    assert report.curves == []
    assert report.dmt_curves == []
    assert (tmp_path / "out" / "summary.txt").exists()


def test_reports_are_byte_identical(tmp_path):
    cfg = build_preset("gaussian-diagonal-2")
    run(cfg, tmp_path / "a")
    run(cfg, tmp_path / "b")
    assert _dir_bytes(tmp_path / "a") == _dir_bytes(tmp_path / "b")


def test_rerun_same_dir_is_allowed(tmp_path):
    cfg = build_preset("gaussian-diagonal-2")
    run(cfg, tmp_path / "out")
    run(cfg, tmp_path / "out")   # same hash, overwrite in place


def test_mismatched_hash_refuses_overwrite(tmp_path):
    run(build_preset("gaussian-diagonal-2"), tmp_path / "out")
    other = replace(build_preset("gaussian-diagonal-2"), budget=10 ** 9)
    with pytest.raises(RuntimeError):
        run(other, tmp_path / "out")


def test_simulation_stage_is_deterministic(tmp_path):
    cfg = build_preset("gaussian-diagonal-2", with_sim=True)
    small_sim = cfg.sim
    assert small_sim is not None
    a = run(cfg, tmp_path / "a")
    b = run(cfg, tmp_path / "b")
    assert a.sim_result == b.sim_result
    assert _dir_bytes(tmp_path / "a") == _dir_bytes(tmp_path / "b")


def test_compare_single_cell_anchors_exactly():
    lat = gaussian_diagonal(1)
    env = shift_bound_envelope(n=1, k=2, m=2, s_table={1: 0.0, 2: 0.0})
    rows = compare_bound_vs_truth(lat, env, [10.0], [2.0])
    assert len(rows) == 1
    assert rows[0]["ratio"] == pytest.approx(1.0, rel=1e-12)
    assert rows[0]["ok"]


def test_summary_mentions_all_stages(tmp_path):
    report = run(build_preset("golden"), tmp_path / "out")
    text = (tmp_path / "out" / "summary.txt").read_text()
    for token in ("lattice:", "sum ", "fit ", "envelope i=", "dmt ",
                  "snr threshold", "compare ", "note:"):
        assert token in text


@pytest.mark.parametrize("name", ["golden", "diagonal-nf-2", "gaussian-diagonal-2"])
def test_run_walks_each_ball_once(name, monkeypatch):
    # A run walks the determinant scan's ball and then one ball for every
    # sum curve and compare cell, whatever n_jobs says.
    from detsums import codes, sums
    walks = []

    def counting(blocks):
        def wrapped(lat, radius, **kw):
            walks.append(radius)
            return blocks(lat, radius, **kw)
        return wrapped

    for module in (codes, sums):
        monkeypatch.setattr(module, "esp_blocks", counting(module.esp_blocks))
    cfg = build_preset(name)
    report = run(cfg, n_jobs=2)
    assert len(walks) == 2
    assert len(report.curves) == len(cfg.sum_jobs)
    assert len(report.compare_table) == len(cfg.compare_c_values) * len(cfg.compare_radii)


@pytest.mark.parametrize("name,with_sim,prefix", [
    ("golden", False, "faec1d61a354d45d"), ("golden", True, "458927c422107877"),
    ("diagonal-nf-2", False, "3ca4aa9f65bda4b6"), ("diagonal-nf-2", True, "f4ac6242e50d32dd"),
    ("gaussian-diagonal-2", False, "f85e3be3fcc5d9ea"),
    ("gaussian-diagonal-2", True, "e4637d0e06aa40c6"),
])
def test_preset_config_hashes_and_round_trips_are_pinned(name, with_sim, prefix):
    cfg = build_preset(name, with_sim=with_sim)
    assert config_hash(cfg)[:16] == prefix
    text = json.dumps(cfg.to_dict(), sort_keys=True)
    again = ExperimentConfig.from_dict(json.loads(text))
    assert again == cfg
    # Key for key and type for type: an int stays an int.
    assert json.dumps(again.to_dict(), sort_keys=True) == text


def _job(**fields):
    """An edit of a config document's second sum job."""
    return lambda doc: doc["sumJobs"][1].update(fields)


@pytest.mark.parametrize("edit,message", [
    (_job(family="foo"), "family must be one of"),
    (_job(m=-1), "exponent m must be a finite positive number"),
    (_job(c=-1), "shift c must be a finite nonnegative number"),
    (_job(family="mixed"), "mixed family needs an integer split index"),
    (_job(radii=[4, 2]), "radii must be nonempty, positive and strictly increasing"),
    (_job(radii=[0, 1]), "radii must be nonempty, positive and strictly increasing"),
    (_job(radii=[]), "radii must be nonempty, positive and strictly increasing"),
    (lambda doc: doc.update(compareCValues=[0.0, 1.0]), "compareCValues must be positive"),
    (lambda doc: doc.update(compareRadii=[-2.0, 4.0]), "compareRadii must be positive"),
], ids=["family-foo", "m-negative", "c-negative", "mixed-without-i", "radii-decreasing",
        "radii-zero", "radii-empty", "compareCValues-zero", "compareRadii-negative"])
def test_bad_sum_job_or_compare_cell_is_rejected_when_the_config_is_read(edit, message):
    # Reading the config raises; no run is needed to find the error.
    doc = build_preset("golden").to_dict()
    edit(doc)
    with pytest.raises(ValueError, match=message):
        ExperimentConfig.from_dict(doc)


@pytest.mark.parametrize("table", [{"01": 1.0}, {"+1": 1.0}, {" 1": 1.0}, {"x": 1.0}])
def test_s_table_keys_must_be_integers_as_written(table):
    with pytest.raises(ValueError, match="'sTable' must be an object of numbers"):
        EnvelopeJob.from_dict({"m": 2, "indices": [0], "sTable": table})


@pytest.mark.parametrize("name", ["", ".", "..", "a/b", "a\\b", None])
def test_experiment_name_must_be_one_path_component(name):
    with pytest.raises(ValueError, match="name must be a nonempty single path component"):
        ExperimentConfig(name=name, code=CodeSpec(kind="golden"))


def _readme_config_keys() -> dict:
    """The keys each section lists in README's "Experiment config" tables,
    under its JSON key ("" for the top level)."""
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    body = text.split("\n## Experiment config\n", 1)[1].split("\n## ", 1)[0]
    listed, section = {}, None
    for line in body.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if not line.startswith("| ") or cells[0] in ("key", "section", "---"):
            continue
        if len(cells) == 4:             # section | key | kind | default
            section = cells[0].strip("`").removesuffix("[j]") or section
            cell = cells[1]
        else:                           # key | kind | default, the top level
            section, cell = "", cells[0]
        listed.setdefault(section, []).extend(re.findall(r"`([^`]+)`", cell))
    return listed


def test_readme_lists_exactly_the_declared_config_keys():
    cfg = build_preset("golden", with_sim=True)
    declared = {"": [f.metadata["key"] for f in fields(ExperimentConfig)]}
    for f in fields(ExperimentConfig):
        value = getattr(cfg, f.name)
        if isinstance(value, tuple) and value:
            value = value[0]
        if isinstance(value, JsonFields):
            declared[f.metadata["key"]] = [g.metadata["key"] for g in fields(value)]
    assert set(declared) == {"", "code", "sumJobs", "envelope", "dmt", "sim"}
    listed = _readme_config_keys()
    assert {k: sorted(v) for k, v in listed.items()} == \
        {k: sorted(v) for k, v in declared.items()}
