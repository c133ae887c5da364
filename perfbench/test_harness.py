"""Self-tests of the benchmark harness (not part of the tier-1 suite).

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import copy
import math
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as w  # noqa: E402

REFERENCE = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [m["name"] for m in spec["workloads"]] == list(run.WORKLOADS)
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        assert {m["name"]: m["unit"] for m in spec[key]} == table
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in spec[key]]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name)
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"])
    assert max(m["bound"] for m in spec["end_to_end"]) == next(
        m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s")


class _Curve:
    def __init__(self, ref):
        self.point_counts = list(ref["point_counts"])
        self.values = list(ref["values"])


@pytest.mark.parametrize("family", sorted(w.GOLDEN_FAMILIES))
def test_perturbed_golden_reference_trips_gate(family):
    ref = REFERENCE["sums-golden"]["families"][family]
    assert w.check_curve(_Curve(ref), ref, family, w.PassResult())
    bad_value = copy.deepcopy(ref)
    bad_value["values"][-1] *= 1.0 + 1e-7
    assert not w.check_curve(_Curve(ref), bad_value, family, w.PassResult())
    bad_count = copy.deepcopy(ref)
    bad_count["point_counts"][-1] += 1
    assert not w.check_curve(_Curve(ref), bad_count, family, w.PassResult())


def test_perturbed_preset_reference_trips_gate():
    from detsums import pipeline, presets
    name = "gaussian-diagonal-2"
    report = pipeline.run(presets.build_preset(name), None, n_jobs=w.PRESET_JOBS)
    ref = REFERENCE["presets"][name]
    assert w.check_report(report, ref, w.PassResult())
    assert w.preset_points(report, ref) == sum(
        c.point_counts[-1] for c in report.curves) + ref["balls"]["2.0"]
    label = next(iter(ref["curves"]))
    bad = copy.deepcopy(ref)
    bad["curves"][label]["values"][0] *= 1.0 + 1e-7
    result = w.PassResult()
    assert not w.check_report(report, bad, result)
    assert result.problems


def test_rate_gate_accepts_reference_and_rejects_a_worse_decoder():
    ref = REFERENCE["sim-golden"]["rates"]["ml-exhaustive"]
    # Trials per SNR point that a run pools.
    n = w.SIM_CONFIGS * w.SIM_TRIALS
    scaled = [round(e * n / t) for e, t in zip(ref["errors"], ref["trials"])]
    trials = [n] * len(scaled)
    ones = [1.0] * len(scaled)
    assert w.check_rates(scaled, trials, ref["errors"], ref["trials"], ones) == []
    doubled = [2 * e for e in scaled]
    assert 0 in w.check_rates(doubled, trials, ref["errors"], ref["trials"], None)
    tight = [0.25 * e / n for e in scaled]
    assert 0 in w.check_rates(scaled, trials, ref["errors"], ref["trials"], tight)


def test_binomial_tail_matches_direct_sum():
    for errors, trials, p in ((0, 10, 0.3), (3, 10, 0.3), (7, 200, 0.01), (10, 10, 0.5)):
        direct = sum(math.comb(trials, k) * p ** k * (1 - p) ** (trials - k)
                     for k in range(errors, trials + 1))
        assert math.isclose(w.binom_tail(errors, trials, p), direct, rel_tol=1e-9)
    assert 0.0 < w.binom_tail(200, 8000, 0.01) < 1e-20


def _traced_counts(workload):
    t = tr.Tracer()
    t.install()
    try:
        result = workload.run_pass()
    finally:
        t.uninstall()
    spans, walks = t.take()
    metrics = tr.layer_metrics(spans, walks, result.points)
    return result, metrics, tr.walks_by_root(spans, walks)


@pytest.mark.parametrize("name", ["presets", "sim-golden"])
def test_exact_counts_repeat_across_traced_runs(name, tmp_path):
    workload = w.build(name, 7, REFERENCE, tmp_path)
    keys = ("lattice.points", "lattice.blocks", "lattice.enumerations",
            "channel.sphere_cvp_calls")
    runs = [_traced_counts(workload) for _ in range(2)]
    for result, metrics, _ in runs:
        assert result.failed == 0, result.problems
    assert [runs[0][1][k] for k in keys] == [runs[1][1][k] for k in keys]
    assert workload.finish().failed == 0
    if name == "presets":
        assert runs[0][1]["lattice.reuse_ratio"] == 1.0
        # Three sum curves, six compare cells and the determinant scan, with
        # the two partitions of each n_jobs=2 walk counted once.
        assert runs[0][2]["pipeline.run[golden]"] == 10
    else:
        assert runs[0][1]["channel.sphere_cvp_calls"] == (
            w.SIM_CONFIGS * len(w.SIM_SNR_DB) * w.SIM_TRIALS)


def test_missing_function_is_reported_absent(monkeypatch):
    monkeypatch.setitem(tr.TRACED, "lattice", tr.TRACED["lattice"] + ("no_such_fn",))
    t = tr.Tracer()
    t.install()
    t.uninstall()
    assert t.absent == ["lattice.no_such_fn"]


def test_self_time_subtracts_union_of_children():
    spans = [tr.Span(1, "sums.sum_curve", None, 0, 0.0, 10.0),
             tr.Span(2, "sums.task", 1, 1, 1.0, 6.0),
             tr.Span(3, "sums.task", 1, 2, 2.0, 8.0),
             tr.Span(4, "lattice.coefficient_blocks", 2, 1, 1.0, 3.0)]
    selfs = tr.self_times(spans)
    assert selfs == {1: 3.0, 2: 3.0, 3: 6.0, 4: 2.0}


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "presets",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
