import csv
import functools
import io
import json
import operator
from dataclasses import MISSING, fields

import numpy as np
import pytest

from detsums.cli import main
from detsums.codes import golden_code
from detsums.lattice import shell_counts
from detsums.pipeline import ExperimentConfig
from detsums.schema import JsonFields

from conftest import box_scan_coeffs


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_threshold_prints_exponent(capsys):
    code, out, _ = run_cli(capsys, "threshold", "--d", "8", "--t", "4")
    assert code == 0
    assert json.loads(out) == 1.5


def test_threshold_with_radius(capsys):
    code, out, _ = run_cli(capsys, "threshold", "--d", "4", "--t", "0", "--M", "9")
    assert code == 0
    assert json.loads(out) == 9.0


def test_dmt_grid_csv(capsys):
    code, out, _ = run_cli(capsys, "dmt", "--a", "8", "--b", "4", "--k", "8",
                           "--T", "2", "--grid", "0:2:0.5")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [float(r["d"]) for r in rows] == [8.0, 5.5, 3.0, 0.5, 0.0]


def test_dmt_naive_json(capsys):
    code, out, _ = run_cli(capsys, "dmt", "--a", "4", "--k", "8", "--T", "2",
                           "--naive", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["segments"] == [{"intercept": [4, 1], "slope": [-2, 1]}]


def test_sum_scalar(capsys):
    code, out, _ = run_cli(capsys, "sum", "--code", "gaussian-diagonal", "--n", "1",
                           "--family", "shifted", "--m", "2", "--c", "0", "--M", "1")
    assert code == 0
    assert json.loads(out) == 4.0


def test_sum_grid_csv(capsys):
    code, out, _ = run_cli(capsys, "sum", "--code", "gaussian-diagonal", "--n", "1",
                           "--family", "shifted", "--m", "2", "--c", "1",
                           "--grid", "1:2:3")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [float(r["M"]) for r in rows] == [1.0, 2.0, 4.0]
    assert float(rows[0]["value"]) == pytest.approx(1.0)


def test_sum_needs_a_radius_or_grid(capsys):
    code, out, err = run_cli(capsys, "sum", "--code", "gaussian-diagonal", "--n", "1",
                             "--family", "shifted", "--m", "2")
    assert code == 2
    assert out == ""
    assert "error[sum]" in err and "Traceback" not in err


def test_sum_rejects_both_radius_and_grid(capsys):
    code, out, err = run_cli(capsys, "sum", "--code", "gaussian-diagonal", "--n", "1",
                             "--family", "shifted", "--m", "2", "--c", "1",
                             "--M", "1", "--grid", "1:2:2")
    assert code == 2
    assert out == ""
    assert "not allowed with argument" in err


def test_construct_summary(capsys):
    code, out, _ = run_cli(capsys, "construct", "--code", "golden")
    assert code == 0
    doc = json.loads(out)
    assert doc["k"] == 8 and doc["n"] == 2 and doc["T"] == 2


def test_construct_emit_basis_round_trip(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "construct", "--code", "diagonal-nf", "--n", "2",
                           "--emit-basis")
    doc = json.loads(out)
    path = tmp_path / "basis.json"
    path.write_text(json.dumps({"n": doc["n"], "T": doc["T"], "basis": doc["basis"]}))
    code2, out2, _ = run_cli(capsys, "construct", "--basis-json", str(path))
    assert code2 == 0
    assert json.loads(out2)["k"] == 4


def test_enumerate_csv(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--code", "gaussian-diagonal",
                           "--n", "1", "--M", "1")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "coeffs,norm_f"
    assert len(lines) == 5


@pytest.mark.parametrize("dedup", [False, True])
def test_enumerate_prints_the_ball(capsys, dedup):
    lat = golden_code()
    code, out, _ = run_cli(capsys, "enumerate", "--code", "golden", "--M", "1.5",
                           *(["--dedup-signs"] if dedup else []))
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    points = [tuple(int(v) for v in r["coeffs"].split()) for r in rows]
    ball = set(box_scan_coeffs(lat, 1.5))
    assert len(set(points)) == len(points)
    if dedup:
        # One point of each +/-z pair.
        negated = {tuple(-v for v in z) for z in points}
        assert not set(points) & negated
        assert set(points) | negated == ball
    else:
        assert set(points) == ball
    for z, r in zip(points, rows):
        z = np.array(z, dtype=float)
        assert abs(float(r["norm_f"]) ** 2 - z @ lat.gram_real @ z) <= 1e-12
    assert (2 if dedup else 1) * len(rows) == shell_counts(lat, [1.5])[0] == 128


def test_basis_json_without_n_is_a_computation_error(capsys, tmp_path):
    path = tmp_path / "basis.json"
    path.write_text(json.dumps({"T": 1, "basis": [[[1.0, 0.0]]]}))
    code, out, err = run_cli(capsys, "construct", "--basis-json", str(path))
    assert code == 1
    assert out == ""
    assert err == "error[construct]: basis JSON lacks the key 'n'\n"


@pytest.mark.parametrize("n,T", [(2.7, 1), ("2", 1), (True, 4)])
def test_basis_json_with_a_non_integer_n_is_a_computation_error(capsys, tmp_path, n, T):
    path = tmp_path / "basis.json"
    path.write_text(json.dumps({"n": n, "T": T, "basis": [[[1.0, 0.0]] * 4]}))
    code, out, err = run_cli(capsys, "construct", "--basis-json", str(path))
    assert code == 1
    assert out == ""
    assert err == (f"error[construct]: basis JSON field 'n' must be an integer >= 1, "
                   f"got {n!r}\n")


def test_config_without_code_is_a_computation_error(capsys, tmp_path):
    from detsums.presets import build_preset
    doc = build_preset("gaussian-diagonal-2").to_dict()
    del doc["code"]
    path = tmp_path / "experiment.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "run", "--config", str(path),
                             "--out", str(tmp_path / "out"))
    assert code == 1
    assert out == ""
    assert err == "error[run]: experiment config lacks the key 'code'\n"
    assert not (tmp_path / "out").exists()


def test_basis_json_entry_of_bare_numbers_is_a_computation_error(capsys, tmp_path):
    path = tmp_path / "basis.json"
    path.write_text(json.dumps({"n": 1, "T": 1, "basis": [[1.0]]}))
    code, out, err = run_cli(capsys, "construct", "--basis-json", str(path))
    assert code == 1
    assert out == ""
    assert err == ("error[construct]: basis JSON field 'basis' entry 0 must be a "
                   "list of [re, im] pairs\n")


def test_config_with_a_string_code_is_a_computation_error(capsys, tmp_path):
    path = tmp_path / "experiment.json"
    path.write_text(json.dumps({"name": "x", "code": "golden"}))
    code, out, err = run_cli(capsys, "run", "--config", str(path),
                             "--out", str(tmp_path / "out"))
    assert code == 1
    assert out == ""
    assert err == ("error[run]: experiment config field 'code' must be an object, "
                   "got 'golden'\n")
    assert not (tmp_path / "out").exists()


def _run_config_with(capsys, tmp_path, edit):
    """``detsums run`` on the gaussian-diagonal-2 preset's config after
    ``edit(doc)``."""
    from detsums.presets import build_preset
    doc = build_preset("gaussian-diagonal-2").to_dict()
    edit(doc)
    path = tmp_path / "experiment.json"
    path.write_text(json.dumps(doc))
    result = run_cli(capsys, "run", "--config", str(path), "--out", str(tmp_path / "out"))
    assert not (tmp_path / "out").exists()
    return result


@pytest.mark.parametrize("key,value,kind", [
    ("budget", "x", "an integer"), ("budget", 1.5, "an integer"),
    ("budget", None, "an integer"), ("detScanRadius", "2", "a number"),
])
def test_config_with_a_malformed_scalar_is_a_computation_error(capsys, tmp_path,
                                                               key, value, kind):
    code, out, err = _run_config_with(capsys, tmp_path,
                                      lambda doc: doc.update({key: value}))
    assert code == 1
    assert out == ""
    assert err == (f"error[run]: experiment config field {key!r} must be {kind}, "
                   f"got {value!r}\n")


@pytest.mark.parametrize("field,value,message", [
    ("m", "2", "experiment config field 'm' must be a number"),
    ("m", float("nan"), "experiment config field 'm' must be a number, got nan"),
    ("c", float("nan"), "experiment config field 'c' must be a number, got nan"),
    ("radii", [2.0, "nan"], "radii must be"),
])
def test_config_sum_job_with_a_bad_number_is_a_computation_error(capsys, tmp_path,
                                                                 field, value, message):
    code, out, err = _run_config_with(capsys, tmp_path,
                                      lambda doc: doc["sumJobs"][0].update({field: value}))
    assert code == 1
    assert out == ""
    assert err.startswith(f"error[run]: {message}") and "Traceback" not in err


def _with_sim(doc, **fields):
    """A preset config's ``sim`` section with ``fields`` changed."""
    from detsums.presets import build_preset
    doc["sim"] = dict(build_preset("gaussian-diagonal-2", with_sim=True).to_dict()["sim"],
                      **fields)


@pytest.mark.parametrize("edit,message", [
    (lambda doc: doc["sumJobs"][0].update(radii="24"),
     "radii must be a list of numbers in an experiment config, got '24'"),
    (lambda doc: doc["sumJobs"][0].update(radii=[2.0, True]),
     "radii must be a list of numbers in an experiment config, got [2.0, True]"),
    (lambda doc: doc["sumJobs"][0].update(skipSingular="false"),
     "experiment config field 'skipSingular' must be a boolean, got 'false'"),
    (lambda doc: doc.update(envelope={"m": 2, "indices": [0, 1, 2],
                                      "fitFromCurves": "no"}),
     "experiment config field 'fitFromCurves' must be a boolean, got 'no'"),
    (lambda doc: doc.update(compareRadii=["2", "4"]),
     "compareRadii must be a list of numbers in an experiment config, got ['2', '4']"),
    (lambda doc: doc.update(compareCValues=[True]),
     "compareCValues must be a list of numbers in an experiment config, got [True]"),
    (lambda doc: _with_sim(doc, chernoffScaling="false"),
     "experiment config field 'chernoffScaling' must be a boolean, got 'false'"),
    (lambda doc: _with_sim(doc, trialsPerPoint=0),
     "trials_per_point must be an integer >= 1, got 0"),
    (lambda doc: _with_sim(doc, n_r=0), "n_r must be an integer >= 1, got 0"),
    (lambda doc: _with_sim(doc, snrGridDb=[5.0, float("nan")]),
     "snrGridDb must be a list of numbers in an experiment config, got [5.0, nan]"),
    (lambda doc: doc.update(envelope={"m": 2, "indices": [0, 1, 2],
                                      "sTable": {"1": float("nan")}}),
     "experiment config field 'sTable' must be an object of numbers keyed by "
     "integers, got {'1': nan}"),
    (lambda doc: doc.update(detScanRadius=float("inf")),
     "experiment config field 'detScanRadius' must be a number, got inf"),
    (lambda doc: doc.update(compareRadii=[2.0, -float("inf")]),
     "compareRadii must be a list of numbers in an experiment config, got [2.0, -inf]"),
    (lambda doc: doc.update(detScanRadius=10 ** 400),
     f"experiment config field 'detScanRadius' must be a number, got {10 ** 400!r}"),
    (lambda doc: doc.update(dmt={"naiveA": 3.0}),
     "experiment config has 'dmt' but no 'envelope'"),
    (lambda doc: doc.update(compareCValues=[1.0], compareRadii=[4.0]),
     "experiment config has 'compareCValues', 'compareRadii' but no 'envelope'"),
    (lambda doc: doc.update(envelope={"m": 2, "indices": [0]}, compareCValues=[1.0]),
     "experiment config has 'compareCValues' but no 'compareRadii'"),
    (lambda doc: doc.update(envelope={"m": 2, "indices": [0]}, compareRadii=[4.0]),
     "experiment config has 'compareRadii' but no 'compareCValues'"),
    (lambda doc: doc.update(envelope={"m": 2, "indices": [0]}, compareCValues=[0, 1],
                            compareRadii=[4.0]),
     "compareCValues must be positive in an experiment config, got [0, 1]"),
    # The log-regime shape c^-1 log M is negative at M = 0.5 and zero at M = 1.
    (lambda doc: doc.update(code={"kind": "gaussian-diagonal", "params": {"n": 1}},
                            envelope={"m": 1, "indices": [1]}, compareCValues=[1.0],
                            compareRadii=[0.5, 1]),
     "envelope shape is -0.6931471805599453 at (c, M) = (1.0, 0.5); compare cells "
     "need a positive shape"),
    (lambda doc: doc["sumJobs"][0].update(family="foo"),
     "family must be one of ('shifted', 'approximate', 'mixed'), got 'foo'"),
    (lambda doc: doc["sumJobs"][0].update(m=-1),
     "exponent m must be a finite positive number, got -1"),
    (lambda doc: doc["sumJobs"][0].update(c=-1),
     "shift c must be a finite nonnegative number, got -1"),
    (lambda doc: doc["sumJobs"][0].update(family="mixed"),
     "mixed family needs an integer split index 0 <= i <= m, got None"),
    (lambda doc: doc["sumJobs"][0].update(radii=[4, 2]),
     "radii must be nonempty, positive and strictly increasing, got [4, 2]"),
    (lambda doc: doc["sumJobs"][0].update(radii=[0, 1]),
     "radii must be nonempty, positive and strictly increasing, got [0, 1]"),
    (lambda doc: _with_sim(doc, budget=1000),
     "experiment config section 'sim' has the unknown key 'budget'"),
    (lambda doc: _with_sim(doc, mlCodeCap=100),
     "experiment config section 'sim' has the unknown key 'mlCodeCap'"),
    (lambda doc: _with_sim(doc, fixedRadius=-1.0), "fixedRadius must be positive, got -1.0"),
    (lambda doc: _with_sim(doc, fixedRadius=None, multiplexingR=-0.5),
     "multiplexingR must be nonnegative, got -0.5"),
    (lambda doc: doc.update(detScanRadius=-1.0),
     "detScanRadius must be positive in an experiment config, got -1.0"),
    (lambda doc: _with_sim(doc, snrGridDb=[]), "snrGridDb must hold at least one SNR point"),
], ids=["radii-string", "radii-bool", "skipSingular", "fitFromCurves", "compareRadii",
        "compareCValues", "chernoffScaling", "trialsPerPoint", "n_r", "snrGridDb-nan",
        "sTable-nan", "detScanRadius-inf", "compareRadii-inf", "detScanRadius-huge",
        "dmt-without-envelope", "compare-without-envelope", "compareCValues-alone",
        "compareRadii-alone", "compareCValues-zero", "compare-log-shape-at-M-1",
        "family-foo", "m-negative", "c-negative", "mixed-without-i", "radii-decreasing",
        "radii-zero", "sim-budget", "sim-mlCodeCap", "fixedRadius-negative",
        "multiplexingR-negative", "detScanRadius-negative", "snrGridDb-empty"])
def test_config_field_of_the_wrong_type_is_a_computation_error(capsys, tmp_path,
                                                               edit, message):
    code, out, err = _run_config_with(capsys, tmp_path, edit)
    assert code == 1
    assert out == ""
    assert err == f"error[run]: {message}\n"


def _config_fields(doc, cls, at=()):
    """(keys to the section, its class, field) for every field of ``cls`` and
    of every section nested in ``doc``, the JSON form of an instance of ``cls``."""
    config = cls.from_dict(doc)
    for f in fields(cls):
        yield at, cls, f
        key, value = f.metadata["key"], getattr(config, f.name)
        if isinstance(value, JsonFields):
            yield from _config_fields(doc[key], type(value), at + (key,))
        elif isinstance(value, tuple) and value and isinstance(value[0], JsonFields):
            yield from _config_fields(doc[key][0], type(value[0]), at + (key, 0))


def _section_path(at) -> str:
    """The section path of config messages: ``sumJobs[0]``, ``sim``."""
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in at).lstrip(".")


# Values of the wrong JSON kind, for each kind a field may declare.
_WRONG_VALUES = {
    "a string": [2, ["a"]], "a boolean": ["true", 1], "an integer": ["2", 1.5, True],
    "a number": ["x", True], "a list of numbers": ["02", [1.0, "2"]],
    "a list of integers": ["02", [0, 1.5]], "an object": ["x", [1]],
    "a list of objects": [{}, ["x"]],
    "an object of numbers keyed by integers": [{"1": "0.0"}, [1.0]],
}


def _full_config():
    """The JSON of a config that fills every section."""
    from detsums.presets import build_preset
    return build_preset("golden", with_sim=True).to_dict()


def _field_cases():
    cases = []
    for at, _, f in _config_fields(_full_config(), ExperimentConfig):
        key, kind = f.metadata["key"], f.metadata["kind"].name
        name = ".".join(map(str, at + (key,)))
        cases += [pytest.param(at, key, kind, value, id=f"{name}-{type(value).__name__}")
                  for value in _WRONG_VALUES[kind]]
        if f.default is f.default_factory is MISSING:
            cases.append(pytest.param(at, key, None, None, id=f"{name}-missing"))
    return cases


def test_the_full_config_reaches_every_config_class():
    reached = {cls for _, cls, _ in _config_fields(_full_config(), ExperimentConfig)}
    assert reached == set(JsonFields.__subclasses__())


@pytest.mark.parametrize("at,key,kind,value", _field_cases())
def test_every_config_field_rejects_a_wrong_kind_or_absence(capsys, tmp_path, at, key,
                                                            kind, value):
    doc = _full_config()
    section = functools.reduce(operator.getitem, at, doc)
    if kind is None:
        del section[key]
        where = f" section {_section_path(at)!r}" if at else ""
        message = f"experiment config{where} lacks the key {key!r}"
    else:
        section[key] = value
        message = (f"{key} must be {kind} in an experiment config"
                   if kind.startswith("a list") else
                   f"experiment config field {key!r} must be {kind}") + f", got {value!r}"
    path = tmp_path / "experiment.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "run", "--config", str(path),
                             "--out", str(tmp_path / "out"))
    assert code == 1
    assert out == ""
    assert err == f"error[run]: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("edit,message", [
    (lambda doc: doc["sumJobs"][0].update(skipSingluar=True),
     "experiment config section 'sumJobs[0]' has the unknown key 'skipSingluar'"),
    (lambda doc: doc.update(seeds=1), "experiment config has the unknown key 'seeds'"),
    (lambda doc: _with_sim(doc, budgt=10), "experiment config section 'sim' has the "
     "unknown key 'budgt'"),
    (lambda doc: doc["code"].update(normalisation="raw"),
     "experiment config section 'code' has the unknown key 'normalisation'"),
    # Keys of older configs: the run works out T, k and compareM from the
    # code and the envelope, and nothing read the top-level seed.
    (lambda doc: doc.update(seed=0), "experiment config has the unknown key 'seed'"),
    (lambda doc: doc.update(compareM=2.0),
     "experiment config has the unknown key 'compareM'"),
    (lambda doc: doc.update(dmt={"T": 2, "k": 4, "naiveA": 3.0}),
     "experiment config section 'dmt' has the unknown key 'T'"),
    (lambda doc: doc.update(dmt={"naiveA": 3.0, "k": 4}),
     "experiment config section 'dmt' has the unknown key 'k'"),
], ids=["sumJobs", "top", "sim", "code", "seed", "compareM", "dmt.T", "dmt.k"])
def test_config_with_an_unknown_key_is_a_computation_error(capsys, tmp_path, edit,
                                                           message):
    code, out, err = _run_config_with(capsys, tmp_path, edit)
    assert code == 1
    assert out == ""
    assert err == f"error[run]: {message}\n"


@pytest.mark.parametrize("name", [lambda tmp: str(tmp / "abs_probe"), lambda tmp: ["a"]],
                         ids=["absolute", "list"])
def test_config_name_must_be_one_path_component(capsys, tmp_path, monkeypatch, name):
    # Without --out the report goes to reports/<name>.
    from detsums.presets import build_preset
    monkeypatch.delenv("DETSUMS_OUT", raising=False)
    monkeypatch.chdir(tmp_path)
    doc = build_preset("gaussian-diagonal-2").to_dict()
    doc["name"] = name(tmp_path)
    (tmp_path / "experiment.json").write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "run", "--config", "experiment.json")
    assert code == 1
    assert out == ""
    assert err.startswith("error[run]: ") and "name" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["experiment.json"]


@pytest.mark.parametrize("args,message", [
    (["--trials", "0"], "trials_per_point must be an integer >= 1, got 0"),
    (["--trials", "-2"], "trials_per_point must be an integer >= 1, got -2"),
    (["--n-r", "0"], "n_r must be an integer >= 1, got 0"),
    (["--noise-scale", "nan"], "noise_scale must be a finite number >= 0, got nan"),
])
def test_simulate_without_trials_or_antennas_is_a_computation_error(capsys, args,
                                                                    message):
    # The last value of a repeated option wins.
    code, out, err = run_cli(capsys, "simulate", "--code", "gaussian-diagonal", "--n", "1",
                             "--snr-db", "5:5:1", "--radius", "1", "--n-r", "2",
                             "--trials", "5", *args)
    assert code == 1
    assert out == ""
    assert err == f"error[simulate]: {message}\n"


@pytest.mark.parametrize("args", [["--m", "nan", "--c", "1", "--M", "2"],
                                  ["--m", "2", "--c", "nan", "--M", "2"],
                                  ["--m", "2", "--c", "1", "--M", "nan"]])
def test_sum_with_a_nan_argument_is_a_computation_error(capsys, args):
    code, out, err = run_cli(capsys, "sum", "--code", "gaussian-diagonal", "--n", "1",
                             "--family", "shifted", *args)
    assert code == 1
    assert out == ""
    assert err.startswith("error[sum]: ")


@pytest.mark.parametrize("argv,message", [
    (["simulate", "--code", "gaussian-diagonal", "--n", "1", "--n-r", "2",
      "--radius", "1", "--snr-db", "10:5:1"], "start must not exceed stop"),
    (["dmt", "--a", "8", "--k", "8", "--T", "2", "--grid", "2:0:0.1"],
     "start must not exceed stop"),
    (["dmt", "--a", "8", "--k", "8", "--T", "2", "--grid", "0:2:nan"], "must be finite"),
    (["dmt", "--a", "8", "--k", "8", "--T", "2", "--grid", "0:inf:0.5"], "must be finite"),
    (["sum", "--code", "gaussian-diagonal", "--n", "1", "--family", "shifted",
      "--m", "2", "--grid", "nan:2:3"], "need start > 0"),
])
def test_grid_arguments_reject_empty_and_non_finite_ranges(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "error: argument" in err and message in err


def test_fit_from_csv(capsys, tmp_path):
    path = tmp_path / "curve.csv"
    rows = ["M,value,pointCount"]
    for j in range(5):
        M = 2.0 * 2 ** j
        rows.append(f"{M!r},{(M ** 4)!r},1")
    path.write_text("\n".join(rows) + "\n")
    code, out, _ = run_cli(capsys, "fit", "--curve", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["s"] == pytest.approx(4.0, abs=1e-8)


def test_envelope_verb(capsys):
    code, out, _ = run_cli(capsys, "envelope", "--n", "2", "--k", "8", "--m", "4",
                           "--s", "2=4,4=4", "--indices", "0,2,4")
    assert code == 0
    doc = json.loads(out)
    exps = [e["cExponent"] for e in doc["entries"]]
    assert exps == [8, 6, 4]


def test_simulate_verb(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--code", "gaussian-diagonal",
                           "--n", "1", "--n-r", "2", "--snr-db", "10:15:5",
                           "--trials", "50", "--radius", "1", "--seed", "9")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 2
    assert set(rows[0]) == {"snr_db", "error_rate", "errors", "trials",
                            "ci_halfwidth", "overflows"}


def test_run_preset(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("DETSUMS_OUT", str(tmp_path / "envdir"))
    code, out, err = run_cli(capsys, "run", "--preset", "gaussian-diagonal-2")
    assert code == 0
    doc = json.loads(out)
    assert doc["outDir"] == str(tmp_path / "envdir")
    assert (tmp_path / "envdir" / "summary.txt").exists()
    assert "wrote report" in err


def test_run_config_file(capsys, tmp_path):
    from detsums.presets import build_preset
    cfg = build_preset("gaussian-diagonal-2")
    path = tmp_path / "experiment.json"
    path.write_text(json.dumps(cfg.to_dict()))
    code, out, _ = run_cli(capsys, "run", "--config", str(path),
                           "--out", str(tmp_path / "out"))
    assert code == 0
    assert (tmp_path / "out" / "summary.txt").exists()


def test_run_needs_exactly_one_source(capsys, tmp_path):
    code, _, err = run_cli(capsys, "run", "--out", str(tmp_path))
    assert code == 2
    assert "exactly one" in err


def test_usage_error_exit_code(capsys):
    code, _, _ = run_cli(capsys, "dmt", "--a", "8")
    assert code == 2


def test_unknown_verb_exit_code(capsys):
    code, _, _ = run_cli(capsys, "frobnicate")
    assert code == 2


def test_computation_error_exit_code(capsys):
    # budget too small: stage-labeled failure on stderr, exit 1
    code, _, err = run_cli(capsys, "enumerate", "--code", "gaussian-diagonal",
                           "--n", "1", "--M", "100000", "--budget", "10")
    assert code == 1
    assert "error[enumerate]" in err


def test_stdout_is_machine_parseable(capsys):
    # scalar outputs parse as JSON, grids as CSV with a header
    code, out, _ = run_cli(capsys, "threshold", "--d", "8", "--t", "4")
    json.loads(out)
    code, out, _ = run_cli(capsys, "dmt", "--a", "6", "--b", "0", "--k", "8",
                           "--T", "2", "--grid", "0:2:1")
    header = out.split("\n", 1)[0]
    assert header == "r,d"
