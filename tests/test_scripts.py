"""Every script under scripts/ loads against the current library and answers
--help, so an API change that breaks a script fails here."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = sorted((Path(__file__).resolve().parent.parent / "scripts").glob("*.py"))


def test_scripts_are_found():
    assert SCRIPTS


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_script_help(path, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location(f"script_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr("sys.argv", [str(path), "--help"])
    with pytest.raises(SystemExit) as exc:
        module.main()
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage:")


def test_decode_profile_reports_every_step(monkeypatch, capsys):
    path = next(p for p in SCRIPTS if p.name == "decode_profile.py")
    spec = importlib.util.spec_from_file_location("script_decode_profile", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr("sys.argv", [str(path), "--seeds", "3", "--passes", "1"])
    assert module.main() == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines[1:5]] == ["draw", "front", "search", "ML"]
    assert all(float(line.split()[-1]) > 0 for line in lines[1:5])
    assert lines[5].startswith("nodes per naive trial (54): median ")
