"""The benchmark scripts' report plumbing (``benchmarks/_common.py``).

A ``--check`` run gates against a committed baseline and must leave
that file exactly as it was: the measured report goes to
``BENCH_<suite>.measured.json`` unless ``--output`` says otherwise,
and ``--output`` naming the baseline itself is refused.
"""

import importlib
from pathlib import Path

import pytest

from repro.obs.bench import append_history, make_report, metric, save_report

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


@pytest.fixture
def common(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    module = importlib.import_module("_common")
    monkeypatch.setattr(module, "REPO", tmp_path)
    return module


def baseline(tmp_path):
    path = tmp_path / "BENCH_recovery.json"
    report = make_report("recovery", {"downtime_us": metric(10.0, gate=True)})
    save_report(append_history(report, report, "earlier"), path)
    return path


def measured():
    return {"downtime_us": metric(10.0, gate=True)}


def test_check_run_leaves_the_baseline_byte_identical(common, tmp_path):
    path = baseline(tmp_path)
    before = path.read_bytes()
    assert common.finalize("recovery", measured(), None, check_path=str(path)) == 0
    assert path.read_bytes() == before
    assert (tmp_path / "BENCH_recovery.measured.json").exists()


def test_check_run_still_gates(common, tmp_path):
    path = baseline(tmp_path)
    worse = {"downtime_us": metric(1.0, gate=True)}
    assert common.finalize("recovery", worse, None, check_path=str(path)) == 1


def test_output_over_the_baseline_is_refused(common, tmp_path, capsys):
    path = baseline(tmp_path)
    before = path.read_bytes()
    with pytest.raises(SystemExit) as refused:
        common.finalize("recovery", measured(), str(path), check_path=str(path))
    assert "would overwrite the --check baseline" in str(refused.value)
    assert len(str(refused.value).splitlines()) == 1
    assert path.read_bytes() == before


def test_measure_run_defaults_to_the_root_report(common, tmp_path):
    assert common.report_path("recovery", None) == str(tmp_path / "BENCH_recovery.json")


def test_script_check_refuses_before_measuring(common, tmp_path, monkeypatch):
    path = baseline(tmp_path)
    before = path.read_bytes()
    script = importlib.import_module("bench_recovery")
    monkeypatch.setattr(script, "bench_sharding", pytest.fail)
    with pytest.raises(SystemExit):
        script.main(["--output", str(path), "--check", str(path)])
    assert path.read_bytes() == before
