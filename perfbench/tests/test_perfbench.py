"""Tests of the benchmark itself (not of the library).

    python3 -m pytest perfbench/tests -q

Each test drives ``run.py`` in subprocesses at ``--seconds 1``, the way
the benchmark is run, so process-wide state starts fresh every time.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run as launcher  # noqa: E402

WORKLOADS = launcher.WORKLOADS
SEED = 5
TIME_UNITS = ("s", "1/s", "ratio")


def bench(*args, env=None, cwd=ROOT):
    """Run ``run.py``; returns (exit code, stdout lines)."""
    done = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=300,
        env=env if env is not None else clean_env(),
    )
    return done.returncode, done.stdout.strip().splitlines()


def clean_env():
    return {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}


def run_workload(workload, seed=SEED, trace=0, env=None):
    code, lines = bench("--workload", workload, "--seed", str(seed),
                        "--seconds", "1", "--trace", str(trace), env=env)
    digest_line = next(line for line in lines if line.startswith("digest "))
    return code, json.loads(lines[-1]), digest_line


def count_metrics(result):
    return {name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] not in TIME_UNITS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_is_correct_and_repeats_counts_exactly(workload):
    """The traced run requires the untraced run's digest and counts,
    the digest matches the one recorded for this seed, and a second
    traced run of the same seed repeats every count metric."""
    code, first, digest_line = run_workload(workload, trace=1)
    assert code == 0, first
    assert first["correct"] and first["failed"] == 0
    assert "matches the recorded digest" in digest_line
    code, second, _ = run_workload(workload, trace=1)
    assert code == 0
    assert count_metrics(first) == count_metrics(second)
    assert set(first["metrics"]) == set(launcher.PER_LAYER_UNITS)


def test_backup_write_spans_cover_every_lane():
    """On ``failover`` the backup-write spans and the backup-write count
    cover the same writes (from set-up to takeover), fast lane
    included, so there is one span per write."""
    import numpy as np

    code, result, _ = run_workload("failover", trace=1)
    assert code == 0
    spans = np.load(BENCH_DIR / "out" / f"spans-failover-{SEED}.npz")
    name_id = list(spans["names"]).index("memory.backup_write")
    writes = result["metrics"]["memory.backup_writes"]["value"]
    assert writes > 0
    assert int((spans["name"] == name_id).sum()) == writes


@pytest.mark.parametrize("workload", WORKLOADS)
def test_other_seed_changes_the_inputs(workload):
    code, result, digest_line = run_workload(workload, seed=SEED + 1)
    assert code == 0 and result["correct"]
    assert set(result["metrics"]) == set(launcher.END_TO_END_UNITS)
    recorded = json.loads(launcher.DIGESTS.read_text())[workload][f"{SEED}:1"]
    assert digest_line.split()[1] != recorded


def test_perturbed_model_output_is_an_error(tmp_path):
    """A model that returns one more simulated transaction than the
    recorded run is caught: every operation counts as failed."""
    (tmp_path / "sitecustomize.py").write_text(
        "from repro.perf import smp_sim\n"
        "_simulate = smp_sim.simulate_smp\n"
        "def simulate_smp(*args, **kwargs):\n"
        "    result = _simulate(*args, **kwargs)\n"
        "    result.per_stream_completed[0] += 1\n"
        "    return result\n"
        "smp_sim.simulate_smp = simulate_smp\n"
    )
    env = clean_env()
    env["PYTHONPATH"] = os.pathsep.join([str(tmp_path), str(ROOT / "src")])
    code, result, digest_line = run_workload("smp", env=env)
    assert code != 0
    assert "MISMATCH" in digest_line
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0


@pytest.mark.parametrize("name, value", [
    ("REPRO_OBS", "1"), ("REPRO_SERIES", "100"), ("REPRO_FASTPATH", "0"),
])
def test_program_state_is_pinned(name, value):
    env = clean_env()
    env[name] = value
    code, lines = bench("--workload", "smp", "--seed", "1", "--seconds", "1",
                        "--trace", "0", env=env)
    assert code == 2
    assert lines == []


def test_fails_without_the_library(tmp_path):
    """A checkout holding only the benchmark exits nonzero, printing
    no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    code, lines = bench("--workload", "passive", "--seed", "1", "--seconds", "1",
                        "--trace", "0", cwd=tmp_path)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)


def test_benchmark_json_names_the_measured_workloads():
    import measure

    assert set(WORKLOADS) == set(measure.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in launcher.SPEC["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25
