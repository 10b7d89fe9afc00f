"""Tests of the benchmark itself (run: python3 -m pytest -q perfbench)."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from inputs import BATCHES, load_catalogue, make_batch  # noqa: E402
from run import end_to_end  # noqa: E402
from subindep.pipeline import decide  # noqa: E402

CATALOGUE = load_catalogue()
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(BATCHES))
def test_same_seed_gives_identical_inputs(workload):
    first = [make_batch(CATALOGUE, workload, 7, i) for i in range(3)]
    again = [make_batch(CATALOGUE, workload, 7, i) for i in range(3)]
    other = [make_batch(CATALOGUE, workload, 8, i) for i in range(3)]
    assert first == again
    assert first != other
    assert first[0] != first[1]
    assert all(len(b) == sum(BATCHES[workload].values()) for b in first)


@pytest.mark.parametrize("workload", sorted(BATCHES))
def test_relabelling_keeps_the_recorded_verdict(workload):
    """Placing a shape on other points is a conjugation: the recorded
    verdict must hold on every seed.  Samples the cheap entries."""
    checked = 0
    for seed in range(3):
        for op in make_batch(CATALOGUE, workload, seed, 0)[:24]:
            if op["cls"] == "c2_4":
                continue
            assert decide(op["spec"]).status == op["expected"], op
            checked += 1
    assert checked >= 30


def test_metric_names_match_benchmark_json():
    untraced = run_bench("--workload", "audit", "--seed", "3", "--seconds", "0.1",
                         "--trace", "0")
    assert untraced.returncode == 0, untraced.stderr
    result = last_json(untraced.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] > 0 and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0

    traced = run_bench("--workload", "audit", "--seed", "3", "--seconds", "0.1",
                       "--trace", "1")
    assert traced.returncode == 0, traced.stderr
    layer = last_json(traced.stdout)["metrics"]
    assert list(layer) == [m["name"] for m in SPEC["per_layer"]]
    for m in SPEC["per_layer"]:
        assert layer[m["name"]]["unit"] == m["unit"]


def test_traced_counts_repeat_exactly():
    def traced_run():
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--workload", "audit", "--seed", "5",
             "--batches", "1", "--trace", "1"],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
        assert proc.returncode == 0, proc.stderr
        return last_json(proc.stdout)["trace"]

    first, second = traced_run(), traced_run()
    assert first["calls"]["perm.mul"] > 0 and first["calls"]["homs.extend"] > 0
    assert first["calls"] == second["calls"]
    assert first["counts"]["pairs_scanned"] == second["counts"]["pairs_scanned"]
    assert first["counts"]["closure_elements"] == second["counts"]["closure_elements"]


def test_scaling_cancels_a_uniform_slowdown():
    """A round run on a machine twice as slow, pace loop included, gives
    the same metrics; a program twice as slow gives twice the times."""
    def round_(k, pace):
        return {"batch_walls": [0.1 * k, 0.12 * k], "batch_ops": [4, 4],
                "latencies": [t * k for t in (0.01, 0.02, 0.03, 0.04) * 2],
                "pace_s": [pace] * 3, "peak_rss_mb": 20.0}

    base, _ = end_to_end([round_(1, 0.003)] * 2, [0.1], [0.003], "audit")
    slow_machine, _ = end_to_end([round_(2, 0.006)] * 2, [0.2], [0.006], "audit")
    slow_program, _ = end_to_end([round_(2, 0.003)] * 2, [0.1], [0.003], "audit")
    for name, (value, _) in base.items():
        assert slow_machine[name][0] == pytest.approx(value)
    assert slow_program["wall_s"][0] == pytest.approx(2 * base["wall_s"][0])
    assert slow_program["latency_p50_ms"][0] == pytest.approx(2 * base["latency_p50_ms"][0])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "ladder_mix", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
