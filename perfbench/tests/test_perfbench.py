"""The benchmark's own tests.

Run from the root of a checkout (they are not part of the tier-1
suite, which collects ``tests/`` only)::

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_short_mode_prints_every_metric_with_its_unit(workload, trace):
    # Seed 0 checks against the pins, seed 1 against reference runs.
    proc = run_bench("--workload", workload, "--seed", str(1 - trace),
                     "--seconds", "1", "--trace", str(trace), "--short")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
        if not trace:
            assert metric["value"] > 0
    if trace:
        assert result["metrics"]["observe.breakdown_residual_frac"][
            "value"] <= workloads.BREAKDOWN_TOLERANCE


def _corrupt(pin):
    if isinstance(pin, str):
        return "0" * len(pin)
    if isinstance(pin, dict):
        return {k: _corrupt(v) for k, v in pin.items()}
    return [_corrupt(p) for p in pin]


@pytest.mark.parametrize("name", ["la_episode", "ensemble_la"])
def test_wrong_expected_value_is_a_failed_operation(name):
    pins = json.loads(workloads.PINS_PATH.read_text())
    workload = workloads.WORKLOADS[name](
        workloads.DEFAULT_SEED, True, {name: _corrupt(pins[name])})
    workload.setup()
    outcome = workload.op(None)
    assert outcome.units >= 1
    assert outcome.failed == outcome.units


def test_wrong_service_science_is_a_failed_operation():
    workload = workloads.ServiceMix(1, True, {})
    workload.setup()
    try:
        outcome = workload.op(None)
        assert outcome.failed == 0
        assert workload.finish() == 0
        perturb_seed, _ = workload.science[0]
        workload.science[0] = (perturb_seed, "0" * 64)
        assert workload.finish() == 1
    finally:
        workload.close()


def test_breakdown_shares_concurrent_time_and_sums_to_wall():
    rec = tracing.Recorder()
    root = (1, "op", 0.0, 10.0)
    rec.spans = [
        (2, 1, 1, "chemistry.integrate", 1.0, 5.0, "A"),
        (3, 2, 1, "chemistry.vertical", 2.0, 3.0, "A"),
        (4, 1, 1, "service.http", 4.0, 8.0, "B"),
    ]
    parts = tracing.breakdown(tracing.spans_by_root(rec)[1], root)
    assert parts == {
        "chemistry.integrate_s": 2.5,
        "chemistry.vertical_s": 1.0,
        "service.http_s": 3.5,
        "observe.unattributed_s": 3.0,
    }


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "la_episode", "--seed", "0",
                     "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
