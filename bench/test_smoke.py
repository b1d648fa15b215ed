"""Smoke test of the benchmark at tiny sizes, about a minute and a half in all.

Not part of Tier-1, which collects only ``tests/``. Run it with

    python3 -m pytest -q bench/test_smoke.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]
COUNT_UNITS = ("count", "B", "ratio")


def run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """The result object and the run metadata of one tiny run."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )  # fmt: skip
    lines = proc.stdout.strip().splitlines()
    meta = next(line for line in lines if line.startswith("bench: meta "))
    return json.loads(lines[-1]), json.loads(meta.removeprefix("bench: meta "))


def _assert_clean(result: dict, metrics: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in metrics]
    assert all(result["metrics"][m["name"]]["unit"] == m["unit"] for m in metrics)


@pytest.mark.parametrize("workload", NAMES)
def test_end_to_end_run_passes_its_checks(workload):
    result, meta = run(workload, 0, 0)
    _assert_clean(result, SPEC["end_to_end"])
    assert all(result["metrics"][m["name"]]["value"] > 0 for m in SPEC["end_to_end"])
    assert meta["src_lines"] > 0 and meta["nproc"] >= 1


@pytest.mark.parametrize("workload", NAMES)
def test_traced_counts_repeat_exactly(workload):
    first, _ = run(workload, 1, 1)
    second, _ = run(workload, 1, 1)
    _assert_clean(first, SPEC["per_layer"])
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] in COUNT_UNITS]
    assert {k: first["metrics"][k]["value"] for k in counts} == {k: second["metrics"][k]["value"] for k in counts}


@pytest.mark.parametrize("workload", ["dataset_roundtrip", "fit_scale"])
def test_inputs_follow_the_seed(workload):
    digests = [run(workload, seed, 0)[1]["input_sha256"] for seed in (2, 3, 2)]
    assert digests[0] == digests[2] != digests[1]
