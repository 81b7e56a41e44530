"""Smoke test of the benchmark: every workload at a tiny size.

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import instrument  # noqa: E402
import workload  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = list(workload.WORKLOADS)


def run_benchmark(name: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(name, trace):
    result = run_benchmark(name, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = BENCH["per_layer" if trace else "end_to_end"]
    printed = {metric: m["unit"] for metric, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in listed}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


def bindings() -> dict:
    """Every attribute of the package's modules and model classes."""
    out = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "otcforecast" or mod_name.startswith("otcforecast."):
            out.update({(mod_name, attr): value for attr, value in vars(mod).items()})
    for cls in instrument.MODEL_CLASSES:
        out.update({(cls.__name__, attr): value for attr, value in vars(cls).items()})
    return out


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_counts_repeat_and_wrappers_are_restored(name, tmp_path):
    before = bindings()
    counts = []
    for _ in range(2):
        job = workload.WORKLOADS[name](3, True, tmp_path)
        result = workload.execute(job, 1, instrument.Tracer("smoke"))
        after = bindings()
        assert after.keys() == before.keys()
        assert all(after[key] is value for key, value in before.items())
        assert result["error"] is None
        counts.append({m: v for m, (v, unit) in result["layers"].items() if unit != "s"})
    assert counts[0] == counts[1]
