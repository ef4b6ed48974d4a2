"""Smoke test of the benchmark entry point on cut-down workloads.

Run from the repository root:  python3 -m pytest -q perfbench/test_smoke.py

Each workload runs at one trial on its two smallest n, untraced and
traced.  The test asserts that the run passes its output checks and that
every metric BENCHMARK.json declares is printed by name with its unit.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_prints_every_metric_with_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    printed = {line.split(" = ")[0]: line.rsplit(" ", 1)[-1] for line in lines if " = " in line}
    for metric in declared:
        assert printed.get(metric["name"]) == metric["unit"], metric["name"]
