"""Smoke test of the benchmark itself at tiny sizes.

Run from the root of a checkout:  python3 -m pytest -q perfbench/test_smoke.py

Every workload, traced and untraced, must end with one JSON result whose
metrics are exactly the ones BENCHMARK.json lists, each once, with its unit,
and every name must match ``[A-Za-z0-9_.-]+``.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import run  # noqa: E402

ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def _result(capsys, workload: str, trace: int) -> dict:
    code = run.main(["--workload", workload, "--seed", "5", "--seconds", "1",
                     "--trace", str(trace)], size_name="tiny")
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    return json.loads(lines[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_once_with_its_unit(capsys, workload, trace):
    result = _result(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in listed)
    for metric in listed:
        reported = result["metrics"][metric["name"]]
        assert NAME.match(metric["name"])
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], (int, float))


def test_inputs_are_a_function_of_the_seed():
    sys.path.insert(0, str(ROOT / "src"))
    for generate in inputs.GENERATORS.values():
        assert generate(3, inputs.TINY).encoded() == generate(3, inputs.TINY).encoded()
    assert inputs.regime_sweep(3, inputs.TINY).sha256() != inputs.regime_sweep(4, inputs.TINY).sha256()


def test_refuses_to_run_without_the_program_sources():
    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "fine-grids", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
