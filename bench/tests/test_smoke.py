"""Smoke test of the benchmark: every workload at a tiny size.

Checks that each run prints its context line and a result line naming
every end-to-end (``--trace 0``) or per-layer (``--trace 1``) metric of
BENCHMARK.json with its unit, that the traced run reaches every layer the
workload must reach, and that the benchmark refuses to run without the
program.  Run from the repository root:

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = os.path.join("bench", "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as _handle:
    SPEC = json.load(_handle)

WORKLOADS = [w["name"] for w in SPEC["workloads"]]
CONTEXT_KEYS = {
    "python", "nproc", "git_revision", "source_sha256", "seed", "items_per_pass",
    "passes", "items_attempted", "items_failed", "fail_rate", "digest",
}


def run(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "0", "--seconds", "1",
         "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    *_, context_line, result_line = proc.stdout.strip().splitlines()
    result = json.loads(result_line)
    context = json.loads(context_line)["context"]

    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in declared}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))

    assert CONTEXT_KEYS <= set(context)
    assert context["seed"] == 0 and context["fail_rate"] == 0
    if trace:
        assert context["coverage_missing"] == []
        assert result["metrics"]["trace.overhead_ratio"]["value"] > 0
    else:
        for name in ("setup_s", "items_per_s", "item_p50_ms", "peak_rss_mb"):
            assert result["metrics"][name]["value"] > 0


def test_workloads_are_the_four_named_ones():
    assert WORKLOADS == ["gr-sweep", "closure", "axioms", "centre-cli"]
    assert SPEC["command"] == ["python3", RUN]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(WORKLOADS[0], 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
