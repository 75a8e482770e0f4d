"""Smoke test: every workload at a tiny size reports every metric BENCHMARK.json names.

    python3 -m pytest -q perfbench/tests

About two minutes: the traced runs need one traced and one untraced
pass over each job list.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from run import tail_percentile  # noqa: E402
from workloads import WORKLOADS, build_jobs  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_present(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_workloads_in_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_inputs_follow_the_seed(tmp_path):
    for workload in WORKLOADS:
        a = build_jobs(workload, 3, str(tmp_path / "a"))
        b = build_jobs(workload, 3, str(tmp_path / "b"))
        assert [j.name for j in a] == [j.name for j in b]
        for ja, jb in zip(a, b):
            for fa, fb in zip(ja.argv, jb.argv):
                if fa.endswith(".json"):
                    assert open(fa).read() == open(fb).read()


def test_tail_percentile_is_fixed_and_counts_jobs_beyond():
    assert tail_percentile([float(t) for t in range(41)], 75) == (30.0, 10, 41)
    assert tail_percentile([1.0, 2.0], 60) == (1.6, 1, 2)
    assert tail_percentile([3.0], 85) == (3.0, 0, 1)
