"""Tests of the benchmark itself: the checker and every workload, small.

Run from the repository root::

    python3 -m pytest e2ebench/selftest.py -q

The file name keeps it out of the repository's default test collection;
each workload runs end to end at ``--scale 0.05`` in a few seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_checker_rejects_every_corruption():
    assert oracle.self_test() == []


def test_square_check_catches_a_missing_two_hop_pair():
    eu, ev = np.array([0, 1, 2]), np.array([1, 2, 3])  # path 0-1-2-3
    good_u, good_v = np.array([0, 0, 1, 1, 2]), np.array([1, 2, 2, 3, 3])
    assert oracle.check_square(4, eu, ev, good_u, good_v) is None
    assert oracle.check_square(4, eu, ev, good_u[:-1], good_v[:-1]) is not None


def test_bfs_depth_uses_each_components_lowest_id_root():
    # Component {0..3} is the path 2-0-1-3 (root 0 reaches depth 2);
    # component {4, 5, 6} is the path 4-5-6 (root 4 reaches depth 2);
    # node 7 is isolated.
    eu, ev = np.array([0, 0, 1, 4, 5]), np.array([2, 1, 3, 5, 6])
    assert oracle.bfs_depth_from_lowest_ids(8, eu, ev) == 2
    eu, ev = np.array([0, 1, 2]), np.array([1, 2, 3])
    assert oracle.bfs_depth_from_lowest_ids(4, eu, ev) == 3


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "e2ebench" / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--scale", "0.05"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_runs_end_to_end(workload, trace):
    out = _run(workload, trace)
    assert out.returncode == 0, out.stderr
    res = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True, out.stderr
    assert res["failed"] == 0 and res["attempted"] >= 1
    want = SPEC["per_layer" if trace else "end_to_end"]
    assert set(res["metrics"]) == {m["name"] for m in want}
    for m in want:
        assert res["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in res["metrics"].values())


def test_refuses_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run("dense-general", 0, cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
