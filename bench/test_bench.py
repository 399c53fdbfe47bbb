"""Tests of the benchmark itself: quick mode end to end, the oracle, the bare-directory exit.

Run from the repository root with ``python -m pytest bench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src")]

import gen  # noqa: E402
from oracle import Oracle  # noqa: E402


def _metric_names(kind: str) -> set[str]:
    return {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[kind]}


@pytest.mark.parametrize("trace", [0, 1])
def test_quick_mode_runs_every_workload_with_all_checks(trace):
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--quick", "--seconds", "0.5", "--trace", str(trace)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert out.returncode == 0, out.stderr
    results = [json.loads(line) for line in out.stdout.splitlines()]
    assert len(results) == 3
    names = _metric_names("per_layer" if trace else "end_to_end")
    for result in results:
        assert result["correct"], out.stderr
        assert result["failed"] == 0
        assert result["attempted"] > 0
        assert set(result["metrics"]) == names
        if not trace:
            assert all(m["value"] > 0 for m in result["metrics"].values())


def test_oracle_reads_actorx_levels_from_the_policy_text():
    # The paper's worked example: ActorX holds a geometry viewpoint (competence 2)
    # and a mechanic viewpoint (competence 3) on the vessel; the merge keeps the
    # lower level of the two rules for every shared batch.
    doc = Oracle(gen.fixture_records()).filter_doc("ActorX", "CycloneVessel")
    levels = {e["batch"]: e["level"] for e in doc["entries"]}
    assert levels["Mechanic"] == 1
    assert levels["Geometry-Form"] == 1
    assert levels["Flows"] == 2
    assert levels["Sub-Artifact"] == 2
    assert [a["viewpoint_id"] for a in doc["audit"]] == ["VP2", "VP1"]
    assert {e["batch"]: e["provenance"] for e in doc["entries"]}["Mechanic"] == ["VP2"]


def test_generator_is_deterministic_in_its_seed():
    assert gen.scaled(7, gen.QUICK).model_doc == gen.scaled(7, gen.QUICK).model_doc
    assert gen.scaled(7, gen.QUICK).viewpoints != gen.scaled(8, gen.QUICK).viewpoints


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fixture", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert out.returncode != 0
    assert out.stdout == ""
