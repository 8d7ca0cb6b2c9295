"""Self-test of the benchmark on tiny inputs (about a minute in all).

    python3 -m pytest perfbench -q

It is not part of the repository's test suite (``testpaths = ["tests"]``).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from run import WORKLOAD_NAMES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload, trace, cwd=ROOT, script=HERE / "run.py"):
    cmd = [sys.executable, str(script), "--workload", workload, "--seed", "2",
           "--seconds", "0.5", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True
    assert out["attempted"] >= 1
    return out


def test_listed_workloads_run():
    listed = [w["name"] for w in SPEC["workloads"]]
    assert set(listed) <= set(WORKLOAD_NAMES)


def _units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_untraced_prints_every_end_to_end_metric(workload):
    out = _result(_run(workload, 0))
    printed = {k: v["unit"] for k, v in out["metrics"].items()}
    assert printed == _units("end_to_end")
    assert all(v["value"] > 0 for v in out["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_traced_spans_nest_and_self_times_fit(workload):
    out = _result(_run(workload, 1))
    printed = {k: v["unit"] for k, v in out["metrics"].items()}
    assert printed == _units("per_layer")
    record = json.loads(
        (HERE / "results" / f"{workload}-seed2-trace1.json").read_text())
    spans = record["spans"]
    assert spans and all(s is not None for s in spans)
    for name, start, end, parent, op in spans:
        assert start <= end
        if parent is not None:
            p_name, p_start, p_end, _, p_op = spans[parent]
            assert p_start <= start and end <= p_end, (name, p_name)
            assert op == p_op
    self_total = sum(st[2] for st in record["stats"].values())
    assert 0.0 < self_total <= record["traced_wall_s"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = _run("covering", 0, cwd=tmp_path,
                script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
