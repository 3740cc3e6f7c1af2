"""Self-test of the benchmark at tiny path counts.

usage: python3 -m pytest -q perfbench/selftest.py

Runs every workload once untraced and once traced with a few hundred paths,
and checks the result line against BENCHMARK.json: its keys, every named
metric with its unit, and that the per-layer self times add up to no more
than the traced wall time.  Also checks that the benchmark refuses to run,
without printing a result, where the package source is missing.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# a few hundred paths keep each solve near a second; the singleton grid
# stays above the 400-step cut-off, so it still skips the Z rebuild
TINY = {
    "ball_demo": {"paths": 200, "steps_per_window": 4},
    "singleton_demo": {"paths": 200},
    "polytope_small": {"paths": 100},
}


def test_workloads_match_the_spec():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(run.WORKLOADS)
    assert set(TINY) == set(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_result_line(workload, trace, capsys):
    argv = ["--workload", workload, "--seed", "0", "--seconds", "0",
            "--trace", str(trace)]
    assert run.main(argv, numerics=TINY[workload]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 2
    assert isinstance(result["failed"], int)
    assert 0 <= result["failed"] <= result["attempted"]

    spec = SPEC["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in spec}
    for m in spec:
        value = metrics[m["name"]]
        assert value["unit"] == m["unit"], m["name"]
        assert isinstance(value["value"], (int, float))
        assert not isinstance(value["value"], bool)

    printed = {line.split()[0] for line in lines[1:-2]}
    assert set(run.END_TO_END) | set(run.OUTCOMES) <= printed
    if trace:
        self_s = sum(v["value"] for k, v in metrics.items() if k.endswith(".self_s"))
        assert self_s <= metrics["trace.wall_s"]["value"]


def test_refuses_without_package_source():
    bare = run.WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(run.BENCH, bare / run.BENCH.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "ball_demo",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            run.WORK.rmdir()
        except OSError:
            pass
    assert proc.returncode != 0
    assert proc.stdout == ""
