"""Tests of the benchmark itself, on the --smoke sizes.

Run from the repository root: python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from cli_runs import check_report, ergocert  # noqa: E402
from reference import compute_facts  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = run_bench("--smoke", "--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == wanted
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_every_workload_of_the_spec_is_defined():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


@pytest.fixture(scope="module")
def smoke_files(tmp_path_factory):
    """Each workload's smoke file, with the reference facts about it."""
    work = tmp_path_factory.mktemp("smoke")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    files = {}
    for workload in WORKLOADS.values():
        path = work / f"{workload.name}.seq"
        assert ergocert(workload.generate_args(5, str(path), smoke=True), env, work).exit_code == 0
        files[workload.name] = (path, compute_facts(path), env, work)
    return files


CORRUPTIONS = [
    ("analyze", "hypotheses.verdict = ", "hypotheses.verdict = all-conditions-hold"),
    ("analyze", "hypotheses.eventual_positivity.start_1 = ", "hypotheses.eventual_positivity.start_1 = 1"),
    ("analyze_all_starts", "hypotheses.violations = ", "hypotheses.violations = -"),
    ("certify", "certificate.status = ", "certificate.status = emitted"),
    ("simulate", "trajectory.k_final = ", "trajectory.k_final = 1"),
    ("validate", "input.length = ", "input.length = 1"),
]


@pytest.mark.parametrize("command, prefix, replacement", CORRUPTIONS)
def test_reference_check_fires_on_a_corrupted_report(smoke_files, command, prefix, replacement):
    args = {"analyze_all_starts": ["analyze", "--all-starts"]}.get(command, [command])
    for path, facts, env, work in smoke_files.values():
        child = ergocert([*args, str(path)], env, work)
        assert check_report(command, child.exit_code, child.stdout, facts) == []
        lines = child.stdout.splitlines()
        corrupted = [replacement if line.startswith(prefix) else line for line in lines]
        if corrupted == lines:
            continue  # this value is already the replacement on this workload
        assert check_report(command, child.exit_code, "\n".join(corrupted), facts), (path.name, replacement)


def test_reference_check_fires_on_a_wrong_exit_code(smoke_files):
    path, facts, env, work = smoke_files["periodic-n101"]
    child = ergocert(["certify", str(path)], env, work)
    assert child.exit_code == 1
    assert check_report("certify", 0, child.stdout, facts)
    assert check_report("certify", None, child.stdout, facts)  # killed at the timeout


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "mixing-n50", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_a_count_that_changes_for_the_same_seed_is_a_failure(tmp_path):
    import bench

    assert bench.check_counts({"seqfile.values": 10}, seed=7, work=tmp_path) == []
    assert bench.check_counts({"seqfile.values": 10}, seed=7, work=tmp_path) == []
    assert bench.check_counts({"seqfile.values": 10}, seed=8, work=tmp_path) == []
    assert bench.check_counts({"seqfile.values": 11}, seed=7, work=tmp_path)
