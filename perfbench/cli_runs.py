"""Run the `ergocert` CLI as child processes and check what they report.

Each command is one child process, timed by wall clock from spawn to reap,
with its peak resident set size taken from `os.wait4`. Its standard output
goes to a file, parsed as the CLI's `key = value` report lines.
"""

from __future__ import annotations

import os
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from reference import EPSILON, TAU_BAND, Facts

# The console script `ergocert` runs exactly this.
ENTRY = "import sys; from ergocert.cli import main; sys.exit(main())"
COMMANDS = {
    "validate": ["validate"],
    "analyze": ["analyze"],
    "analyze_all_starts": ["analyze", "--all-starts"],
    "certify": ["certify"],
    "simulate": ["simulate"],
}
TIMEOUT_S = 60.0


@dataclass(frozen=True)
class ChildRun:
    wall_s: float
    exit_code: int | None  # None: killed at the timeout
    maxrss_mb: float
    stdout: str
    stderr: str


def launch(argv: list[str], env: dict[str, str], log_dir: Path) -> ChildRun:
    """Run one child to completion (or kill it at TIMEOUT_S) and collect its resources."""
    out_path, err_path = log_dir / "child.out", log_dir / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env)
        pidfd = os.pidfd_open(proc.pid)
        try:
            timed_out = not select.select([pidfd], [], [], TIMEOUT_S)[0]
            if timed_out:
                os.kill(proc.pid, signal.SIGKILL)
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            os.close(pidfd)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    return ChildRun(
        wall_s=wall,
        exit_code=None if timed_out else proc.returncode,
        maxrss_mb=usage.ru_maxrss / 1024.0,  # kilobytes on Linux
        stdout=out_path.read_text(encoding="utf-8", errors="replace"),
        stderr=err_path.read_text(encoding="utf-8", errors="replace")[-2000:],
    )


def ergocert(args: list[str], env: dict[str, str], log_dir: Path) -> ChildRun:
    return launch([sys.executable, "-c", ENTRY, *args], env, log_dir)


def parse_report(text: str) -> dict[str, str]:
    report = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            report[key.strip()] = value.strip()
    return report


def _words(value: str | None) -> set[str]:
    return set() if value in (None, "-") else set(value.split())


def _onset_text(reached: int | None) -> str:
    return "-" if reached is None else str(reached)


def check_report(command: str, exit_code: int | None, text: str, facts: Facts) -> list[str]:
    """Mismatches between one command's exit code and report and the reference facts."""
    if exit_code is None:
        return [f"{command}: timed out after {TIMEOUT_S} s"]
    report = parse_report(text)
    problems = []
    expected: dict[str, str] = {}
    if command == "validate":
        code = 0
        expected = {"validation": "ok", "input.n": str(facts.n), "input.length": str(facts.length)}
    elif command in ("analyze", "analyze_all_starts"):
        all_starts = command == "analyze_all_starts"
        violations = facts.violations(all_starts)
        if _words(report.get("hypotheses.violations")) != violations:
            problems.append(f"{command}: violations {report.get('hypotheses.violations')!r} != {sorted(violations)}")
        code = 1 if violations else 0
        expected["hypotheses.verdict"] = _verdict(violations)
        for k in range(1, facts.length + 1) if all_starts else (1,):
            expected[f"hypotheses.eventual_positivity.start_{k}"] = _onset_text(facts.onsets[k])
    elif command == "certify":
        status = facts.certificate_status()
        code = {"emitted": 0, "refused": 1, "horizon-exhausted": 3}[status]
        expected = {"hypotheses.verdict": _verdict(facts.violations(False)), "certificate.status": status}
        if status == "emitted":
            expected["certificate.saturation_index"] = str(facts.saturation_index)
    elif command == "simulate":
        reached = report.get("trajectory.reached")
        problem = check_trajectory(report.get("trajectory.k_final"), reached == "yes", facts)
        if problem:
            problems.append(f"simulate: {problem}")
        code = 0 if reached == "yes" else 3
    else:
        raise ValueError(f"unknown command {command!r}")

    if exit_code != code:
        problems.append(f"{command}: exit code {exit_code} != {code}")
    problems += [
        f"{command}: {key} = {report.get(key)!r}, expected {value!r}"
        for key, value in expected.items()
        if report.get(key) != value
    ]
    return problems


def _verdict(violations: set[str]) -> str:
    return "conditions-violated" if violations else "all-conditions-hold"


def check_trajectory(k_final, reached: bool, facts: Facts) -> str | None:
    """Whether (k_final, reached) is what a run to EPSILON gives on the reference semi-norms.

    Semi-norms within TAU_BAND of EPSILON may fall on either side of it by
    rounding, so a stop there is accepted; anywhere else it must match.
    """
    try:
        k = int(k_final)
    except (TypeError, ValueError):
        return f"k_final {k_final!r} is not an integer"
    taus = facts.taus
    if not 0 <= k < len(taus):
        return f"k_final {k} is past k={len(taus) - 1}, where the reference semi-norm is below {EPSILON}"
    if reached and taus[k] > EPSILON * (1 + TAU_BAND):
        return f"reached at k={k}, but the reference semi-norm there is {taus[k]!r}"
    if not reached and (k != facts.length or taus[k] <= EPSILON * (1 - TAU_BAND)):
        return f"not reached at k={k}, but the reference reaches {EPSILON} by k={facts.tolerance_steps()}"
    return None
