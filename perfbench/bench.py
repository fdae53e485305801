"""Both benchmark runs: CLI wall times untraced, and the traced in-process run.

See README.md for the metrics, the workloads and the layer map. The last
line printed is the result object; everything above it is detail for a
reader, and the full record (samples, spans, environment) is written under
`.perfbench/` in the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from cli_runs import COMMANDS, check_report, check_trajectory, ergocert, launch, parse_report
from reference import Facts, compute_facts
from run import FIXED_ENV
from workloads import WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
SPEC = ROOT / "BENCHMARK.json"
SETUP_REPEATS = 5  # `generate` calls per run; setup_s is their median
MIN_ROUNDS = 4  # so that each command's median is over at least four samples
STARTUP_REPEATS = 3  # timed launches of IMPORT_CLI per traced run, after one untimed
IMPORT_CLI = "import ergocert.cli"
CALIBRATION = Path(__file__).resolve().parent / "calibration.py"


class SetupError(RuntimeError):
    """The workload could not be built: no result is printed and the exit code is 1."""


class Checks:
    """Operations attempted, and the mismatches of those that failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, problems: list[str]) -> None:
        self.attempted += 1
        self.failed += bool(problems)
        self.problems += problems


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="time spent in timed rounds (untraced run)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="shrink n and L to test the benchmark itself")
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "ergocert" / "cli.py").is_file():
        print(f"error: no ergocert sources under {src}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = ROOT / ".perfbench" / (workload.name + ("-smoke" if args.smoke else ""))
    work.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    run = run_traced if args.trace else run_untraced
    try:
        values, checks, record = run(workload, args, env, work)
    except SetupError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(values) != set(wanted):
        print(f"error: metrics {sorted(set(values) ^ set(wanted))} differ from {SPEC.name}", file=sys.stderr)
        return 1
    failed, attempted = checks.failed, checks.attempted
    record.update(
        workload=workload.name, preset=workload.preset, size=workload.size(args.smoke), alpha=workload.alpha,
        seed=args.seed, seed_used_by_preset=workload.uses_seed, trace=args.trace, smoke=args.smoke,
        environment=environment(), attempted=attempted, failed=failed, problems=checks.problems,
        failed_ops_frac=failed / attempted, metrics=values,
    )
    record_path = work / f"record-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1), encoding="utf-8")

    for problem in checks.problems:
        print(f"FAILED {problem}")
    n, length = workload.size(args.smoke)
    print(f"workload: {workload.name}, {workload.preset} n={n} L={length} alpha={workload.alpha!r} "
          f"seed={args.seed}, file {record['file_bytes']} bytes")
    print(f"environment: {json.dumps(record['environment'])}")
    print(f"failed_ops_frac = {failed / attempted!r} frac ({failed} of {attempted} operations)")
    spread = record.get("spread", {})
    for name, unit in wanted.items():
        print(f"{name} = {values[name]!r} {unit}" + (f" ({spread[name]})" if name in spread else ""))
    print(f"record: {record_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not checks.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in wanted.items()},
    }))
    return 0


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "nproc": len(os.sched_getaffinity(0)),
        **{key: os.environ[key] for key in FIXED_ENV},
    }


def check_counts(counts: dict[str, int], seed: int, work: Path) -> list[str]:
    """Exact work counts must repeat for the same seed, within and across runs in this checkout."""
    store = work / "counts.json"
    seen = json.loads(store.read_text(encoding="utf-8")) if store.exists() else {}
    key = f"seed={seed}"
    problems = [
        f"counts: {name} = {value} here but {seen[key][name]} in an earlier run with the same seed"
        for name, value in counts.items()
        if key in seen and seen[key].get(name, value) != value
    ]
    seen.setdefault(key, {}).update(counts)
    store.write_text(json.dumps(seen, indent=1, sort_keys=True), encoding="utf-8")
    return problems


def reference_facts(path: Path, work: Path) -> Facts:
    """compute_facts, kept per file content: the facts depend on the file alone."""
    cache = work / f"facts-{hashlib.sha256(path.read_bytes()).hexdigest()[:24]}.json"
    if cache.exists():
        return Facts.from_json(cache.read_text(encoding="utf-8"))
    facts = compute_facts(path)
    cache.write_text(facts.to_json(), encoding="utf-8")
    return facts


def setup_file(workload: Workload, args, env, work: Path) -> tuple[Path, list[float]]:
    """Warm up the interpreter, then write the workload file SETUP_REPEATS times."""
    path = work / "input.seq"
    warm = launch([sys.executable, "-c", IMPORT_CLI], env, work)
    if warm.exit_code != 0:
        raise SetupError(f"cannot import ergocert.cli: {warm.stderr.strip()}")
    times = []
    for _ in range(SETUP_REPEATS):
        child = ergocert(workload.generate_args(args.seed, str(path), args.smoke), env, work)
        if child.exit_code != 0 or not path.is_file():
            raise SetupError(f"generate failed: {child.stderr.strip()}")
        times.append(child.wall_s)
    return path, times


def calibrate(env, work: Path) -> float:
    """Wall seconds of one calibration child (calibration.py)."""
    child = launch([sys.executable, str(CALIBRATION)], env, work)
    if child.exit_code != 0:
        raise SetupError(f"calibration failed: {child.stderr.strip()}")
    return child.wall_s


def run_untraced(workload: Workload, args, env, work: Path):
    """Timed rounds of every command as a child process, until --seconds have passed and
    at least MIN_ROUNDS rounds are done, with a calibration child before the first round
    and after each one."""
    path, setup = setup_file(workload, args, env, work)
    facts = reference_facts(path, work)
    samples: dict[str, list[float]] = {name: [] for name in COMMANDS}
    relative: dict[str, list[float]] = {name: [] for name in COMMANDS}
    round_peaks, contraction, checks = [], set(), Checks()
    checks.attempted = SETUP_REPEATS  # each generate call that got here exited 0
    calibration = [calibrate(env, work)]
    started = time.perf_counter()
    while len(round_peaks) < MIN_ROUNDS or time.perf_counter() - started < args.seconds:
        peak, walls = 0.0, {}
        for name, command in COMMANDS.items():
            child = ergocert([*command, str(path)], env, work)
            checks.add(check_report(name, child.exit_code, child.stdout, facts))
            walls[name] = child.wall_s
            peak = max(peak, child.maxrss_mb)
            if name == "certify":
                contraction.add(parse_report(child.stdout).get("certificate.contraction", "-"))
        calibration.append(calibrate(env, work))
        unit = (calibration[-2] + calibration[-1]) / 2
        for name, wall in walls.items():
            samples[name].append(wall)
            relative[name].append(wall / unit)
        round_peaks.append(peak)
    counts = {**facts.counts(), "seqfile.bytes": path.stat().st_size}
    checks.add(check_counts(counts, args.seed, work))

    values = {f"{name}_vs_cal": statistics.median(ratios) for name, ratios in relative.items()}
    values["peak_rss_mb"] = statistics.median(round_peaks)
    values["setup_s"] = statistics.median(setup)
    wall_medians = {f"{name}_s": statistics.median(times) for name, times in samples.items()}
    record = {
        "rounds": len(round_peaks),
        "samples": {**samples, "setup_s": setup, "peak_rss_mb": round_peaks, "calibration_s": calibration},
        "relative_samples": relative,
        "wall_medians_s": wall_medians,
        "spread": {
            **{
                f"{name}_vs_cal": f"median of {len(ratios)} samples; max {max(ratios):.4f}; "
                f"wall median {wall_medians[name + '_s']:.4f} s, max {max(samples[name]):.4f} s"
                for name, ratios in relative.items()
            },
            "setup_s": f"median of {len(setup)} samples; max {max(setup):.4f} s",
            "calibration": f"median of {len(calibration)} children: {statistics.median(calibration):.4f} s",
        },
        "file_bytes": counts["seqfile.bytes"],
        "counts": counts,
        "certificate.contraction": sorted(contraction),  # as emitted; 1.0 is the known vacuous certificate
    }
    return values, checks, record


def in_process(main, argv: list[str]) -> tuple[int, str, float]:
    """The CLI's main() in this process, untraced: exit code, report text, seconds."""
    gc.collect()
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue(), time.perf_counter() - start


def check_traced(name: str, result: dict, facts: Facts) -> list[str]:
    """Mismatches between a traced rebuild's results and the reference facts."""
    if name == "validate":
        got, want = (result["n"], result["length"]), (facts.n, facts.length)
    elif name in ("analyze", "analyze_all_starts"):
        all_starts = name == "analyze_all_starts"
        want_onsets = {k: v for k, v in facts.onsets.items() if all_starts or k == 1}
        got = (result["violations"], result["onsets"], result["pattern_edges"])
        want = (facts.violations(all_starts), want_onsets, facts.pattern_edges)
    elif name == "certify":
        got = (result["status"], result["saturation_index"])
        want = (facts.certificate_status(), facts.saturation_index)
    else:
        problem = check_trajectory(result["k_final"], result["reached"], facts)
        return [f"traced {name}: {problem}"] if problem else []
    return [] if got == want else [f"traced {name}: {got!r} != reference {want!r}"]


def run_traced(workload: Workload, args, env, work: Path):
    """One pass of every command in process: the CLI's main() untraced, then the traced rebuild."""
    sys.path.insert(0, str(ROOT / "src"))
    import layers
    from ergocert import cli

    startup = [launch([sys.executable, "-c", IMPORT_CLI], env, work) for _ in range(STARTUP_REPEATS + 1)][1:]
    path = work / "input.seq"
    code, _, untraced_generate = in_process(cli.main, workload.generate_args(args.seed, str(path), args.smoke))
    if code != 0:
        raise SetupError(f"generate exited {code}")
    tracer = layers.Tracer(f"{workload.name}/seed={args.seed}/{time.time_ns()}")
    checks = Checks()
    checks.attempted = 1  # the generate call above exited 0
    facts = reference_facts(path, work)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    n, length = workload.size(args.smoke)
    gc.collect()
    with tracer.span("cli.generate") as generate_span:
        layers.traced_generate(tracer, workload.preset, n, length, workload.alpha, args.seed, str(path))
    same = hashlib.sha256(path.read_bytes()).hexdigest() == digest
    checks.add([] if same else ["traced generate: file differs from the CLI's"])

    rebuilt = {
        "validate": lambda: layers.traced_validate(tracer, str(path)),
        "analyze": lambda: layers.traced_analyze(tracer, str(path), all_starts=False),
        "analyze_all_starts": lambda: layers.traced_analyze(tracer, str(path), all_starts=True),
        "certify": lambda: layers.traced_certify(tracer, str(path)),
        "simulate": lambda: layers.traced_simulate(tracer, str(path)),
    }
    overhead = {"generate": generate_span.duration - untraced_generate}
    results = {}
    for name, command in COMMANDS.items():
        code, text, seconds = in_process(cli.main, [*command, str(path)])
        checks.add(check_report(name, code, text, facts))
        gc.collect()
        with tracer.span(f"cli.{name}") as span:
            results[name] = rebuilt[name]()
        checks.add(check_traced(name, results[name], facts))
        overhead[name] = span.duration - seconds

    x0 = np.random.default_rng(args.seed).random(n)
    values = {**layers.probes(tracer, str(path), x0), **layers.span_metrics(tracer)}
    counts = {
        "seqfile.values": results["validate"]["values"],
        "seqfile.bytes": path.stat().st_size,
        "digraph.pattern_edges": results["analyze"]["pattern_edges"],
        "hypotheses.positivity_steps": results["analyze_all_starts"]["positivity_steps"],
        "convergence.saturation_index": results["certify"]["saturation_index"] or 0,
        "convergence.tolerance_steps": results["simulate"]["k_final"],
        "stochastic.matrix_seminorm_bytes_computed": 8 * n**3,
    }
    reference_counts = {**facts.counts(), "seqfile.bytes": counts["seqfile.bytes"]}
    checks.add([
        f"counts: traced {name} = {value} but the reference gives {reference_counts[name]}"
        for name, value in counts.items()
        if value != reference_counts[name]
    ] + check_counts(counts, args.seed, work))
    values.update(counts)
    values["cli.startup_s"] = statistics.median(child.wall_s for child in startup)
    traced_total = sum(s.duration for s in tracer.spans if s.parent is None and s.name.startswith("cli."))
    values["trace.overhead_s"] = sum(overhead.values())
    values["trace.overhead_pct"] = 100.0 * values["trace.overhead_s"] / (traced_total - values["trace.overhead_s"])
    record = {
        "file_bytes": counts["seqfile.bytes"],
        "traced_s": traced_total,
        "overhead_s": overhead,  # per command: traced rebuild minus the CLI's main() untraced
        "startup_samples": [child.wall_s for child in startup],
        "certificate.contraction": results["certify"].get("contraction"),
        "spans": tracer.as_records(),
    }
    return values, checks, record
