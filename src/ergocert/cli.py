"""Command-line interface: validate | analyze | certify | simulate | generate.

Reports go to standard output as stable 'key = value' lines; errors go to
standard error. Exit codes: 0 success / conditions hold, 1 condition
violation or refused certification, 2 input error, 3 horizon exhausted.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

import numpy as np

from .convergence import contraction_certificate, run_to_tolerance
from .errors import (
    CertificationRefused,
    ContractViolation,
    DimensionError,
    StochasticityError,
)
from .generate import PRESETS, generate_sequence
from .hypotheses import HypothesisReport, analyze
from .seqfile import (
    SequenceFile,
    SequenceFileError,
    parse_numbers,
    read_sequence_file,
    write_sequence_file,
)
from .stochastic import min_positive_entry

EXIT_OK = 0
EXIT_HYPOTHESIS = 1
EXIT_INPUT = 2
EXIT_EXHAUSTED = 3


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _emit(key: str, value) -> None:
    print(f"{key} = {_fmt(value)}")


def _emit_input(path: str, seqf: SequenceFile) -> None:
    _emit("input.path", path)
    _emit("input.n", seqf.n)
    _emit("input.length", seqf.length)


def _emit_hypotheses(report: HypothesisReport) -> None:
    _emit("hypotheses.alpha", report.alpha)
    _emit(
        "hypotheses.complete_reducibility.failures",
        " ".join(str(k) for k in report.reducibility_failures) or None,
    )
    _emit("hypotheses.core.present", report.core is not None)
    if report.core is not None:
        _emit("hypotheses.core.edges", report.core.render())
    _emit(
        "hypotheses.core.node_periods",
        " ".join(f"{node}:{p}" for node, p in sorted(report.node_periods.items())),
    )
    if report.core_offenders:
        _emit("hypotheses.core.offending_nodes", " ".join(str(u) for u in report.core_offenders))
    for start, reached in sorted(report.eventual_positivity.items()):
        _emit(f"hypotheses.eventual_positivity.start_{start}", reached)
    _emit("hypotheses.violations", " ".join(report.violations) or None)
    _emit("hypotheses.verdict", report.verdict)


def _parse_x0(raw: str) -> np.ndarray:
    text = Path(raw[1:]).read_text(encoding="utf-8") if raw.startswith("@") else raw
    try:
        return parse_numbers(" ".join(text.replace(",", " ").split()))
    except ValueError:
        raise ContractViolation(f"could not parse x0 vector from {raw!r}") from None


def _finish(code: int) -> int:
    _emit("exit_status", code)
    return code


def cmd_validate(args: argparse.Namespace) -> int:
    seqf = read_sequence_file(args.path)
    _emit_input(args.path, seqf)
    _emit("input.alpha", min_positive_entry(seqf.to_sequence().stack))
    _emit("validation", "ok")
    return _finish(EXIT_OK)


def cmd_analyze(args: argparse.Namespace) -> int:
    seqf = read_sequence_file(args.path)
    report = analyze(seqf.to_sequence(), all_starts=args.all_starts)
    _emit_input(args.path, seqf)
    _emit_hypotheses(report)
    return _finish(EXIT_OK if report.holds else EXIT_HYPOTHESIS)


def cmd_certify(args: argparse.Namespace) -> int:
    seqf = read_sequence_file(args.path)
    seq = seqf.to_sequence()
    report = analyze(seq)
    _emit_input(args.path, seqf)
    _emit_hypotheses(report)
    try:
        certificate = contraction_certificate(seq, report=report)
    except CertificationRefused as refusal:
        _emit("certificate.status", "refused")
        _emit("certificate.refusals", " ".join(refusal.reasons))
        return _finish(EXIT_HYPOTHESIS)
    if certificate is None:
        _emit("certificate.status", "horizon-exhausted")
        return _finish(EXIT_EXHAUSTED)
    _emit("certificate.status", "emitted")
    _emit("certificate.alpha", certificate.alpha)
    _emit("certificate.wielandt", certificate.wielandt)
    _emit("certificate.saturation_index", certificate.saturation_index)
    _emit("certificate.entry_floor", certificate.entry_floor)
    _emit("certificate.contraction", certificate.contraction)
    _emit("certificate.seminorm_at_saturation", certificate.seminorm_at_saturation)
    _emit("certificate.vacuous", certificate.vacuous)
    _emit("numerics.row_sum_drift", certificate.row_sum_drift)
    return _finish(EXIT_OK)


def cmd_simulate(args: argparse.Namespace) -> int:
    seqf = read_sequence_file(args.path)
    x0 = _parse_x0(args.x0) if args.x0 is not None else None
    run = run_to_tolerance(seqf.to_sequence(), args.epsilon, x0)
    if args.emit_csv is not None:
        values = run.matrix_seminorms if x0 is None else run.vector_seminorms
        csv_text = "k,seminorm\n" + "".join(f"{k},{_fmt(v)}\n" for k, v in enumerate(values))
        if args.emit_csv != "-":  # before the report: a failed write prints no exit_status
            Path(args.emit_csv).write_text(csv_text, encoding="utf-8")

    _emit_input(args.path, seqf)
    _emit("trajectory.epsilon", args.epsilon)
    _emit("trajectory.criterion", "vector" if x0 is not None else "matrix")
    for k, value in enumerate(run.matrix_seminorms):
        _emit(f"trajectory.{k}", value)
    for k, value in enumerate(run.vector_seminorms or ()):
        _emit(f"trajectory_x0.{k}", value)
    _emit("trajectory.k_final", run.k)
    _emit("trajectory.reached", run.reached)
    if run.consensus_row is not None:
        _emit("consensus.row", " ".join(repr(float(v)) for v in run.consensus_row))
    if run.consensus_value is not None:
        _emit("consensus.value", run.consensus_value)
    _emit("numerics.row_sum_drift", run.state.row_sum_drift)
    code = _finish(EXIT_OK if run.reached else EXIT_EXHAUSTED)
    if args.emit_csv == "-":
        sys.stdout.write(csv_text)
    return code


def cmd_generate(args: argparse.Namespace) -> int:
    seqf = generate_sequence(args.preset, args.n, args.length, args.alpha, args.seed)
    write_sequence_file(args.out, seqf.to_sequence(), seqf.metadata)
    _emit("generated.path", args.out)
    _emit("generated.preset", args.preset)
    _emit("generated.n", seqf.n)
    _emit("generated.length", seqf.length)
    for key in ("set-size", "checked-depth", "core-edges", "pattern"):
        if key in seqf.metadata:
            _emit(f"generated.{key}", seqf.metadata[key])
    return _finish(EXIT_OK)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ergocert",
        description="Analyze products of stochastic matrices: condition checks, "
        "contraction certificates, and disagreement trajectories.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse and validate a sequence file")
    p.add_argument("path")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("analyze", help="check the four convergence conditions")
    p.add_argument("path")
    p.add_argument("--all-starts", action="store_true", help="check eventual positivity from every start index")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("certify", help="emit a contraction certificate")
    p.add_argument("path")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("simulate", help="run products to a disagreement tolerance")
    p.add_argument("path")
    p.add_argument("--epsilon", type=float, default=1e-6, help="target semi-norm")
    p.add_argument("--x0", default=None, help="initial vector: comma/space separated values, or @file")
    p.add_argument("--emit-csv", default=None, metavar="PATH", help="write a k,seminorm table ('-' for stdout)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("generate", help="write a sequence file for a named regime")
    p.add_argument("preset", choices=PRESETS)
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--length", type=int, default=30)
    p.add_argument("--alpha", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SequenceFileError, StochasticityError, DimensionError, ContractViolation, OSError, UnicodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
