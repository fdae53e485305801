"""Command-line interface: validate | analyze | certify | simulate | generate.

Reports go to standard output as stable 'key = value' lines; errors go to
standard error. Exit codes: 0 success / conditions hold, 1 condition
violation or refused certification, 2 input error, 3 horizon exhausted.

Each cmd_* returns its report as ordered (key, value) pairs and its exit
code. Only main prints: the pairs, then exit_status, and nothing after it.
A command that raises has printed nothing, so a report is printed whole or
not at all.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

import numpy as np

from .convergence import contraction_certificate, run_to_tolerance
from .digraph import render
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


def _read(path: str) -> tuple[SequenceFile, list]:
    """The sequence file at path, and the input pairs that open its report."""
    seqf = read_sequence_file(path)
    return seqf, [("input.path", path), ("input.n", seqf.n), ("input.length", seqf.length)]


def _hypotheses(report: HypothesisReport) -> list:
    """The hypotheses pairs that analyze and certify share."""
    pairs = [
        ("hypotheses.alpha", report.alpha),
        ("hypotheses.complete_reducibility.failures", " ".join(str(k) for k in report.reducibility_failures) or None),
        ("hypotheses.core.present", report.core is not None),
    ]
    if report.core is not None:
        pairs.append(("hypotheses.core.edges", render(report.core)))
    pairs.append(
        ("hypotheses.core.node_periods", " ".join(f"{node}:{p}" for node, p in sorted(report.node_periods.items())))
    )
    if report.core_offenders:
        pairs.append(("hypotheses.core.offending_nodes", " ".join(str(u) for u in report.core_offenders)))
    pairs += [(f"hypotheses.eventual_positivity.start_{start}", reached)
              for start, reached in sorted(report.eventual_positivity.items())]
    pairs.append(("hypotheses.violations", " ".join(report.violations) or None))
    pairs.append(("hypotheses.verdict", report.verdict))
    return pairs


def _parse_x0(raw: str) -> np.ndarray:
    text = Path(raw[1:]).read_text(encoding="utf-8-sig") if raw.startswith("@") else raw
    try:
        return parse_numbers(" ".join(text.replace(",", " ").split()))
    except ValueError:
        raise ContractViolation(f"could not parse x0 vector from {raw!r}") from None


def cmd_validate(args: argparse.Namespace) -> tuple[list, int]:
    seqf, pairs = _read(args.path)
    pairs += [("input.alpha", min_positive_entry(seqf.to_sequence())), ("validation", "ok")]
    return pairs, EXIT_OK


def cmd_analyze(args: argparse.Namespace) -> tuple[list, int]:
    seqf, pairs = _read(args.path)
    report = analyze(seqf.to_sequence(), all_starts=args.all_starts)
    return pairs + _hypotheses(report), EXIT_OK if report.holds else EXIT_HYPOTHESIS


def cmd_certify(args: argparse.Namespace) -> tuple[list, int]:
    seqf, pairs = _read(args.path)
    seq = seqf.to_sequence()
    report = analyze(seq)
    pairs += _hypotheses(report)
    try:
        certificate = contraction_certificate(seq, report=report)
    except CertificationRefused as refusal:
        pairs += [("certificate.status", "refused"), ("certificate.refusals", " ".join(refusal.reasons))]
        return pairs, EXIT_HYPOTHESIS
    if certificate is None:
        return pairs + [("certificate.status", "horizon-exhausted")], EXIT_EXHAUSTED
    pairs += [
        ("certificate.status", "emitted"),
        ("certificate.alpha", certificate.alpha),
        ("certificate.wielandt", certificate.wielandt),
        ("certificate.saturation_index", certificate.saturation_index),
        ("certificate.entry_floor", certificate.entry_floor),
        ("certificate.contraction", certificate.contraction),
        ("certificate.seminorm_at_saturation", certificate.seminorm_at_saturation),
        ("certificate.vacuous", certificate.vacuous),
        ("numerics.row_sum_drift", certificate.row_sum_drift),
    ]
    return pairs, EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> tuple[list, int]:
    seqf, pairs = _read(args.path)
    x0 = _parse_x0(args.x0) if args.x0 is not None else None
    run = run_to_tolerance(seqf.to_sequence(), args.epsilon, x0)
    pairs += [("trajectory.epsilon", args.epsilon), ("trajectory.criterion", "vector" if x0 is not None else "matrix")]
    pairs += [(f"trajectory.{k}", value) for k, value in enumerate(run.matrix_seminorms)]
    pairs += [(f"trajectory_x0.{k}", value) for k, value in enumerate(run.vector_seminorms or ())]
    pairs += [("trajectory.k_final", run.state.k), ("trajectory.reached", run.reached)]
    if run.consensus_row is not None:
        pairs.append(("consensus.row", " ".join(repr(float(v)) for v in run.consensus_row)))
    if run.consensus_value is not None:
        pairs.append(("consensus.value", run.consensus_value))
    pairs.append(("numerics.row_sum_drift", run.state.row_sum_drift))
    return pairs, EXIT_OK if run.reached else EXIT_EXHAUSTED


def cmd_generate(args: argparse.Namespace) -> tuple[list, int]:
    if args.out == "-":  # reports own stdout: '-' would be a file named '-'
        raise ContractViolation("--out must be a file path, not '-'")
    seqf = generate_sequence(args.preset, args.n, args.length, args.alpha, args.seed)
    write_sequence_file(args.out, seqf.to_sequence(), seqf.metadata)
    pairs = [
        ("generated.path", args.out),
        ("generated.preset", args.preset),
        ("generated.n", seqf.n),
        ("generated.length", seqf.length),
    ]
    pairs += [(f"generated.{key}", seqf.metadata[key])
              for key in ("set-size", "checked-depth", "core-edges", "pattern") if key in seqf.metadata]
    return pairs, EXIT_OK


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
    p.add_argument(
        "--x0", default=None,
        help="initial vector: comma/space separated values, or @file (write --x0=-1,2 if the first is negative)",
    )
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("generate", help="write a sequence file for a named regime")
    p.add_argument("preset", choices=PRESETS)
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--length", type=int, default=30)
    p.add_argument("--alpha", type=float, default=None, help="floor of the positive entries (default: min(0.1, 1/n))")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        pairs, code = args.func(args)
    except (SequenceFileError, StochasticityError, DimensionError, ContractViolation, OSError, UnicodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT
    lines = "".join(f"{key} = {_fmt(value)}\n" for key, value in [*pairs, ("exit_status", code)])
    sys.stdout.write(lines)
    return code


if __name__ == "__main__":
    sys.exit(main())
