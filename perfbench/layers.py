"""The traced in-process run: spans around the benchmark's own calls into
each ergocert module.

Every CLI command is rebuilt here from the public functions of the modules
it uses, in the order the command calls them, with one span per call. Where
a library function only composes other public functions (`analyze`,
`contraction_certificate`, `iter_products`), this file makes those calls
itself under a parent span named after the function, so the work is
attributed to the module that does it. Spans live in memory and are written
out with the run's record.
"""

from __future__ import annotations

import statistics
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field

from ergocert import convergence, digraph, generate, hypotheses, seqfile, stochastic
from reference import EPSILON, positivity_steps

LAYERS = ("seqfile", "stochastic", "digraph", "hypotheses", "convergence", "generate")
CLI_ROOT = "cli"  # command spans are named cli.<command>; their self time is unattributed


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    trace_id: str
    spans: list[Span] = field(default_factory=list)
    _open: list[int] = field(default_factory=list)

    @contextmanager
    def span(self, name: str):
        record = Span(len(self.spans), self._open[-1] if self._open else None, name, time.perf_counter())
        self.spans.append(record)
        self._open.append(record.id)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._open.pop()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def self_times(self) -> dict[int, float]:
        """Span duration minus the time its child spans cover (children never overlap)."""
        own = {s.id: s.duration for s in self.spans}
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.duration
        return own

    def command_of(self) -> dict[int, Span | None]:
        """The enclosing cli.* command span of each span, if any."""
        out: dict[int, Span | None] = {}
        for s in self.spans:  # parents precede children
            parent = out.get(s.parent) if s.parent is not None else None
            out[s.id] = s if s.name.startswith(CLI_ROOT + ".") and s.parent is None else parent
        return out

    def as_records(self) -> list[dict]:
        return [
            {"trace": self.trace_id, "id": s.id, "parent": s.parent, "name": s.name, "start": s.start, "end": s.end}
            for s in self.spans
        ]


# Commands rebuilt from module calls. Each returns the facts the CLI would print.


def traced_generate(t: Tracer, preset: str, n: int, length: int, alpha: float, seed: int, out: str) -> dict:
    seqf = t.call("generate.generate_sequence", generate.generate_sequence, preset, n, length, alpha, seed)
    t.call("seqfile.write", seqfile.write_sequence_file, out, seqf.matrices, seqf.metadata)
    return {}


def traced_validate(t: Tracer, path: str) -> dict:
    seqf = t.call("seqfile.parse", seqfile.read_sequence_file, path)
    t.call("stochastic.min_positive_entry", stochastic.min_positive_entry, seqf.matrices)
    return {"n": seqf.n, "length": seqf.length, "values": seqf.length * seqf.n * seqf.n}


def traced_analysis(t: Tracer, seq: hypotheses.MatrixSequence, all_starts: bool) -> dict:
    """hypotheses.analyze, call by call."""
    with t.span("hypotheses.analyze"):
        alpha = t.call("stochastic.min_positive_entry", stochastic.min_positive_entry, seq.items)
        failures, edges = [], 0
        with t.span("hypotheses.complete_reducibility"):
            for k, m in enumerate(seq, start=1):
                pattern = t.call("stochastic.digraph_of", stochastic.digraph_of, m)
                edges += len(pattern.edges)
                if t.call("digraph.scc", digraph.strongly_connected_components, pattern).condensation_edges:
                    failures.append(k)
        with t.span("hypotheses.core_search"):
            patterns = [t.call("stochastic.digraph_of", stochastic.digraph_of, m) for m in seq]
            common = t.call("digraph.intersection", digraph.intersection, patterns)
            aperiodicity = t.call("digraph.is_aperiodic", digraph.is_aperiodic, common)
            if aperiodicity.aperiodic:
                component_of = {u: i for i, comp in enumerate(aperiodicity.components) for u in comp}
                digraph.Digraph(common.n, {(u, v) for u, v in common.edges if component_of[u] == component_of[v]})
        starts = range(1, len(seq) + 1) if all_starts else (1,)
        name = "hypotheses.eventual_positivity_all_starts" if all_starts else "hypotheses.eventual_positivity_start1"
        with t.span(name):
            onsets = {k: hypotheses.check_eventual_positivity(seq, k) for k in starts}
    violations = set()
    if alpha is None:
        violations.add("positive-entries")
    violations.update(f"eventual-positivity:start={k}" for k, reached in onsets.items() if reached is None)
    violations.update(f"complete-reducibility:k={k}" for k in failures)
    if not aperiodicity.aperiodic:
        violations.add("aperiodic-core")
    return {"alpha": alpha, "violations": violations, "onsets": onsets, "pattern_edges": edges}


def traced_analyze(t: Tracer, path: str, all_starts: bool) -> dict:
    seq = t.call("seqfile.parse", seqfile.read_sequence_file, path).to_sequence()
    result = traced_analysis(t, seq, all_starts)
    result["positivity_steps"] = positivity_steps(result["onsets"], len(seq))
    return result


def traced_certify(t: Tracer, path: str) -> dict:
    seq = t.call("seqfile.parse", seqfile.read_sequence_file, path).to_sequence()
    analysis = traced_analysis(t, seq, all_starts=False)
    with t.span("convergence.contraction_certificate"):
        if any(not v.startswith("eventual-positivity") for v in analysis["violations"]):
            return {**analysis, "status": "refused", "saturation_index": None}
        alpha = analysis["alpha"]
        saturation = t.call("convergence.find_saturation_K", convergence.find_saturation_K, seq, alpha)
        if saturation is None:
            return {**analysis, "status": "horizon-exhausted", "saturation_index": None}
        floor = convergence.saturation_floor(seq.n, alpha)
        product = t.call("convergence.partial_product", convergence.partial_product, seq, 0, saturation)
        measured = t.call("stochastic.matrix_seminorm", stochastic.matrix_seminorm, product)
    return {**analysis, "status": "emitted", "saturation_index": saturation,
            "contraction": 1.0 - seq.n * floor, "seminorm_at_saturation": measured}


def traced_products(t: Tracer, seq: hypotheses.MatrixSequence, epsilon: float) -> tuple[int, bool]:
    """convergence.iter_products, call by call, stopped where `simulate` stops it."""
    with t.span("convergence.iter_products"):
        current = stochastic.identity_matrix(seq.n)
        k = 0
        reached = t.call("stochastic.matrix_seminorm", stochastic.matrix_seminorm, current) <= epsilon
        while not reached and k < len(seq):
            k += 1
            current = t.call("stochastic.multiply", stochastic.multiply, seq.factor(k), current)
            reached = t.call("stochastic.matrix_seminorm", stochastic.matrix_seminorm, current) <= epsilon
        if reached:
            convergence.consensus_row(current)
    return k, reached


def traced_simulate(t: Tracer, path: str) -> dict:
    seq = t.call("seqfile.parse", seqfile.read_sequence_file, path).to_sequence()
    k_final, reached = traced_products(t, seq, EPSILON)
    return {"k_final": k_final, "reached": reached}


# Whole-function probes, outside any command span.


def peak_mb(fn, *args) -> float:
    """tracemalloc peak during one call, in MiB."""
    tracemalloc.start()
    try:
        fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 2**20


def _products_to_tolerance(seq, epsilon: float) -> None:
    for state in convergence.iter_products(seq):
        if state.seminorm <= epsilon:
            break


def probes(t: Tracer, path: str, x0) -> dict[str, float]:
    seq = seqfile.read_sequence_file(path).to_sequence()
    with t.span("convergence.run_to_tolerance"):
        convergence.run_to_tolerance(seq, EPSILON)
    with t.span("convergence.disagreement_trajectory"):
        convergence.disagreement_trajectory(seq, x0)
    return {
        "seqfile.parse_peak_mb": peak_mb(seqfile.read_sequence_file, path),
        "stochastic.matrix_seminorm_peak_mb": peak_mb(stochastic.matrix_seminorm, seq.items[0]),
        "convergence.iter_products_peak_mb": peak_mb(_products_to_tolerance, seq, EPSILON),
    }


# Per-layer metrics from the spans.

PER_COMMAND = (  # summed within one command span, median over the commands that make the call
    "seqfile.parse",
    "seqfile.write",
    "generate.generate_sequence",
    "stochastic.digraph_of",
    "stochastic.min_positive_entry",
    "stochastic.multiply",
    "digraph.scc",
    "digraph.intersection",
    "hypotheses.analyze",
    "hypotheses.complete_reducibility",
    "hypotheses.core_search",
    "hypotheses.eventual_positivity_start1",
    "hypotheses.eventual_positivity_all_starts",
    "convergence.iter_products",
    "convergence.find_saturation_K",
    "convergence.contraction_certificate",
)
PROBES = ("convergence.run_to_tolerance", "convergence.disagreement_trajectory")


def span_metrics(t: Tracer) -> dict[str, float]:
    command_of = t.command_of()
    per_command: dict[tuple[str, int], float] = {}
    for s in t.spans:
        command = command_of[s.id]
        if command is not None and s.name in PER_COMMAND:
            per_command[(s.name, command.id)] = per_command.get((s.name, command.id), 0.0) + s.duration
    metrics = {
        f"{name}_s": statistics.median([v for (n, _), v in per_command.items() if n == name] or [0.0])
        for name in PER_COMMAND
    }
    seminorm_calls = [s.duration for s in t.spans if s.name == "stochastic.matrix_seminorm"]
    metrics["stochastic.matrix_seminorm_s"] = statistics.median(seminorm_calls or [0.0])
    for name in PROBES:
        metrics[f"{name}_s"] = sum(s.duration for s in t.spans if s.name == name)

    own = t.self_times()
    by_layer = dict.fromkeys(LAYERS + (CLI_ROOT,), 0.0)
    commands_total = 0.0
    for s in t.spans:
        if command_of[s.id] is not None:
            by_layer[s.name.split(".")[0]] += own[s.id]
            if s.parent is None:
                commands_total += s.duration
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = by_layer[layer]
    metrics["cli.unattributed_s"] = by_layer[CLI_ROOT]
    metrics["cli.unattributed_pct"] = 100.0 * by_layer[CLI_ROOT] / commands_total
    return metrics
