"""Checks for the four convergence conditions on a finite matrix sequence.

The conditions: (1) positive entries bounded below by some alpha > 0,
(2) eventual positivity of accumulated products from each checked start,
(3) every factor completely reducible, and (4) a common sink-free aperiodic
spanning subgraph (the core) inside every factor's positivity pattern.
Every check reads `MatrixSequence.stack`, the sequence's one validated (L, n, n)
array; `.items`, iteration and `.factor(k)` are views of it kept for the traced benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .digraph import Digraph, completely_reducible, component_periods, pattern_product
from .errors import ContractViolation
from .stochastic import MatrixSequence, factor_patterns, min_positive_entry


@dataclass(frozen=True)
class HypothesisReport:
    """Structured result of all four condition checks."""

    alpha: float | None
    reducibility_failures: tuple[int, ...]
    core: Digraph | None
    node_periods: Mapping[int, int]
    core_offenders: tuple[int, ...]
    eventual_positivity: Mapping[int, int | None]
    violations: tuple[str, ...]

    @property
    def holds(self) -> bool:
        return not self.violations

    @property
    def verdict(self) -> str:
        return "all-conditions-hold" if self.holds else "conditions-violated"


def check_eventual_positivity(seq: MatrixSequence, k: int) -> int | None:
    """Least K >= k such that sum_{k'=k}^{K} A(k')...A(k) is entrywise positive.

    Positive means inside the factor patterns: the sum's pattern is the union
    of the products' patterns, and a product's pattern is the boolean product
    of the factor patterns, so the answer is exact and never lost to float
    underflow. None if the accumulated sum never fills within the sequence.
    """
    if not 1 <= k <= len(seq):
        raise ContractViolation(f"start index k={k} outside 1..{len(seq)}")
    return _positivity_onset(factor_patterns(seq.stack[k - 1 :]), k)


def _positivity_onset(factors: np.ndarray, k: int) -> int | None:
    """check_eventual_positivity on the pattern stack of A(k), A(k+1), ...

    Once full, the accumulated pattern stays full: the summands are nonnegative.
    """
    n = factors.shape[1]
    product = np.eye(n, dtype=np.float32)
    running = np.zeros((n, n), dtype=bool)
    for current, factor in enumerate(factors, start=k):
        product = pattern_product(factor, product)
        running |= product > 0
        if running.all():
            return current
    return None


def analyze(
    seq: MatrixSequence,
    all_starts: bool = False,
    tol_pos: float = 0.0,
) -> HypothesisReport:
    """Run all four condition checks and assemble the verdict.

    Condition (1) is reported as the realized lower bound alpha rather than
    pass/fail. Conditions (2) to (4) all read one stack of factor patterns,
    thresholded at tol_pos. Eventual positivity is checked from start 1, or
    from every start 1..L with all_starts. Individual failures are report
    content, not errors.

    The core test reads the intersection of the factor patterns. A sink-free
    aperiodic spanning subgraph common to all factors exists iff every node
    of the intersection lies in a component whose cycle gcd is exactly 1:
    any common subgraph's cycles sit inside one such component, so their
    lengths are multiples of its period. When the test passes, the
    intersection restricted to intra-component edges is itself a valid core
    (every node of a cycle-carrying component keeps an out-edge), and it is
    the maximal one.
    """
    starts = range(1, len(seq) + 1) if all_starts else (1,)
    alpha = min_positive_entry(seq.stack, tol_pos)
    patterns = factor_patterns(seq.stack, tol_pos)
    failures = tuple((np.flatnonzero(~completely_reducible(patterns)) + 1).tolist())
    common = np.logical_and.reduce(patterns, axis=0)
    labels, periods = component_periods(common)
    node_period = periods[labels]
    offenders = tuple((np.flatnonzero(node_period != 1) + 1).tolist())
    core = None if offenders else Digraph.from_adjacency(common & (labels[:, None] == labels[None, :]))
    positivity = {k: _positivity_onset(patterns[k - 1 :], k) for k in starts}

    violations: list[str] = []
    if alpha is None:
        violations.append("positive-entries")
    violations.extend(f"eventual-positivity:start={k}" for k in starts if positivity[k] is None)
    violations.extend(f"complete-reducibility:k={k}" for k in failures)
    if offenders:
        violations.append("aperiodic-core")

    return HypothesisReport(
        alpha=alpha,
        reducibility_failures=failures,
        core=core,
        node_periods=dict(enumerate(node_period.tolist(), start=1)),
        core_offenders=offenders,
        eventual_positivity=positivity,
        violations=tuple(violations),
    )
