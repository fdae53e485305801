"""Checks for the four convergence conditions on a finite matrix sequence.

The conditions: (1) positive entries bounded below by some alpha > 0,
(2) eventual positivity of accumulated products from each checked start,
(3) every factor completely reducible, and (4) a common sink-free aperiodic
spanning subgraph (the core) inside every factor's positivity pattern.
Every check reads the patterns of `MatrixSequence.factors` once per factor, through
the sequence's `word` where the order matters; alpha and the core read the factors
alone, each of which occurs in the word.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .digraph import completely_reducible, component_periods, pattern_product, pattern_walk
from .errors import ContractViolation
from .stochastic import MatrixSequence, factor_patterns, min_positive_entry


@dataclass(frozen=True, eq=False)
class HypothesisReport:
    """Structured result of all four condition checks; ``core`` is a read-only (n, n) pattern or None."""

    alpha: float
    reducibility_failures: tuple[int, ...]
    core: np.ndarray | None
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
    One forward scan from k that stops once the sum fills; positivity_onsets
    answers every start at once.
    """
    if not 1 <= k <= len(seq):
        raise ContractViolation(f"start index k={k} outside 1..{len(seq)}")
    return _positivity_onset(factor_patterns(seq.factors), seq.word[k - 1 :], k)


def _positivity_onset(patterns: np.ndarray, word: np.ndarray, k: int) -> int | None:
    """check_eventual_positivity on factor patterns and the word of A(k), A(k+1), ...

    Once full, the accumulated pattern stays full: the summands are nonnegative.
    """
    running = np.zeros(patterns.shape[1:], dtype=bool)
    for current, product in enumerate(pattern_walk(patterns, word), start=k):
        running |= product
        if running.all():
            return current
    return None


def positivity_onsets(patterns: np.ndarray, word: np.ndarray) -> list[int | None]:
    """check_eventual_positivity's answer for every start 1..L of a word over a (D, n, n) stack of
    factor patterns, each of which occurs in the word, in one backward pass.

    f[i, j] is the least K with (i, j) in the pattern of A(K)...A(k), or L + 1
    for never: f = where(A(k), k, via) with via[i, j] = min{f[i, l] : A(k)[l, j]}
    taken from step k + 1, and K*(k) = max f. O(L) steps on one n x n array.
    Each factor's in-edges are listed once, when the pass first meets it, and
    released at its first occurrence, where the pass last uses them.
    """
    length, n = len(word), patterns.shape[1]
    never = length + 1
    first = np.unique(word, return_index=True)[1]
    budgets = [64 * np.count_nonzero(factor) for factor in patterns]  # no bool copy of the whole stack
    tables: dict[int, tuple[np.ndarray, ...]] = {}
    f = np.full((n, n), never, dtype=np.int32)
    onsets: list[int | None] = [None] * length
    for k, s in zip(range(length, 0, -1), reversed(word)):
        factor, budget = patterns[s], budgets[s]
        via = np.full_like(f, never)
        # Levels cost one BLAS product per distinct finite value of f (D of them),
        # gathering n * nnz(A(k)) reads; the rule picks the faster of these whole
        # passes (Xeon, 1 BLAS thread): sparse periodic-n101, D up to 101, 0.009 s
        # gathered against 0.48 s in levels; dense large-n200, D <= 3, 0.087 s against 0.017 s.
        if f.size <= budget:  # otherwise even one level costs more than the gather
            ranked = np.sort(f, axis=None)
            levels = ranked[np.concatenate(([True], ranked[1:] != ranked[:-1])) & (ranked < never)]
        if f.size <= budget and len(levels) * f.size <= budget:
            for t in levels[::-1]:
                via[pattern_product(f == t, factor)] = t
        else:
            if s not in tables:  # columns of in-degree 1 take one gather, the others a minimum
                cols, rows = np.nonzero(factor.T)
                one = np.bincount(cols, minlength=n)[cols] == 1
                heads, starts = np.unique(cols[~one], return_index=True)
                tables[s] = cols[one], rows[one], heads, rows[~one], starts
            dest, src, heads, tails, starts = tables[s]
            via[:, dest] = f[:, src]
            if starts.size:
                via[:, heads] = np.minimum.reduceat(f[:, tails], starts, axis=1)
        if k - 1 == first[s]:
            tables.pop(s, None)
        f = np.where(factor, k, via)
        top = int(f.max())
        onsets[k - 1] = top if top < never else None
    return onsets


def analyze(seq: MatrixSequence, all_starts: bool = False) -> HypothesisReport:
    """Run all four condition checks and assemble the verdict.

    Condition (1) is reported as the realized lower bound alpha rather than
    pass/fail: every row of a validated factor has a positive entry.
    Conditions (2) to (4) all read one stack of factor patterns, edge (i, j)
    iff entry (i, j) > 0, one per factor, and reducibility and positivity read
    them through the word. Eventual positivity is checked from start 1 by the
    early-exit forward scan, or with all_starts from every start 1..L by
    positivity_onsets' one backward pass. Individual failures are report
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
    alpha = min_positive_entry(seq)
    patterns = factor_patterns(seq.factors)
    failures = tuple((np.flatnonzero(~completely_reducible(patterns)[seq.word]) + 1).tolist())
    common = np.logical_and.reduce(patterns, axis=0)
    labels, periods = component_periods(common)
    node_period = periods[labels]
    offenders = tuple((np.flatnonzero(node_period != 1) + 1).tolist())
    core = common & (labels[:, None] == labels[None, :])
    core.setflags(write=False)
    onsets = positivity_onsets(patterns, seq.word) if all_starts else [_positivity_onset(patterns, seq.word, 1)]
    positivity = dict(zip(starts, onsets))

    violations = [f"eventual-positivity:start={k}" for k in starts if positivity[k] is None]
    violations.extend(f"complete-reducibility:k={k}" for k in failures)
    if offenders:
        violations.append("aperiodic-core")

    return HypothesisReport(
        alpha=alpha,
        reducibility_failures=failures,
        core=None if offenders else core,
        node_periods=dict(enumerate(node_period.tolist(), start=1)),
        core_offenders=offenders,
        eventual_positivity=positivity,
        violations=tuple(violations),
    )
