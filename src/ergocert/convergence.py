"""Backward partial products, the saturation scan, and contraction
certificates: tau(P(k)) <= contraction for every k >= K, counted from start 1.

Products accumulate new factors on the left. With nonnegative entries there
is no cancellation, so no windowed re-association is needed for stability.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import islice, repeat
from typing import Iterator

import numpy as np

from .digraph import pattern_walk, row_targets, wielandt_bound
from .errors import CertificationRefused, ContractViolation, DimensionError
from .hypotheses import HypothesisReport, analyze
from .stochastic import (
    MatrixSequence, _read_only, factor_patterns, matrix_seminorm, min_positive_entry, vector_seminorm,
)

# Slack for exact inequalities.
EXACT_SLACK = 1e-12


@dataclass(frozen=True, eq=False)
class ProductState:
    """Running product P(k) = A(k)...A(1) as a read-only array; P(0) = I.

    Products are not renormalized: ``row_sum_drift`` is the largest
    |row sum - 1| over P(0..k). While every factor so far is a map (one
    positive entry per row, digraph.row_targets), row i of P(k) is row
    ``targets[i]`` of the identity; ``targets`` is None from the first other
    factor on. The semi-norm is computed on first read: with ``targets`` it
    is 0.0 when all rows are one row and 1.0 otherwise, as matrix_seminorm gives.
    """

    k: int
    matrix: np.ndarray
    row_sum_drift: float
    targets: np.ndarray | None

    @cached_property
    def seminorm(self) -> float:
        if self.targets is not None:  # rows of the identity: equal, or disjoint (Hajnal 1958)
            return 0.0 if (self.targets == self.targets[0]).all() else 1.0
        return matrix_seminorm(self.matrix)


@dataclass(frozen=True)
class ConvergenceCertificate:
    """Machine-checkable contraction certificate.

    Only P(K) = A(K)...A(1), K = saturation_index, is checked: its
    semi-norm is at most the contraction factor 1 - n * entry_floor. Every
    later product from start 1 is P(k) = R.P(K) with R stochastic, so
    tau(P(k)) <= tau(P(K)) <= contraction for every k >= K; later windows
    are not checked, so no faster decay is claimed. ``row_sum_drift`` is
    the largest |row sum - 1| over the scanned products P(1..K).
    """

    alpha: float
    wielandt: int
    saturation_index: int
    entry_floor: float
    contraction: float
    seminorm_at_saturation: float
    row_sum_drift: float

    @property
    def vacuous(self) -> bool:
        """True when the contraction rounds to 1.0: it then bounds nothing."""
        return self.contraction >= 1.0


@dataclass(frozen=True)
class ToleranceRun:
    """Result of iterating products down to a disagreement tolerance.

    ``matrix_seminorms[j]`` is the semi-norm of P(j) for j = 0..state.k, and
    ``vector_seminorms[j]`` that of P(j).x0 when an x0 was given (None
    otherwise). On success exactly one consensus is set: the row without
    x0, the value with it.
    """

    state: ProductState
    reached: bool
    matrix_seminorms: tuple[float, ...]
    vector_seminorms: tuple[float, ...] | None
    consensus_row: np.ndarray | None
    consensus_value: float | None


def iter_products(seq: MatrixSequence) -> Iterator[ProductState]:
    """ProductState for k = 0..L, starting from the identity. A map factor (row_targets, once per factor)
    holds only 1.0 and zeros, so its step is a row gather, bit for bit, whose rows leave the drift as it is."""
    maps = [row_targets(factor) for factor in seq.factors]
    current, drift, composed = np.eye(seq.n), 0.0, np.arange(seq.n)
    yield ProductState(0, _read_only(current), drift, composed)
    for k, w in enumerate(seq.word, start=1):
        targets = maps[w]
        if targets is None:
            current, composed = seq.factors[w] @ current, None
            drift = max(drift, float(np.abs(current.sum(axis=1) - 1.0).max()))
        else:
            current, composed = current[targets], None if composed is None else composed[targets]
        yield ProductState(k, _read_only(current), drift, composed)


def partial_product(seq: MatrixSequence, l: int, k: int) -> np.ndarray:
    """The product A(k)...A(l+1), read-only; the identity when l == k."""
    if not 0 <= l <= k <= len(seq):
        raise ContractViolation(f"need 0 <= l <= k <= {len(seq)}, got l={l}, k={k}")
    used, word = np.unique(seq.word[l:k], return_inverse=True)  # a word uses each of its factors
    for state in iter_products(MatrixSequence._of_word(seq.factors[used], word)):
        pass
    return state.matrix


def saturation_floor(n: int, alpha: float) -> float:
    """alpha ** (n * (wielandt_bound(n) + 1)), the certified entry floor."""
    return alpha ** (n * (wielandt_bound(n) + 1))


def find_saturation_K(seq: MatrixSequence, alpha: float) -> int | None:
    """Least K in 1..L with every entry of P(K) positive and at the
    saturation floor alpha ** (n * (wielandt + 1)) or above (slack 1e-12).
    From n = 4 the slack admits every positive entry, so K is the first full
    pattern: alpha <= 1/2 gives a floor of at most 2**-44, and alpha = 1 means
    0/1 factors, whose products never fill. The floor decides only at n = 2
    with alpha > 0.01 and at n = 3 with alpha > 0.215.

    alpha must lie in (0, m], m the realized minimum positive entry
    (ContractViolation otherwise): a larger value promises a floor the
    entries never gave. None means the prefix never saturates. Positivity is
    read from the boolean product of the factor patterns, as in analyze, so
    entries that underflow to 0.0 still count as positive.
    """
    smallest = min_positive_entry(seq)
    if not 0 < alpha <= smallest:
        raise ContractViolation(f"alpha must be positive and at most the minimum positive entry {smallest}, got {alpha}")
    saturated = _first_saturated(seq, alpha)
    return None if saturated is None else saturated.k


def _first_saturated(seq: MatrixSequence, alpha: float) -> ProductState | None:
    """The state P(K) for the K of find_saturation_K, alpha already in range."""
    threshold = saturation_floor(seq.n, alpha) - EXACT_SLACK
    products = islice(iter_products(seq), 1, None)
    for state, pattern in zip(products, pattern_walk(factor_patterns(seq.factors), seq.word)):
        if pattern.all() and state.matrix.min() >= threshold:
            return state
    return None


def contraction_certificate(
    seq: MatrixSequence, *, report: HypothesisReport | None = None
) -> ConvergenceCertificate | None:
    """Certify a uniform contraction for the sequence at its realized alpha, or refuse.

    Structural condition failures (complete reducibility, core existence)
    raise CertificationRefused; eventual positivity that merely ran out of
    prefix is not refuted, so the search proceeds and the function returns
    None when no saturation index exists within the prefix. A measured
    semi-norm check guards the emitted certificate.
    """
    if report is None:
        report = analyze(seq)
    structural = tuple(v for v in report.violations if not v.startswith("eventual-positivity"))
    if structural:
        raise CertificationRefused(structural)
    saturated = _first_saturated(seq, report.alpha)
    if saturated is None:
        return None
    floor = saturation_floor(seq.n, report.alpha)
    contraction = 1.0 - seq.n * floor
    measured = saturated.seminorm
    if measured > contraction + EXACT_SLACK:
        raise RuntimeError(
            f"internal error: measured semi-norm {measured} exceeds certified contraction {contraction}"
        )
    return ConvergenceCertificate(
        alpha=report.alpha,
        wielandt=wielandt_bound(seq.n),
        saturation_index=saturated.k,
        entry_floor=floor,
        contraction=contraction,
        seminorm_at_saturation=measured,
        row_sum_drift=saturated.row_sum_drift,
    )


def consensus_row(p: np.ndarray) -> np.ndarray:
    """Column-wise midrange: the center of the tightest sup-norm ball holding all rows."""
    return (p.max(axis=0) + p.min(axis=0)) / 2.0


def run_to_tolerance(seq: MatrixSequence, epsilon: float, x0=None) -> ToleranceRun:
    """Iterate P(k) until the disagreement is at most epsilon or the prefix ends.

    The disagreement is the semi-norm of P(k), or with x0 that of
    x(k) = A(k).x(k-1) = P(k).x0. On success the consensus row is within
    epsilon of every row of P(k*) in sup distance (the consensus value of
    every entry of x(k*) with x0); on exhaustion both are None and the
    final state is returned.
    """
    if not epsilon > 0:
        raise ContractViolation("epsilon must be positive")
    iterates = repeat(None) if x0 is None else _iterates(seq, x0)
    matrix_values: list[float] = []
    vector_values: list[float] = []
    for state, vec in zip(iter_products(seq), iterates):
        matrix_values.append(state.seminorm)
        if vec is not None:
            vector_values.append(vector_seminorm(vec))
        reached = (matrix_values if vec is None else vector_values)[-1] <= epsilon
        if reached:
            break
    return ToleranceRun(
        state=state,
        reached=reached,
        matrix_seminorms=tuple(matrix_values),
        vector_seminorms=None if vec is None else tuple(vector_values),
        consensus_row=consensus_row(state.matrix) if reached and vec is None else None,
        consensus_value=float(vec.max()) / 2.0 + float(vec.min()) / 2.0 if reached and vec is not None else None,
    )


def _iterates(seq: MatrixSequence, x0) -> Iterator[np.ndarray]:
    """x(k) = A(k).x(k-1) = P(k).x0 for k = 0..L; x0 is checked when x(0) is asked for."""
    vec = np.asarray(x0, dtype=float)
    if vec.ndim != 1 or vec.size != seq.n:
        raise DimensionError(f"vector of length {vec.size} does not match dimension {seq.n}")
    if not np.all(np.isfinite(vec)):
        raise ContractViolation("x0 entries must be finite")
    yield vec
    for w in seq.word:
        vec = seq.factors[w] @ vec
        yield vec


def disagreement_trajectory(seq: MatrixSequence, x0) -> list[float]:
    """vector_seminorm(P(k).x0) for k = 0..L, iterated as x(k) = A(k).x(k-1)."""
    return [vector_seminorm(vec) for vec in _iterates(seq, x0)]
