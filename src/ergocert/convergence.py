"""Backward partial products, the saturation scan, and contraction
certificates with a geometric envelope.

Products accumulate new factors on the left. With nonnegative entries there
is no cancellation, so no windowed re-association is needed for stability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

import numpy as np

from .digraph import pattern_product, wielandt_bound
from .errors import CertificationRefused, ContractViolation, DimensionError
from .hypotheses import HypothesisReport, MatrixSequence, analyze
from .stochastic import StochasticMatrix, factor_patterns, matrix_seminorm, min_positive_entry, vector_seminorm

# Slack for exact inequalities.
EXACT_SLACK = 1e-12


@dataclass(frozen=True)
class ProductState:
    """Running product P(k) = A(k)...A(1); P(0) = I.

    Products are not renormalized: ``row_sum_drift`` is the largest
    |row sum - 1| over P(0..k). The semi-norm is computed on first read.
    """

    k: int
    matrix: StochasticMatrix
    row_sum_drift: float

    @cached_property
    def seminorm(self) -> float:
        return matrix_seminorm(self.matrix)


@dataclass(frozen=True)
class ConvergenceCertificate:
    """Machine-checkable contraction certificate.

    Every saturation_index steps, the product semi-norm shrinks by at least
    the contraction factor 1 - n * entry_floor, giving the geometric
    envelope below. The stored ``contraction`` float rounds to 1.0 once the
    floor drops under machine epsilon, so the envelope is evaluated in log
    space from the exact complement n * entry_floor. ``row_sum_drift`` is
    the largest |row sum - 1| over the scanned products P(1..K).
    """

    n: int
    alpha: float
    wielandt: int
    saturation_index: int
    entry_floor: float
    contraction: float
    seminorm_at_saturation: float
    row_sum_drift: float

    @property
    def vacuous(self) -> bool:
        """True when the contraction rounds to 1.0: the envelope then bounds nothing."""
        return self.contraction >= 1.0

    def envelope(self, k: int) -> float:
        """Certified bound contraction ** (k // saturation_index) at step k."""
        blocks = k // self.saturation_index
        return math.exp(blocks * math.log1p(-self.n * self.entry_floor))


@dataclass(frozen=True)
class ToleranceRun:
    """Result of iterating products down to a disagreement tolerance.

    ``matrix_seminorms[j]`` is the semi-norm of P(j) for j = 0..k, and
    ``vector_seminorms[j]`` that of P(j).x0 when an x0 was given (None
    otherwise). On success exactly one consensus is set: the row without
    x0, the value with it.
    """

    k: int
    state: ProductState
    reached: bool
    matrix_seminorms: tuple[float, ...]
    vector_seminorms: tuple[float, ...] | None
    consensus_row: np.ndarray | None
    consensus_value: float | None


def iter_products(seq: MatrixSequence) -> Iterator[ProductState]:
    """ProductState for k = 0..L, starting from the identity."""
    current, drift = np.eye(seq.n), 0.0
    yield ProductState(0, StochasticMatrix._trusted(current), drift)
    for k, factor in enumerate(seq.stack, start=1):
        current = factor @ current
        drift = max(drift, float(np.abs(current.sum(axis=1) - 1.0).max()))
        yield ProductState(k, StochasticMatrix._trusted(current), drift)


def partial_product(seq: MatrixSequence, l: int, k: int) -> StochasticMatrix:
    """The product A(k)...A(l+1); the identity when l == k."""
    if not 0 <= l <= k <= len(seq):
        raise ContractViolation(f"need 0 <= l <= k <= {len(seq)}, got l={l}, k={k}")
    for state in iter_products(MatrixSequence._of_stack(seq.stack[l:k])):
        pass
    return state.matrix


def saturation_floor(n: int, alpha: float) -> float:
    """alpha ** (n * (wielandt_bound(n) + 1)), the certified entry floor."""
    return alpha ** (n * (wielandt_bound(n) + 1))


def find_saturation_K(seq: MatrixSequence, alpha: float) -> int | None:
    """Least K in 1..L with every entry of P(K) positive and at the
    saturation floor alpha ** (n * (wielandt + 1)) or above (slack 1e-12).

    alpha must be the realized minimum positive entry or a positive lower
    bound for it (ContractViolation otherwise). None means the prefix never
    saturates. Positivity is read from the boolean product of the factor
    patterns, as in analyze, so entries that underflow to 0.0 still count as
    positive.
    """
    saturated = _first_saturated(seq, alpha)
    return None if saturated is None else saturated.k


def _first_saturated(seq: MatrixSequence, alpha: float) -> ProductState | None:
    """The state P(K) for the K of find_saturation_K."""
    smallest = min_positive_entry(seq.stack)
    if not 0 < alpha <= smallest:
        raise ContractViolation(
            f"alpha must be positive and at most the minimum positive entry {smallest}, got {alpha}"
        )
    threshold = saturation_floor(seq.n, alpha) - EXACT_SLACK
    factors = factor_patterns(seq.stack)
    pattern = np.eye(seq.n, dtype=np.float32)
    for state in iter_products(seq):
        if state.k:
            pattern = pattern_product(factors[state.k - 1], pattern)
            if pattern.all() and state.matrix.entries.min() >= threshold:
                return state
    return None


def contraction_certificate(
    seq: MatrixSequence,
    *,
    alpha: float | None = None,
    report: HypothesisReport | None = None,
) -> ConvergenceCertificate | None:
    """Certify a uniform contraction for the sequence, or refuse.

    Structural condition failures (lower-boundedness, complete reducibility,
    core existence) raise CertificationRefused; eventual positivity that
    merely ran out of prefix is not refuted, so the search proceeds and the
    function returns None when no saturation index exists within the prefix.
    An alpha given in place of the realized minimum positive entry must be a
    positive lower bound for it (ContractViolation otherwise). A measured
    semi-norm check guards the emitted certificate.
    """
    if report is None:
        report = analyze(seq)
    structural = tuple(v for v in report.violations if not v.startswith("eventual-positivity"))
    if structural:
        raise CertificationRefused(structural)
    bound = report.alpha if alpha is None else float(alpha)
    saturated = _first_saturated(seq, bound)
    if saturated is None:
        return None
    floor = saturation_floor(seq.n, bound)
    contraction = 1.0 - seq.n * floor
    measured = saturated.seminorm
    if measured > contraction + EXACT_SLACK:
        raise RuntimeError(
            f"internal error: measured semi-norm {measured} exceeds certified contraction {contraction}"
        )
    return ConvergenceCertificate(
        n=seq.n,
        alpha=bound,
        wielandt=wielandt_bound(seq.n),
        saturation_index=saturated.k,
        entry_floor=floor,
        contraction=contraction,
        seminorm_at_saturation=measured,
        row_sum_drift=saturated.row_sum_drift,
    )


def consensus_row(p: StochasticMatrix) -> np.ndarray:
    """Column-wise midrange: the center of the tightest sup-norm ball holding all rows."""
    entries = p.entries
    return (entries.max(axis=0) + entries.min(axis=0)) / 2.0


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
    vec = None if x0 is None else _checked_vector(x0, seq.n)
    matrix_values: list[float] = []
    vector_values: list[float] = []
    for state in iter_products(seq):
        matrix_values.append(state.seminorm)
        if vec is not None:
            if state.k:
                vec = seq.stack[state.k - 1] @ vec
            vector_values.append(vector_seminorm(vec))
        reached = (matrix_values if vec is None else vector_values)[-1] <= epsilon
        if reached:
            break
    return ToleranceRun(
        k=state.k,
        state=state,
        reached=reached,
        matrix_seminorms=tuple(matrix_values),
        vector_seminorms=None if vec is None else tuple(vector_values),
        consensus_row=consensus_row(state.matrix) if reached and vec is None else None,
        consensus_value=(float(vec.max()) + float(vec.min())) / 2.0 if reached and vec is not None else None,
    )


def _checked_vector(x0, n: int) -> np.ndarray:
    vec = np.asarray(x0, dtype=float)
    if vec.ndim != 1 or vec.size != n:
        raise DimensionError(f"vector of length {vec.size} does not match dimension {n}")
    if not np.all(np.isfinite(vec)):
        raise ContractViolation("x0 entries must be finite")
    return vec


def disagreement_trajectory(seq: MatrixSequence, x0) -> list[float]:
    """vector_seminorm(P(k).x0) for k = 0..L, iterated as x(k) = A(k).x(k-1)."""
    vec = _checked_vector(x0, seq.n)
    values = [vector_seminorm(vec)]
    for factor in seq.stack:
        vec = factor @ vec
        values.append(vector_seminorm(vec))
    return values
