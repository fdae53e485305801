"""Validated sequences of row-stochastic matrices and the disagreement semi-norm calculus.

Every matrix the library takes or returns is a float64 ndarray; those it
returns (a sequence's factors and its views of them, products, the identity)
are read-only. A sequence is a word over its distinct factors, so a fact about
one factor is computed once however often the factor recurs. The semi-norm of a vector is its distance to the constant vectors
in the sup norm, which works out to half its spread. The induced matrix
semi-norm has the closed form of the coefficient of ergodicity: half the
largest L1 distance between two rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .digraph import Digraph
from .errors import ContractViolation, DimensionError, NegativityError, StochasticityError

ROW_SUM_TOL = 1e-9
NEGATIVITY_TOL = 1e-12
# matrix_seminorm's row-pair temporary stays within this many bytes, or one
# row's n x n block when that is larger; of 0.5 to 8 MiB, 1 MiB was about the
# fastest at n = 100..300 on a 2-vCPU x86-64 KVM guest (cache-sized blocks)
_SEMINORM_BLOCK_BYTES = 2**20


def normalize_rows(rows: np.ndarray) -> None:
    """The stochasticity rule, in place on a 2-D array of rows: one matrix or a stack's rows.

    Entries must be finite; entries in [-NEGATIVITY_TOL, 0) are clamped to
    zero and anything more negative is rejected; each row sum must lie within
    ROW_SUM_TOL of 1, and rows are then renormalized to sum to 1 up to
    machine rounding. The tolerances are fixed: every command reads the same inputs.
    """
    if not np.isfinite(rows).all():
        raise StochasticityError("all entries must be finite")
    if (rows < -NEGATIVITY_TOL).any():
        i, j = np.argwhere(rows < -NEGATIVITY_TOL)[0]
        raise NegativityError(
            f"entry ({i + 1},{j + 1}) = {rows[i, j]} is below the negativity tolerance {-NEGATIVITY_TOL}"
        )
    rows[rows < 0] = 0.0
    sums = rows.sum(axis=1)
    bad = np.flatnonzero(np.abs(sums - 1.0) > ROW_SUM_TOL)
    if bad.size:
        raise StochasticityError(f"row {bad[0] + 1} sums to {float(sums[bad[0]])}, not 1 within {ROW_SUM_TOL}")
    rows /= sums[:, None]


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class MatrixSequence:
    """A(1), ..., A(L) of one dimension as a read-only (D, n, n) stack of validated `factors` and a
    read-only (L,) `word` in which each factor occurs: A(k) = factors[word[k - 1]]. The constructor
    copies an (L, n, n) array-like, or a list of (n, n) arrays, runs normalize_rows on each record
    (an error names the record) and takes word = 0..L-1."""

    factors: np.ndarray
    word: np.ndarray

    def __init__(self, factors) -> None:
        try:
            stack = np.array(factors, dtype=float)
        except ValueError as err:  # ragged records, or an entry that is no number
            raise DimensionError(f"the factors do not form one (L, n, n) array: {err}") from None
        if stack.ndim != 3 or stack.shape[1] != stack.shape[2] or not stack.size:
            raise DimensionError(f"expected a nonempty (L, n, n) stack of square matrices, got shape {stack.shape}")
        for record, entries in enumerate(stack, start=1):
            try:
                normalize_rows(entries)
            except StochasticityError as err:
                raise type(err)(f"record {record}: {err}") from None
        object.__setattr__(self, "factors", _read_only(stack))
        object.__setattr__(self, "word", _read_only(np.arange(len(stack))))

    @classmethod
    def _of_word(cls, factors: np.ndarray, word: np.ndarray) -> MatrixSequence:
        """Take over validated factors and a word that uses each one: no copy, checks or renormalization."""
        out = cls.__new__(cls)
        object.__setattr__(out, "factors", _read_only(factors))
        object.__setattr__(out, "word", _read_only(word))
        return out

    @property
    def n(self) -> int:
        return self.factors.shape[1]

    def __len__(self) -> int:
        return len(self.word)

    @property
    def items(self) -> tuple[np.ndarray, ...]:
        """Read-only views of A(1), ..., A(L), kept for the benchmark's traced run as are iteration and factor(k)."""
        return tuple(self)

    def __iter__(self) -> Iterator[np.ndarray]:
        return (self.factors[w] for w in self.word)

    def factor(self, k: int) -> np.ndarray:
        """A(k), 1-based."""
        if not 1 <= k <= len(self):
            raise ContractViolation(f"index k={k} outside 1..{len(self)}")
        return self.factors[self.word[k - 1]]


def identity_matrix(n: int) -> np.ndarray:
    return _read_only(np.eye(n))


def multiply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product a.b, read-only and not revalidated: its row sums drift from 1 only by rounding."""
    if a.shape != b.shape:
        raise DimensionError(f"dimensions differ: {len(a)} vs {len(b)}")
    return _read_only(a @ b)


def digraph_of(a: np.ndarray) -> Digraph:
    """Positivity pattern of the matrix: edge (i, j) iff entry (i, j) > 0."""
    return Digraph.from_adjacency(a > 0)


def factor_patterns(stack: np.ndarray) -> np.ndarray:
    """The boolean patterns of a stack of factors: edge (i, j) iff entry (i, j) > 0.

    Every condition check and the saturation scan read their factor patterns
    from this stack, so all of them draw the edge line in the same place.
    """
    return stack > 0


def min_positive_entry(factors) -> float | None:
    """Smallest positive entry of a MatrixSequence's factors, each of which occurs in its word, or of
    an (L, n, n) array-like of factors (the benchmark's traced run passes a sequence's items), read in
    chunks of records within the block budget; None if there is none, which a validated factor never
    gives: each row sums to 1."""
    stack = factors.factors if isinstance(factors, MatrixSequence) else np.asarray(factors, dtype=float)
    if stack.ndim != 3:
        raise DimensionError(f"expected an (L, n, n) stack of factors, got shape {stack.shape}")
    records = max(1, _SEMINORM_BLOCK_BYTES // (stack[:1].nbytes or 1))
    chunks = (stack[start : start + records] for start in range(0, len(stack), records))
    smallest = min((float(c[c > 0].min(initial=np.inf)) for c in chunks), default=np.inf)
    return None if smallest == np.inf else smallest


def vector_seminorm(x) -> float:
    """Distance of x to the constant vectors in sup norm: (max - min) / 2.

    The optimal constant shift is the midrange, which makes the closed form
    equal the defining infimum. It is evaluated as max/2 - min/2, which cannot
    overflow for finite x and equals (max - min) / 2 unless a halved entry is subnormal.
    """
    vec = np.asarray(x, dtype=float)
    if vec.ndim != 1 or vec.size < 1:
        raise DimensionError("expected a nonempty vector")
    return float(vec.max()) / 2.0 - float(vec.min()) / 2.0


def matrix_seminorm(e: np.ndarray) -> float:
    """Coefficient of ergodicity: half the maximum L1 distance between rows.

    Equals the operator semi-norm induced by vector_seminorm; the supremum
    over vectors is attained on 0/1 vectors, which is what the brute-force
    test oracle enumerates.

    It is 1 exactly when two rows are disjoint, at distance 2.0 (Hajnal 1958),
    so the first row is compared with every row first (n^2 differences); a
    distance of 2.0 ends the loop. The other rows are then taken by decreasing
    L1 distance d_i to the column mean, in blocks within the budget (O(n^2)
    memory). A block meets only the rows k whose bound (d_i + d_k)(1 + slack)
    with its first row i exceeds the largest distance so far, and the loop
    stops when 2 d_i (1 + slack) does not. A pair left out cannot beat that
    maximum, and each pair is summed along the contiguous column axis as in a
    one-shot n x n x n evaluation, so the result is the same bit for bit. At
    worst the blocks hold every pair, about n^3 / 2 differences.

    The slack covers rounding: a sum of n rounded nonnegative terms is within a
    factor 1 +- gamma_n of its exact value, gamma_n = n u / (1 - n u), u = 2**-53
    (Higham, ch. 3), and the bound rounds twice more, so a computed distance is
    at most its computed bound once (1 + slack)(1 - u)^2 (1 - 2 n u) >= 1, which
    slack = 2 (n + 2) u meets while n^2 u < 1/2. Underflowing sums are exact.
    """
    n = e.shape[0]
    rows = max(1, _SEMINORM_BLOCK_BYTES // (e.itemsize * n * n))
    diff = e[:1, None, :] - e[None, :, :]
    largest = float(np.abs(diff, out=diff).sum(axis=2).max())
    if largest < 2.0:
        distance = np.abs(e[1:] - e.mean(axis=0)).sum(axis=1)
        order = np.argsort(-distance)
        d, s = distance[order], e[1:][order]
        scale = 1.0 + (n + 2) * np.finfo(float).eps
        for start in range(0, n - 1, rows):
            # d descends, so the rows whose bound against row `start` beats the maximum are a prefix
            reach = start + np.count_nonzero((d[start] + d[start:]) * scale > largest)
            if reach == start or largest >= 2.0:
                break
            diff = s[start : min(start + rows, reach), None, :] - s[None, start:reach, :]
            largest = max(largest, float(np.abs(diff, out=diff).sum(axis=2).max()))
    # the exact value is at most 1 for stochastic rows; rounding in the
    # absolute-difference sums can overshoot by a few ulp
    return min(largest / 2.0, 1.0)
