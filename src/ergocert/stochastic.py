"""Validated row-stochastic matrices and the disagreement semi-norm calculus.

The semi-norm of a vector is its distance to the constant vectors in the
sup norm, which works out to half its spread. The induced matrix semi-norm
has the closed form of the coefficient of ergodicity: half the largest L1
distance between two rows. Matrices and sequences are immutable after validation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

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


class StochasticMatrix:
    """Dense n x n matrix that passed normalize_rows; the entries are read-only."""

    __slots__ = ("_entries",)

    def __init__(self, raw) -> None:
        arr = np.array(raw, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise DimensionError(f"expected a square matrix, got shape {arr.shape}")
        if arr.shape[0] < 1:
            raise DimensionError("dimension must be at least 1")
        normalize_rows(arr)
        arr.setflags(write=False)
        self._entries = arr

    @property
    def n(self) -> int:
        return self._entries.shape[0]

    @property
    def entries(self) -> np.ndarray:
        """The validated entries, as a read-only array."""
        return self._entries

    @classmethod
    def _trusted(cls, entries: np.ndarray) -> StochasticMatrix:
        """Take over a product of stochastic matrices, or a stack's view: no copy, checks or renormalization."""
        entries.setflags(write=False)
        out = cls.__new__(cls)
        out._entries = entries
        return out

    def __repr__(self) -> str:
        return f"StochasticMatrix(n={self.n})"


@dataclass(frozen=True, eq=False)
class MatrixSequence:
    """Factors A(1), ..., A(L) of one dimension as one read-only (L, n, n) stack of validated
    entries, A(k) = stack[k - 1]; the constructor stacks StochasticMatrix items, not renormalized,
    and refuses any other item (TypeError)."""

    stack: np.ndarray

    def __init__(self, items: Iterable[StochasticMatrix]) -> None:
        entries = []
        for m in items:
            if not isinstance(m, StochasticMatrix):
                raise TypeError(f"a sequence takes StochasticMatrix items, got {type(m).__name__}")
            entries.append(m.entries)
        dims = sorted({len(e) for e in entries})
        if len(dims) != 1:
            raise DimensionError(f"a sequence needs matrices of one dimension, got {dims}")
        object.__setattr__(self, "stack", np.stack(entries))
        self.stack.setflags(write=False)

    @classmethod
    def _of_stack(cls, stack: np.ndarray) -> MatrixSequence:
        """Take over an already validated stack, as the parser does: no copy, checks or renormalization."""
        stack.setflags(write=False)
        out = cls.__new__(cls)
        object.__setattr__(out, "stack", stack)
        return out

    @property
    def n(self) -> int:
        return self.stack.shape[1]

    def __len__(self) -> int:
        return len(self.stack)

    @property
    def items(self) -> tuple[StochasticMatrix, ...]:
        """Views of the stack, kept for the benchmark's traced run as are iteration and factor(k)."""
        return tuple(map(StochasticMatrix._trusted, self.stack))

    def __iter__(self) -> Iterator[StochasticMatrix]:
        return iter(self.items)

    def factor(self, k: int) -> StochasticMatrix:
        """A(k), 1-based."""
        if not 1 <= k <= len(self):
            raise ContractViolation(f"index k={k} outside 1..{len(self)}")
        return StochasticMatrix._trusted(self.stack[k - 1])


def identity_matrix(n: int) -> StochasticMatrix:
    return StochasticMatrix(np.eye(n))


def multiply(a: StochasticMatrix, b: StochasticMatrix) -> StochasticMatrix:
    """Matrix product a.b, not revalidated: its row sums drift from 1 only by rounding."""
    if a.n != b.n:
        raise DimensionError(f"dimensions differ: {a.n} vs {b.n}")
    return StochasticMatrix._trusted(a.entries @ b.entries)


def digraph_of(a: StochasticMatrix) -> Digraph:
    """Positivity pattern of the matrix: edge (i, j) iff entry (i, j) > 0."""
    return Digraph.from_adjacency(a.entries > 0)


def factor_patterns(stack: np.ndarray) -> np.ndarray:
    """The boolean patterns of an (L, n, n) stack of factors: edge (i, j) iff entry (i, j) > 0.

    Every condition check and the saturation scan read their factor patterns
    from this stack, so all of them draw the edge line in the same place.
    """
    return stack > 0


def min_positive_entry(factors) -> float | None:
    """Smallest positive entry of an (L, n, n) stack of factors, or of StochasticMatrix items (the
    benchmark's traced run passes them; MatrixSequence stacks them), read in chunks of records within
    the block budget; None if there is none, which a validated factor never gives: each row sums to 1."""
    stack = factors if isinstance(factors, np.ndarray) else MatrixSequence(factors).stack
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


def matrix_seminorm(a: StochasticMatrix) -> float:
    """Coefficient of ergodicity: half the maximum L1 distance between rows.

    Equals the operator semi-norm induced by vector_seminorm; the supremum
    over vectors is attained on 0/1 vectors, which is what the brute-force
    test oracle enumerates.

    Each row block is compared with the rows from its first one on, which
    covers every pair in O(n^2) memory; each pair's distance is summed along
    the contiguous column axis, as in a one-shot n x n x n evaluation. The
    loop stops early once a distance reaches 2.0, as for rows with disjoint
    supports, the case of coefficient 1 (Hajnal 1958): the result is then 1.0
    whatever the later blocks hold. The first block is the first row alone,
    whose n^2 differences find any row disjoint from it, as in a permutation.
    """
    e = a.entries
    n = e.shape[0]
    rows = max(1, _SEMINORM_BLOCK_BYTES // (e.itemsize * n * n))
    largest = 0.0
    bounds = (0, *range(1, n, rows), n)
    for start, stop in zip(bounds, bounds[1:]):
        diff = e[start:stop, None, :] - e[None, start:, :]
        largest = max(largest, float(np.abs(diff, out=diff).sum(axis=2).max()))
        if largest >= 2.0:
            break
    # the exact value is at most 1 for stochastic rows; rounding in the
    # absolute-difference sums can overshoot by a few ulp
    return min(largest / 2.0, 1.0)
