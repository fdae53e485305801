"""Directed graphs on node set {1, ..., n} and the walk/period machinery
used to analyze positivity patterns of matrix products.

Patterns are boolean (n, n) arrays or stacks of them; the public functions
also take any 0/1 array. Their products come from pattern_product, and every
reachability question is answered by one closure primitive built on it. A
sequence's patterns, one per factor, are read through its word: pattern_walk
yields the patterns of its backward products A(k)...A(1), taking a map factor
(one edge per row, stochastic.row_targets, decided at a factor's first step) as a row gather.
component_periods reads periods from the pattern array, and render writes a
pattern's edges as text. Digraph and the functions that build or take one serve
only the benchmark's traced run.

All values are immutable and every operation is a pure function, so the
module is safe to use from concurrent callers without synchronization.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import ContractViolation, DimensionError
from .stochastic import row_targets

Edge = tuple[int, int]


@dataclass(frozen=True)
class Digraph:
    """Directed graph with nodes 1..n; self-loops allowed, no multi-edges."""

    n: int
    edges: frozenset[Edge]

    def __init__(self, n: int, edges: Iterable[Edge] = ()) -> None:
        if n < 1:
            raise DimensionError("node count must be at least 1")
        edge_set = frozenset((int(i), int(j)) for i, j in edges)
        for i, j in edge_set:
            if not (1 <= i <= n and 1 <= j <= n):
                raise DimensionError(f"edge ({i},{j}) has an endpoint outside 1..{n}")
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "edges", edge_set)

    @classmethod
    def from_adjacency(cls, matrix) -> "Digraph":
        """Build a digraph from a square array; edge (i,j) iff matrix[i-1,j-1] is truthy."""
        arr = np.asarray(matrix)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise DimensionError(f"adjacency matrix must be square, got shape {arr.shape}")
        rows, cols = np.nonzero(arr)
        return cls(arr.shape[0], zip(rows + 1, cols + 1))

    def adjacency_matrix(self) -> np.ndarray:
        """Boolean array with entry [i-1, j-1] True iff edge (i, j) exists."""
        mat = np.zeros((self.n, self.n), dtype=bool)
        for i, j in self.edges:
            mat[i - 1, j - 1] = True
        return mat


@dataclass(frozen=True)
class SccPartition:
    """The ordered component-index pairs with at least one original edge crossing
    between distinct strongly connected components."""

    condensation_edges: frozenset[tuple[int, int]]


@dataclass(frozen=True)
class AperiodicityReport:
    """Aperiodicity verdict plus the node set of every component."""

    aperiodic: bool
    components: tuple[frozenset[int], ...]


def pattern_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Boolean pattern of the product of two patterns (or stacks of them).

    One float32 matmul: exact, because its counts are at most n < 2**24, and in
    BLAS. numpy's bool matmul is not, and on sparse patterns it is far slower
    (Xeon, 1 BLAS thread, 1% dense): 0.63 ms against 0.038 ms at n = 101, and
    5.4 ms against 0.17 ms at n = 200.
    """
    return a.astype(np.float32, copy=False) @ b.astype(np.float32, copy=False) > 0


def pattern_walk(factors, word) -> Iterator[np.ndarray]:
    """Patterns of the backward products A(k)...A(1), k = 1..L, of a word over a (D, n, n) stack of
    factor patterns, A(k) = factors[word[k - 1]]; a map factor (row_targets, decided at the factor's
    first step) is a gather of the product's rows, not a product."""
    targets_of = cache(lambda w: row_targets(factors[w]))
    product = np.eye(np.shape(factors)[-1], dtype=bool)
    for w in word:
        targets = targets_of(w)
        product = pattern_product(factors[w], product) if targets is None else product[targets]
        yield product


def reachability(patterns) -> np.ndarray:
    """Reflexive-transitive closure of an (n, n) pattern or an (L, n, n) stack.

    Entry [..., i-1, j-1] is True iff a walk leads from i to j; every node
    reaches itself. I | A is squared until it stops changing, at most
    ceil(log2 n) times, or until every closure is full, which cannot grow.
    """
    n = np.shape(patterns)[-1]
    closure = np.asarray(patterns, dtype=bool) | np.eye(n, dtype=bool)
    for _ in range((n - 1).bit_length()):
        if closure.all():
            break
        squared = pattern_product(closure, closure)
        if np.count_nonzero(squared) == np.count_nonzero(closure):  # the closure only grows
            break
        closure = squared
    return closure


def completely_reducible(patterns) -> np.ndarray:
    """Per pattern of an (D, n, n) stack: no edge joins two strongly connected components, which holds
    iff reachability is symmetric. Sweeps from node 1, out and in, of at most ceil(log2 n) O(D n^2) steps
    find the strongly connected patterns; only the others are closed, each once however often it recurs."""
    stack = np.asarray(patterns, dtype=bool)
    counts, n = stack.astype(np.float32), stack.shape[-1]  # float32 once, for every step's product
    ahead = np.zeros((*stack.shape[:-2], 1, n), dtype=bool)
    ahead[..., 0] = True
    behind = np.swapaxes(ahead, -1, -2).copy()
    for _ in range((n - 1).bit_length()):
        if ahead.all() and behind.all():
            break
        ahead |= pattern_product(ahead, counts)
        behind |= pattern_product(counts, behind)
    reducible = ahead.all(axis=(-2, -1)) & behind.all(axis=(-2, -1))
    undecided = ~reducible
    if undecided.any():
        closure = reachability(stack[undecided])
        reducible[undecided] = (closure == np.swapaxes(closure, -1, -2)).all(axis=(-2, -1))
    return reducible


def _component_labels(closure: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each node's component, components numbered by their smallest node, and those smallest nodes."""
    # the first True of row i of R & R^T is the smallest node of i's component
    root = (closure & closure.T).argmax(axis=1)
    roots = np.flatnonzero(root == np.arange(root.size))
    return np.searchsorted(roots, root), roots


def _node_sets(labels: np.ndarray) -> tuple[frozenset[int], ...]:
    return tuple(frozenset((np.flatnonzero(labels == c) + 1).tolist()) for c in range(labels.max() + 1))


def strongly_connected_components(g: Digraph) -> SccPartition:
    """The condensation edge set, components numbered by their smallest node."""
    labels, _ = _component_labels(reachability(g.adjacency_matrix()))
    component_of = dict(enumerate(labels.tolist(), start=1))
    return SccPartition(
        frozenset((component_of[i], component_of[j]) for i, j in g.edges if component_of[i] != component_of[j])
    )


def component_periods(pattern) -> tuple[np.ndarray, np.ndarray]:
    """Strongly connected components of an (n, n) pattern and their periods.

    labels[i] is the component of node i+1, components numbered by their
    smallest node; periods[c] is the cycle gcd of component c, 0 when it
    carries no cycle. One BFS runs in every component at once, each from its
    smallest node along intra-component edges; each such edge (u, v) forces
    the period to divide level(u) + 1 - level(v), and the period is the gcd
    over those edges.
    """
    adjacency = np.asarray(pattern, dtype=bool)
    closure = reachability(adjacency)
    labels, roots = _component_labels(closure)
    intra = adjacency & closure.T  # edge (u, v) stays inside a component iff v reaches u
    level = np.full(labels.size, -1)
    frontier, depth = roots, 0
    while frontier.size:
        level[frontier] = depth
        frontier = np.flatnonzero(intra[frontier].any(axis=0) & (level < 0))
        depth += 1
    rows, cols = np.nonzero(intra)
    periods = np.zeros(roots.size, dtype=level.dtype)
    np.gcd.at(periods, labels[rows], np.abs(level[rows] + 1 - level[cols]))
    return labels, periods


def is_aperiodic(g: Digraph) -> AperiodicityReport:
    """True iff every SCC has period exactly 1; cycle-free SCCs (period 0) disqualify."""
    labels, periods = component_periods(g.adjacency_matrix())
    return AperiodicityReport(bool((periods == 1).all()), _node_sets(labels))


def intersection(graphs: Sequence[Digraph]) -> Digraph:
    """Edge-wise intersection: the unique maximal common subgraph."""
    if not graphs:
        raise ContractViolation("intersection needs at least one digraph")
    n = graphs[0].n
    for g in graphs[1:]:
        if g.n != n:
            raise DimensionError(f"node counts differ: {g.n} vs {n}")
    common = frozenset.intersection(*(g.edges for g in graphs))
    return Digraph(n, common)


def wielandt_bound(n: int) -> int:
    """n^2 - 2n + 2, the worst-case exponent of a primitive digraph on n nodes."""
    if n < 1:
        raise DimensionError("node count must be at least 1")
    return n * n - 2 * n + 2


def wielandt_graph(n: int) -> np.ndarray:
    """The (n, n) pattern of the extremal primitive digraph: an n-cycle plus the chord (n, 2).

    Its only simple cycles have lengths n and n-1, so it is aperiodic, and
    its exponent attains wielandt_bound(n). For n = 1 this is a self-loop.
    """
    if n < 1:
        raise DimensionError("node count must be at least 1")
    pattern = np.roll(np.eye(n, dtype=bool), 1, axis=1)
    pattern[n - 1, 1 % n] = True
    return pattern


def render(pattern) -> str:
    """Canonical text of an (n, n) pattern: its edges (i,j), 1-based, in row-major
    order, which is the order of the sorted (i, j) pairs; '-' when it has none."""
    rows, cols = np.nonzero(pattern)
    return " ".join(f"({i},{j})" for i, j in zip((rows + 1).tolist(), (cols + 1).tolist())) or "-"
