"""Directed graphs on node set {1, ..., n} and the walk/period machinery
used to analyze positivity patterns of matrix products.

Patterns are boolean (n, n) arrays or (L, n, n) stacks of them; the public
functions also take any 0/1 array. Their products come from pattern_product,
and every reachability question is answered by one closure primitive built on
it; pattern_walk yields the patterns of a stack's backward products A(k)...A(1),
and component periods are read from the pattern array too (component_periods).
A Digraph is built for a single pattern that is rendered.

All values are immutable and every operation is a pure function, so the
module is safe to use from concurrent callers without synchronization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import ContractViolation, DimensionError

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

    def render(self) -> str:
        """Canonical text form: the sorted edge list, or '-' when empty."""
        if not self.edges:
            return "-"
        return " ".join(f"({i},{j})" for i, j in sorted(self.edges))


@dataclass(frozen=True)
class SccPartition:
    """Partition of 1..n into strongly connected components.

    ``condensation_edges`` holds the ordered component-index pairs with at
    least one original edge crossing between distinct components.
    """

    components: tuple[frozenset[int], ...]
    component_of: Mapping[int, int]
    condensation_edges: frozenset[tuple[int, int]]


@dataclass(frozen=True)
class AperiodicityReport:
    """Aperiodicity verdict plus the period of every component."""

    aperiodic: bool
    components: tuple[frozenset[int], ...]
    periods: tuple[int, ...]


def pattern_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Boolean pattern of the product of two patterns (or stacks of them).

    One float32 matmul: exact, because its counts are at most n < 2**24, and in
    BLAS. numpy's bool matmul is not, and on sparse patterns it is far slower
    (Xeon, 1 BLAS thread, 1% dense): 0.63 ms against 0.038 ms at n = 101, and
    5.4 ms against 0.17 ms at n = 200.
    """
    return a.astype(np.float32, copy=False) @ b.astype(np.float32, copy=False) > 0


def pattern_walk(factors) -> Iterator[np.ndarray]:
    """Patterns of the backward products A(k)...A(1) of an (L, n, n) stack, for k = 1..L."""
    product = np.eye(np.shape(factors)[-1], dtype=bool)
    for factor in np.asarray(factors):
        product = pattern_product(factor, product)
        yield product


def reachability(patterns) -> np.ndarray:
    """Reflexive-transitive closure of an (n, n) pattern or an (L, n, n) stack.

    Entry [..., i-1, j-1] is True iff a walk leads from i to j; every node
    reaches itself. I | A is squared until it stops changing, at most
    ceil(log2 n) times.
    """
    n = np.shape(patterns)[-1]
    closure = np.asarray(patterns, dtype=bool) | np.eye(n, dtype=bool)
    for _ in range((n - 1).bit_length()):
        squared = pattern_product(closure, closure)
        if np.count_nonzero(squared) == np.count_nonzero(closure):  # the closure only grows
            break
        closure = squared
    return closure


def distinct_patterns(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(first, slot) of an (L, n, n) stack: slot[k] numbers record k's pattern in order of
    first occurrence, at record first[slot[k]]. Keys are bits packed one record at a time."""
    slots: dict[bytes, int] = {}
    keys = (np.packbits(np.asarray(p, dtype=bool)).tobytes() for p in stack)
    slot = np.array([slots.setdefault(key, len(slots)) for key in keys], dtype=np.intp)
    return np.unique(slot, return_index=True)[1], slot


def completely_reducible(stack: np.ndarray) -> np.ndarray:
    """Per pattern of an (L, n, n) stack: no edge joins two strongly connected components, which
    holds iff reachability is symmetric. Each distinct pattern is closed once, and its answer is
    mapped back to every index where it occurs."""
    first, slot = distinct_patterns(stack)
    closure = reachability(stack[first])
    return (closure == np.swapaxes(closure, -1, -2)).all(axis=(-2, -1))[slot]


def _component_labels(closure: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each node's component, components numbered by their smallest node, and those smallest nodes."""
    # the first True of row i of R & R^T is the smallest node of i's component
    root = (closure & closure.T).argmax(axis=1)
    roots = np.flatnonzero(root == np.arange(root.size))
    return np.searchsorted(roots, root), roots


def _node_sets(labels: np.ndarray) -> tuple[frozenset[int], ...]:
    return tuple(frozenset((np.flatnonzero(labels == c) + 1).tolist()) for c in range(labels.max() + 1))


def strongly_connected_components(g: Digraph) -> SccPartition:
    """Components as the distinct rows of mutual reachability, numbered by their
    smallest node, plus the condensation edge set."""
    labels, _ = _component_labels(reachability(g.adjacency_matrix()))
    component_of = dict(enumerate(labels.tolist(), start=1))
    condensation = frozenset(
        (component_of[i], component_of[j]) for i, j in g.edges if component_of[i] != component_of[j]
    )
    return SccPartition(_node_sets(labels), component_of, condensation)


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
    return AperiodicityReport(bool((periods == 1).all()), _node_sets(labels), tuple(periods.tolist()))


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


def wielandt_graph(n: int) -> Digraph:
    """The extremal primitive digraph: an n-cycle plus the chord (n, 2).

    Its only simple cycles have lengths n and n-1, so it is aperiodic, and
    its exponent attains wielandt_bound(n). For n = 1 this is a self-loop.
    """
    if n < 1:
        raise DimensionError("node count must be at least 1")
    if n == 1:
        return Digraph(1, {(1, 1)})
    edges = {(i, i + 1) for i in range(1, n)}
    edges.add((n, 1))
    edges.add((n, 2))
    return Digraph(n, edges)
