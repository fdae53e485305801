"""Directed graphs on node set {1, ..., n} and the walk/period machinery
used to analyze positivity patterns of matrix products.

Patterns are 0/1 (n, n) arrays or (L, n, n) stacks of them. Their products
are exact float32 matmuls clipped to 1 (pattern_product), and every
reachability question is answered by one closure primitive built on it;
component periods are read from the pattern array too (component_periods). A
Digraph is built for a single pattern that is rendered.

All values are immutable and every operation is a pure function, so the
module is safe to use from concurrent callers without synchronization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

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
    """Pattern of the product of two float32 0/1 patterns (or stacks of them).

    A float32 matmul clipped to 1: its counts are at most n < 2**24, so it
    is exact, and it runs in BLAS (numpy's bool matmul does not, and was
    about 10x slower).
    """
    out = a @ b
    return np.minimum(out, 1.0, out=out)


def reachability(patterns) -> np.ndarray:
    """Reflexive-transitive closure of an (n, n) pattern or an (L, n, n) stack.

    Entry [..., i-1, j-1] is True iff a walk leads from i to j; every node
    reaches itself. I | A is squared until it stops changing, at most
    ceil(log2 n) times.
    """
    closure = (np.asarray(patterns) != 0).astype(np.float32)
    n = closure.shape[-1]
    closure[..., range(n), range(n)] = 1.0
    for _ in range((n - 1).bit_length()):
        squared = pattern_product(closure, closure)
        if np.array_equal(squared, closure):
            break
        closure = squared
    return closure > 0


def completely_reducible(patterns) -> np.ndarray:
    """Per pattern of an (n, n) pattern or (L, n, n) stack: no edge joins two
    strongly connected components, which holds iff reachability is symmetric."""
    closure = reachability(patterns)
    return (closure == np.swapaxes(closure, -1, -2)).all(axis=(-2, -1))


def _component_labels(closure: np.ndarray) -> np.ndarray:
    """Component index of every node, components numbered by their smallest node."""
    # the first True of row i of R & R^T is the smallest node of i's component
    _, labels = np.unique((closure & closure.T).argmax(axis=1), return_inverse=True)
    return labels


def _node_sets(labels: np.ndarray) -> tuple[frozenset[int], ...]:
    return tuple(frozenset((np.flatnonzero(labels == c) + 1).tolist()) for c in range(labels.max() + 1))


def strongly_connected_components(g: Digraph) -> SccPartition:
    """Components as the distinct rows of mutual reachability, numbered by their
    smallest node, plus the condensation edge set."""
    labels = _component_labels(reachability(g.adjacency_matrix()))
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
    adjacency = np.asarray(pattern) != 0
    labels = _component_labels(reachability(adjacency))
    intra = adjacency & (labels[:, None] == labels[None, :])
    level = np.full(labels.size, -1)
    frontier = np.unique(labels, return_index=True)[1]  # each component's smallest node
    depth = 0
    while frontier.size:
        level[frontier] = depth
        frontier = np.flatnonzero(intra[frontier].any(axis=0) & (level < 0))
        depth += 1
    rows, cols = np.nonzero(intra)
    periods = np.zeros(labels.max() + 1, dtype=level.dtype)
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
