"""Directed graphs on node set {1, ..., n} and the walk/period machinery
used to analyze positivity patterns of matrix products.

All values are immutable and every operation is a pure function, so the
module is safe to use from concurrent callers without synchronization.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import cached_property
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

    @cached_property
    def _successors(self) -> dict[int, tuple[int, ...]]:
        adj: dict[int, list[int]] = {u: [] for u in range(1, self.n + 1)}
        for i, j in self.edges:
            adj[i].append(j)
        return {u: tuple(sorted(vs)) for u, vs in adj.items()}

    def successors(self, u: int) -> tuple[int, ...]:
        return self._successors[u]

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

    def __bool__(self) -> bool:
        return self.aperiodic


def complete_digraph(n: int) -> Digraph:
    """All n^2 ordered pairs, self-loops included."""
    if n < 1:
        raise DimensionError("node count must be at least 1")
    return Digraph(n, ((i, j) for i in range(1, n + 1) for j in range(1, n + 1)))


def strongly_connected_components(g: Digraph) -> SccPartition:
    """Tarjan's algorithm (iterative), plus the condensation edge set."""
    index: dict[int, int] = {}
    lowlink: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    components: list[frozenset[int]] = []
    counter = 0

    for root in range(1, g.n + 1):
        if root in index:
            continue
        index[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        work: list[tuple[int, Iterable[int]]] = [(root, iter(g.successors(root)))]
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = lowlink[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(g.successors(w))))
                    advanced = True
                    break
                if w in on_stack:
                    lowlink[v] = min(lowlink[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[v])
            if lowlink[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                components.append(frozenset(comp))

    component_of = {
        node: idx for idx, comp in enumerate(components) for node in comp
    }
    condensation = frozenset(
        (component_of[i], component_of[j])
        for i, j in g.edges
        if component_of[i] != component_of[j]
    )
    return SccPartition(tuple(components), component_of, condensation)


def _component_period(g: Digraph, comp: frozenset[int]) -> int:
    """Cycle gcd of one strongly connected component; 0 if it has no cycle."""
    intra = [(u, v) for (u, v) in g.edges if u in comp and v in comp]
    if not intra:
        return 0
    succ: dict[int, list[int]] = {u: [] for u in comp}
    for u, v in intra:
        succ[u].append(v)
    # BFS levels from an arbitrary root; each intra edge (u, v) forces the
    # period to divide level(u) + 1 - level(v).
    root = min(comp)
    level = {root: 0}
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for v in succ[u]:
            if v not in level:
                level[v] = level[u] + 1
                queue.append(v)
    period = 0
    for u, v in intra:
        period = math.gcd(period, abs(level[u] + 1 - level[v]))
    return period


def scc_period(g: Digraph, component: Iterable[int]) -> int:
    """gcd of the lengths of all cycles inside one strongly connected component.

    Returns 0 when the component contains no cycle (a single node without a
    self-loop); raises if the given node set is not an SCC of g.
    """
    comp = frozenset(component)
    partition = strongly_connected_components(g)
    if comp not in set(partition.components):
        raise ContractViolation("node set is not a strongly connected component of the digraph")
    return _component_period(g, comp)


def is_aperiodic(g: Digraph) -> AperiodicityReport:
    """True iff every SCC has period exactly 1; cycle-free SCCs disqualify."""
    partition = strongly_connected_components(g)
    periods = tuple(_component_period(g, comp) for comp in partition.components)
    verdict = all(p == 1 for p in periods)
    return AperiodicityReport(verdict, partition.components, periods)


def sinks(g: Digraph) -> frozenset[int]:
    """Nodes with no outgoing edge."""
    with_out = {i for i, _ in g.edges}
    return frozenset(u for u in range(1, g.n + 1) if u not in with_out)


def is_subgraph(h: Digraph, g: Digraph) -> bool:
    """True iff h's edges are contained in g's (same node count required)."""
    if h.n != g.n:
        raise DimensionError(f"node counts differ: {h.n} vs {g.n}")
    return h.edges <= g.edges


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


def is_completely_reducible_pattern(g: Digraph) -> bool:
    """True iff no edge crosses between distinct strongly connected components."""
    return not strongly_connected_components(g).condensation_edges


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


def exact_exponent(g: Digraph) -> int | None:
    """Least e such that walks of every length >= e exist between all node pairs.

    Requires g strongly connected. Searches boolean adjacency powers up to
    wielandt_bound(n); None means no power in that range is full, which for
    a strongly connected digraph proves periodicity.
    """
    partition = strongly_connected_components(g)
    if len(partition.components) != 1:
        raise ContractViolation("exact_exponent requires a strongly connected digraph")
    adjacency = g.adjacency_matrix().astype(np.int64)
    power = adjacency
    for e in range(1, wielandt_bound(g.n) + 1):
        if power.all():
            return e
        power = (power @ adjacency > 0).astype(np.int64)
    return None


def time_varying_walk_exists(graphs: Sequence[Digraph], i: int, j: int) -> bool:
    """Walk oracle for a backward product over per-step edge sets.

    The walk starts at i, takes its first edge from the last graph in the
    list, and must end at j with its final edge taken from the first graph;
    this mirrors a product applying new factors on the left. An empty list
    admits only the empty walk, so the answer is i == j.
    """
    if i < 1 or j < 1:
        raise DimensionError("nodes are numbered from 1")
    if graphs:
        n = graphs[0].n
        for g in graphs[1:]:
            if g.n != n:
                raise DimensionError(f"node counts differ: {g.n} vs {n}")
        if i > n or j > n:
            raise DimensionError(f"node outside 1..{n}")
    frontier = {i}
    for g in reversed(graphs):
        frontier = {v for u in frontier for v in g.successors(u)}
        if not frontier:
            return False
    return j in frontier
