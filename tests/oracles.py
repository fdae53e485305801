"""Brute-force reference implementations used only by the tests.

Each oracle is deliberately independent of the library code path it checks:
cycle enumeration instead of BFS level gcd, 0/1-vector enumeration instead
of the row-distance closed form, one n x n x n tensor instead of row
blocks, one BLAS product per step instead of a map factor's row gather,
a per-step walk frontier and integer matrix products instead of
pattern_product's float32 BLAS products, one BFS per node instead of the
reachability closure and the sweeps from node 1, a masked copy of every
entry instead of the minimum of their bit patterns, exhaustive subgraph
search instead of the component period rule, Python float() per token
with one normalize_rows call per record instead of one numpy parse and one check of the distinct records, and
repr per value instead of one text per factor row with a token for zero entries. The
classical hypotheses the paper's theorem generalizes are predicates here:
cut balance by enumerating every cut, B-connectivity by one BFS per node
of every window's union.
"""

from __future__ import annotations

import dataclasses
import math
import os
import re
from collections import deque
from itertools import product as iter_product
from pathlib import Path

import numpy as np

import ergocert
from ergocert.convergence import contraction_certificate, iter_products, run_to_tolerance
from ergocert.digraph import Digraph, is_aperiodic, pattern_product, wielandt_bound
from ergocert.errors import CertificationRefused, ContractViolation, DimensionError, StochasticityError
from ergocert.hypotheses import analyze
from ergocert.seqfile import SequenceFile, SequenceFileError
from ergocert.stochastic import MatrixSequence, matrix_seminorm, normalize_rows


def child_env() -> dict[str, str]:
    """The environment of a child interpreter that imports the ergocert these tests
    import, installed or in the checkout: its directory goes first on PYTHONPATH."""
    home = str(Path(ergocert.__file__).parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (home, os.environ.get("PYTHONPATH"))))}


def validated(raw) -> np.ndarray:
    """One matrix through the public constructor: the read-only A(1) of MatrixSequence([raw])."""
    return MatrixSequence([raw]).factor(1)


def stack_of(seq: MatrixSequence) -> np.ndarray:
    """A(1), ..., A(L) of a sequence as one (L, n, n) stack: its factors gathered by its word."""
    return seq.factors[seq.word]


def sequence_of_stack(stack: np.ndarray) -> MatrixSequence:
    """A sequence that takes over an already validated (L, n, n) stack, one factor per record."""
    return MatrixSequence._of_word(stack, np.arange(len(stack)))


def report_text(value) -> str:
    """Every field of a result, nested results and arrays included, as text that two
    results share iff they are equal bit for bit."""
    if dataclasses.is_dataclass(value):
        fields = (f"{f.name}={report_text(getattr(value, f.name))}" for f in dataclasses.fields(value))
        return f"{type(value).__name__}({', '.join(fields)})"
    if isinstance(value, np.ndarray):
        return f"array({value.dtype}, {value.shape}, {value.tobytes().hex()})"
    if isinstance(value, tuple):
        return f"({', '.join(map(report_text, value))})"
    return repr(value)


def reports(seq: MatrixSequence, x0) -> list[str]:
    """report_text of analyze from start 1 and from all starts, of contraction_certificate
    (or its refusal), and of run_to_tolerance without and with x0."""
    texts = [report_text(analyze(seq)), report_text(analyze(seq, all_starts=True))]
    try:
        texts.append(report_text(contraction_certificate(seq)))
    except CertificationRefused as refusal:
        texts.append(repr(refusal.reasons))
    return texts + [report_text(run_to_tolerance(seq, 1e-9)), report_text(run_to_tolerance(seq, 1e-9, x0))]


def normalized_records(raw) -> np.ndarray:
    """normalize_rows on a copy of each record of an (L, n, n) array-like, one call per
    record, stacked: what one validating constructor call per matrix gave."""
    records = [np.array(record, dtype=float) for record in raw]
    for record in records:
        normalize_rows(record)
    return np.stack(records)


def complete_digraph(n: int) -> Digraph:
    """All n^2 ordered pairs, self-loops included."""
    return Digraph(n, iter_product(range(1, n + 1), repeat=2))


def successor_lists(g: Digraph) -> dict[int, tuple[int, ...]]:
    """The sorted out-neighbours of every node, read from the edge set."""
    succ: dict[int, list[int]] = {u: [] for u in range(1, g.n + 1)}
    for i, j in sorted(g.edges):
        succ[i].append(j)
    return {u: tuple(vs) for u, vs in succ.items()}


def reachable_by_bfs(g: Digraph, start: int, radius: int | None = None) -> set[int]:
    """Nodes reachable from start, start included, by breadth-first search; with a
    radius, only those within that many edges of start."""
    succ = successor_lists(g)
    seen = {start}
    queue = deque([(start, 0)])
    while queue:
        u, depth = queue.popleft()
        if depth == radius:
            continue
        for v in succ[u]:
            if v not in seen:
                seen.add(v)
                queue.append((v, depth + 1))
    return seen


def spanned_from_node_1_within_log2_n(g: Digraph) -> bool:
    """Node 1 reaches every node, and every node reaches node 1, within ceil(log2 n) edges:
    the strongly connected patterns whose complete reducibility needs no closure."""
    radius = (g.n - 1).bit_length()
    reverse = Digraph(g.n, ((j, i) for i, j in g.edges))
    return len(reachable_by_bfs(g, 1, radius)) == len(reachable_by_bfs(reverse, 1, radius)) == g.n


def components_by_bfs(g: Digraph) -> set[frozenset[int]]:
    """Strongly connected components as mutual reachability, one BFS per node."""
    reach = {u: reachable_by_bfs(g, u) for u in range(1, g.n + 1)}
    return {frozenset(v for v in reach[u] if u in reach[v]) for u in reach}


def sinks(g: Digraph) -> frozenset[int]:
    """Nodes with no outgoing edge."""
    with_out = {i for i, _ in g.edges}
    return frozenset(u for u in range(1, g.n + 1) if u not in with_out)


def is_subgraph(h: Digraph, g: Digraph) -> bool:
    """True iff h's edges are contained in g's (same node count required)."""
    if h.n != g.n:
        raise DimensionError(f"node counts differ: {h.n} vs {g.n}")
    return h.edges <= g.edges


def exact_exponent(g: Digraph) -> int | None:
    """Least e such that walks of every length >= e exist between all node pairs.

    Requires g strongly connected. Searches integer adjacency powers up to
    wielandt_bound(n); None means no power in that range is full, which for
    a strongly connected digraph proves periodicity.
    """
    if len(components_by_bfs(g)) != 1:
        raise ContractViolation("exact_exponent requires a strongly connected digraph")
    adjacency = g.adjacency_matrix().astype(np.int64)
    power = adjacency
    for e in range(1, wielandt_bound(g.n) + 1):
        if power.all():
            return e
        power = (power @ adjacency > 0).astype(np.int64)
    return None


def completely_reducible_by_bfs(g: Digraph) -> bool:
    """No edge joins two distinct components of components_by_bfs."""
    component_of = {u: comp for comp in components_by_bfs(g) for u in comp}
    return all(component_of[i] == component_of[j] for i, j in g.edges)


def time_varying_walk_exists(graphs, i: int, j: int) -> bool:
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
        frontier = {j for i, j in g.edges if i in frontier}
        if not frontier:
            return False
    return j in frontier


def first_reach_by_walks(graphs, k: int) -> np.ndarray:
    """f_k by walk search: [i-1, j-1] is the least K >= k with a walk from i to j
    over graphs k..K (the pattern of A(K)...A(k)), or len(graphs) + 1 for never.

    Every (i, j, K) is its own time_varying_walk_exists call; nothing is carried
    from one horizon or one start to the next.
    """
    n, never = graphs[0].n, len(graphs) + 1
    first = np.full((n, n), never)
    for i, j in iter_product(range(1, n + 1), repeat=2):
        first[i - 1, j - 1] = next(
            (K for K in range(k, never) if time_varying_walk_exists(graphs[k - 1 : K], i, j)), never
        )
    return first


def min_positive_entry_by_mask(stack) -> float | None:
    """The smallest entry > 0 of a float64 array, from a masked copy of every entry; None when
    there is none or the smallest is inf."""
    entries = np.asarray(stack, dtype=float)
    smallest = float(entries[entries > 0].min(initial=np.inf))
    return None if smallest == np.inf else smallest


def supports_and_minima(seq) -> tuple[np.ndarray, np.ndarray]:
    """Column supports and support minima of every product P(0..L), read
    from the float entries: supports[k, i, j] is True iff row i is in the
    support of column j of P(k), and minima[k, j] is the smallest entry of
    that support."""
    products = np.stack([state.matrix for state in iter_products(seq)])
    supports = products > 0
    return supports, np.where(supports, products, np.inf).min(axis=1)


def products_by_blas(stack: np.ndarray) -> list[tuple[np.ndarray, float, float]]:
    """(P(k), row_sum_drift, semi-norm) for k = 0..L of an (L, n, n) stack: every step is
    one BLAS product factor @ P(k-1), map or not, the drift is taken over every product, and
    every semi-norm is matrix_seminorm's."""
    current, drift = np.eye(stack.shape[1]), 0.0
    states = [(current, drift)]
    for factor in stack:
        current = factor @ current
        drift = max(drift, float(np.abs(current.sum(axis=1) - 1.0).max()))
        states.append((current, drift))
    return [(p, d, matrix_seminorm(p)) for p, d in states]


def patterns_by_blas(patterns: np.ndarray) -> list[np.ndarray]:
    """Patterns of A(k)...A(1), k = 1..L, of an (L, n, n) pattern stack: one pattern_product
    of every factor, map or not, with the pattern before it."""
    product, walked = np.eye(patterns.shape[-1], dtype=bool), []
    for factor in patterns:
        product = pattern_product(factor, product)
        walked.append(product)
    return walked


def simple_cycle_lengths(g: Digraph) -> set[int]:
    """Lengths of all simple cycles, by anchored DFS (small n only)."""
    lengths: set[int] = set()
    succ = successor_lists(g)

    def dfs(start: int, current: int, visited: set[int], depth: int) -> None:
        for nxt in succ[current]:
            if nxt == start:
                lengths.add(depth + 1)
            elif nxt > start and nxt not in visited:
                visited.add(nxt)
                dfs(start, nxt, visited, depth + 1)
                visited.remove(nxt)

    for s in range(1, g.n + 1):
        dfs(s, s, set(), 0)
    return lengths


def component_period_by_cycles(g: Digraph, component: frozenset[int]) -> int:
    """gcd of simple cycle lengths inside the component; 0 with no cycle.

    The gcd over simple cycles equals the gcd over all closed walks, since
    every closed walk decomposes into simple cycles.
    """
    sub = Digraph(g.n, ((u, v) for (u, v) in g.edges if u in component and v in component))
    gcd = 0
    for length in simple_cycle_lengths(sub):
        gcd = math.gcd(gcd, length)
    return gcd


def seminorm_bruteforce(entries: np.ndarray) -> float:
    """sup ||Ax|| / ||x|| over nonconstant 0/1 vectors x.

    Such x has spread 1, so ||x|| = 1/2 and the ratio is the full spread of
    Ax. n = 1 has no nonconstant vector; the supremum is then 0.
    """
    n = entries.shape[0]
    best = 0.0
    for bits in range(1, 2**n - 1):
        x = np.array([(bits >> t) & 1 for t in range(n)], dtype=float)
        y = entries @ x
        best = max(best, float(y.max()) - float(y.min()))
    return best


def seminorm_one_shot(entries: np.ndarray) -> float:
    """Half the largest L1 row distance, from the whole n x n x n difference tensor.

    The library evaluates the same closed form over row blocks in O(n^2)
    memory; both sum each row pair along the contiguous column axis, so the
    two must agree bit for bit.
    """
    pairwise = np.abs(entries[:, None, :] - entries[None, :, :]).sum(axis=2)
    return min(float(pairwise.max()) / 2.0, 1.0)


def seminorm_by_shift_search(x, samples: int = 200001) -> float:
    """min over shifts c of max_i |x_i - c|, by dense grid search."""
    vec = np.asarray(x, dtype=float)
    grid = np.linspace(vec.min(), vec.max(), samples)
    return float(np.min(np.max(np.abs(vec[None, :] - grid[:, None]), axis=1)))


def boolean_product_pattern(graphs) -> np.ndarray:
    """Positivity pattern of the backward product of adjacency matrices.

    graphs are ordered by increasing time index; the product applies later
    graphs on the left, matching the walk oracle's convention.
    """
    if not graphs:
        raise ValueError("need the dimension; pass at least one graph")
    n = graphs[0].n
    out = np.eye(n, dtype=np.int64)
    for g in graphs:
        out = (g.adjacency_matrix().astype(np.int64) @ out > 0).astype(np.int64)
    return out.astype(bool)


def _nonempty_subsets(items: tuple[int, ...]) -> list[tuple[int, ...]]:
    subsets = []
    for mask in range(1, 1 << len(items)):
        subsets.append(tuple(items[t] for t in range(len(items)) if (mask >> t) & 1))
    return subsets


def core_exists_exhaustive(common: Digraph) -> bool:
    """Does any sink-free aperiodic spanning subgraph of `common` exist?

    Enumerates every choice of a nonempty out-neighborhood per node (only
    such subgraphs are sink-free on all nodes). Exponential; n <= 4 and
    sparse intersections keep it tractable.
    """
    out_sets = list(successor_lists(common).values())
    if any(not s for s in out_sets):
        return False
    if is_aperiodic(common).aperiodic:
        return True
    for combo in iter_product(*(_nonempty_subsets(s) for s in out_sets)):
        edges = {(u, v) for u, chosen in enumerate(combo, start=1) for v in chosen}
        if is_aperiodic(Digraph(common.n, edges)).aperiodic:
            return True
    return False


def relabel_digraph(g: Digraph, perm: dict[int, int]) -> Digraph:
    return Digraph(g.n, ((perm[i], perm[j]) for (i, j) in g.edges))


def relabel_entries(entries: np.ndarray, perm: dict[int, int]) -> np.ndarray:
    """Conjugate by the permutation: out[perm(i), perm(j)] = entries[i, j]."""
    n = entries.shape[0]
    out = np.zeros_like(entries)
    for i in range(n):
        for j in range(n):
            out[perm[i + 1] - 1, perm[j + 1] - 1] = entries[i, j]
    return out


def random_stochastic(rng: np.random.Generator, n: int, density: float = 0.6) -> np.ndarray:
    """Random stochastic entries with a random support pattern.

    Positive weights are bounded away from zero (>= 0.1 before row
    normalization), so product positivity cannot underflow at test scales.
    """
    pattern = rng.random((n, n)) < density
    for i in np.flatnonzero(~pattern.any(axis=1)):
        pattern[i, rng.integers(n)] = True
    weights = np.where(pattern, 0.1 + rng.random((n, n)), 0.0)
    return weights / weights.sum(axis=1, keepdims=True)


def stochastic_matrix_power(entries: np.ndarray, exponent: int) -> np.ndarray:
    """entries ** exponent by square and multiply; exponent may exceed int64."""
    if exponent < 0:
        raise ValueError("exponent must be nonnegative")
    result = np.eye(entries.shape[0])
    base = entries.copy()
    e = exponent
    while e:
        if e & 1:
            result = base @ result
        base = base @ base
        e >>= 1
    return result


def parse_per_token(text: str) -> SequenceFile:
    """The sequence-file parse token by token: Python float() on every token,
    then normalize_rows on each record, raising at the first bad line, record
    or row exactly as the library's messages do. A line ends at LF, CRLF or
    CR, split by one regular expression; any other whitespace is a gap. A token
    with a nonzero digit before its exponent that float() reads as 0.0 is
    refused at its line, as a non-numeric one is."""
    header_n: int | None = None
    metadata: dict[str, str] = {}
    rows: list[list[float]] = []
    row_line_numbers: list[int] = []

    for lineno, raw_line in enumerate(re.split(r"\r\n|\r|\n", text), start=1):
        line = raw_line.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line.lstrip("#").strip()
            if "=" in body:
                key, value = body.split("=", 1)
                if key.strip():  # "# ==== walk ====" has an empty key and is no metadata
                    metadata.setdefault(key.strip(), value.strip())
            continue
        if header_n is None:
            if not line.startswith("n="):
                raise SequenceFileError(f"line {lineno}: expected header 'n=<int>', got {line!r}")
            if not (line[2:].isascii() and line[2:].strip().isdigit()):
                raise SequenceFileError(f"line {lineno}: malformed header {line!r}")
            header_n = int(line[2:])
            if header_n < 1:
                raise SequenceFileError(f"line {lineno}: dimension must be at least 1")
            continue
        try:
            values = [float(tok) for tok in line.split()]
        except ValueError:
            raise SequenceFileError(f"line {lineno}: non-numeric value in {line!r}") from None
        for tok, value in zip(line.split(), values):
            if value == 0.0 and re.search("[1-9]", re.split("[eE]", tok)[0]):
                raise SequenceFileError(f"line {lineno}: {tok!r} is not zero but reads as 0.0 in float64")
        rows.append(values)
        row_line_numbers.append(lineno)

    if header_n is None:
        raise SequenceFileError("missing header line 'n=<int>'")
    if not rows:
        raise SequenceFileError("no matrices")
    if len(rows) % header_n != 0:
        raise SequenceFileError(
            f"record {len(rows) // header_n + 1} is incomplete: "
            f"{len(rows) % header_n} of {header_n} rows present"
        )

    matrices = []
    for record_index in range(len(rows) // header_n):
        block = rows[record_index * header_n : (record_index + 1) * header_n]
        for offset, row in enumerate(block):
            if len(row) != header_n:
                lineno = row_line_numbers[record_index * header_n + offset]
                raise SequenceFileError(
                    f"record {record_index + 1}, row {offset + 1} (line {lineno}): "
                    f"expected {header_n} values, got {len(row)}"
                )
        matrices.append(np.array(block, dtype=float))
        try:
            normalize_rows(matrices[-1])
        except StochasticityError as err:
            raise SequenceFileError(f"record {record_index + 1}: {err}") from err
    # already validated: the constructor would renormalize the rows once more
    return SequenceFile(metadata, sequence_of_stack(np.stack(matrices)))


def format_per_value(stack: np.ndarray, metadata: dict[str, str] | None = None) -> str:
    """The sequence-file text with every value written by repr, row after row; nothing is reused."""
    lines = [f"n={stack.shape[1]}", *(f"# {key}={value}" for key, value in (metadata or {}).items())]
    for matrix in stack:
        lines.append("")
        lines.extend(" ".join(map(repr, row.tolist())) for row in matrix)
    return "\n".join(lines) + "\n"


def is_cut_balanced(pattern) -> bool:
    """Every cut is crossed both ways or not at all: an edge leaving a node set S
    means an edge entering it (Hendrickx & Tsitsiklis 2013). Enumerates all 2^n - 2
    proper nonempty S at once, as rows of a 0/1 membership matrix."""
    adjacency = np.asarray(pattern, dtype=np.int64)
    n = adjacency.shape[0]
    inside = (np.arange(1, 2**n - 1)[:, None] >> np.arange(n)) & 1
    outside = 1 - inside
    leaving = ((inside @ adjacency) * outside).sum(axis=1) > 0
    entering = ((outside @ adjacency) * inside).sum(axis=1) > 0
    return bool(np.array_equal(leaving, entering))


def is_b_connected(graphs, window: int) -> bool:
    """Every run of `window` consecutive graphs has a strongly connected union
    (Jadbabaie, Lin & Morse 2003; Moreau 2005); fewer graphs than that hold vacuously."""
    for start in range(len(graphs) - window + 1):
        union = Digraph(graphs[start].n, set().union(*(g.edges for g in graphs[start : start + window])))
        if len(components_by_bfs(union)) != 1:
            return False
    return True
