"""Deterministic sequence generators for the analysis regimes.

Presets:

* ``positive-diagonal``: every factor keeps all self-loops, carries a random
  spanning cycle plus random extra edges, and floors its positive entries at
  alpha. All four conditions hold once the sequence is long enough to mix
  (length >= n - 1 guarantees eventual positivity from the start).
* ``cycle-core``: every factor's pattern contains a fixed sink-free
  aperiodic spanning subgraph, an n-cycle plus one chord giving coprime
  cycle lengths n and n-1; diagonals are not forced. Eventual positivity
  from the start needs length >= n*n - 2*n + 2.
* ``wolfowitz-set``: factors are drawn i.i.d. from a fixed finite set of
  primitive matrices; at generation time, every product of at most
  wielandt_bound(n) + 1 set members is verified primitive by closing the
  set of positivity patterns under boolean products. The checked depth is
  recorded in the file metadata.
* ``periodic-counterexample``: alternates two permutation matrices whose
  patterns live in a common 2-periodic bipartite pattern (for even n; odd n
  falls back to the full-cycle permutation, whose pattern is n-periodic).
  No sink-free aperiodic common subgraph exists, so certification must be
  refused even though the remaining conditions hold.

Generation is deterministic given (preset, n, length, alpha, seed).
"""

from __future__ import annotations

import numpy as np

from .digraph import pattern_product, wielandt_bound, wielandt_graph
from .errors import ContractViolation
from .seqfile import SequenceFile
from .stochastic import MatrixSequence, StochasticMatrix

PRESETS = (
    "positive-diagonal",
    "cycle-core",
    "wolfowitz-set",
    "periodic-counterexample",
)

_EXTRA_EDGE_DENSITY = 0.25
_WOLFOWITZ_SET_SIZE = 3
_WOLFOWITZ_PATTERN_DENSITY = 0.55


def generate_sequence(preset: str, n: int, length: int, alpha: float, seed: int) -> SequenceFile:
    """Generate one sequence file for the given preset and parameters."""
    if preset not in PRESETS:
        raise ContractViolation(f"unknown preset {preset!r}; choose from {', '.join(PRESETS)}")
    if n < 2:
        raise ContractViolation("n must be at least 2")
    if length < 1:
        raise ContractViolation("length must be at least 1")
    if not 0 < alpha <= 1.0 / n:
        raise ContractViolation(f"alpha must lie in (0, 1/n] = (0, {1.0 / n!r}]")
    if seed < 0:
        raise ContractViolation(f"seed must be nonnegative, got {seed}")

    rng = np.random.default_rng(seed)
    if preset == "positive-diagonal":
        matrices, metadata = _positive_diagonal(rng, n, length, alpha)
    elif preset == "cycle-core":
        matrices, metadata = _cycle_core(rng, n, length, alpha)
    elif preset == "wolfowitz-set":
        matrices, metadata = _wolfowitz_set(rng, n, length, alpha)
    else:
        matrices, metadata = _periodic_counterexample(n, length)

    metadata = {
        "preset": preset,
        "length": str(length),
        "alpha": repr(float(alpha)),
        "seed": str(seed),
        **metadata,
    }
    return SequenceFile(metadata, MatrixSequence(matrices))


def _fill_pattern(rng: np.random.Generator, pattern: np.ndarray, alpha: float) -> StochasticMatrix:
    """Weights for a boolean pattern: alpha everywhere plus random row slack."""
    n = pattern.shape[0]
    out = np.zeros((n, n))
    for i in range(n):
        cells = np.flatnonzero(pattern[i])
        degree = cells.size
        slack = 1.0 - degree * alpha  # nonnegative: alpha <= 1/n and degree <= n
        weights = rng.random(degree)
        total = weights.sum()
        shares = weights / total if total > 0 else np.full(degree, 1.0 / degree)
        out[i, cells] = alpha + slack * shares
    return StochasticMatrix(out)


def _random_spanning_cycle(rng: np.random.Generator, n: int) -> np.ndarray:
    order = rng.permutation(n)
    pattern = np.zeros((n, n), dtype=bool)
    pattern[order, np.roll(order, -1)] = True
    return pattern


def _positive_diagonal(rng, n, length, alpha):
    matrices = []
    for _ in range(length):
        pattern = np.eye(n, dtype=bool)
        pattern |= _random_spanning_cycle(rng, n)
        pattern |= rng.random((n, n)) < _EXTRA_EDGE_DENSITY
        matrices.append(_fill_pattern(rng, pattern, alpha))
    return matrices, {}


def _cycle_core(rng, n, length, alpha):
    core = wielandt_graph(n)
    base = core.adjacency_matrix()
    matrices = []
    for _ in range(length):
        pattern = base | (rng.random((n, n)) < _EXTRA_EDGE_DENSITY)
        matrices.append(_fill_pattern(rng, pattern, alpha))
    return matrices, {"core-edges": core.render()}


def _is_primitive_pattern(pattern: np.ndarray) -> bool:
    """Primitive iff some boolean power is full, and then so is every power from
    wielandt_bound(n) on: test the first power of two at or past the bound."""
    power = pattern.astype(np.float32)
    for _ in range((wielandt_bound(pattern.shape[0]) - 1).bit_length()):
        power = pattern_product(power, power)
    return bool(power.all())


def _random_primitive_pattern(rng: np.random.Generator, n: int, attempts: int = 500) -> np.ndarray:
    for _ in range(attempts):
        pattern = rng.random((n, n)) < _WOLFOWITZ_PATTERN_DENSITY
        for i in np.flatnonzero(~pattern.any(axis=1)):
            pattern[i, rng.integers(n)] = True
        if _is_primitive_pattern(pattern):
            return pattern
    raise RuntimeError("failed to draw a primitive pattern")


def _products_primitive_to_depth(patterns: list[np.ndarray], depth: int) -> bool:
    """Every product of at most `depth` generators must have a primitive pattern.

    Product patterns depend only on factor patterns, so it suffices to close
    the generator patterns under boolean products, level by level up to the
    depth. A pattern already seen at a shorter length is skipped: its
    continuations were already explored with at least as much depth left.
    """
    seen: set[bytes] = set()
    generators = level = [p.astype(np.float32) for p in patterns]
    for remaining in range(depth, 0, -1):
        next_level = []
        for mat in level:
            key = mat.tobytes()
            if key in seen:
                continue
            seen.add(key)
            if not _is_primitive_pattern(mat):
                return False
            if remaining > 1:
                next_level.extend(pattern_product(g, mat) for g in generators)
        level = next_level
    return True


def _wolfowitz_set(rng, n, length, alpha, attempts: int = 60):
    depth = wielandt_bound(n) + 1
    for _ in range(attempts):
        patterns = [_random_primitive_pattern(rng, n) for _ in range(_WOLFOWITZ_SET_SIZE)]
        if _products_primitive_to_depth(patterns, depth):
            break
    else:
        raise RuntimeError("failed to draw a generator set with verified product primitivity")
    generators = [_fill_pattern(rng, p, alpha) for p in patterns]
    draws = rng.integers(0, len(generators), size=length)
    matrices = [generators[int(d)] for d in draws]
    metadata = {"set-size": str(len(generators)), "checked-depth": str(depth)}
    return matrices, metadata


def _periodic_counterexample(n, length):
    if n % 2 == 0:
        half = n // 2
        step = (np.arange(half) + 1) % half
        perms = [np.roll(np.arange(n), half), np.concatenate([step + half, step])]
        kind = "bipartite-2-periodic"
    else:
        perms = [np.roll(np.arange(n), -1)] * 2
        kind = f"full-cycle-{n}-periodic"
    factors = [StochasticMatrix(np.eye(n)[perm]) for perm in perms]
    matrices = [factors[k % 2] for k in range(length)]
    return matrices, {"pattern": kind}
