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

Generation is deterministic given (preset, n, length, alpha, seed). A preset returns its distinct
factors (and draws indexing them), which pass `normalize_rows` once and are gathered into one stack.
"""

from __future__ import annotations

import numpy as np

from .digraph import component_periods, pattern_product, render, wielandt_bound, wielandt_graph
from .errors import ContractViolation
from .seqfile import SequenceFile
from .stochastic import MatrixSequence, normalize_rows

PRESETS = (
    "positive-diagonal",
    "cycle-core",
    "wolfowitz-set",
    "periodic-counterexample",
)

_EXTRA_EDGE_DENSITY = 0.25
_WOLFOWITZ_SET_SIZE = 3
_WOLFOWITZ_SET_ATTEMPTS = 60
_PRIMITIVE_PATTERN_ATTEMPTS = 500
_WOLFOWITZ_PATTERN_DENSITY = 0.55


def generate_sequence(preset: str, n: int, length: int, alpha: float | None, seed: int) -> SequenceFile:
    """Generate one sequence file for the given preset and parameters; alpha None is min(0.1, 1/n)."""
    if preset not in PRESETS:
        raise ContractViolation(f"unknown preset {preset!r}; choose from {', '.join(PRESETS)}")
    if n < 2:
        raise ContractViolation("n must be at least 2")
    if length < 1:
        raise ContractViolation("length must be at least 1")
    if alpha is None:
        alpha = min(0.1, 1.0 / n)
    if not 0 < alpha <= 1.0 / n:
        raise ContractViolation(f"alpha must lie in (0, 1/n] = (0, {1.0 / n!r}]")
    if seed < 0:
        raise ContractViolation(f"seed must be nonnegative, got {seed}")

    if preset == "periodic-counterexample":
        factors, draws, metadata = _periodic_counterexample(n, length)
    else:  # only the random presets import numpy.random, with their generator
        draw = {"positive-diagonal": _positive_diagonal, "cycle-core": _cycle_core, "wolfowitz-set": _wolfowitz_set}
        factors, draws, metadata = draw[preset](np.random.default_rng(seed), n, length, alpha)
    normalize_rows(factors.reshape(-1, n))  # each distinct factor once; the draws gather repeats below

    metadata = {
        "preset": preset,
        "length": str(length),
        "alpha": repr(float(alpha)),
        "seed": str(seed),
        **metadata,
    }
    return SequenceFile(metadata, MatrixSequence._of_stack(factors if draws is None else factors[draws]))


def _fill_pattern(rng: np.random.Generator, pattern: np.ndarray, alpha: float) -> np.ndarray:
    """Weights for a boolean pattern: alpha everywhere plus random row slack (equal shares if a row's
    weights all drew 0.0). Per-seed determinism rests on one draw over the cells in row-major order,
    as one draw per row, and on one pairwise sum per row (np.add.reduceat rounds differently)."""
    rows, cols = np.nonzero(pattern)
    degree = np.count_nonzero(pattern, axis=1)
    weights = rng.random(rows.size)
    totals = np.array([row.sum() for row in np.split(weights, np.cumsum(degree)[:-1])])
    shares = np.where(totals[rows] > 0, weights, 1.0) / np.where(totals > 0, totals, degree)[rows]
    out = np.zeros(pattern.shape)
    out[rows, cols] = alpha + (1.0 - degree * alpha)[rows] * shares  # slack >= 0: alpha <= 1/n, degree <= n
    return out


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
    return np.array(matrices), None, {}


def _cycle_core(rng, n, length, alpha):
    core = wielandt_graph(n)
    matrices = [_fill_pattern(rng, core | (rng.random((n, n)) < _EXTRA_EDGE_DENSITY), alpha) for _ in range(length)]
    return np.array(matrices), None, {"core-edges": render(core)}


def _is_primitive_pattern(pattern: np.ndarray) -> bool:
    """Primitive iff irreducible and aperiodic: one strongly connected component, of period 1."""
    labels, periods = component_periods(pattern)
    return bool(labels.max() == 0 and periods[0] == 1)


def _random_primitive_pattern(rng: np.random.Generator, n: int) -> np.ndarray:
    for _ in range(_PRIMITIVE_PATTERN_ATTEMPTS):
        pattern = rng.random((n, n)) < _WOLFOWITZ_PATTERN_DENSITY
        for i in np.flatnonzero(~pattern.any(axis=1)):
            pattern[i, rng.integers(n)] = True
        if _is_primitive_pattern(pattern):
            return pattern
    raise RuntimeError("failed to draw a primitive pattern")


def _products_primitive_to_depth(patterns: list[np.ndarray], depth: int) -> bool:
    """Every product of at most `depth` generators must have a primitive pattern.

    Product patterns depend only on factor patterns, so it suffices to close
    the generator patterns, primitive as drawn, under boolean products, level
    by level up to the depth. A pattern already seen at a shorter length is
    skipped: its continuations were already explored with at least as much
    depth left.
    """
    generators = np.stack(patterns)  # one pattern_product multiplies a pattern by every generator
    seen = {p.tobytes() for p in patterns}
    level = patterns
    for _ in range(depth - 1):
        next_level = []
        for product in (p for mat in level for p in pattern_product(generators, mat)):
            key = product.tobytes()
            if key not in seen:
                seen.add(key)
                if not _is_primitive_pattern(product):
                    return False
                next_level.append(product)
        level = next_level
    return True


def _wolfowitz_set(rng, n, length, alpha):
    depth = wielandt_bound(n) + 1
    for _ in range(_WOLFOWITZ_SET_ATTEMPTS):
        patterns = [_random_primitive_pattern(rng, n) for _ in range(_WOLFOWITZ_SET_SIZE)]
        if _products_primitive_to_depth(patterns, depth):
            break
    else:
        raise RuntimeError("failed to draw a generator set with verified product primitivity")
    generators = np.array([_fill_pattern(rng, p, alpha) for p in patterns])
    draws = rng.integers(0, len(generators), size=length)
    return generators, draws, {"set-size": str(len(generators)), "checked-depth": str(depth)}


def _periodic_counterexample(n, length):
    if n % 2 == 0:
        half = n // 2
        step = (np.arange(half) + 1) % half
        perms = [np.roll(np.arange(n), half), np.concatenate([step + half, step])]
        kind = "bipartite-2-periodic"
    else:
        perms = [np.roll(np.arange(n), -1)] * 2
        kind = f"full-cycle-{n}-periodic"
    return np.eye(n)[np.array(perms)], np.arange(length) % 2, {"pattern": kind}
