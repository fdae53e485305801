"""Expected facts about a workload file, computed with plain numpy.

Nothing here imports ergocert. Every positivity question (patterns,
reachability, eventual positivity, saturation) is answered in boolean
arithmetic on the factors' zero patterns, so the facts are independent of
the float paths the program takes. Only the simulate trajectory is a float
computation, and it is compared inside a relative band around epsilon.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

EPSILON = 1e-6  # `simulate`'s default target semi-norm
EXACT_SLACK = 1e-12  # the floor slack in the certificate's definition of the saturation index
TAU_BAND = 1e-6  # relative band around EPSILON inside which rounding may decide k_final
ROW_BLOCK = 32  # rows per block in the pairwise semi-norm, to bound its temporary


@dataclass(frozen=True)
class Facts:
    """What a correct `ergocert` must report for one workload file."""

    n: int
    length: int
    alpha: float | None
    pattern_edges: int
    reducibility_failures: tuple[int, ...]
    core_present: bool
    onsets: dict[int, int | None]  # start -> least K with a full accumulated sum, all starts
    saturation_index: int | None
    taus: tuple[float, ...]  # semi-norm of P(k), k = 0.. until it is clearly below EPSILON

    def to_json(self) -> str:
        return json.dumps(asdict(self))

    @classmethod
    def from_json(cls, text: str) -> Facts:
        fields = json.loads(text)
        fields["onsets"] = {int(k): v for k, v in fields["onsets"].items()}
        fields["reducibility_failures"] = tuple(fields["reducibility_failures"])
        fields["taus"] = tuple(fields["taus"])
        return cls(**fields)

    def violations(self, all_starts: bool) -> set[str]:
        starts = range(1, self.length + 1) if all_starts else (1,)
        out = set()
        if self.alpha is None:
            out.add("positive-entries")
        out.update(f"eventual-positivity:start={k}" for k in starts if self.onsets[k] is None)
        out.update(f"complete-reducibility:k={k}" for k in self.reducibility_failures)
        if not self.core_present:
            out.add("aperiodic-core")
        return out

    def certificate_status(self) -> str:
        structural = {v for v in self.violations(False) if not v.startswith("eventual-positivity")}
        if structural:
            return "refused"
        return "emitted" if self.saturation_index is not None else "horizon-exhausted"

    def tolerance_steps(self) -> int:
        """k_final of a run to EPSILON: the first k with semi-norm <= EPSILON, else L."""
        return next((k for k, tau in enumerate(self.taus) if tau <= EPSILON), self.length)

    def counts(self) -> dict[str, int]:
        """Exact work counts; they depend on the input alone and must repeat per seed."""
        return {
            "seqfile.values": self.length * self.n * self.n,
            "digraph.pattern_edges": self.pattern_edges,
            "hypotheses.positivity_steps": positivity_steps(self.onsets, self.length),
            "convergence.saturation_index": self.saturation_index or 0,
            "convergence.tolerance_steps": self.tolerance_steps(),
            "stochastic.matrix_seminorm_bytes_computed": 8 * self.n**3,
        }


def positivity_steps(onsets: dict[int, int | None], length: int) -> int:
    """Factors scanned over all starts: K - k + 1 when start k fills at K, else L - k + 1."""
    return sum((length if reached is None else reached) - k + 1 for k, reached in onsets.items())


def load_matrices(path: str | Path) -> np.ndarray:
    """The (L, n, n) stack of factors, rows renormalized as the file format specifies."""
    lines = [s for s in (raw.strip() for raw in Path(path).read_text(encoding="utf-8").splitlines()) if s]
    content = [s for s in lines if not s.startswith("#")]
    n = int(content[0].removeprefix("n="))
    stack = np.loadtxt(content[1:], ndmin=2).reshape(-1, n, n)
    return stack / stack.sum(axis=2, keepdims=True)


def reachability(adj: np.ndarray) -> np.ndarray:
    """Reflexive-transitive closure of one or a stack of boolean patterns, by squaring."""
    n = adj.shape[-1]
    reach = (adj | np.eye(n, dtype=bool)).astype(np.float32)
    for _ in range(max(1, math.ceil(math.log2(n)))):
        reach = (reach @ reach > 0).astype(np.float32)
    return reach > 0


def component_periods(common: np.ndarray) -> list[int]:
    """Cycle gcd of each node's strongly connected component (0 for a node on no cycle)."""
    n = common.shape[0]
    reach = reachability(common)
    mutual = reach & reach.T
    periods = [-1] * n
    for root in range(n):
        if periods[root] >= 0:
            continue
        inside = mutual[root]
        members = np.flatnonzero(inside)
        succ = {int(u): np.flatnonzero(common[u] & inside) for u in members}
        level = {root: 0}
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for v in succ[u]:
                if int(v) not in level:
                    level[int(v)] = level[u] + 1
                    queue.append(int(v))
        gcd = 0
        for u, vs in succ.items():
            for v in vs:
                gcd = math.gcd(gcd, abs(level[u] + 1 - level[int(v)]))
        for u in members:
            periods[u] = gcd
    return periods


def positivity_onsets(patterns: np.ndarray, starts) -> dict[int, int | None]:
    """Least K >= k with A(K)...A(k) + ... + A(k) entrywise positive, per start k.

    All starts advance together, one factor per step, on 0/1 float32
    stacks: a boolean matrix product counts at most n paths per entry, which
    float32 holds exactly.
    """
    length, n, _ = patterns.shape
    factors = patterns.astype(np.float32)
    active = np.asarray(list(starts), dtype=np.int64) - 1
    product = np.repeat(np.eye(n, dtype=np.float32)[None], active.size, axis=0)
    accumulated = np.zeros(product.shape, dtype=bool)
    out: dict[int, int | None] = {}
    step = 0
    while active.size:
        index = active + step
        alive = index < length
        out.update({int(s) + 1: None for s in active[~alive]})
        active, index, product, accumulated = active[alive], index[alive], product[alive], accumulated[alive]
        if not active.size:
            break
        product = (factors[index] @ product > 0).astype(np.float32)
        accumulated |= product > 0
        full = accumulated.all(axis=(1, 2))
        out.update({int(s) + 1: int(k) + 1 for s, k in zip(active[full], index[full])})
        active, product, accumulated = active[~full], product[~full], accumulated[~full]
        step += 1
    return out


def saturation_index(stack: np.ndarray, patterns: np.ndarray, alpha: float) -> int | None:
    """Least K with P(K) entrywise positive (boolean) and every entry at or above the
    floor alpha ** (n * (W + 1)) less EXACT_SLACK, W = n*n - 2n + 2."""
    n = stack.shape[1]
    threshold = alpha ** (n * (n * n - 2 * n + 3)) - EXACT_SLACK
    pattern = np.eye(n, dtype=np.float32)
    product = np.eye(n)
    for k in range(stack.shape[0]):
        pattern = (patterns[k].astype(np.float32) @ pattern > 0).astype(np.float32)
        if threshold > 0:
            product = stack[k] @ product
        if pattern.all() and (threshold <= 0 or product.min() >= threshold):
            return k + 1
    return None


def seminorm(p: np.ndarray) -> float:
    """Half the largest L1 distance between two rows, in blocks of ROW_BLOCK rows."""
    largest = 0.0
    for i in range(0, p.shape[0], ROW_BLOCK):
        block = np.abs(p[i : i + ROW_BLOCK, None, :] - p[None, :, :]).sum(axis=2)
        largest = max(largest, float(block.max()))
    return min(largest / 2.0, 1.0)


def trajectory(stack: np.ndarray) -> tuple[float, ...]:
    """Semi-norms of P(0..k), stopping once one is below EPSILON beyond the band."""
    product = np.eye(stack.shape[1])
    taus = [seminorm(product)]
    for factor in stack:
        if taus[-1] <= EPSILON * (1 - TAU_BAND):
            break
        product = factor @ product
        taus.append(seminorm(product))
    return tuple(taus)


def compute_facts(path: str | Path) -> Facts:
    stack = load_matrices(path)
    length, n, _ = stack.shape
    patterns = stack > 0
    positive = stack[patterns]
    alpha = float(positive.min()) if positive.size else None
    reach = reachability(patterns)
    failures = tuple(int(k) + 1 for k in np.flatnonzero(~(reach == reach.transpose(0, 2, 1)).all(axis=(1, 2))))
    return Facts(
        n=n,
        length=length,
        alpha=alpha,
        pattern_edges=int(patterns.sum()),
        reducibility_failures=failures,
        core_present=all(p == 1 for p in component_periods(patterns.all(axis=0))),
        onsets=positivity_onsets(patterns, range(1, length + 1)),
        saturation_index=saturation_index(stack, patterns, alpha) if alpha else None,
        taus=trajectory(stack),
    )
