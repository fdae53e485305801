"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single PASS line on success (shown with pytest -s or in
the captured output); a failing criterion fails its test. Criteria with a
runtime budget assert the measured wall time.
"""

import math
import time

import numpy as np

from ergocert.cli import main
from ergocert.convergence import (
    contraction_certificate,
    find_saturation_K,
    iter_products,
    partial_product,
    run_to_tolerance,
    saturation_floor,
)
from ergocert.digraph import Digraph, intersection, wielandt_bound, wielandt_graph
from ergocert.generate import generate_sequence
from ergocert.hypotheses import MatrixSequence, analyze
from ergocert.seqfile import write_sequence_file
from ergocert.stochastic import (
    StochasticMatrix,
    digraph_of,
    matrix_seminorm,
    min_positive_entry,
)

from oracles import (
    core_exists_exhaustive,
    exact_exponent,
    random_stochastic,
    seminorm_bruteforce,
    supports_and_minima,
    time_varying_walk_exists,
)


def _passed(number: int, name: str) -> None:
    print(f"ACCEPTANCE {number:02d} {name}: PASS")


def _random_sequence(rng, n, length, density):
    return MatrixSequence(
        [StochasticMatrix(random_stochastic(rng, n, density)) for _ in range(length)]
    )


def _mixing_fixtures():
    """Hypothesis-satisfying fixtures: both presets, n in {3, 4}, L = 3 W(n)."""
    fixtures = []
    for preset in ("positive-diagonal", "cycle-core"):
        for n in (3, 4):
            seq = generate_sequence(preset, n, 3 * wielandt_bound(n), 0.1, seed=100 + n).to_sequence()
            assert analyze(seq).holds
            fixtures.append((preset, n, seq))
    return fixtures


def _stochastic_power(entries: np.ndarray, exponent: int) -> np.ndarray:
    """Square-and-multiply with per-step row renormalization.

    Renormalization keeps the per-step row-sum drift at machine epsilon
    instead of compounding it through the squarings, so arbitrarily large
    exponents stay well-conditioned.
    """
    result = np.eye(entries.shape[0])
    base = entries.copy()
    e = exponent
    while e:
        if e & 1:
            result = base @ result
            result /= result.sum(axis=1, keepdims=True)
        base = base @ base
        base /= base.sum(axis=1, keepdims=True)
        e >>= 1
    return result


def test_01_walk_oracle_equivalence():
    """Positivity of P(k, l) entries matches the time-varying walk oracle exactly."""
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    for _ in range(200):
        n = int(rng.integers(2, 6))
        length = int(rng.integers(1, 7))
        density = float(rng.uniform(0.2, 0.9))
        seq = _random_sequence(rng, n, length, density)
        graphs = [digraph_of(m) for m in seq]
        for l in range(length + 1):
            product = np.eye(n)
            for k in range(l, length + 1):
                if k > l:
                    product = seq.factor(k).entries @ product
                window = graphs[l:k]
                for i in range(1, n + 1):
                    for j in range(1, n + 1):
                        assert (product[i - 1, j - 1] > 0) == time_varying_walk_exists(window, i, j)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _passed(1, f"walk-oracle-equivalence ({elapsed:.1f}s)")


def test_02_wielandt_exactness():
    """The extremal cycle-plus-chord digraph attains exponent n^2 - 2n + 2."""
    start = time.perf_counter()
    for n in (3, 4, 5, 6):
        assert exact_exponent(Digraph.from_adjacency(wielandt_graph(n))) == n * n - 2 * n + 2 == wielandt_bound(n)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _passed(2, f"wielandt-exactness ({elapsed:.1f}s)")


def test_03_seminorm_oracle():
    """Closed-form matrix semi-norm equals the 0/1-vector brute force, 500 matrices."""
    rng = np.random.default_rng(1003)
    for _ in range(500):
        n = int(rng.integers(1, 9))
        m = StochasticMatrix(random_stochastic(rng, n, density=float(rng.uniform(0.3, 1.0))))
        assert abs(matrix_seminorm(m) - seminorm_bruteforce(m.entries)) <= 1e-12
    _passed(3, "seminorm-oracle")


def test_04_uniform_entry_bound():
    """All entries >= alpha forces semi-norm <= 1 - n*alpha, 500 matrices."""
    rng = np.random.default_rng(1004)
    for _ in range(500):
        n = int(rng.integers(2, 9))
        alpha = float(rng.uniform(1e-6, 1.0 / n))
        raw = alpha + (1.0 - n * alpha) * rng.dirichlet(np.ones(n), size=n)
        m = StochasticMatrix(raw)
        assert (m.entries >= alpha - 1e-12).all()
        assert matrix_seminorm(m) <= 1.0 - n * alpha + 1e-12
    _passed(4, "uniform-entry-bound")


def test_05_support_growth_and_saturation():
    """Support monotonicity, stalled-support minima, and the saturation floor."""
    start = time.perf_counter()
    for preset, n, seq in _mixing_fixtures():
        w = wielandt_bound(n)
        alpha = min_positive_entry(seq.items)
        supports, minima = supports_and_minima(seq)

        for l in range(len(seq) + 1):
            for k in range(l + w, len(seq) + 1):
                assert (supports[l] <= supports[k]).all()

        for k in range(len(seq)):
            stalled = (supports[k] == supports[k + 1]).all(axis=0)
            assert (minima[k + 1, stalled] >= minima[k, stalled] - 1e-12).all()

        saturation = find_saturation_K(seq, alpha)
        assert saturation is not None
        floor = saturation_floor(n, alpha)
        p_at_saturation = partial_product(seq, 0, saturation)
        assert p_at_saturation.entries.min() >= floor - 1e-12
        assert matrix_seminorm(p_at_saturation) <= 1.0 - n * floor + 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _passed(5, f"support-growth-and-saturation ({elapsed:.1f}s)")


def test_06_convergence_to_rank_one():
    """At a horizon where the certified bound is below 1e-6, the measured
    disagreement and column spreads are below tolerance.

    The fixture is extended periodically. Each tile A(L)...A(1) = R.P(K),
    R stochastic, has semi-norm at most the certified contraction
    1 - n * alpha**(n*(W+1)), and tiles compound by submultiplicativity, so
    the needed number of tiles is astronomically large; P at that horizon is
    evaluated by square-and-multiply over the tile, which is the same
    backward product re-associated.
    """
    for preset, n, seq in _mixing_fixtures():
        base_length = len(seq)
        cert = contraction_certificate(seq)
        assert cert is not None
        complement = seq.n * cert.entry_floor
        # aim one percent under the tolerance: a single extra tile only
        # moves the bound by a factor 1 - complement, which is ~1 ulp
        tiles = math.ceil(math.log(0.99e-6) / math.log1p(-complement))
        assert tiles * math.log1p(-complement) < math.log(1e-6)

        block = partial_product(seq, 0, base_length).entries
        p_horizon = _stochastic_power(block, tiles)
        assert matrix_seminorm(StochasticMatrix(p_horizon)) < 1e-6
        assert (p_horizon.max(axis=0) - p_horizon.min(axis=0)).max() < 2e-6
    _passed(6, "convergence-to-rank-one")


def test_07_counterexample_rejection(tmp_path, capsys):
    """Alternating swaps: analysis exits 1 citing the missing core; no contraction ever."""
    length = 12
    swap = StochasticMatrix([[0.0, 1.0], [1.0, 0.0]])
    path = tmp_path / "swaps.seq"
    write_sequence_file(path, [swap] * length)

    exit_code = main(["analyze", str(path)])
    out = capsys.readouterr().out
    assert exit_code == 1
    assert "hypotheses.violations = aperiodic-core" in out
    assert "hypotheses.verdict = conditions-violated" in out

    seq = MatrixSequence([swap] * length)
    for state in iter_products(seq):
        if state.k >= 1:
            assert state.seminorm == 1.0
    _passed(7, "counterexample-rejection")


def test_08_wolfowitz_regime_converges():
    """Draws from a verified primitive set: disagreement below 1e-6 at L = 500."""
    for seed in range(20):
        seq = generate_sequence("wolfowitz-set", 3, 500, 0.1, seed).to_sequence()
        final = None
        for state in iter_products(seq):
            final = state
        assert final.k == 500
        assert final.seminorm < 1e-6
    _passed(8, "wolfowitz-regime-convergence")


def test_09_core_criterion_soundness():
    """The component-period rule agrees with exhaustive subgraph enumeration."""
    start = time.perf_counter()
    rng = np.random.default_rng(1009)
    present = absent = 0
    for _ in range(100):
        n = int(rng.integers(2, 5))
        length = int(rng.integers(1, 5))
        density = float(rng.uniform(0.25, 0.9))
        seq = _random_sequence(rng, n, length, density)
        exists = core_exists_exhaustive(intersection([digraph_of(m) for m in seq]))
        assert (analyze(seq).core is not None) == exists
        present += exists
        absent += not exists
    assert present and absent  # both answers exercised
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _passed(9, f"core-criterion-soundness ({elapsed:.1f}s, {present} present / {absent} absent)")


def test_10_lazy_walk_closed_form():
    """Constant symmetric lazy walk: semi-norm is 0.8**k; tolerance run stops at 31."""
    lazy = StochasticMatrix([[0.9, 0.1], [0.1, 0.9]])
    seq = MatrixSequence([lazy] * 50)
    for state in iter_products(seq):
        if state.k == 0:
            continue
        exact = 0.8**state.k
        assert abs(state.seminorm - exact) <= 1e-10 * exact

    run = run_to_tolerance(seq, 1e-3)
    assert run.reached
    assert run.state.k == 31
    _passed(10, "lazy-walk-closed-form")
