import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ergocert.digraph import Digraph, intersection, is_aperiodic
from ergocert.errors import ContractViolation, DimensionError
from ergocert.hypotheses import (
    MatrixSequence,
    analyze,
    check_eventual_positivity,
)
from ergocert.stochastic import StochasticMatrix, digraph_of, identity_matrix

from oracles import (
    boolean_product_pattern,
    component_period_by_cycles,
    components_by_bfs,
    core_exists_exhaustive,
    is_subgraph,
    random_stochastic,
    relabel_entries,
    sinks,
)

LAZY = StochasticMatrix([[0.9, 0.1], [0.1, 0.9]])
SWAP = StochasticMatrix([[0.0, 1.0], [1.0, 0.0]])
TRIANGULAR = StochasticMatrix([[1.0, 0.0], [0.5, 0.5]])


def seq_of(*matrices):
    return MatrixSequence(matrices)


def lazy_cycle(n, w):
    """(1 - w) I + w C for the n-cycle C: pattern I + C, and C^m has weight about w^m."""
    return StochasticMatrix((1.0 - w) * np.eye(n) + w * np.roll(np.eye(n), 1, axis=1))


def tiny_entries(rng, n, scale=1e-200):
    """A random pattern whose entries are near scale, except one near 1 per row."""
    pattern = rng.random((n, n)) < rng.uniform(0.1, 0.4)
    dominant = rng.integers(n, size=n)
    pattern[np.arange(n), dominant] = False
    out = np.where(pattern, scale * (1.0 + rng.random((n, n))), 0.0)
    out[np.arange(n), dominant] = 1.0 - out.sum(axis=1)
    return out


def onset_by_oracle(graphs, k):
    """Least K >= k whose accumulated boolean product patterns cover every entry."""
    n = graphs[0].n
    covered = np.zeros((n, n), dtype=bool)
    for current in range(k, len(graphs) + 1):
        covered |= boolean_product_pattern(graphs[k - 1 : current])
        if covered.all():
            return current
    return None


class TestMatrixSequence:
    def test_requires_nonempty(self):
        with pytest.raises(DimensionError):
            MatrixSequence([])

    def test_requires_common_dimension(self):
        with pytest.raises(DimensionError):
            MatrixSequence([identity_matrix(2), identity_matrix(3)])

    def test_one_based_access(self):
        seq = seq_of(LAZY, SWAP)
        # factors are views of the stack: the same entries, bit for bit, not the same objects
        assert seq.factor(1).entries.tobytes() == LAZY.entries.tobytes()
        assert seq.factor(2).entries.tobytes() == SWAP.entries.tobytes()
        assert len(seq) == 2
        with pytest.raises(ContractViolation):
            seq.factor(0)
        with pytest.raises(ContractViolation):
            seq.factor(3)


class TestCompleteReducibility:
    def test_positive_matrices(self):
        seq = seq_of(LAZY, LAZY, LAZY)
        assert analyze(seq).reducibility_failures == ()

    def test_triangular_factor_flagged(self):
        seq = seq_of(LAZY, TRIANGULAR, LAZY)
        assert analyze(seq).reducibility_failures == (2,)

    def test_permutation_matrices(self):
        seq = seq_of(SWAP, SWAP)
        assert analyze(seq).reducibility_failures == ()


class TestAperiodicCore:
    def test_positive_diagonal_gives_core(self):
        seq = seq_of(LAZY, StochasticMatrix([[1.0, 0.0], [0.2, 0.8]]))
        core = analyze(seq).core
        assert core is not None
        assert {(1, 1), (2, 2)} <= core.edges

    def test_alternating_swaps_have_no_core(self):
        seq = seq_of(SWAP, SWAP, SWAP)
        report = analyze(seq)
        assert report.core is None
        assert intersection([digraph_of(m) for m in seq]).edges == {(1, 2), (2, 1)}
        assert report.node_periods == {1: 2, 2: 2}
        assert report.core_offenders == (1, 2)

    def test_common_aperiodic_pattern_without_loops(self):
        # every factor contains {1->2, 2->3, 3->1, 3->2}: cycle lengths 3 and 2
        base = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.5, 0.5, 0.0]])
        extra = np.array([[0.2, 0.6, 0.2], [0.1, 0.1, 0.8], [0.3, 0.3, 0.4]])
        seq = seq_of(StochasticMatrix(base), StochasticMatrix(extra))
        core = analyze(seq).core
        assert core is not None
        assert core.edges == {(1, 2), (2, 3), (3, 1), (3, 2)}

    def test_core_properties_when_present(self):
        rng = np.random.default_rng(20)
        found = 0
        while found < 25:
            n = int(rng.integers(2, 5))
            seq = seq_of(*(StochasticMatrix(random_stochastic(rng, n, density=0.75))
                           for _ in range(int(rng.integers(1, 4)))))
            core = analyze(seq).core
            if core is None:
                continue
            found += 1
            assert not sinks(core)
            assert is_aperiodic(core).aperiodic
            for m in seq:
                assert is_subgraph(core, digraph_of(m))

    def test_rule_matches_exhaustive_search(self):
        rng = np.random.default_rng(21)
        for _ in range(60):
            n = int(rng.integers(2, 5))
            density = float(rng.uniform(0.25, 0.9))
            seq = seq_of(*(StochasticMatrix(random_stochastic(rng, n, density))
                           for _ in range(int(rng.integers(1, 5)))))
            common = intersection([digraph_of(m) for m in seq])
            assert (analyze(seq).core is not None) == core_exists_exhaustive(common)

    def test_core_and_periods_match_bfs_components(self):
        # the maximal core is the intersection restricted to edges inside one
        # strongly connected component, present iff every period is 1
        rng = np.random.default_rng(22)
        present = absent = 0
        for _ in range(40):
            n = int(rng.integers(1, 7))
            seq = seq_of(*(StochasticMatrix(random_stochastic(rng, n, float(rng.uniform(0.3, 0.9))))
                           for _ in range(int(rng.integers(1, 4)))))
            common = intersection([digraph_of(m) for m in seq])
            component_of = {u: comp for comp in components_by_bfs(common) for u in comp}
            periods = {u: component_period_by_cycles(common, comp) for u, comp in component_of.items()}
            intra = {(u, v) for u, v in common.edges if component_of[u] == component_of[v]}
            report = analyze(seq)
            assert report.node_periods == periods
            assert report.core_offenders == tuple(sorted(u for u, p in periods.items() if p != 1))
            if all(p == 1 for p in periods.values()):
                assert report.core == Digraph(n, intra)
                present += 1
            else:
                assert report.core is None
                absent += 1
        assert present and absent


class TestEventualPositivity:
    def test_all_positive_first_term(self):
        seq = seq_of(LAZY, LAZY, LAZY)
        for k in (1, 2, 3):
            assert check_eventual_positivity(seq, k) == k

    def test_alternating_swaps_need_two_terms(self):
        # swap pattern then identity pattern: union covers all four entries
        seq = seq_of(SWAP, SWAP, SWAP)
        assert check_eventual_positivity(seq, 1) == 2

    def test_identity_never_fills(self):
        seq = seq_of(identity_matrix(2), identity_matrix(2))
        assert check_eventual_positivity(seq, 1) is None

    def test_start_out_of_range(self):
        with pytest.raises(ContractViolation):
            check_eventual_positivity(seq_of(LAZY), 2)

    def test_matches_boolean_accumulation(self):
        rng = np.random.default_rng(22)
        for _ in range(40):
            n = int(rng.integers(2, 5))
            seq = seq_of(*(StochasticMatrix(random_stochastic(rng, n, density=0.45))
                           for _ in range(int(rng.integers(1, 6)))))
            for k in range(1, len(seq) + 1):
                accumulated = np.zeros((n, n), dtype=bool)
                product = np.eye(n)
                expected = None
                for kk in range(k, len(seq) + 1):
                    product = seq.factor(kk).entries @ product
                    accumulated |= product > 0
                    if accumulated.all():
                        expected = kk
                        break
                assert check_eventual_positivity(seq, k) == expected

    def test_accumulated_pattern_is_monotone(self):
        # once the running sum is all-positive it stays so: summands are nonnegative
        rng = np.random.default_rng(23)
        seq = seq_of(*(StochasticMatrix(random_stochastic(rng, 3, density=0.5)) for _ in range(8)))
        reached = check_eventual_positivity(seq, 1)
        if reached is not None:
            n = seq.n
            running = np.zeros((n, n))
            product = np.eye(n)
            for kk in range(1, len(seq) + 1):
                product = seq.factor(kk).entries @ product
                running += product
                if kk >= reached:
                    assert (running > 0).all()


class TestExactPositivity:
    """Positivity is answered on patterns, never lost to float underflow."""

    def test_underflowing_products_still_fill(self):
        # A(2)A(1) has weight 1e-400 on C^2, which underflows to 0.0 in floats
        seq = seq_of(*[lazy_cycle(3, 1e-200)] * 4)
        assert (seq.factor(2).entries @ seq.factor(1).entries == 0).any()
        assert check_eventual_positivity(seq, 1) == 2
        report = analyze(seq)
        assert report.eventual_positivity == {1: 2}
        assert report.holds

    @given(st.integers(8, 11), st.integers(1, 6), st.integers(0, 2**32 - 1))
    def test_entries_near_1e_200_match_boolean_products(self, n, length, seed):
        rng = np.random.default_rng(seed)
        seq = seq_of(*(StochasticMatrix(tiny_entries(rng, n)) for _ in range(length)))
        graphs = [digraph_of(m) for m in seq]
        onsets = {k: onset_by_oracle(graphs, k) for k in range(1, length + 1)}
        assert {k: check_eventual_positivity(seq, k) for k in onsets} == onsets
        assert analyze(seq, all_starts=True).eventual_positivity == onsets


class TestThresholdedPatterns:
    """With tol_pos > 0 every structural check reads the factor patterns entry > tol_pos."""

    @staticmethod
    def pattern_sequence(seq, tol_pos):
        """Uniform weights on each factor's thresholded pattern, analyzed at tol_pos = 0."""
        patterns = [m.entries > tol_pos for m in seq]
        return seq_of(*(StochasticMatrix(p / p.sum(axis=1, keepdims=True)) for p in patterns))

    def assert_same_structure(self, seq, tol_pos):
        a = analyze(seq, all_starts=True, tol_pos=tol_pos)
        b = analyze(self.pattern_sequence(seq, tol_pos), all_starts=True)
        assert a.reducibility_failures == b.reducibility_failures
        assert a.core == b.core
        assert a.node_periods == b.node_periods
        assert a.eventual_positivity == b.eventual_positivity
        return a

    def test_products_below_the_threshold_still_count(self):
        # C^2 has weight 0.01 in A(2)A(1), below tol_pos = 0.05, but lies in
        # the boolean product of the patterns I + C; the float sums of the
        # products only passed 0.05 at K = 4
        seq = seq_of(*[lazy_cycle(3, 0.1)] * 6)
        report = self.assert_same_structure(seq, 0.05)
        assert report.eventual_positivity[1] == 2
        assert report.core == Digraph(3, {(1, 1), (2, 2), (3, 3), (1, 2), (2, 3), (3, 1)})

    def test_entries_below_the_threshold_never_count(self):
        # the off-diagonal 0.01 is dropped from every pattern, so the
        # accumulated sum can never fill, however large the float sum grows
        seq = seq_of(*[lazy_cycle(3, 0.01)] * 20)
        report = self.assert_same_structure(seq, 0.05)
        assert set(report.eventual_positivity.values()) == {None}
        assert report.core == Digraph(3, {(1, 1), (2, 2), (3, 3)})
        assert report.reducibility_failures == ()

    def test_random_sequences(self):
        rng = np.random.default_rng(26)
        for _ in range(40):
            n = int(rng.integers(2, 6))
            seq = seq_of(*(StochasticMatrix(random_stochastic(rng, n, density=0.7))
                           for _ in range(int(rng.integers(1, 6)))))
            # every row keeps an entry of at least 1/n >= 0.2
            self.assert_same_structure(seq, float(rng.uniform(0.02, 0.19)))

    @pytest.mark.parametrize("tol_pos", [-0.5, np.nan, np.inf])
    def test_threshold_finite_and_nonnegative(self, tol_pos):
        # at tol_pos = -0.5 the zeros of alternating swaps would be edges and
        # every condition would hold
        seq = seq_of(SWAP, SWAP, SWAP, SWAP)
        with pytest.raises(ContractViolation):
            analyze(seq, tol_pos=tol_pos)


class TestAnalyze:
    def test_lazy_walk_all_conditions_hold(self):
        report = analyze(seq_of(LAZY, LAZY, LAZY))
        assert report.holds
        assert report.verdict == "all-conditions-hold"
        assert report.alpha == 0.1
        assert report.reducibility_failures == ()
        assert report.core is not None
        assert report.eventual_positivity == {1: 1}

    def test_alternating_swaps_fail_only_core(self):
        report = analyze(seq_of(SWAP, SWAP, SWAP, SWAP))
        assert not report.holds
        assert report.violations == ("aperiodic-core",)
        assert report.alpha == 1.0
        assert report.reducibility_failures == ()
        assert report.eventual_positivity == {1: 2}

    def test_triangular_factor_cited_with_index(self):
        report = analyze(seq_of(LAZY, TRIANGULAR, LAZY))
        assert "complete-reducibility:k=2" in report.violations
        assert report.reducibility_failures == (2,)

    def test_identity_only_fails_positivity_within_horizon(self):
        report = analyze(seq_of(identity_matrix(2), identity_matrix(2)))
        assert report.violations == ("eventual-positivity:start=1",)
        assert report.core is not None

    def test_multiple_starts(self):
        seq = seq_of(LAZY, identity_matrix(2), identity_matrix(2))
        report = analyze(seq, all_starts=True)
        assert report.eventual_positivity == {1: 1, 2: None, 3: None}
        assert not report.holds

    def test_verdict_iff_all_parts_pass(self):
        rng = np.random.default_rng(24)
        for _ in range(40):
            n = int(rng.integers(2, 5))
            seq = seq_of(*(StochasticMatrix(random_stochastic(rng, n, density=float(rng.uniform(0.3, 0.9))))
                           for _ in range(int(rng.integers(1, 6)))))
            report = analyze(seq)
            expected = (
                report.alpha is not None
                and not report.reducibility_failures
                and report.core is not None
                and all(v is not None for v in report.eventual_positivity.values())
            )
            assert report.holds == expected

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(25)
        for _ in range(20):
            n = int(rng.integers(2, 5))
            mats = [random_stochastic(rng, n, density=0.6) for _ in range(int(rng.integers(1, 5)))]
            perm = {i + 1: int(p) + 1 for i, p in enumerate(rng.permutation(n))}
            seq = seq_of(*(StochasticMatrix(m) for m in mats))
            relabeled = seq_of(*(StochasticMatrix(relabel_entries(m, perm)) for m in mats))
            a, b = analyze(seq), analyze(relabeled)
            assert a.verdict == b.verdict
            assert a.alpha == pytest.approx(b.alpha, abs=1e-15)
            assert a.reducibility_failures == b.reducibility_failures
            assert (a.core is None) == (b.core is None)
            if a.core is not None:
                assert {(perm[i], perm[j]) for (i, j) in a.core.edges} == b.core.edges
            assert a.eventual_positivity == b.eventual_positivity
