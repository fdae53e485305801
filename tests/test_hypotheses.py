from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergocert import digraph
from ergocert.digraph import Digraph, intersection, is_aperiodic, wielandt_bound
from ergocert.errors import ContractViolation, DimensionError
from ergocert.hypotheses import (
    MatrixSequence,
    analyze,
    check_eventual_positivity,
    positivity_onsets,
)
from ergocert.generate import generate_sequence
from ergocert.seqfile import format_sequence, parse_sequence_text
from ergocert.stochastic import digraph_of, identity_matrix

from oracles import (
    boolean_product_pattern,
    completely_reducible_by_bfs,
    component_period_by_cycles,
    components_by_bfs,
    core_exists_exhaustive,
    first_reach_by_walks,
    is_b_connected,
    is_cut_balanced,
    is_subgraph,
    random_stochastic,
    relabel_entries,
    sequence_of_stack,
    sinks,
    spanned_from_node_1_within_log2_n,
    stack_of,
    validated,
)

LAZY = validated([[0.9, 0.1], [0.1, 0.9]])
SWAP = validated([[0.0, 1.0], [1.0, 0.0]])
TRIANGULAR = validated([[1.0, 0.0], [0.5, 0.5]])


def seq_of(*matrices):
    return MatrixSequence(matrices)


def lazy_cycle(n, w):
    """(1 - w) I + w C for the n-cycle C: pattern I + C, and C^m has weight about w^m."""
    return validated((1.0 - w) * np.eye(n) + w * np.roll(np.eye(n), 1, axis=1))


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
        assert seq.factor(1).tobytes() == LAZY.tobytes()
        assert seq.factor(2).tobytes() == SWAP.tobytes()
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

    @settings(deadline=None)
    @given(st.integers(2, 6), st.integers(1, 4), st.integers(0, 2**32 - 1), st.data())
    def test_one_closure_per_distinct_factor(self, n, size, seed, data):
        # a file of `size` factors drawn in random order; the first is upper triangular
        # with edge 1 -> 2 under a random relabelling, so never completely reducible,
        # and it occurs at two indices or more
        rng = np.random.default_rng(seed)
        upper = np.triu(rng.uniform(0.1, 1.0, (n, n)) * (rng.random((n, n)) < 0.5))
        upper[range(n), range(n)] = 1.0
        upper[0, 1] = 1.0
        perm = rng.permutation(n)
        factors = [validated(upper[perm][:, perm] / upper.sum(axis=1)[perm, None])]
        factors += [validated(random_stochastic(rng, n, float(rng.uniform(0.2, 0.9)))) for _ in range(size - 1)]
        order = data.draw(st.permutations(data.draw(st.lists(st.integers(0, size - 1), max_size=10)) + [0, 0]))
        seq = parse_sequence_text(format_sequence(seq_of(*(factors[i] for i in order)))).sequence
        expected = tuple(
            k for k, i in enumerate(order, start=1)
            if not completely_reducible_by_bfs(Digraph.from_adjacency(factors[i] > 0))
        )
        with mock.patch.object(digraph, "reachability", wraps=digraph.reachability) as spy:
            report = analyze(seq)
        assert report.reducibility_failures == expected
        assert len(expected) >= 2
        # component_periods closes the one 2-D common pattern; complete reducibility
        # closes one stack: each distinct record of the file once, in order of first occurrence,
        # that the sweeps from node 1 leave undecided, the triangular factor among them
        closed = [c.args[0] for c in spy.call_args_list if np.ndim(c.args[0]) == 3]
        assert len(closed) == 1
        keys = [factors[i].tobytes() for i in order]  # two drawn factors may be equal at n = 2
        assert seq.word.tolist() == [list(dict.fromkeys(keys)).index(key) for key in keys]
        assert len(seq.factors) <= size
        undecided = [not spanned_from_node_1_within_log2_n(Digraph.from_adjacency(f > 0)) for f in seq.factors]
        assert undecided[seq.word[order.index(0)]]
        assert np.array_equal(closed[0] != 0, seq.factors[undecided] > 0)

    def test_positive_diagonal_factors_form_no_closure(self):
        # every factor of the benchmark's large-n200 file is strongly connected within
        # ceil(log2 200) = 8 steps from node 1: the sweeps decide all 20, and only
        # component_periods closes its one 2-D common pattern
        seq = generate_sequence("positive-diagonal", 200, 20, 0.001, seed=3).sequence
        with mock.patch.object(digraph, "reachability", wraps=digraph.reachability) as spy:
            report = analyze(seq)
        assert report.reducibility_failures == ()
        assert [np.ndim(c.args[0]) for c in spy.call_args_list] == [2]


class TestAperiodicCore:
    def test_positive_diagonal_gives_core(self):
        seq = seq_of(LAZY, [[1.0, 0.0], [0.2, 0.8]])
        core = analyze(seq).core
        assert core is not None
        assert core.dtype == bool and core.shape == (2, 2)
        assert core[0, 0] and core[1, 1]
        assert not core.flags.writeable

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
        seq = seq_of(base, extra)
        core = analyze(seq).core
        assert core is not None
        assert np.array_equal(core, Digraph(3, {(1, 2), (2, 3), (3, 1), (3, 2)}).adjacency_matrix())

    def test_core_properties_when_present(self):
        rng = np.random.default_rng(20)
        found = 0
        while found < 25:
            n = int(rng.integers(2, 5))
            seq = seq_of(*(random_stochastic(rng, n, density=0.75)
                           for _ in range(int(rng.integers(1, 4)))))
            core = analyze(seq).core
            if core is None:
                continue
            core = Digraph.from_adjacency(core)
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
            seq = seq_of(*(random_stochastic(rng, n, density)
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
            seq = seq_of(*(random_stochastic(rng, n, float(rng.uniform(0.3, 0.9)))
                           for _ in range(int(rng.integers(1, 4)))))
            common = intersection([digraph_of(m) for m in seq])
            component_of = {u: comp for comp in components_by_bfs(common) for u in comp}
            periods = {u: component_period_by_cycles(common, comp) for u, comp in component_of.items()}
            intra = {(u, v) for u, v in common.edges if component_of[u] == component_of[v]}
            report = analyze(seq)
            assert report.node_periods == periods
            assert report.core_offenders == tuple(sorted(u for u, p in periods.items() if p != 1))
            if all(p == 1 for p in periods.values()):
                assert np.array_equal(report.core, Digraph(n, intra).adjacency_matrix())
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
            seq = seq_of(*(random_stochastic(rng, n, density=0.45)
                           for _ in range(int(rng.integers(1, 6)))))
            for k in range(1, len(seq) + 1):
                accumulated = np.zeros((n, n), dtype=bool)
                product = np.eye(n)
                expected = None
                for kk in range(k, len(seq) + 1):
                    product = seq.factor(kk) @ product
                    accumulated |= product > 0
                    if accumulated.all():
                        expected = kk
                        break
                assert check_eventual_positivity(seq, k) == expected

    def test_accumulated_pattern_is_monotone(self):
        # once the running sum is all-positive it stays so: summands are nonnegative
        rng = np.random.default_rng(23)
        seq = seq_of(*(random_stochastic(rng, 3, density=0.5) for _ in range(8)))
        reached = check_eventual_positivity(seq, 1)
        if reached is not None:
            n = seq.n
            running = np.zeros((n, n))
            product = np.eye(n)
            for kk in range(1, len(seq) + 1):
                product = seq.factor(kk) @ product
                running += product
                if kk >= reached:
                    assert (running > 0).all()


def pattern_stack(rng, n, length, sparse, drop):
    """A boolean (length, n, n) stack. Sparse: permutation patterns with a few
    entries added and a share `drop` of the permutation's removed (few nonzeros,
    many distinct onsets; with drop > 0, empty rows and columns). Dense: random
    patterns with a positive diagonal."""
    if sparse:
        stack = np.stack([np.eye(n, dtype=bool)[rng.permutation(n)] for _ in range(length)])
        return (stack & (rng.random(stack.shape) >= drop)) | (rng.random(stack.shape) < 0.02)
    stack = rng.random((length, n, n)) < rng.uniform(0.2, 0.9)
    stack[:, np.arange(n), np.arange(n)] = True
    return stack


class TestPositivityOnsets:
    """positivity_onsets' backward pass against per-start forward scans and walk search."""

    @staticmethod
    def weighted(stack, light):
        """A sequence whose entries > light are exactly the stack: each off-pattern
        entry weighs `light` (0 for none), the pattern shares the rest of its row."""
        m = stack.sum(axis=2, keepdims=True)
        rows = np.where(stack, (1.0 - light * (stack.shape[2] - m)) / m, light)
        return seq_of(*rows)

    @settings(deadline=None)
    @given(st.integers(1, 6), st.integers(1, 24), st.booleans(),
           st.sampled_from([0.0, 0.5]), st.integers(0, 2**32 - 1))
    def test_matches_scans_and_walks(self, n, length, sparse, drop, seed):
        stack = pattern_stack(np.random.default_rng(seed), n, length, sparse, drop)
        records = np.arange(length)
        onsets = positivity_onsets(stack.astype(np.float32), records)
        assert positivity_onsets(stack, records) == onsets
        graphs = [Digraph.from_adjacency(p) for p in stack]
        never = length + 1
        by_walks = []
        for k in range(1, length + 1):
            reached = int(first_reach_by_walks(graphs, k).max())
            by_walks.append(reached if reached < never else None)
        assert onsets == by_walks
        if stack.any(axis=2).all():
            # every row has an entry: the stack is the pattern of a stochastic sequence
            by_start = dict(enumerate(onsets, start=1))
            seq = self.weighted(stack, 0.0)
            assert {k: check_eventual_positivity(seq, k) for k in by_start} == by_start
            assert analyze(seq, all_starts=True).eventual_positivity == by_start
            # with every entry positive, every start fills at once
            seq = self.weighted(stack, 0.005)
            assert analyze(seq, all_starts=True).eventual_positivity == {k: k for k in by_start}

    def test_strategies_reach_both_kernels(self):
        # each step takes the levels kernel iff D n^2 <= 64 nnz(A(k)), D the
        # distinct finite values of f_{k+1}; the stacks above must meet both
        rng = np.random.default_rng(31)
        kernels = {"levels": 0, "gather": 0}
        for sparse, drop in ((True, 0.0), (True, 0.5), (False, 0.0)):
            for _ in range(20):
                n, length = int(rng.integers(1, 7)), int(rng.integers(1, 25))
                stack = pattern_stack(rng, n, length, sparse, drop)
                graphs = [Digraph.from_adjacency(p) for p in stack]
                for k in range(1, length):
                    after = first_reach_by_walks(graphs, k + 1)
                    distinct = len(set(after[after <= length].tolist()))
                    levels = distinct * n * n <= 64 * np.count_nonzero(stack[k - 1])
                    kernels["levels" if levels else "gather"] += 1
        assert min(kernels.values()) >= 10, kernels

    def test_sparse_stacks_at_larger_n_match_scans(self):
        # at n = 20 sparse steps take the gather kernel with several in-edges
        # per column, where the minimum over them decides the onsets
        rng = np.random.default_rng(32)
        stack = pattern_stack(rng, 20, 60, True, 0.0) | (rng.random((60, 20, 20)) < 0.05)
        seq = self.weighted(stack, 0.0)
        onsets = analyze(seq, all_starts=True).eventual_positivity
        assert onsets == {k: check_eventual_positivity(seq, k) for k in onsets}
        assert None in onsets.values() and len(set(onsets.values())) > 10

    @staticmethod
    def assert_matches_scans(seq):
        onsets = positivity_onsets(seq.patterns, seq.word)
        assert onsets == [check_eventual_positivity(seq, k) for k in range(1, len(seq) + 1)]
        return onsets

    @pytest.mark.parametrize("n", [65, 66])
    def test_permutations_past_n64_match_scans(self, n):
        # a full cycle (n = 65) or two alternating bipartite permutations (n = 66): at
        # n > 64 a permutation has n^2 > 64 nnz, so every step skips the levels and
        # gathers through the table of one of at most two distinct patterns
        seq = generate_sequence("periodic-counterexample", n, 100, 1.0 / n, 0).sequence
        onsets = self.assert_matches_scans(seq)
        # the n products from start k on are permutations that cover every entry once
        assert onsets == [k + n - 1 if k + n - 1 <= 100 else None for k in range(1, 101)]

    @staticmethod
    def three_sparse_patterns(n=100, chords=50):
        """Three patterns with n^2 > 64 nnz, so every step skips the levels: a shared
        spanning cycle, whose heads have in-degree 1, plus random chords, whose heads have
        in-degree 2 or more; the second pattern drops every edge into one column, which
        keeps in-degree 0, and the cycle edge it loses leaves its tail for another head.
        Half the seeds draw chords after which no start of the periodic draw fills; this
        one fills from most starts."""
        rng = np.random.default_rng(12)
        order = rng.permutation(n)
        patterns = np.zeros((3, n, n), dtype=bool)
        patterns[:, order, np.roll(order, -1)] = True
        for p in patterns:
            p[rng.integers(0, n, chords), rng.integers(0, n, chords)] = True
        patterns[1, :, order[1]] = False
        patterns[1, order[0], order[3]] = True
        return patterns

    @pytest.mark.parametrize("periodic", [True, False])
    def test_finite_sparse_set_past_n64_matches_scans(self, periodic):
        # each distinct pattern's table is built once and reused at its later steps;
        # the minimum over several in-edges decides onsets
        patterns = self.three_sparse_patterns()
        in_degrees = patterns.sum(axis=1)
        assert all(((in_degrees == 0).any(), (in_degrees == 1).any(), (in_degrees >= 2).any()))
        assert (patterns[0].size > 64 * patterns.sum(axis=(1, 2))).all()
        draws = np.arange(150) % 3 if periodic else np.random.default_rng(42).integers(0, 3, 150)
        onsets = self.assert_matches_scans(self.weighted(patterns[draws], 0.0))
        assert None in onsets and len(set(onsets)) > 10

    def test_edge_cases(self):
        # n = 1 and L = 1; an empty pattern never fills; an empty column stays unreached
        assert positivity_onsets(np.ones((1, 1, 1)), [0]) == [1]
        assert positivity_onsets(np.zeros((1, 1, 1)), [0]) == [None]
        assert positivity_onsets(np.ones((1, 1, 1)), [0, 0, 0]) == [1, 2, 3]
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        to_first = np.array([[1.0, 0.0], [1.0, 0.0]])
        assert positivity_onsets(np.stack([swap, np.eye(2)]), [0, 0, 1]) == [2, None, None]
        assert positivity_onsets(to_first[None], [0] * 4) == [None] * 4

    def test_long_identity_never_fills(self):
        # one scan per start was quadratic in L: 5.4 s at L = 1200
        seq = seq_of(*[identity_matrix(5)] * 2400)
        report = analyze(seq, all_starts=True)
        assert report.eventual_positivity == dict.fromkeys(range(1, 2401))
        assert report.violations == tuple(f"eventual-positivity:start={k}" for k in range(1, 2401))


class TestExactPositivity:
    """Positivity is answered on patterns, never lost to float underflow."""

    def test_underflowing_products_still_fill(self):
        # A(2)A(1) has weight 1e-400 on C^2, which underflows to 0.0 in floats
        seq = seq_of(*[lazy_cycle(3, 1e-200)] * 4)
        assert (seq.factor(2) @ seq.factor(1) == 0).any()
        assert check_eventual_positivity(seq, 1) == 2
        report = analyze(seq)
        assert report.eventual_positivity == {1: 2}
        assert report.holds

    @given(st.integers(8, 11), st.integers(1, 6), st.integers(0, 2**32 - 1))
    def test_entries_near_1e_200_match_boolean_products(self, n, length, seed):
        rng = np.random.default_rng(seed)
        seq = seq_of(*(tiny_entries(rng, n) for _ in range(length)))
        graphs = [digraph_of(m) for m in seq]
        onsets = {k: onset_by_oracle(graphs, k) for k in range(1, length + 1)}
        assert {k: check_eventual_positivity(seq, k) for k in onsets} == onsets
        assert analyze(seq, all_starts=True).eventual_positivity == onsets


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
            seq = seq_of(*(random_stochastic(rng, n, density=float(rng.uniform(0.3, 0.9)))
                           for _ in range(int(rng.integers(1, 6)))))
            report = analyze(seq)
            expected = (
                report.alpha > 0
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
            seq = seq_of(*mats)
            relabeled = seq_of(*(relabel_entries(m, perm) for m in mats))
            a, b = analyze(seq), analyze(relabeled)
            assert a.verdict == b.verdict
            assert a.alpha == pytest.approx(b.alpha, abs=1e-15)
            assert a.reducibility_failures == b.reducibility_failures
            assert (a.core is None) == (b.core is None)
            if a.core is not None:
                assert np.array_equal(relabel_entries(a.core, perm), b.core)
            assert a.eventual_positivity == b.eventual_positivity


class TestClassicalConditions:
    """The paper's theorem generalizes classical consensus conditions: each, as an
    oracle predicate on the factor patterns, implies what analyze and
    positivity_onsets report."""

    @staticmethod
    def cut_balanced(rng, n, symmetric):
        """Self-loops plus, on each block of a random partition, a cycle through the block
        and random edges inside it; or, symmetric, random edges and their reverses."""
        if symmetric:
            pattern = rng.random((n, n)) < rng.uniform(0.0, 0.6)
            return pattern | pattern.T | np.eye(n, dtype=bool)
        labels = rng.integers(0, rng.integers(1, n + 1), size=n)
        pattern = (rng.random((n, n)) < rng.uniform(0.0, 0.6)) & (labels[:, None] == labels[None, :])
        pattern |= np.eye(n, dtype=bool)
        for label in np.unique(labels):
            block = rng.permutation(np.flatnonzero(labels == label))
            pattern[block, np.roll(block, -1)] = True
        return pattern

    @staticmethod
    def b_connected(rng, n, window, length):
        """Self-loops, a random spanning cycle whose edges each recur every `window`
        factors from a random phase, and a few random edges: every run of `window`
        consecutive factors holds the whole cycle."""
        order = rng.permutation(n)
        phases = rng.integers(0, window, size=n)
        stack = rng.random((length, n, n)) < rng.choice([0.0, 0.0, 0.05, 0.2])
        stack[:, np.arange(n), np.arange(n)] = True
        for t in range(length):
            on = phases == t % window
            stack[t, order[on], np.roll(order, -1)[on]] = True
        return stack

    def test_cut_balanced_positive_diagonal_is_completely_reducible_with_a_core(self):
        # cut balance makes each factor the disjoint union of its strongly connected
        # components, so it is completely reducible, and the self-loops give the core;
        # symmetric patterns (Moreau 2005) are the special case
        rng = np.random.default_rng(150)
        for trial in range(400):
            n, length = int(rng.integers(1, 9)), int(rng.integers(1, 40))
            stack = np.stack([self.cut_balanced(rng, n, trial % 2 == 1) for _ in range(length)])
            assert all(is_cut_balanced(p) for p in stack)
            report = analyze(TestPositivityOnsets.weighted(stack, 0.0))
            assert report.reducibility_failures == ()
            assert report.core is not None
            assert report.core_offenders == ()
            assert not [v for v in report.violations if not v.startswith("eventual-positivity")]

    def test_b_connected_positive_diagonal_bounds_every_onset(self):
        # a run of `window` factors with self-loops contains its union, so each run
        # adds a node to every column's in-set, and n - 1 runs fill the product:
        # onset(k) <= k + (n - 1) window - 1 wherever the horizon holds that many runs
        rng = np.random.default_rng(151)
        pairs = tight = 0
        for _ in range(150):
            n, window = int(rng.integers(2, 7)), int(rng.integers(1, 4))
            length = int(rng.integers(1, 3 * n * window))
            stack = self.b_connected(rng, n, window, length)
            assert is_b_connected([Digraph.from_adjacency(p) for p in stack], window)
            onsets = positivity_onsets(stack, np.arange(length))
            report = analyze(TestPositivityOnsets.weighted(stack, 0.0), all_starts=True)
            assert report.eventual_positivity == dict(enumerate(onsets, start=1))
            for k in range(1, length - (n - 1) * window + 2):
                bound = k + (n - 1) * window - 1
                assert onsets[k - 1] is not None and onsets[k - 1] <= bound, (k, bound, onsets)
                pairs += 1
                tight += onsets[k - 1] == bound
        # the bound is met exactly often enough that an onset one step late shows
        assert pairs >= 1000 and tight >= 100, (pairs, tight)

    def test_wolfowitz_sets_hold_at_some_block_length(self):
        # Wolfowitz (1963): products of a finite set of SIA (here primitive) factors
        # converge, yet single factors share no aperiodic core. The block products
        # B(j) = A(jb)...A((j-1)b+1) meet every condition at some b <= W(n); they are
        # sound to analyze, as P(k) = R.P(jb) with R stochastic
        failing_at_one = 0
        for n in range(3, 7):
            for seed in range(4):
                stack = stack_of(generate_sequence("wolfowitz-set", n, 300, 0.1 if n <= 4 else 0.05, seed).sequence)
                for b in range(1, wielandt_bound(n) + 1):
                    windows = stack[: len(stack) // b * b].reshape(-1, b, n, n)
                    blocks = np.stack([np.linalg.multi_dot([*window[::-1], np.eye(n)]) for window in windows])
                    for block, window in zip(blocks, windows):
                        graphs = [Digraph.from_adjacency(pattern) for pattern in window > 0]
                        assert np.array_equal(block > 0, boolean_product_pattern(graphs))
                    report = analyze(sequence_of_stack(blocks))
                    if b == 1 and "aperiodic-core" in report.violations:
                        failing_at_one += 1
                    if report.holds:
                        break
                else:
                    pytest.fail(f"wolfowitz-set n={n} seed={seed} holds at no b <= {wielandt_bound(n)}")
        assert failing_at_one == 15
