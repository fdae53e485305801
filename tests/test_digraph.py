import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ergocert import digraph
from ergocert.digraph import (
    Digraph,
    completely_reducible,
    component_periods,
    intersection,
    is_aperiodic,
    pattern_product,
    pattern_walk,
    reachability,
    render,
    strongly_connected_components,
    wielandt_bound,
    wielandt_graph,
)
from ergocert.errors import ContractViolation, DimensionError

from oracles import (
    boolean_product_pattern,
    complete_digraph,
    completely_reducible_by_bfs,
    component_period_by_cycles,
    components_by_bfs,
    exact_exponent,
    is_subgraph,
    reachable_by_bfs,
    relabel_digraph,
    simple_cycle_lengths,
    sinks,
    time_varying_walk_exists,
)


def cycle(n):
    return Digraph(n, {(i, i % n + 1) for i in range(1, n + 1)})


def random_digraph(rng, n, density=0.4):
    return Digraph(n, ((i + 1, j + 1) for i, j in zip(*np.nonzero(rng.random((n, n)) < density))))


def components_and_periods(g):
    """component_periods of g's pattern as node sets, numbered by their smallest node, and periods."""
    labels, periods = component_periods(g.adjacency_matrix())
    components = tuple(frozenset((np.flatnonzero(labels == c) + 1).tolist()) for c in range(periods.size))
    return components, periods.tolist()


def scc_period(g, component):
    """The period component_periods gives one strongly connected component."""
    components, periods = components_and_periods(g)
    return periods[components.index(frozenset(component))]


def pattern_stacks(max_n=9, max_length=5):
    """(L, n, n) boolean stacks of random patterns, sparse to dense."""
    return st.integers(1, max_n).flatmap(
        lambda n: st.lists(
            st.lists(st.booleans(), min_size=n * n, max_size=n * n), min_size=1, max_size=max_length
        ).map(lambda flat: np.array(flat, dtype=bool).reshape(len(flat), n, n))
    )


class TestDigraph:
    def test_rejects_bad_nodes(self):
        with pytest.raises(DimensionError):
            Digraph(2, {(1, 3)})
        with pytest.raises(DimensionError):
            Digraph(0)

    def test_equality_is_edge_set_equality(self):
        a = Digraph(3, {(1, 2), (2, 1)})
        b = Digraph(3, [(2, 1), (1, 2), (1, 2)])
        assert a == b
        assert a != Digraph(3, {(1, 2)})

    def test_render_sorted(self):
        g = Digraph(3, {(2, 1), (1, 3)})
        assert render(g.adjacency_matrix()) == "(1,3) (2,1)"
        assert render(Digraph(2).adjacency_matrix()) == "-"
        assert render(np.eye(2, dtype=int)) == "(1,1) (2,2)"  # any 0/1 array
        # row-major order is numeric order: (9,9) comes before (10,10)
        assert render(np.eye(10, dtype=bool)).endswith("(9,9) (10,10)")

    @settings(deadline=None)
    @given(pattern_stacks(max_n=12, max_length=1), st.booleans())
    def test_render_matches_the_sorted_edge_set(self, stack, empty):
        pattern = np.zeros_like(stack[0]) if empty else stack[0]
        edges = Digraph.from_adjacency(pattern).edges
        assert render(pattern) == (" ".join(f"({i},{j})" for i, j in sorted(edges)) if edges else "-")

    def test_from_adjacency(self):
        g = Digraph.from_adjacency(np.array([[0, 1], [1, 1]]))
        assert g.edges == {(1, 2), (2, 1), (2, 2)}
        with pytest.raises(DimensionError):
            Digraph.from_adjacency(np.zeros((2, 3)))


class TestCompleteDigraph:
    @pytest.mark.parametrize("n,count", [(1, 1), (2, 4), (5, 25)])
    def test_edge_counts(self, n, count):
        g = complete_digraph(n)
        assert len(g.edges) == count
        assert (1, 1) in g.edges

    def test_zero_rejected(self):
        with pytest.raises(DimensionError):
            complete_digraph(0)


class TestScc:
    def test_single_cycle(self):
        assert components_and_periods(cycle(3))[0] == (frozenset({1, 2, 3}),)
        assert not strongly_connected_components(cycle(3)).condensation_edges

    def test_chain(self):
        g = Digraph(2, {(1, 2)})
        assert set(components_and_periods(g)[0]) == {frozenset({1}), frozenset({2})}
        c1, c2 = component_periods(g.adjacency_matrix())[0].tolist()
        assert strongly_connected_components(g).condensation_edges == {(c1, c2)}

    def test_two_disjoint_cycles(self):
        g = Digraph(4, {(1, 2), (2, 1), (3, 4), (4, 3)})
        assert set(components_and_periods(g)[0]) == {frozenset({1, 2}), frozenset({3, 4})}
        assert not strongly_connected_components(g).condensation_edges

    def test_partition_covers_all_nodes(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            g = random_digraph(rng, int(rng.integers(1, 7)))
            components, _ = components_and_periods(g)
            nodes = sorted(u for comp in components for u in comp)
            assert nodes == list(range(1, g.n + 1))
            # the condensation numbers components as component_periods does
            labels = component_periods(g.adjacency_matrix())[0].tolist()
            assert all(labels[u - 1] == i for i, c in enumerate(components) for u in c)
            crossing = {(labels[i - 1], labels[j - 1]) for i, j in g.edges}
            assert strongly_connected_components(g).condensation_edges == {(a, b) for a, b in crossing if a != b}

    def test_condensation_is_acyclic(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            g = random_digraph(rng, int(rng.integers(2, 7)))
            part = strongly_connected_components(g)
            # topological sort by repeated source removal; failure means a cycle
            remaining = set(range(len(components_and_periods(g)[0])))
            edges = set(part.condensation_edges)
            while remaining:
                sources = [c for c in remaining if not any(e[1] == c for e in edges)]
                assert sources, "condensation has a cycle"
                for s in sources:
                    remaining.discard(s)
                    edges = {e for e in edges if e[0] != s}


class TestPeriods:
    def test_three_cycle(self):
        assert scc_period(cycle(3), {1, 2, 3}) == 3

    def test_cycle_with_self_loop(self):
        g = Digraph(3, set(cycle(3).edges) | {(1, 1)})
        assert scc_period(g, {1, 2, 3}) == 1

    def test_single_node_no_loop_sentinel(self):
        g = Digraph(2, {(1, 2)})
        assert scc_period(g, {1}) == 0

    def test_not_an_scc_rejected(self):
        assert frozenset({1, 2}) not in components_and_periods(cycle(3))[0]
        assert frozenset({1, 2}) not in is_aperiodic(cycle(3)).components

    def test_period_matches_cycle_enumeration(self):
        rng = np.random.default_rng(2)
        for _ in range(80):
            g = random_digraph(rng, int(rng.integers(1, 7)))
            for comp in components_and_periods(g)[0]:
                assert scc_period(g, comp) == component_period_by_cycles(g, comp)

    def test_period_divides_every_simple_cycle(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            g = random_digraph(rng, int(rng.integers(2, 7)), density=0.5)
            for comp in components_and_periods(g)[0]:
                period = scc_period(g, comp)
                sub = Digraph(g.n, ((u, v) for (u, v) in g.edges if u in comp and v in comp))
                lengths = simple_cycle_lengths(sub)
                if lengths:
                    assert period >= 1
                    assert all(length % period == 0 for length in lengths)


class TestAperiodicity:
    def test_all_self_loops(self):
        assert is_aperiodic(Digraph(3, {(i, i) for i in (1, 2, 3)})).aperiodic

    def test_two_cycle(self):
        assert not is_aperiodic(cycle(2)).aperiodic
        assert components_and_periods(cycle(2))[1] == [2]

    def test_four_cycle_with_chord(self):
        # cycles of lengths 4 and 3; verified against the cycle enumeration oracle
        g = Digraph(4, set(cycle(4).edges) | {(4, 2)})
        assert simple_cycle_lengths(g) == {3, 4}
        assert math.gcd(3, 4) == 1
        assert is_aperiodic(g).aperiodic

    def test_cycle_free_component_disqualifies(self):
        g = Digraph(2, {(1, 2), (2, 2)})
        assert not is_aperiodic(g).aperiodic


class TestSinks:
    def test_examples(self):
        assert sinks(Digraph(2, {(1, 2)})) == {2}
        assert sinks(cycle(3)) == frozenset()
        assert sinks(Digraph(2)) == {1, 2}


class TestSubgraphAndIntersection:
    def test_reflexive(self):
        g = cycle(3)
        assert is_subgraph(g, g)

    def test_empty_subgraph(self):
        assert is_subgraph(Digraph(3), cycle(3))

    def test_missing_edge(self):
        assert not is_subgraph(cycle(2), Digraph(2, {(1, 2)}))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            is_subgraph(Digraph(2), Digraph(3))

    def test_intersection_idempotent(self):
        g = cycle(4)
        assert intersection([g, g]) == g

    def test_intersection_pair(self):
        assert intersection([cycle(2), Digraph(2, {(1, 2)})]) == Digraph(2, {(1, 2)})

    def test_intersection_three_graphs(self):
        full = {(1, 1), (1, 2), (2, 1), (2, 2)}
        graphs = [Digraph(2, full - {missing}) for missing in [(1, 1), (1, 2), (2, 1)]]
        assert intersection(graphs) == Digraph(2, {(2, 2)})

    def test_intersection_errors(self):
        with pytest.raises(ContractViolation):
            intersection([])
        with pytest.raises(DimensionError):
            intersection([Digraph(2), Digraph(3)])

    def test_intersection_is_common_subgraph(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            graphs = [random_digraph(rng, 4) for _ in range(int(rng.integers(1, 5)))]
            common = intersection(graphs)
            assert all(is_subgraph(common, g) for g in graphs)


class TestPatternProduct:
    @settings(deadline=None)
    @given(
        st.integers(1, 70),
        st.integers(1, 3),
        st.sampled_from([0.0, 0.05, 0.5, 1.0]),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_the_integer_product(self, n, length, density, seed):
        rng = np.random.default_rng(seed)
        a = rng.random((length, n, n)) < density
        b = rng.random((length, n, n)) < density
        # a full first row of a and first column of b: the count of entry (1, 1) reaches n
        a[:, 0, :] = True
        b[:, :, 0] = True
        product = pattern_product(a, b)
        assert product.dtype == bool
        for k in range(length):
            graphs = [Digraph.from_adjacency(b[k]), Digraph.from_adjacency(a[k])]  # later on the left
            assert np.array_equal(product[k], boolean_product_pattern(graphs))
            assert np.array_equal(pattern_product(a[k], b[k]), product[k])
        assert np.array_equal(pattern_product(a.astype(np.float32), b), product)


class TestPatternWalk:
    @settings(deadline=None)
    @given(
        st.integers(1, 10).flatmap(
            lambda n: st.integers(1, 8).flatmap(
                lambda length: st.lists(st.booleans(), min_size=length * n * n, max_size=length * n * n).map(
                    lambda bits: np.array(bits, dtype=bool).reshape(length, n, n)
                )
            )
        ),
        st.data(),
    )
    def test_matches_the_backward_product_oracle(self, stack, data):
        # a word over the stack's patterns, with repeats and skipped patterns
        word = data.draw(st.lists(st.integers(0, len(stack) - 1), min_size=1, max_size=12))
        walked = list(pattern_walk(stack, word))
        assert len(walked) == len(word)
        for k, pattern in enumerate(walked, start=1):
            assert pattern.dtype == bool
            graphs = [Digraph.from_adjacency(stack[w]) for w in word[:k]]
            assert np.array_equal(pattern, boolean_product_pattern(graphs))
        # any 0/1 stack: the same walk from integers
        assert all(np.array_equal(a, b) for a, b in zip(pattern_walk(stack.astype(int), word), walked))


class TestCompleteReducibility:
    def test_disjoint_cycles(self):
        assert completely_reducible(Digraph(4, {(1, 2), (2, 1), (3, 4), (4, 3)}).adjacency_matrix()[None])[0]

    def test_cross_component_edge(self):
        assert not completely_reducible(Digraph(2, {(2, 1), (1, 1), (2, 2)}).adjacency_matrix()[None])[0]

    def test_strongly_connected(self):
        assert completely_reducible(cycle(5).adjacency_matrix()[None])[0]

    def test_stack_gives_one_flag_per_pattern(self):
        stack = np.array([cycle(3).adjacency_matrix(), Digraph(3, {(1, 2)}).adjacency_matrix()])
        assert completely_reducible(stack).tolist() == [True, False]


class TestAgainstBfsOracle:
    """The closure-based answers against mutual reachability by one BFS per node."""

    @given(pattern_stacks())
    def test_stacked_reducibility_flags(self, stack):
        graphs = [Digraph.from_adjacency(p) for p in stack]
        assert completely_reducible(stack).tolist() == [completely_reducible_by_bfs(g) for g in graphs]

    @given(pattern_stacks(max_n=10, max_length=1))
    def test_components(self, stack):
        g = Digraph.from_adjacency(stack[0])
        components, _ = components_and_periods(g)
        assert set(components) == components_by_bfs(g)
        assert len(components) == len(set(components))
        assert is_aperiodic(g).components == components
        labels = component_periods(stack[0])[0].tolist()
        crossing = {(labels[i - 1], labels[j - 1]) for i, j in g.edges}
        assert strongly_connected_components(g).condensation_edges == {(a, b) for a, b in crossing if a != b}

    @given(pattern_stacks(max_n=8, max_length=1))
    # node 1 is a cycle-free singleton (period 0), node 2 carries a self-loop
    @example(np.array([[[False, True], [False, True]]]))
    # a 2-cycle {1, 3} and a 3-cycle with a self-loop {2, 4, 5} below it
    @example(np.array([[[0, 0, 1, 0, 0], [0, 0, 0, 1, 0], [1, 1, 0, 0, 0], [0, 0, 0, 0, 1], [0, 1, 0, 0, 1]]]) == 1)
    def test_component_periods(self, stack):
        g = Digraph.from_adjacency(stack[0])
        labels, periods = component_periods(stack[0])
        components = [frozenset((np.flatnonzero(labels == c) + 1).tolist()) for c in range(periods.size)]
        assert set(components) == components_by_bfs(g)
        assert [min(c) for c in components] == sorted(min(c) for c in components)
        assert periods.tolist() == [component_period_by_cycles(g, c) for c in components]

    def test_cycle_with_one_chord(self):
        # the chord (a, b) closes a cycle of length 1 + (a - b) mod n with the
        # n-cycle's path from b to a, so the period is gcd(n, 1 + (a - b) mod n)
        rng = np.random.default_rng(9)
        for n in range(1, 41):
            for a, b in rng.integers(1, n + 1, size=(8, 2)).tolist():
                g = Digraph(n, set(cycle(n).edges) | {(a, b)})
                labels, periods = component_periods(g.adjacency_matrix())
                assert labels.tolist() == [0] * n
                assert periods.tolist() == [math.gcd(n, 1 + (a - b) % n)]

    def test_sparse_and_long_paths(self):
        # long chains and cycles need the most squarings; n reaches 40
        rng = np.random.default_rng(8)
        for _ in range(150):
            n = int(rng.integers(1, 41))
            g = random_digraph(rng, n, density=float(rng.uniform(0.0, 3.0 / n)))
            closure = reachability(g.adjacency_matrix())
            for u in range(1, n + 1):
                assert set((np.flatnonzero(closure[u - 1]) + 1).tolist()) == reachable_by_bfs(g, u)
            assert set(components_and_periods(g)[0]) == components_by_bfs(g)
            assert bool(completely_reducible(g.adjacency_matrix()[None])[0]) == completely_reducible_by_bfs(g)

    def test_full_closures_take_no_confirming_product(self):
        # a hub joined both ways to every node gives diameter 2: one squaring fills every
        # closure, and a full closure cannot grow, so no second product confirms it
        rng = np.random.default_rng(10)
        for n in range(3, 13):
            hub = np.zeros((n, n), dtype=bool)
            hub[0, :] = hub[:, 0] = True
            stack = np.array([hub | (rng.random((n, n)) < density) for density in (0.0, 0.1, 0.4)])
            with mock.patch.object(digraph, "pattern_product", side_effect=pattern_product) as multiplied:
                closure = reachability(stack)
            assert multiplied.call_count == 1
            for pattern, closed in zip(stack, closure):
                g = Digraph.from_adjacency(pattern)
                for u in range(1, n + 1):
                    assert set((np.flatnonzero(closed[u - 1]) + 1).tolist()) == reachable_by_bfs(g, u)


class TestWielandt:
    @pytest.mark.parametrize("n,expected", [(1, 1), (2, 2), (5, 17)])
    def test_bound_values(self, n, expected):
        assert wielandt_bound(n) == expected

    def test_bound_rejects_zero(self):
        with pytest.raises(DimensionError):
            wielandt_bound(0)

    def test_graph_cycle_lengths(self):
        for n in (2, 3, 4, 5):
            assert simple_cycle_lengths(Digraph.from_adjacency(wielandt_graph(n))) == {n, n - 1} - {0}

    def test_graph_pattern(self):
        assert wielandt_graph(1).tolist() == [[True]]
        assert wielandt_graph(2).dtype == bool
        assert render(wielandt_graph(2)) == "(1,2) (2,1) (2,2)"
        assert render(wielandt_graph(4)) == "(1,2) (2,3) (3,4) (4,1) (4,2)"
        with pytest.raises(DimensionError):
            wielandt_graph(0)

    def test_exponent_complete_graph(self):
        assert exact_exponent(complete_digraph(3)) == 1

    def test_exponent_periodic_absent(self):
        assert exact_exponent(cycle(2)) is None

    def test_exponent_requires_strong_connectivity(self):
        with pytest.raises(ContractViolation):
            exact_exponent(Digraph(2, {(1, 2)}))

    def test_wielandt_graph_attains_bound(self):
        # independent oracle: integer adjacency powers around the bound
        g = Digraph.from_adjacency(wielandt_graph(4))
        adj = wielandt_graph(4).astype(np.int64)
        powers = {k: np.linalg.matrix_power(adj, k) for k in (9, 10, 11, 12)}
        assert (powers[9] == 0).any()
        assert all((powers[k] > 0).all() for k in (10, 11, 12))
        assert exact_exponent(g) == 10 == wielandt_bound(4)

    def test_exponent_bounded_for_random_primitive_graphs(self):
        rng = np.random.default_rng(5)
        found = 0
        while found < 40:
            g = random_digraph(rng, int(rng.integers(2, 6)), density=0.45)
            if len(components_and_periods(g)[0]) != 1 or not is_aperiodic(g).aperiodic:
                continue
            found += 1
            e = exact_exponent(g)
            assert e is not None and 1 <= e <= wielandt_bound(g.n)


class TestTimeVaryingWalk:
    def test_empty_list(self):
        assert time_varying_walk_exists([], 2, 2)
        assert not time_varying_walk_exists([], 1, 2)

    def test_single_edge(self):
        assert time_varying_walk_exists([Digraph(2, {(1, 2)})], 1, 2)
        assert not time_varying_walk_exists([Digraph(2, {(1, 2)})], 2, 1)

    def test_node_out_of_range(self):
        with pytest.raises(DimensionError):
            time_varying_walk_exists([Digraph(2, {(1, 2)})], 1, 3)
        with pytest.raises(DimensionError):
            time_varying_walk_exists([], 0, 0)

    def test_consumes_graphs_backwards(self):
        # walk must use the second graph's edge first
        graphs = [Digraph(3, {(2, 3)}), Digraph(3, {(1, 2)})]
        assert time_varying_walk_exists(graphs, 1, 3)
        assert not time_varying_walk_exists(list(reversed(graphs)), 1, 3)

    def test_matches_boolean_product(self):
        rng = np.random.default_rng(6)
        for _ in range(40):
            n = int(rng.integers(2, 6))
            graphs = [random_digraph(rng, n, density=0.5) for _ in range(int(rng.integers(1, 7)))]
            pattern = boolean_product_pattern(graphs)
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    assert time_varying_walk_exists(graphs, i, j) == bool(pattern[i - 1, j - 1])


class TestPermutationInvariance:
    def test_relabeling_commutes(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            n = int(rng.integers(2, 7))
            g = random_digraph(rng, n, density=0.4)
            perm = {i + 1: int(p) + 1 for i, p in enumerate(rng.permutation(n))}
            h = relabel_digraph(g, perm)

            comps_g = {frozenset(perm[u] for u in c) for c in components_and_periods(g)[0]}
            comps_h = set(components_and_periods(h)[0])
            assert comps_g == comps_h

            assert sinks(h) == frozenset(perm[u] for u in sinks(g))
            assert is_aperiodic(g).aperiodic == is_aperiodic(h).aperiodic
            assert (
                completely_reducible(g.adjacency_matrix()[None])[0] == completely_reducible(h.adjacency_matrix()[None])[0]
            )
            for comp in components_and_periods(g)[0]:
                assert scc_period(g, comp) == scc_period(h, frozenset(perm[u] for u in comp))
