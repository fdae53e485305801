import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ergocert.digraph import Digraph, render, wielandt_bound, wielandt_graph
from ergocert.errors import ContractViolation
from ergocert.generate import PRESETS, _is_primitive_pattern, generate_sequence
from ergocert.hypotheses import analyze
from ergocert.seqfile import format_sequence, parse_sequence_text
from ergocert.stochastic import digraph_of, min_positive_entry

from oracles import child_env, components_by_bfs, exact_exponent, is_subgraph, report_text


def cycle_pattern(n):
    return np.roll(np.eye(n, dtype=bool), 1, axis=1)


@st.composite
def sink_free_patterns(draw, max_n=6):
    """Random (n, n) boolean patterns; a row without an edge gets one at a drawn column."""
    n = draw(st.integers(1, max_n))
    pattern = np.array(draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n)), dtype=bool).reshape(n, n)
    fallback = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    for i in np.flatnonzero(~pattern.any(axis=1)):
        pattern[i, fallback[i]] = True
    return pattern


def primitive_by_oracles(pattern) -> bool:
    """One component, and some power up to the Wielandt bound is full."""
    g = Digraph.from_adjacency(pattern)
    return len(components_by_bfs(g)) == 1 and exact_exponent(g) is not None


class TestPrimitivePattern:
    @given(sink_free_patterns())
    def test_matches_oracles(self, pattern):
        assert _is_primitive_pattern(pattern) == primitive_by_oracles(pattern)

    @pytest.mark.parametrize("n", [2, 3, 6, 9])
    def test_cycle_is_periodic(self, n):
        assert not _is_primitive_pattern(cycle_pattern(n))
        assert not primitive_by_oracles(cycle_pattern(n))

    @pytest.mark.parametrize("n", [2, 3, 6, 9])
    def test_cycle_with_a_chord_is_primitive(self, n):
        pattern = wielandt_graph(n)  # the n-cycle plus the chord (n, 2)
        assert _is_primitive_pattern(pattern)
        assert primitive_by_oracles(pattern)

    def test_two_disjoint_cycles_with_self_loops_are_reducible(self):
        pattern = np.zeros((5, 5), dtype=bool)
        pattern[:2, :2] = cycle_pattern(2) | np.eye(2, dtype=bool)
        pattern[2:, 2:] = cycle_pattern(3) | np.eye(3, dtype=bool)
        assert not _is_primitive_pattern(pattern)
        assert not primitive_by_oracles(pattern)

    def test_single_node(self):
        assert _is_primitive_pattern(np.ones((1, 1), dtype=bool))
        assert not _is_primitive_pattern(np.zeros((1, 1), dtype=bool))


class TestParameterValidation:
    def test_unknown_preset(self):
        with pytest.raises(ContractViolation):
            generate_sequence("nope", 3, 5, 0.1, 0)

    @pytest.mark.parametrize("n,length,alpha", [(1, 5, 0.1), (3, 0, 0.1), (3, 5, 0.0), (3, 5, 0.5)])
    def test_bad_ranges(self, n, length, alpha):
        with pytest.raises(ContractViolation):
            generate_sequence("positive-diagonal", n, length, alpha, 0)


class TestDeterminism:
    @pytest.mark.parametrize("preset", PRESETS)
    def test_same_seed_same_bytes(self, preset):
        a = generate_sequence(preset, 4, 12, 0.1, 123)
        b = generate_sequence(preset, 4, 12, 0.1, 123)
        assert format_sequence(a.matrices, a.metadata) == format_sequence(b.matrices, b.metadata)

    def test_different_seed_differs(self):
        a = generate_sequence("positive-diagonal", 4, 12, 0.1, 1)
        b = generate_sequence("positive-diagonal", 4, 12, 0.1, 2)
        assert format_sequence(a.matrices, a.metadata) != format_sequence(b.matrices, b.metadata)

    @pytest.mark.parametrize("preset", PRESETS)
    def test_round_trip_through_file_format(self, preset):
        seqf = generate_sequence(preset, 3, 8, 0.2, 9)
        back = parse_sequence_text(format_sequence(seqf.matrices, seqf.metadata))
        assert back.n == 3
        assert back.length == 8
        for original, reread in zip(seqf.matrices, back.matrices):
            assert np.allclose(original, reread, rtol=0, atol=1e-15)


class TestPositiveDiagonal:
    def test_regime_guarantees(self):
        for seed in range(4):
            seqf = generate_sequence("positive-diagonal", 4, 12, 0.1, seed)
            seq = seqf.to_sequence()
            assert min_positive_entry(seq.items) >= 0.1
            for m in seq:
                assert (np.diag(m) > 0).all()
            report = analyze(seq)
            assert report.reducibility_failures == ()
            assert report.holds


class TestCycleCore:
    def test_every_factor_contains_the_core(self):
        core = Digraph.from_adjacency(wielandt_graph(4))
        for seed in range(4):
            seqf = generate_sequence("cycle-core", 4, 3 * wielandt_bound(4), 0.1, seed)
            seq = seqf.to_sequence()
            assert seqf.metadata["core-edges"] == render(wielandt_graph(4)) == "(1,2) (2,3) (3,4) (4,1) (4,2)"
            for m in seq:
                assert is_subgraph(core, digraph_of(m))
            assert min_positive_entry(seq.items) >= 0.1
            assert analyze(seq).holds


class TestWolfowitzSet:
    def test_set_is_finite_and_verified(self):
        seqf = generate_sequence("wolfowitz-set", 3, 60, 0.1, 5)
        seq = seqf.to_sequence()
        assert seqf.metadata["checked-depth"] == str(wielandt_bound(3) + 1)
        distinct = {m.tobytes() for m in seq}
        assert len(distinct) <= int(seqf.metadata["set-size"])
        for m in seq:
            g = digraph_of(m)
            assert exact_exponent(g) is not None  # each generator is primitive
        assert min_positive_entry(seq.items) >= 0.1


    @pytest.mark.parametrize("length", [1, 2, 3])
    def test_a_short_word_analyzes_as_its_file(self, length):
        # at seed 1, n = 5 each of these words draws one generator of the three: a sequence
        # that kept the generators its word skips found no core over them, and offenders 1-5
        seqf = generate_sequence("wolfowitz-set", 5, length, None, 1)
        back = parse_sequence_text(format_sequence(seqf.matrices, seqf.metadata))
        assert seqf.metadata["set-size"] == "3"
        assert len(seqf.sequence.factors) == len(back.sequence.factors) == 1
        for all_starts in (False, True):
            report = analyze(seqf.sequence, all_starts)
            assert report_text(report) == report_text(analyze(back.sequence, all_starts))
            assert report.core is not None


class TestPeriodicCounterexample:
    def test_n2_is_alternating_swaps(self):
        seqf = generate_sequence("periodic-counterexample", 2, 6, 0.5, 0)
        for m in seqf.matrices:
            assert np.array_equal(m, [[0.0, 1.0], [1.0, 0.0]])

    def test_rejected_for_missing_core(self):
        for n in (2, 3, 4, 6):
            seqf = generate_sequence("periodic-counterexample", n, 8, 1.0 / n, 0)
            report = analyze(seqf.to_sequence())
            assert "aperiodic-core" in report.violations

    def test_factors_are_permutation_matrices(self):
        seqf = generate_sequence("periodic-counterexample", 4, 8, 0.25, 0)
        for m in seqf.matrices:
            assert ((m == 0) | (m == 1)).all()
            assert (m.sum(axis=0) == 1).all()
            assert (m.sum(axis=1) == 1).all()

    def test_draws_no_random_numbers(self):
        # the preset ignores the seed, so it never imports numpy.random (10-13 ms), unless
        # numpy itself does on import, as older numpy releases do; a fresh interpreter shows it
        code = (
            "import sys\n"
            "from ergocert.generate import generate_sequence\n"
            "eager = 'numpy.random' in sys.modules\n"
            "generate_sequence('periodic-counterexample', 6, 8, 0.1, 0)\n"
            "print(eager, 'numpy.random' in sys.modules)\n"
        )
        result = subprocess.run([sys.executable, "-c", code], env=child_env(), capture_output=True, text=True, check=True)
        eager, loaded = result.stdout.split()
        assert loaded == eager
