import math
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergocert import stochastic
from ergocert.convergence import iter_products, partial_product
from ergocert.digraph import Digraph
from ergocert.errors import DimensionError, NegativityError, StochasticityError
from ergocert.generate import generate_sequence
from ergocert.hypotheses import analyze
from ergocert.stochastic import (
    NEGATIVITY_TOL,
    MatrixSequence,
    digraph_of,
    factor_patterns,
    identity_matrix,
    matrix_seminorm,
    min_positive_entry,
    multiply,
    vector_seminorm,
)

from oracles import (
    normalized_records,
    random_stochastic,
    seminorm_bruteforce,
    seminorm_by_shift_search,
    seminorm_one_shot,
    stack_of,
    validated,
)

SWAP = [[0.0, 1.0], [1.0, 0.0]]


@st.composite
def raw_stacks(draw):
    """(L, n, n) nested lists the constructor accepts: rows of weights divided by their sum,
    with signed zeros and subnormals, and one entry of each row moved off by up to half the
    row-sum tolerance or, if it is zero, to just below zero."""
    n = draw(st.integers(1, 5))
    weight = st.one_of(st.sampled_from([0.0, -0.0, 5e-324]), st.floats(1e-300, 1.0))
    records = []
    for _ in range(draw(st.integers(1, 4))):
        record = []
        for _ in range(n):
            row = draw(st.lists(weight, min_size=n, max_size=n))
            total = sum(row)
            row = [w / total for w in row] if total > 0 else [1.0, *row[1:]]
            j = draw(st.integers(0, n - 1))
            if row[j] > 1e-9:
                row[j] += draw(st.sampled_from([5e-10, -5e-10]))
            elif row[j] == 0.0:
                row[j] = -1e-13
            record.append(row)
        records.append(record)
    return records


class TestValidation:
    """MatrixSequence, the one validating constructor: normalize_rows on each record, and an
    error that names the record, as the parser's do."""

    def test_identity_accepted_unchanged(self):
        assert np.array_equal(MatrixSequence([np.eye(2)]).factor(1), np.eye(2))

    def test_row_sum_violation(self):
        with pytest.raises(StochasticityError, match="record 1: row 1"):
            MatrixSequence([[[0.5, 0.6], [0.5, 0.5]]])

    def test_clamping_small_negatives(self):
        for small in (-1e-13, -NEGATIVITY_TOL):
            m = MatrixSequence([[[1.0, small], [0.0, 1.0]]]).factor(1)
            assert np.array_equal(m, np.eye(2))

    def test_large_negative_rejected(self):
        with pytest.raises(NegativityError, match=r"record 1: entry \(1,2\) = -1e-11 is below the negativity tolerance -1e-12"):
            MatrixSequence([[[1.0 + 1e-11, -1e-11], [0.0, 1.0]]])

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            MatrixSequence([[[1.0, 0.0]]])
        with pytest.raises(DimensionError):  # n < 1
            MatrixSequence(np.zeros((2, 0, 0)))
        with pytest.raises(DimensionError):  # one matrix, not a list of them
            MatrixSequence(np.eye(2))

    def test_non_finite_rejected(self):
        with pytest.raises(StochasticityError, match="record 1: all entries must be finite"):
            MatrixSequence([[[np.inf, 0.0], [0.0, 1.0]]])

    def test_rows_renormalized_exactly(self):
        m = MatrixSequence([[[0.3 + 3e-10, 0.7], [0.5, 0.5]]]).factor(1)
        assert np.allclose(m.sum(axis=1), 1.0, atol=1e-15)

    def test_fault_in_record_2_is_named(self):
        # the message the parser gives for the same record, and the error type kept
        good = np.eye(2)
        with pytest.raises(StochasticityError) as raised:
            MatrixSequence([good, [[0.3, 0.4], [0.0, 1.0]], good])
        assert str(raised.value) == "record 2: row 1 sums to 0.7, not 1 within 1e-09"
        with pytest.raises(NegativityError, match=r"^record 3: entry \(2,1\) = -0.5 is below"):
            MatrixSequence(np.stack([good, good, [[1.0, 0.0], [-0.5, 1.5]]]))

    @settings(deadline=None)
    @given(raw_stacks(), st.booleans())
    def test_stack_is_normalize_rows_of_each_record(self, raw, as_array):
        # bit for bit what one validating constructor call per matrix gave, for an
        # (L, n, n) array or a list of (n, n) arrays
        factors = np.array(raw) if as_array else [np.array(record) for record in raw]
        seq = MatrixSequence(factors)
        assert seq.word.tolist() == list(range(len(raw)))
        assert stack_of(seq).tobytes() == seq.factors.tobytes() == normalized_records(raw).tobytes()

    def test_input_not_aliased(self):
        # the constructor copies its input, for an (L, n, n) array and a list of (n, n) arrays
        raw = np.eye(2)
        seq = MatrixSequence([raw])
        raw[0, 0] = 7.0
        assert seq.factor(1)[0, 0] == 1.0
        stacked = np.array([[[0.0, 1.0], [1.0, 0.0]]])
        seq = MatrixSequence(stacked)
        stacked[0, 0, 0] = 7.0
        assert seq.factors[0, 0, 0] == 0.0

    def test_entries_read_only(self):
        # the array flag carries the read-only guarantee: every matrix the library returns
        # refuses a write
        seq = MatrixSequence([[[0.0, 1.0], [1.0, 0.0]], [[0.5, 0.5], [0.25, 0.75]]])
        states = list(iter_products(seq))  # A(1) is a map: a row gather; A(2) a BLAS product
        assert states[1].targets is not None and states[2].targets is None
        core = analyze(MatrixSequence([[[0.9, 0.1], [0.1, 0.9]]] * 2)).core
        assert core is not None
        returned = [
            *(state.matrix for state in states), partial_product(seq, 0, 2), multiply(seq.factor(2), seq.factor(1)),
            identity_matrix(2), seq.factors, *seq.items, *seq, seq.factor(1), seq.factor(2), core,
        ]
        for array in returned:
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = 0.5


class TestMultiplyApply:
    def test_identity_law(self):
        a = validated([[0.25, 0.75], [0.5, 0.5]])
        assert np.allclose(multiply(a, identity_matrix(2)), a)

    def test_swap_involution(self):
        s = validated(SWAP)
        assert np.allclose(multiply(s, s), np.eye(2))

    def test_rank_one_absorbs(self):
        r = validated([[0.5, 0.5], [0.5, 0.5]])
        assert np.allclose(multiply(r, identity_matrix(2)), r)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            multiply(identity_matrix(2), identity_matrix(3))

    def test_apply_examples(self):
        assert np.allclose(identity_matrix(3) @ [1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        rank1 = validated([[0.25, 0.75], [0.25, 0.75]])
        out = rank1 @ [4.0, 8.0]
        assert np.allclose(out, [7.0, 7.0])
        lazy = validated([[0.9, 0.1], [0.1, 0.9]])
        assert np.allclose(lazy @ [0.0, 1.0], [0.1, 0.9])


class TestDigraphOf:
    def test_identity_is_self_loops(self):
        assert digraph_of(identity_matrix(3)).edges == {(1, 1), (2, 2), (3, 3)}

    def test_full_support(self):
        g = digraph_of(validated([[0.5, 0.5], [0.5, 0.5]]))
        assert g.edges == {(1, 1), (1, 2), (2, 1), (2, 2)}

    def test_swap_pattern(self):
        assert digraph_of(validated(SWAP)).edges == {(1, 2), (2, 1)}

    def test_product_pattern_is_boolean_product(self):
        rng = np.random.default_rng(10)
        for _ in range(40):
            n = int(rng.integers(2, 6))
            a = validated(random_stochastic(rng, n))
            b = validated(random_stochastic(rng, n))
            left = digraph_of(multiply(a, b))
            bool_prod = (digraph_of(a).adjacency_matrix().astype(int) @ digraph_of(b).adjacency_matrix().astype(int)) > 0
            assert left == Digraph.from_adjacency(bool_prod)


class TestFactorPatterns:
    def test_edge_is_any_positive_entry(self):
        m = validated([[1.0 - 1e-300, 1e-300], [0.0, 1.0]])
        assert factor_patterns(m[None]).tolist() == [[[1.0, 1.0], [0.0, 1.0]]]


class TestMinPositiveEntry:
    def test_identity(self):
        assert min_positive_entry([identity_matrix(2)]) == 1.0

    def test_single_matrix(self):
        assert min_positive_entry([validated([[0.25, 0.75], [0.5, 0.5]])]) == 0.25

    def test_global_minimum(self):
        a = validated([[0.3, 0.7], [0.3, 0.7]])
        b = validated([[0.2, 0.8], [0.5, 0.5]])
        assert min_positive_entry([a, b]) == 0.2

    def test_empty_list_rejected(self):
        with pytest.raises(DimensionError):
            min_positive_entry([])

    def test_raw_array_without_a_positive_entry(self):
        assert min_positive_entry(np.zeros((3, 2, 2))) is None
        assert min_positive_entry(np.zeros((0, 2, 2))) is None

    @pytest.mark.parametrize("records", [1, 2, 3, 7])
    def test_minimum_in_any_chunk(self, records):
        # the stack is read `records` records at a time: the minimum may sit in any
        # chunk, the last one partial or not
        rng = np.random.default_rng(23)
        stack = np.stack([random_stochastic(rng, 4) for _ in range(7)])
        with mock.patch.object(stochastic, "_SEMINORM_BLOCK_BYTES", records * 8 * 4 * 4):
            for k in range(7):
                planted = stack.copy()
                planted[k, 1, 2] = 1e-300
                assert min_positive_entry(planted) == 1e-300
            assert min_positive_entry(stack) == stack[stack > 0].min()


class TestVectorSeminorm:
    def test_constant_vector(self):
        assert vector_seminorm([1.0, 1.0, 1.0]) == 0.0

    def test_values_match_shift_search_oracle(self):
        for vec, expected in [((0.0, 2.0), 1.0), ((-1.0, 0.0, 3.0), 2.0)]:
            assert vector_seminorm(vec) == expected
            assert abs(seminorm_by_shift_search(vec) - expected) < 1e-4

    def test_empty_rejected(self):
        with pytest.raises(DimensionError):
            vector_seminorm([])

    def test_extremes_do_not_overflow(self):
        assert vector_seminorm([1e308, -1e308]) == 1e308
        assert vector_seminorm([-np.finfo(float).max, np.finfo(float).max]) == np.finfo(float).max

    @given(
        st.lists(
            st.floats(allow_nan=False, allow_infinity=False).filter(
                lambda v: v == 0 or abs(v) >= 2 * sys.float_info.min
            ),
            min_size=1,
            max_size=8,
        ).filter(lambda values: math.isfinite(max(values) - min(values)))
    )
    def test_halving_first_is_bit_identical_on_normal_entries(self, values):
        # no halved entry is subnormal, and the spread does not overflow
        assert vector_seminorm(values).hex() == ((max(values) - min(values)) / 2.0).hex()

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=8), st.floats(-100, 100))
    def test_homogeneity(self, values, scale):
        x = np.array(values)
        assert vector_seminorm(scale * x) == pytest.approx(abs(scale) * vector_seminorm(x), rel=1e-12, abs=1e-9)

    @given(
        st.integers(1, 8).flatmap(
            lambda n: st.tuples(
                st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n),
                st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n),
            )
        )
    )
    def test_triangle_inequality(self, pair):
        x, y = np.array(pair[0]), np.array(pair[1])
        assert vector_seminorm(x + y) <= vector_seminorm(x) + vector_seminorm(y) + 1e-12


class TestMatrixSeminorm:
    def test_rank_one_is_zero(self):
        assert matrix_seminorm(validated([[0.2, 0.8], [0.2, 0.8]])) == 0.0

    def test_identity_is_one(self):
        m = identity_matrix(2)
        assert matrix_seminorm(m) == 1.0
        assert seminorm_bruteforce(m) == 1.0

    def test_symmetric_lazy_example(self):
        m = validated([[0.75, 0.25], [0.25, 0.75]])
        assert matrix_seminorm(m) == 0.5
        assert seminorm_bruteforce(m) == 0.5
        assert 0.5 <= 1.0 - 2 * 0.25  # uniform entry bound alpha = 0.25

    def test_closed_form_matches_bruteforce(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            n = int(rng.integers(1, 11))
            m = validated(random_stochastic(rng, n, density=0.7))
            assert matrix_seminorm(m) == pytest.approx(seminorm_bruteforce(m), abs=1e-12)

    def test_at_most_one_for_stochastic(self):
        rng = np.random.default_rng(12)
        for _ in range(60):
            m = validated(random_stochastic(rng, int(rng.integers(1, 7))))
            assert 0.0 <= matrix_seminorm(m) <= 1.0

    def test_uniform_entry_bound(self):
        # all entries >= alpha forces seminorm <= 1 - n*alpha
        rng = np.random.default_rng(13)
        for _ in range(60):
            n = int(rng.integers(2, 7))
            alpha = float(rng.uniform(1e-3, 1.0 / n))
            raw = alpha + (1 - n * alpha) * rng.dirichlet(np.ones(n), size=n)
            m = validated(raw)
            assert matrix_seminorm(m) <= 1 - n * alpha + 1e-12

    def test_submultiplicative(self):
        rng = np.random.default_rng(14)
        for _ in range(60):
            n = int(rng.integers(2, 7))
            a = validated(random_stochastic(rng, n))
            b = validated(random_stochastic(rng, n))
            assert matrix_seminorm(multiply(a, b)) <= matrix_seminorm(a) * matrix_seminorm(b) + 1e-12

    def test_apply_contracts_sup_norm_and_seminorm(self):
        rng = np.random.default_rng(15)
        for _ in range(60):
            n = int(rng.integers(1, 7))
            a = validated(random_stochastic(rng, n))
            x = rng.normal(size=n) * 10
            y = a @ x
            assert np.abs(y).max() <= np.abs(x).max() + 1e-12
            assert vector_seminorm(y) <= matrix_seminorm(a) * vector_seminorm(x) + 1e-12


def _rows_budget(rows: int, n: int) -> int:
    """A block budget that holds exactly `rows` rows of n x n pair differences."""
    return rows * 8 * n * n


def _seminorm_and_blocks(m: np.ndarray) -> tuple[float, list[np.ndarray]]:
    """matrix_seminorm(m) and the row blocks it evaluated, in order: the 3-D arrays it passed to
    np.abs, which hold each block's absolute pair differences once np.abs returns."""
    with mock.patch.object(np, "abs", wraps=np.abs) as spy:
        value = matrix_seminorm(m)
    return value, [call.args[0] for call in spy.call_args_list if call.args[0].ndim == 3]


class TestBlockedSeminorm:
    """The row-blocked matrix_seminorm against the one-shot n^3 evaluation, bit for bit."""

    def test_smallest_dimensions(self):
        rng = np.random.default_rng(16)
        for n in (1, 2, 3):
            for _ in range(40):
                m = validated(random_stochastic(rng, n, density=0.7))
                assert matrix_seminorm(m) == seminorm_one_shot(m)
        for raw in ([[1.0]], SWAP, np.eye(3), [[0.5, 0.5], [0.5, 0.5]]):
            m = validated(raw)
            assert matrix_seminorm(m) == seminorm_one_shot(m)

    @pytest.mark.parametrize("rows", [1, 2, 3, 5])
    def test_sizes_around_block_edges(self, rows):
        # the first block is the first row alone and the other n - 1 rows fill blocks of
        # `rows`: d = 0, 1, 2 put n - 1 one below, at and one above a multiple of `rows`
        rng = np.random.default_rng(17 + rows)
        for n in sorted({m * rows + d for m in (1, 2, 3) for d in (-1, 0, 1, 2)} - {0}):
            m = validated(random_stochastic(rng, n))
            with mock.patch.object(stochastic, "_SEMINORM_BLOCK_BYTES", _rows_budget(rows, n)):
                blocked = matrix_seminorm(m)
            assert blocked == seminorm_one_shot(m)

    def test_sizes_around_default_block_edge(self):
        # the largest n whose blocks hold three rows: after the first row, its 208 rows
        # leave a one-row last block; one more and the blocks hold two rows
        n = math.isqrt(stochastic._SEMINORM_BLOCK_BYTES // _rows_budget(3, 1))
        rng = np.random.default_rng(19)
        for size in (n, n + 1):
            m = validated(random_stochastic(rng, size))
            assert matrix_seminorm(m) == seminorm_one_shot(m)

    @given(
        n=st.integers(min_value=1, max_value=12),
        rows=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_any_block_size(self, n, rows, seed):
        m = validated(random_stochastic(np.random.default_rng(seed), n))
        with mock.patch.object(stochastic, "_SEMINORM_BLOCK_BYTES", _rows_budget(rows, n)):
            blocked = matrix_seminorm(m)
        assert blocked == seminorm_one_shot(m)

    def test_products_with_entries_near_1e_200(self):
        # near-identity factors with off-diagonal weight near 1e-200 (or 1e-155, whose
        # square is subnormal) give products with zero, subnormal and near-1e-200
        # entries; put behind a mixing factor with off-pattern entries near 1e-200,
        # they give products whose semi-norm is below 1
        rng = np.random.default_rng(20)
        below_one = 0
        for n in (8, 9, 13, 16):
            pattern = random_stochastic(rng, n, density=0.7) > 0
            mixing = np.where(pattern, 0.1 + rng.random((n, n)), 1e-200 * rng.uniform(0.5, 2.0, (n, n)))
            for first in (np.eye(n), mixing / mixing.sum(axis=1, keepdims=True)):
                product = validated(first)
                for step in range(4):
                    weight = (1e-200, 1e-155)[step % 2] * rng.uniform(0.5, 2.0)
                    lazy = (1.0 - weight) * np.eye(n) + weight * random_stochastic(rng, n, density=0.3)
                    product = multiply(validated(lazy), product)
                    for rows in (1, 2, n // 3):
                        with mock.patch.object(stochastic, "_SEMINORM_BLOCK_BYTES", _rows_budget(rows, n)):
                            blocked = matrix_seminorm(product)
                        assert blocked == seminorm_one_shot(product)
                    assert matrix_seminorm(product) == seminorm_one_shot(product)
                    below_one += matrix_seminorm(product) < 1.0
        assert below_one >= 8

    def test_permutation_products_stop_after_the_first_block(self):
        # at n = 101 the default budget holds 12 rows: the first row alone, then 9 blocks
        # of up to 12. Any two rows of a permutation are disjoint, so the first block
        # reaches 2.0 after its n^2 differences (np.abs runs once per block, on all of them)
        n = 101
        assert stochastic._SEMINORM_BLOCK_BYTES // _rows_budget(1, n) == 12
        rng = np.random.default_rng(21)
        product = identity_matrix(n)
        for _ in range(3):
            product = multiply(validated(np.eye(n)[rng.permutation(n)]), product)
            with mock.patch.object(np, "abs", wraps=np.abs) as spy:
                value = matrix_seminorm(product)
            assert value == seminorm_one_shot(product) == 1.0
            assert sum(call.args[0].size for call in spy.call_args_list) == n * n

    @given(
        data=st.data(),
        n=st.integers(min_value=2, max_value=12),
        with_first=st.booleans(),
        one_hot=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_planted_disjoint_pair(self, data, n, with_first, one_hot, seed):
        # rows i < j get disjoint supports, i the first row or not; one-hot rows are
        # exactly 2.0 apart, rows of several entries may round to either side of 2.0
        i = 0 if with_first or n == 2 else data.draw(st.integers(min_value=1, max_value=n - 2), "i")
        j = data.draw(st.integers(min_value=i + 1, max_value=n - 1), "j")
        cut = 1 if one_hot else data.draw(st.integers(min_value=1, max_value=n - 1), "cut")
        rows = data.draw(st.integers(min_value=1, max_value=n), "rows")
        rng = np.random.default_rng(seed)
        raw = random_stochastic(rng, n)
        columns = rng.permutation(n)
        left, right = columns[:cut], columns[cut : cut + 1] if one_hot else columns[cut:]
        raw[[i, j]] = 0.0
        raw[i, left] = 0.1 + rng.random(len(left))
        raw[j, right] = 0.1 + rng.random(len(right))
        m = validated(raw / raw.sum(axis=1, keepdims=True))
        with mock.patch.object(stochastic, "_SEMINORM_BLOCK_BYTES", _rows_budget(rows, n)):
            blocked = matrix_seminorm(m)
        assert blocked == seminorm_one_shot(m)
        if one_hot:
            assert blocked == 1.0

    @pytest.mark.parametrize("rows", [1, 2])
    def test_disjoint_pair_in_the_last_block_that_holds_a_pair(self, rows):
        # rows 5 and 6 are the only pair with disjoint supports: every other row is positive;
        # the dyadic entries make their distance exactly 2.0. In row order the block of row 5
        # is the last that pairs two rows; wherever the order by distance to the column mean
        # puts the pair, the block that reaches 2.0 is the last one evaluated
        rng = np.random.default_rng(22)
        mixed = rng.uniform(0.1, 1.0, (4, 6))
        raw = np.vstack([mixed / mixed.sum(axis=1, keepdims=True),
                         [0.5, 0.25, 0.25, 0.0, 0.0, 0.0],
                         [0.0, 0.0, 0.0, 0.25, 0.25, 0.5]])
        m = validated(raw)
        with mock.patch.object(stochastic, "_SEMINORM_BLOCK_BYTES", _rows_budget(rows, 6)):
            value, blocks = _seminorm_and_blocks(m)
        assert value == seminorm_one_shot(m) == 1.0
        largest = [float(block.sum(axis=2).max()) for block in blocks]
        assert largest[-1] == 2.0 and max(largest[:-1]) < 2.0

    def test_drift_just_below_two_does_not_stop(self):
        # a product's rows drift from 1 by rounding: this disjoint pair is 2 - 2**-52
        # apart, so the first block's distance does not end the loop, and the value is
        # the float just below 1.0
        entries = np.array([[0.5, 0.5, 0.0, 0.0],
                            [0.0, 0.0, 0.5, 0.5 - 2.0**-52],
                            [0.25, 0.25, 0.25, 0.25],
                            [0.25, 0.25, 0.25, 0.25]])
        with mock.patch.object(stochastic, "_SEMINORM_BLOCK_BYTES", _rows_budget(1, 4)):
            value, blocks = _seminorm_and_blocks(entries)
        assert value == seminorm_one_shot(entries) == np.nextafter(1.0, 0.0)
        assert float(blocks[0].sum(axis=2).max()) == 2.0 - 2.0**-52
        assert len(blocks) > 1

    @given(
        data=st.data(),
        n=st.integers(min_value=3, max_value=40),
        steps=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_backward_products_of_lazy_and_positive_diagonal_factors(self, data, n, steps, seed):
        # contracting products, whose rows draw together step by step: the pairs that can still
        # beat the largest distance get fewer, and the pruned loop must agree with every pair
        budget = data.draw(st.integers(min_value=1, max_value=8 * n**3), "budget")
        rng = np.random.default_rng(seed)
        product = identity_matrix(n)
        for _ in range(steps):
            if rng.random() < 0.5:
                weight = 10.0 ** rng.uniform(-3, 0)
                raw = (1.0 - weight) * np.eye(n) + weight * random_stochastic(rng, n, density=0.3)
            else:
                raw = random_stochastic(rng, n, density=0.3) + np.diag(0.1 + rng.random(n))
                raw /= raw.sum(axis=1, keepdims=True)
            product = multiply(validated(raw), product)
        with mock.patch.object(stochastic, "_SEMINORM_BLOCK_BYTES", budget):
            assert matrix_seminorm(product) == seminorm_one_shot(product)

    @pytest.mark.parametrize(
        "raw",
        [
            # the row farthest from the column mean, row 4 (d = 0.95), is not in the one
            # pair at the largest distance, rows 2 and 3 (1.75), nor is the first row
            np.array([[1, 1, 3, 2, 1], [0, 3, 4, 1, 0], [2, 1, 0, 0, 5], [3, 4, 1, 0, 0], [1, 0, 2, 0, 5]]) / 8,
            # a circulant: every row is as far from the mean, and each distance is shared
            # by several pairs
            np.array([np.roll([0.5, 0.25, 0.125, 0.125, 0.0, 0.0], shift) for shift in range(6)]),
            # rows that are all the same: every distance is 0
            np.tile([0.1, 0.2, 0.3, 0.4], (4, 1)),
        ],
        ids=["farthest-row-not-in-the-pair", "ties", "identical-rows"],
    )
    def test_fixed_cases_at_every_block_size(self, raw):
        m = validated(raw)
        for rows in range(1, len(m) + 1):
            with mock.patch.object(stochastic, "_SEMINORM_BLOCK_BYTES", _rows_budget(rows, len(m))):
                assert matrix_seminorm(m) == seminorm_one_shot(m)

    def test_contracting_product_evaluates_under_half_of_the_pair_differences(self):
        # P(9) of a positive-diagonal sequence at n = 120 (semi-norm 3e-6): rows far from the
        # column mean bound every other pair below the largest distance, so most are never
        # formed; a loop over every pair forms n^2 (n - 1) / 2 differences, and more
        n = 120
        seq = generate_sequence("positive-diagonal", n, 12, 0.001, seed=3).to_sequence()
        product = identity_matrix(n)
        for k in range(1, 10):
            product = multiply(seq.factor(k), product)
        value, blocks = _seminorm_and_blocks(product)
        assert value == seminorm_one_shot(product) < 1.0
        assert sum(block.size for block in blocks) < n * n * (n - 1) // 2 // 2
