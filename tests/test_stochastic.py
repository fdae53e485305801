import math
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ergocert import stochastic
from ergocert.digraph import Digraph
from ergocert.errors import DimensionError, NegativityError, StochasticityError
from ergocert.stochastic import (
    NEGATIVITY_TOL,
    MatrixSequence,
    StochasticMatrix,
    digraph_of,
    factor_patterns,
    identity_matrix,
    matrix_seminorm,
    min_positive_entry,
    multiply,
    vector_seminorm,
)

from oracles import random_stochastic, seminorm_bruteforce, seminorm_by_shift_search, seminorm_one_shot

SWAP = [[0.0, 1.0], [1.0, 0.0]]


class TestValidation:
    def test_identity_accepted_unchanged(self):
        m = StochasticMatrix(np.eye(2))
        assert np.array_equal(m.entries, np.eye(2))

    def test_row_sum_violation(self):
        with pytest.raises(StochasticityError, match="row 1"):
            StochasticMatrix([[0.5, 0.6], [0.5, 0.5]])

    def test_clamping_small_negatives(self):
        for small in (-1e-13, -NEGATIVITY_TOL):
            m = StochasticMatrix([[1.0, small], [0.0, 1.0]])
            assert np.array_equal(m.entries, np.eye(2))

    def test_large_negative_rejected(self):
        with pytest.raises(NegativityError, match=r"entry \(1,2\) = -1e-11 is below the negativity tolerance -1e-12"):
            StochasticMatrix([[1.0 + 1e-11, -1e-11], [0.0, 1.0]])

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            StochasticMatrix([[1.0, 0.0]])

    def test_non_finite_rejected(self):
        with pytest.raises(StochasticityError):
            StochasticMatrix([[np.inf, 0.0], [0.0, 1.0]])

    def test_rows_renormalized_exactly(self):
        m = StochasticMatrix([[0.3 + 3e-10, 0.7], [0.5, 0.5]])
        assert np.allclose(m.entries.sum(axis=1), 1.0, atol=1e-15)

    def test_entries_read_only(self):
        m = identity_matrix(2)
        with pytest.raises(ValueError):
            m.entries[0, 0] = 0.5

    def test_input_not_aliased(self):
        raw = np.eye(2)
        m = StochasticMatrix(raw)
        raw[0, 0] = 7.0
        assert m.entries[0, 0] == 1.0

    def test_sequence_refuses_items_that_are_not_matrices(self):
        # a raw array's rows have no validated entries: this was an AttributeError
        with pytest.raises(TypeError, match="StochasticMatrix items, got ndarray"):
            MatrixSequence([np.eye(2)])


class TestMultiplyApply:
    def test_identity_law(self):
        a = StochasticMatrix([[0.25, 0.75], [0.5, 0.5]])
        assert np.allclose(multiply(a, identity_matrix(2)).entries, a.entries)

    def test_swap_involution(self):
        s = StochasticMatrix(SWAP)
        assert np.allclose(multiply(s, s).entries, np.eye(2))

    def test_rank_one_absorbs(self):
        r = StochasticMatrix([[0.5, 0.5], [0.5, 0.5]])
        assert np.allclose(multiply(r, identity_matrix(2)).entries, r.entries)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            multiply(identity_matrix(2), identity_matrix(3))

    def test_apply_examples(self):
        assert np.allclose(identity_matrix(3).entries @ [1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        rank1 = StochasticMatrix([[0.25, 0.75], [0.25, 0.75]])
        out = rank1.entries @ [4.0, 8.0]
        assert np.allclose(out, [7.0, 7.0])
        lazy = StochasticMatrix([[0.9, 0.1], [0.1, 0.9]])
        assert np.allclose(lazy.entries @ [0.0, 1.0], [0.1, 0.9])


class TestDigraphOf:
    def test_identity_is_self_loops(self):
        assert digraph_of(identity_matrix(3)).edges == {(1, 1), (2, 2), (3, 3)}

    def test_full_support(self):
        g = digraph_of(StochasticMatrix([[0.5, 0.5], [0.5, 0.5]]))
        assert g.edges == {(1, 1), (1, 2), (2, 1), (2, 2)}

    def test_swap_pattern(self):
        assert digraph_of(StochasticMatrix(SWAP)).edges == {(1, 2), (2, 1)}

    def test_product_pattern_is_boolean_product(self):
        rng = np.random.default_rng(10)
        for _ in range(40):
            n = int(rng.integers(2, 6))
            a = StochasticMatrix(random_stochastic(rng, n))
            b = StochasticMatrix(random_stochastic(rng, n))
            left = digraph_of(multiply(a, b))
            bool_prod = (digraph_of(a).adjacency_matrix().astype(int) @ digraph_of(b).adjacency_matrix().astype(int)) > 0
            assert left == Digraph.from_adjacency(bool_prod)


class TestFactorPatterns:
    def test_edge_is_any_positive_entry(self):
        m = StochasticMatrix([[1.0 - 1e-300, 1e-300], [0.0, 1.0]])
        assert factor_patterns(m.entries[None]).tolist() == [[[1.0, 1.0], [0.0, 1.0]]]


class TestMinPositiveEntry:
    def test_identity(self):
        assert min_positive_entry([identity_matrix(2)]) == 1.0

    def test_single_matrix(self):
        assert min_positive_entry([StochasticMatrix([[0.25, 0.75], [0.5, 0.5]])]) == 0.25

    def test_global_minimum(self):
        a = StochasticMatrix([[0.3, 0.7], [0.3, 0.7]])
        b = StochasticMatrix([[0.2, 0.8], [0.5, 0.5]])
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
        assert matrix_seminorm(StochasticMatrix([[0.2, 0.8], [0.2, 0.8]])) == 0.0

    def test_identity_is_one(self):
        m = identity_matrix(2)
        assert matrix_seminorm(m) == 1.0
        assert seminorm_bruteforce(m.entries) == 1.0

    def test_symmetric_lazy_example(self):
        m = StochasticMatrix([[0.75, 0.25], [0.25, 0.75]])
        assert matrix_seminorm(m) == 0.5
        assert seminorm_bruteforce(m.entries) == 0.5
        assert 0.5 <= 1.0 - 2 * 0.25  # uniform entry bound alpha = 0.25

    def test_closed_form_matches_bruteforce(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            n = int(rng.integers(1, 11))
            m = StochasticMatrix(random_stochastic(rng, n, density=0.7))
            assert matrix_seminorm(m) == pytest.approx(seminorm_bruteforce(m.entries), abs=1e-12)

    def test_at_most_one_for_stochastic(self):
        rng = np.random.default_rng(12)
        for _ in range(60):
            m = StochasticMatrix(random_stochastic(rng, int(rng.integers(1, 7))))
            assert 0.0 <= matrix_seminorm(m) <= 1.0

    def test_uniform_entry_bound(self):
        # all entries >= alpha forces seminorm <= 1 - n*alpha
        rng = np.random.default_rng(13)
        for _ in range(60):
            n = int(rng.integers(2, 7))
            alpha = float(rng.uniform(1e-3, 1.0 / n))
            raw = alpha + (1 - n * alpha) * rng.dirichlet(np.ones(n), size=n)
            m = StochasticMatrix(raw)
            assert matrix_seminorm(m) <= 1 - n * alpha + 1e-12

    def test_submultiplicative(self):
        rng = np.random.default_rng(14)
        for _ in range(60):
            n = int(rng.integers(2, 7))
            a = StochasticMatrix(random_stochastic(rng, n))
            b = StochasticMatrix(random_stochastic(rng, n))
            assert matrix_seminorm(multiply(a, b)) <= matrix_seminorm(a) * matrix_seminorm(b) + 1e-12

    def test_apply_contracts_sup_norm_and_seminorm(self):
        rng = np.random.default_rng(15)
        for _ in range(60):
            n = int(rng.integers(1, 7))
            a = StochasticMatrix(random_stochastic(rng, n))
            x = rng.normal(size=n) * 10
            y = a.entries @ x
            assert np.abs(y).max() <= np.abs(x).max() + 1e-12
            assert vector_seminorm(y) <= matrix_seminorm(a) * vector_seminorm(x) + 1e-12


def _rows_budget(rows: int, n: int) -> int:
    """A block budget that holds exactly `rows` rows of n x n pair differences."""
    return rows * 8 * n * n


def _seminorm_and_blocks(m: StochasticMatrix) -> tuple[float, int]:
    """matrix_seminorm(m) and the number of row blocks it evaluated: one np.abs per block."""
    with mock.patch.object(np, "abs", wraps=np.abs) as spy:
        value = matrix_seminorm(m)
    return value, spy.call_count


class TestBlockedSeminorm:
    """The row-blocked matrix_seminorm against the one-shot n^3 evaluation, bit for bit."""

    def test_smallest_dimensions(self):
        rng = np.random.default_rng(16)
        for n in (1, 2, 3):
            for _ in range(40):
                m = StochasticMatrix(random_stochastic(rng, n, density=0.7))
                assert matrix_seminorm(m) == seminorm_one_shot(m.entries)
        for raw in ([[1.0]], SWAP, np.eye(3), [[0.5, 0.5], [0.5, 0.5]]):
            m = StochasticMatrix(raw)
            assert matrix_seminorm(m) == seminorm_one_shot(m.entries)

    @pytest.mark.parametrize("rows", [1, 2, 3, 5])
    def test_sizes_around_block_edges(self, rows):
        # the first block is the first row alone and the other n - 1 rows fill blocks of
        # `rows`: d = 0, 1, 2 put n - 1 one below, at and one above a multiple of `rows`
        rng = np.random.default_rng(17 + rows)
        for n in sorted({m * rows + d for m in (1, 2, 3) for d in (-1, 0, 1, 2)} - {0}):
            m = StochasticMatrix(random_stochastic(rng, n))
            with mock.patch.object(stochastic, "_SEMINORM_BLOCK_BYTES", _rows_budget(rows, n)):
                blocked = matrix_seminorm(m)
            assert blocked == seminorm_one_shot(m.entries)

    def test_sizes_around_default_block_edge(self):
        # the largest n whose blocks hold three rows: after the first row, its 208 rows
        # leave a one-row last block; one more and the blocks hold two rows
        n = math.isqrt(stochastic._SEMINORM_BLOCK_BYTES // _rows_budget(3, 1))
        rng = np.random.default_rng(19)
        for size in (n, n + 1):
            m = StochasticMatrix(random_stochastic(rng, size))
            assert matrix_seminorm(m) == seminorm_one_shot(m.entries)

    @given(
        n=st.integers(min_value=1, max_value=12),
        rows=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_any_block_size(self, n, rows, seed):
        m = StochasticMatrix(random_stochastic(np.random.default_rng(seed), n))
        with mock.patch.object(stochastic, "_SEMINORM_BLOCK_BYTES", _rows_budget(rows, n)):
            blocked = matrix_seminorm(m)
        assert blocked == seminorm_one_shot(m.entries)

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
                product = StochasticMatrix(first)
                for step in range(4):
                    weight = (1e-200, 1e-155)[step % 2] * rng.uniform(0.5, 2.0)
                    lazy = (1.0 - weight) * np.eye(n) + weight * random_stochastic(rng, n, density=0.3)
                    product = multiply(StochasticMatrix(lazy), product)
                    for rows in (1, 2, n // 3):
                        with mock.patch.object(stochastic, "_SEMINORM_BLOCK_BYTES", _rows_budget(rows, n)):
                            blocked = matrix_seminorm(product)
                        assert blocked == seminorm_one_shot(product.entries)
                    assert matrix_seminorm(product) == seminorm_one_shot(product.entries)
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
            product = multiply(StochasticMatrix(np.eye(n)[rng.permutation(n)]), product)
            with mock.patch.object(np, "abs", wraps=np.abs) as spy:
                value = matrix_seminorm(product)
            assert value == seminorm_one_shot(product.entries) == 1.0
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
        m = StochasticMatrix(raw / raw.sum(axis=1, keepdims=True))
        with mock.patch.object(stochastic, "_SEMINORM_BLOCK_BYTES", _rows_budget(rows, n)):
            blocked = matrix_seminorm(m)
        assert blocked == seminorm_one_shot(m.entries)
        if one_hot:
            assert blocked == 1.0

    @pytest.mark.parametrize("rows", [1, 2])
    def test_disjoint_pair_in_the_last_block_that_holds_a_pair(self, rows):
        # rows 5 and 6 are the only pair with disjoint supports: every other row is positive;
        # the dyadic entries make their distance exactly 2.0. After the first row alone,
        # rows 2 to 5 fill 4 // rows blocks, and the block of row 5 is the last that
        # pairs two rows: the last block holds row 6 alone
        rng = np.random.default_rng(22)
        mixed = rng.uniform(0.1, 1.0, (4, 6))
        raw = np.vstack([mixed / mixed.sum(axis=1, keepdims=True),
                         [0.5, 0.25, 0.25, 0.0, 0.0, 0.0],
                         [0.0, 0.0, 0.0, 0.25, 0.25, 0.5]])
        m = StochasticMatrix(raw)
        with mock.patch.object(stochastic, "_SEMINORM_BLOCK_BYTES", _rows_budget(rows, 6)):
            value, blocks = _seminorm_and_blocks(m)
        assert value == seminorm_one_shot(m.entries) == 1.0
        assert blocks == 1 + 4 // rows

    def test_drift_just_below_two_does_not_stop(self):
        # a product's rows drift from 1 by rounding: this disjoint pair is 2 - 2**-52
        # apart, so every block is evaluated and the value is the float just below 1.0
        entries = np.array([[0.5, 0.5, 0.0, 0.0],
                            [0.0, 0.0, 0.5, 0.5 - 2.0**-52],
                            [0.25, 0.25, 0.25, 0.25],
                            [0.25, 0.25, 0.25, 0.25]])
        m = StochasticMatrix._trusted(entries)
        with mock.patch.object(stochastic, "_SEMINORM_BLOCK_BYTES", _rows_budget(1, 4)):
            value, blocks = _seminorm_and_blocks(m)
        assert value == seminorm_one_shot(entries) == np.nextafter(1.0, 0.0)
        assert blocks == 4
