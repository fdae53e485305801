
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergocert import cli, convergence, digraph, stochastic
from ergocert.convergence import (
    consensus_row,
    contraction_certificate,
    disagreement_trajectory,
    find_saturation_K,
    iter_products,
    partial_product,
    run_to_tolerance,
    saturation_floor,
)
from ergocert.digraph import pattern_product, pattern_walk, wielandt_bound
from ergocert.errors import CertificationRefused, ContractViolation, DimensionError
from ergocert.generate import generate_sequence
from ergocert.hypotheses import MatrixSequence, analyze
from ergocert.stochastic import (
    digraph_of,
    factor_patterns,
    identity_matrix,
    matrix_seminorm,
    min_positive_entry,
)

from oracles import (
    patterns_by_blas,
    products_by_blas,
    random_stochastic,
    reports,
    seminorm_one_shot,
    stack_of,
    supports_and_minima,
    time_varying_walk_exists,
    validated,
)

# Slack for inequalities compounded over the length of a sequence.
COMPOUND_SLACK = 1e-9

LAZY = [[0.9, 0.1], [0.1, 0.9]]
SWAP = [[0.0, 1.0], [1.0, 0.0]]
RANK1 = [[0.5, 0.5], [0.5, 0.5]]


def seq_of(*matrices):
    return MatrixSequence(matrices)


def random_sequence(rng, n, length, density=0.6):
    return seq_of(*(random_stochastic(rng, n, density) for _ in range(length)))


def preset_fixture(preset, n, length, alpha, seed):
    return generate_sequence(preset, n, length, alpha, seed).to_sequence()


def lazy_cycle(n, w):
    """(1 - w) I + w C for the n-cycle C: pattern I + C, and C^m has weight about w^m."""
    return (1 - w) * np.eye(n) + w * np.roll(np.eye(n), 1, axis=1)


class TestPartialProduct:
    def test_equal_indices_give_identity(self):
        seq = seq_of(LAZY, SWAP)
        for k in (0, 1, 2):
            assert np.array_equal(partial_product(seq, k, k), np.eye(2))

    def test_swap_involution(self):
        seq = seq_of(SWAP, SWAP)
        assert np.allclose(partial_product(seq, 0, 2), np.eye(2))

    def test_index_contract(self):
        seq = seq_of(LAZY)
        for l, k in [(-1, 0), (1, 0), (0, 2)]:
            with pytest.raises(ContractViolation):
                partial_product(seq, l, k)

    def test_composition_law(self):
        rng = np.random.default_rng(30)
        for _ in range(25):
            n = int(rng.integers(2, 5))
            seq = random_sequence(rng, n, int(rng.integers(1, 7)))
            for l in range(len(seq) + 1):
                for k in range(l, len(seq) + 1):
                    left = partial_product(seq, 0, k)
                    split = partial_product(seq, l, k) @ partial_product(seq, 0, l)
                    assert np.allclose(left, split, atol=1e-12)

    def test_iter_products_matches_partial_product(self):
        rng = np.random.default_rng(31)
        seq = random_sequence(rng, 3, 6)
        for state in iter_products(seq):
            assert np.allclose(state.matrix, partial_product(seq, 0, state.k), atol=1e-12)
            assert state.seminorm == matrix_seminorm(state.matrix)


class TestSaturation:
    def test_rank_one_saturates_immediately(self):
        seq = seq_of(RANK1, RANK1)
        assert saturation_floor(2, 0.5) == 0.5**6 == 0.015625
        assert find_saturation_K(seq, 0.5) == 1

    def test_identity_never_saturates(self):
        seq = seq_of(identity_matrix(2), identity_matrix(2))
        assert find_saturation_K(seq, 1.0) is None

    def test_lazy_walk_saturates_at_one(self):
        seq = seq_of(LAZY, LAZY)
        assert saturation_floor(2, 0.1) == pytest.approx(1e-6)
        assert find_saturation_K(seq, 0.1) == 1

    def test_alpha_must_be_positive(self):
        with pytest.raises(ContractViolation):
            find_saturation_K(seq_of(LAZY), 0.0)

    @pytest.mark.parametrize("alpha", [np.nan, 0.5, 1.5, np.inf])
    def test_alpha_must_bound_the_entries(self, alpha):
        # the smallest entry of LAZY is 0.1: at 0.5 the scan saturated at
        # K = 1 on a floor the entries never promised, and 1.5 overflowed it
        with pytest.raises(ContractViolation, match="at most the minimum positive entry 0.1"):
            find_saturation_K(seq_of(LAZY, LAZY), alpha)

    def test_positivity_is_read_from_patterns(self):
        # w = 1e-200: the C^2 entries of P(2) are about 1e-400, 0.0 in floats
        seq = seq_of(*[lazy_cycle(3, 1e-200)] * 6)
        assert partial_product(seq, 0, 2).min() == 0.0
        assert find_saturation_K(seq, 1e-200) == 2

    def test_positivity_thresholds_each_factor(self):
        # the factor patterns I + C fill at K = 2, long before every float
        # entry of the products passes 0.05
        seq = seq_of(*[lazy_cycle(3, 0.01)] * 60)
        assert partial_product(seq, 0, 60).min() > 0.05
        assert find_saturation_K(seq, 0.01) == 2

    def test_floor_holds_at_saturation(self):
        rng = np.random.default_rng(32)
        for _ in range(15):
            seq = random_sequence(rng, 3, 8, density=0.7)
            alpha = min_positive_entry(seq.items)
            K = find_saturation_K(seq, alpha)
            if K is None:
                continue
            floor = saturation_floor(3, alpha)
            entries = partial_product(seq, 0, K)
            assert entries.min() >= floor - 1e-12
            assert (entries > 0).all()

    @settings(deadline=None)
    @given(st.integers(4, 8), st.integers(1, 8), st.integers(0, 2**32 - 1),
           st.sampled_from(["spread", "one-hot", "mixed", "tiny"]), st.floats(1e-6, 1.0))
    def test_from_n4_the_floor_admits_every_positive_entry(self, n, length, seed, kind, shrink):
        # alpha <= 1/2 gives a floor alpha**(n*(W+1)) <= 2**-44 below the 1e-12 slack, and
        # alpha = 1 means 0/1 factors, whose products never fill: K is the first full pattern,
        # even where the float entries of P(K) underflow to 0.0 ("tiny", K = n - 1)
        rng = np.random.default_rng(seed)
        spread = [random_stochastic(rng, n, float(rng.uniform(0.2, 1.0))) for _ in range(length)]
        one_hot = [np.eye(n)[rng.integers(n, size=n)] for _ in range(length)]
        factors = {"spread": spread, "one-hot": one_hot, "mixed": [*spread[: length // 2], *one_hot[length // 2 :]],
                   "tiny": [lazy_cycle(n, 10.0 ** -rng.uniform(1, 300))] * length}
        seq = seq_of(*factors[kind])
        alpha = min_positive_entry(seq)
        assert alpha <= 0.5 or np.isin(seq.factors, (0.0, 1.0)).all()
        full = (k for k, pattern in enumerate(pattern_walk(seq.factors > 0, seq.word), start=1) if pattern.all())
        expected = next(full, None)
        assert find_saturation_K(seq, alpha) == find_saturation_K(seq, alpha * shrink) == expected


class TestCertificate:
    def test_rank_one_certificate_values(self):
        cert = contraction_certificate(seq_of(RANK1, RANK1))
        assert cert.alpha == 0.5
        assert cert.wielandt == 2
        assert cert.saturation_index == 1
        assert cert.entry_floor == 0.015625
        assert cert.contraction == 0.96875
        assert cert.seminorm_at_saturation == 0.0

    def test_lazy_walk_certificate(self):
        cert = contraction_certificate(seq_of(LAZY, LAZY))
        assert cert.contraction == pytest.approx(1 - 2e-6)
        assert cert.seminorm_at_saturation == pytest.approx(0.8)
        assert cert.seminorm_at_saturation <= cert.contraction

    def test_swaps_refused_for_missing_core(self):
        with pytest.raises(CertificationRefused) as err:
            contraction_certificate(seq_of(SWAP, SWAP))
        assert "aperiodic-core" in err.value.reasons

    def test_identity_only_exhausts_horizon(self):
        assert contraction_certificate(seq_of(identity_matrix(2), identity_matrix(2))) is None

    def test_alpha_is_not_a_parameter(self):
        # the realized minimum is the largest alpha that holds; any other
        # value could only weaken the certificate
        with pytest.raises(TypeError):
            contraction_certificate(seq_of(RANK1, RANK1), alpha=0.25)

    @pytest.mark.parametrize("alpha", [0.0, -0.1, 0.2, 1.5, np.nan, np.inf])
    def test_alpha_override_must_bound_the_entries(self, alpha):
        # an alpha other than the realized minimum 0.1 reaches the certificate's
        # computation only through find_saturation_K, which refuses it on both
        # sequences: 1.5 overflowed the floor, nan never saturated. The second
        # sequence is refused by the certificate itself (its triangular factor
        # is not completely reducible), so no bad alpha hides behind that
        triangular = [[1.0, 0.0], [0.1, 0.9]]
        for seq in (seq_of(LAZY, LAZY), seq_of(LAZY, triangular)):
            with pytest.raises(ContractViolation, match="at most the minimum positive entry 0.1"):
                find_saturation_K(seq, alpha)
        with pytest.raises(CertificationRefused):
            contraction_certificate(seq_of(LAZY, triangular))

    def test_certificate_at_dimension_one(self):
        # n * entry_floor == 1: the contraction is exactly 0.0, and it bounds something
        cert = contraction_certificate(MatrixSequence([[[1.0]]] * 3))
        assert cert.contraction == 0.0
        assert cert.seminorm_at_saturation == 0.0
        assert not cert.vacuous

    def test_vacuous_when_the_contraction_rounds_to_one(self):
        # n = 8, alpha = 0.1: the floor 0.1 ** 296 is below machine epsilon
        wide = contraction_certificate(preset_fixture("positive-diagonal", 8, 30, 0.1, seed=3))
        assert wide.contraction == 1.0
        assert wide.vacuous
        narrow = contraction_certificate(preset_fixture("positive-diagonal", 2, 30, 0.1, seed=3))
        assert narrow.contraction < 1.0
        assert not narrow.vacuous

    def test_underflowed_products_give_a_vacuous_certificate(self):
        cert = contraction_certificate(seq_of(*[lazy_cycle(3, 1e-200)] * 6))
        assert cert.saturation_index == 2
        assert cert.entry_floor == 0.0
        assert cert.vacuous

    def test_contraction_bounds_every_later_product(self):
        # P(1) from start 1 saturates at K = 1, and the 399 identities after it never
        # contract: tau(P(k)) stays 0.1, which the one checked contraction still bounds
        seq = seq_of([[0.5, 0.5], [0.4, 0.6]], *[identity_matrix(2)] * 399)
        cert = contraction_certificate(seq)
        assert cert.saturation_index == 1
        assert cert.contraction == pytest.approx(0.991808)
        later = [state for state in iter_products(seq) if state.k >= cert.saturation_index]
        assert len(later) == len(seq)
        for state in later:
            assert state.seminorm <= cert.contraction + 1e-12

    def test_block_contraction_soundness(self):
        for preset, n in [("positive-diagonal", 3), ("cycle-core", 3), ("positive-diagonal", 4)]:
            seq = preset_fixture(preset, n, 6 * wielandt_bound(n), 1.0 / (2 * n), seed=40 + n)
            cert = contraction_certificate(seq)
            assert cert is not None
            K = cert.saturation_index
            blocks = len(seq) // K
            compounded = 1.0
            for m in range(1, blocks + 1):
                block_norm = matrix_seminorm(partial_product(seq, (m - 1) * K, m * K))
                assert block_norm <= cert.contraction + 1e-12
                # tau is submultiplicative: the measured block semi-norms compound
                compounded *= block_norm
                whole = matrix_seminorm(partial_product(seq, 0, m * K))
                assert whole <= compounded + COMPOUND_SLACK


class TestRunToTolerance:
    def test_rank_one_stops_at_one(self):
        run = run_to_tolerance(seq_of(RANK1, RANK1), 1e-9)
        assert run.state.k == 1
        assert run.reached
        assert np.allclose(run.consensus_row, [0.5, 0.5])

    def test_lazy_walk_stops_at_31(self):
        seq = seq_of(*([LAZY] * 40))
        run = run_to_tolerance(seq, 1e-3)
        assert run.state.k == 31
        assert run.reached

    def test_swaps_exhaust(self):
        seq = seq_of(*([SWAP] * 8))
        run = run_to_tolerance(seq, 0.5)
        assert not run.reached
        assert run.consensus_row is None
        assert run.state.k == 8
        assert run.state.seminorm == 1.0

    def test_epsilon_validated(self):
        with pytest.raises(ContractViolation):
            run_to_tolerance(seq_of(LAZY), 0.0)

    def test_trajectories_match_products(self):
        rng = np.random.default_rng(34)
        for _ in range(10):
            seq = random_sequence(rng, 4, 12, density=0.7)
            x0 = rng.normal(size=4)
            for epsilon in (1e-2, 1e-300):
                run = run_to_tolerance(seq, epsilon)
                assert run.vector_seminorms is None
                assert run.consensus_value is None
                assert run.matrix_seminorms == tuple(
                    matrix_seminorm(partial_product(seq, 0, k)) for k in range(run.state.k + 1)
                )
                with_x0 = run_to_tolerance(seq, epsilon, x0)
                assert with_x0.vector_seminorms == tuple(disagreement_trajectory(seq, x0)[: with_x0.state.k + 1])
                assert with_x0.matrix_seminorms == tuple(
                    matrix_seminorm(partial_product(seq, 0, k)) for k in range(with_x0.state.k + 1)
                )
                assert with_x0.consensus_row is None
                assert with_x0.reached == (with_x0.vector_seminorms[-1] <= epsilon)
                if with_x0.reached:
                    x = with_x0.state.matrix @ x0
                    assert np.abs(x - with_x0.consensus_value).max() <= epsilon + 1e-12
                else:
                    assert with_x0.consensus_value is None
                    assert with_x0.state.k == len(seq)
                for r in (run, with_x0):
                    drifts = [abs(partial_product(seq, 0, k).sum(axis=1) - 1).max()
                              for k in range(r.state.k + 1)]
                    assert r.state.row_sum_drift == max(drifts)

    @pytest.mark.parametrize("preset, n, length", [("periodic-counterexample", 52, 40), ("positive-diagonal", 53, 12)])
    def test_multi_block_trajectories_match_the_one_shot_oracle(self, preset, n, length):
        # at n >= 52 the default budget splits the rows after the first one into two
        # blocks or more; the counterexample's products are permutations, so every value is 1.0
        assert n > stochastic._SEMINORM_BLOCK_BYTES // (8 * n * n)
        seq = preset_fixture(preset, n, length, 0.001, 5)
        run = run_to_tolerance(seq, 1e-300)
        oracle = tuple(seminorm_one_shot(state.matrix) for state in iter_products(seq))
        assert run.matrix_seminorms == oracle[: run.state.k + 1]
        if preset == "periodic-counterexample":
            assert run.matrix_seminorms == (1.0,) * (length + 1)
        else:
            assert run.matrix_seminorms[-1] < 1.0

    def test_x0_dimension_checked(self):
        with pytest.raises(DimensionError):
            run_to_tolerance(seq_of(LAZY), 0.1, [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_x0_must_be_finite(self, bad):
        # a NaN semi-norm never reaches epsilon: the run read as exhausted
        with pytest.raises(ContractViolation, match="x0 entries must be finite"):
            run_to_tolerance(seq_of(LAZY), 0.1, [bad, 1.0])
        with pytest.raises(ContractViolation, match="x0 entries must be finite"):
            disagreement_trajectory(seq_of(LAZY), [bad, 1.0])

    @pytest.mark.parametrize("x0", [[np.nan, 1.0], [1.0, 2.0, 3.0]])
    def test_bad_x0_raises_before_any_product_past_the_identity(self, x0):
        formed = []

        def recording(seq):
            for state in iter_products(seq):
                formed.append(state.k)
                yield state

        with mock.patch.object(convergence, "iter_products", recording):
            with pytest.raises((ContractViolation, DimensionError)):
                run_to_tolerance(seq_of(LAZY, LAZY), 0.1, x0)
        assert all(k == 0 for k in formed)

    def test_rows_within_epsilon_of_consensus(self):
        rng = np.random.default_rng(33)
        for _ in range(10):
            seq = random_sequence(rng, 4, 30, density=0.7)
            run = run_to_tolerance(seq, 1e-4)
            if not run.reached:
                continue
            entries = run.state.matrix
            spread = entries.max(axis=0) - entries.min(axis=0)
            assert spread.max() <= 2e-4
            for row in entries:
                assert np.abs(row - run.consensus_row).max() <= 1e-4


class TestDisagreementTrajectory:
    def test_constant_vector_is_flat_zero(self):
        seq = seq_of(LAZY, SWAP, LAZY)
        assert disagreement_trajectory(seq, [3.0, 3.0]) == [0.0, 0.0, 0.0, 0.0]

    def test_lazy_walk_closed_form(self):
        seq = seq_of(*([LAZY] * 20))
        values = disagreement_trajectory(seq, [0.0, 1.0])
        for k, value in enumerate(values):
            assert value == pytest.approx(0.5 * 0.8**k, rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            disagreement_trajectory(seq_of(LAZY), [1.0, 2.0, 3.0])

    def test_contraction_bounds_trajectory(self):
        seq = preset_fixture("positive-diagonal", 3, 30, 0.15, seed=44)
        cert = contraction_certificate(seq)
        assert cert is not None
        x0 = np.array([1.0, 0.0, -1.0])
        values = disagreement_trajectory(seq, x0)
        half_spread = (x0.max() - x0.min()) / 2
        for k in range(cert.saturation_index, len(seq) + 1):
            assert values[k] <= half_spread * cert.contraction + COMPOUND_SLACK


class TestLazySeminorm:
    """The product scans compute no semi-norm they do not report."""

    def count_seminorms(self):
        return mock.patch.object(convergence, "matrix_seminorm", side_effect=matrix_seminorm)

    def test_states_compute_seminorm_on_first_read(self):
        seq = seq_of(LAZY, LAZY)
        with self.count_seminorms() as counted:
            states = list(iter_products(seq))
            assert counted.call_count == 0
            assert states[2].seminorm == pytest.approx(0.64)
            assert states[2].seminorm == pytest.approx(0.64)
            assert counted.call_count == 1

    def test_scans_compute_no_seminorm(self):
        seq = preset_fixture("positive-diagonal", 3, 20, 0.15, seed=46)
        alpha = min_positive_entry(seq.items)
        with self.count_seminorms() as counted:
            assert find_saturation_K(seq, alpha) is not None
            assert counted.call_count == 0

    def test_certificate_measures_the_scanned_product_once(self):
        seq = preset_fixture("positive-diagonal", 3, 20, 0.15, seed=47)
        with self.count_seminorms() as counted, mock.patch.object(convergence, "partial_product") as rebuilt:
            cert = contraction_certificate(seq)
            assert counted.call_count == 1
            assert rebuilt.call_count == 0
        product = partial_product(seq, 0, cert.saturation_index)
        assert cert.seminorm_at_saturation == matrix_seminorm(product)
        assert 0.0 <= cert.row_sum_drift < 1e-9


FACTOR_KINDS = ("permutation", "map", "constant map", "map with -0.0", "sparse", "dense")


def factor_of(kind, rng, n):
    """Entries of one factor: a map (one 1.0 per row, its zeros written -0.0 in "map with -0.0")
    or random stochastic entries, sparse or dense, which may still hold one entry per row."""
    if kind in ("sparse", "dense"):
        return random_stochastic(rng, n, 0.15 if kind == "sparse" else 0.9)
    if kind == "permutation":
        targets = rng.permutation(n)
    else:
        targets = np.full(n, rng.integers(n)) if kind == "constant map" else rng.integers(0, n, n)
    return np.where(np.eye(n, dtype=bool)[targets], 1.0, -0.0 if kind == "map with -0.0" else 0.0)


def map_of(*targets):
    """The map factor sending row i to row targets[i] (0-based)."""
    return np.eye(len(targets))[list(targets)]


class TestMapSteps:
    """A map factor (one positive entry per row) steps the walks by a row gather: every
    state and pattern equals the one-BLAS-product-per-step walk bit for bit."""

    @settings(deadline=None)
    @given(st.integers(1, 12), st.lists(st.sampled_from(FACTOR_KINDS), min_size=1, max_size=24),
           st.integers(0, 2**32 - 1))
    def test_every_state_equals_the_blas_walk(self, n, kinds, seed):
        rng = np.random.default_rng(seed)
        seq = seq_of(*(factor_of(kind, rng, n) for kind in kinds))
        for state, (matrix, drift, seminorm) in zip(iter_products(seq), products_by_blas(stack_of(seq)), strict=True):
            assert state.matrix.tobytes() == matrix.tobytes()
            assert repr(state.row_sum_drift) == repr(drift)
            assert repr(state.seminorm) == repr(seminorm)
        walk = pattern_walk(factor_patterns(seq.factors), seq.word)
        for walked, expected in zip(walk, patterns_by_blas(factor_patterns(stack_of(seq))), strict=True):
            assert np.array_equal(walked, expected)

    def test_negative_zeros_survive_validation(self):
        # the property test's "map with -0.0" factors reach the walk with their signed zeros
        seq = seq_of(factor_of("map with -0.0", np.random.default_rng(1), 4))
        assert np.signbit(seq.factors).sum() == 12
        assert not np.signbit(list(iter_products(seq))[1].matrix).any()

    def test_identity_carries_every_row(self):
        states = list(iter_products(seq_of(map_of(2, 0, 1), map_of(1, 1, 0))))
        assert [s.targets.tolist() for s in states] == [[0, 1, 2], [2, 0, 1], [0, 0, 2]]
        for state in states:
            assert np.array_equal(state.matrix, np.eye(3)[state.targets])
        assert [s.seminorm for s in states] == [1.0, 1.0, 1.0]

    def test_constant_map_gives_zero_from_its_step(self):
        seq = seq_of(map_of(1, 1, 1), map_of(2, 0, 1), map_of(1, 0, 2))
        states = list(iter_products(seq))
        assert [repr(s.seminorm) for s in states] == ["1.0", "0.0", "0.0", "0.0"]
        assert [s.targets.tolist() for s in states[1:]] == [[1, 1, 1]] * 3
        assert [matrix_seminorm(s.matrix) for s in states] == [1.0, 0.0, 0.0, 0.0]
        assert run_to_tolerance(seq_of(map_of(1, 0, 2), map_of(0, 0, 0)), 1e-300).matrix_seminorms == (1.0, 1.0, 0.0)

    def test_a_factor_that_is_not_a_map_ends_the_targets(self):
        lazy = 0.5 * np.eye(3) + 0.5 * np.roll(np.eye(3), 1, axis=1)
        states = list(iter_products(seq_of(map_of(1, 2, 0), map_of(2, 0, 1), lazy, map_of(1, 2, 0))))
        assert [s.targets is None for s in states] == [False, False, False, True, True]
        assert [s.seminorm for s in states] == [matrix_seminorm(s.matrix) for s in states] == [1.0, 1.0, 1.0, 0.5, 0.5]
        assert np.array_equal(states[4].matrix, states[3].matrix[[1, 2, 0]])

    def test_a_map_after_other_factors_keeps_the_drift(self):
        # row 2 of A sums to 1 + 2**-52, row 3 to 1 exactly; the constant map then keeps only row 3
        a = [[0.1, 0.2, 0.7], [0.7, 0.2, 0.1], [0.0, 0.0, 1.0]]
        states = list(iter_products(seq_of(a, map_of(2, 2, 2))))
        assert states[1].row_sum_drift == 2.0**-52
        assert (states[2].matrix.sum(axis=1) == 1.0).all()
        assert states[2].row_sum_drift == states[1].row_sum_drift
        assert states[2].targets is None

    @pytest.mark.parametrize("preset, n, length, maps", [
        ("periodic-counterexample", 101, 150, True), ("positive-diagonal", 40, 30, False),
    ])
    def test_map_steps_form_no_product_and_no_seminorm(self, preset, n, length, maps):
        seq = preset_fixture(preset, n, length, 0.001, 3)
        with mock.patch.object(convergence, "matrix_seminorm", side_effect=matrix_seminorm) as measured:
            run = run_to_tolerance(seq, 1e-6)
        with mock.patch.object(digraph, "pattern_product", side_effect=pattern_product) as multiplied:
            walked = list(pattern_walk(factor_patterns(seq.factors), seq.word))
        assert len(walked) == length
        if maps:
            assert run.matrix_seminorms == (1.0,) * (length + 1)
            assert measured.call_count == multiplied.call_count == 0
        else:
            assert run.state.k > 1
            assert measured.call_count == run.state.k  # every step; P(0) = I is a map's product
            assert multiplied.call_count == length

    @pytest.mark.parametrize("command, calls", [("simulate", 1), ("analyze", 1), ("certify", 1)])
    def test_each_factor_is_tested_for_a_map_once(self, tmp_path, command, calls):
        # periodic-counterexample at odd n repeats one permutation in all 150 records; a walk
        # decides row_targets once per factor, where one test per record took 150 in simulate
        # and 101 in analyze, up to the onset; certify refuses it before any walk of its own
        path = tmp_path / "p.seq"
        assert cli.main(["generate", "periodic-counterexample", "--n", "101", "--length", "150",
                         "--out", str(path)]) == 0
        original = digraph.row_targets
        with mock.patch.object(digraph, "row_targets", wraps=original) as walk, \
                mock.patch.object(convergence, "row_targets", wraps=original) as products:
            cli.main([command, str(path)])
        assert walk.call_count + products.call_count == calls


class TestWordForm:
    """A sequence held as distinct factors and a word reports as the stack it stands for."""

    @settings(deadline=None, max_examples=60)
    @given(st.integers(1, 7), st.lists(st.sampled_from(FACTOR_KINDS), min_size=1, max_size=5),
           st.integers(0, 2**32 - 1), st.data())
    def test_a_word_reports_as_its_stack(self, n, kinds, seed, data):
        # every factor occurs in the word, in random order and with repeats; -0.0 rows
        # and -0.0 in x0 keep the map steps and the iterates to the last bit
        rng = np.random.default_rng(seed)
        raw = np.array([factor_of(kind, rng, n) for kind in kinds])
        repeats = data.draw(st.lists(st.integers(0, len(kinds) - 1), max_size=20))
        word = np.array(data.draw(st.permutations([*range(len(kinds)), *repeats])))
        x0 = np.where(rng.random(n) < 0.3, -0.0, rng.standard_normal(n))
        held = MatrixSequence._of_word(MatrixSequence(raw).factors, word)
        assert reports(held, x0) == reports(MatrixSequence(raw[word]), x0)


class TestSupportOnsets:
    def test_floors_hold_on_mixing_fixture(self):
        # the proof's induction: when the m-th row (m = 0, 1, ...) joins the
        # support of a column, the column minimum is at least alpha ** (m * (W + 1))
        seq = preset_fixture("cycle-core", 3, 20, 0.2, seed=45)
        alpha = min_positive_entry(seq.items)
        step = wielandt_bound(seq.n) + 1
        supports, minima = supports_and_minima(seq)
        for j in range(seq.n):
            joined = supports[:, :, j].any(axis=0)
            onsets = sorted(supports[:, :, j].argmax(axis=0)[joined])
            assert supports[0, j, j]
            for m, k in enumerate(onsets):
                assert minima[k, j] >= alpha ** (m * step) - 1e-12


@pytest.fixture(scope="module", params=[("positive-diagonal", 3), ("cycle-core", 3), ("cycle-core", 4)])
def fixture(request):
    preset, n = request.param
    seq = preset_fixture(preset, n, 3 * wielandt_bound(n) + 5, 1.0 / (2 * n), seed=50 + n)
    assert analyze(seq).holds
    return (seq, *supports_and_minima(seq))


class TestSupportInequalities:
    """Structural inequalities on fixtures that satisfy all four conditions."""

    def test_supports_grow_across_wielandt_gaps(self, fixture):
        seq, supports, _ = fixture
        w = wielandt_bound(seq.n)
        for l in range(len(seq) + 1):
            for k in range(l + w, len(seq) + 1):
                assert (supports[l] <= supports[k]).all()

    def test_minima_monotone_when_support_stalls(self, fixture):
        seq, supports, minima = fixture
        assert analyze(seq).reducibility_failures == ()
        for k in range(len(seq)):
            stalled = (supports[k] == supports[k + 1]).all(axis=0)
            assert (minima[k + 1, stalled] >= minima[k, stalled] - 1e-12).all()

    def test_alpha_decay_lower_bound(self, fixture):
        seq, _, minima = fixture
        alpha = min_positive_entry(seq.items)
        for l in range(len(seq) + 1):
            for k in range(l, len(seq) + 1):
                assert (minima[k] >= alpha ** (k - l) * minima[l] - 1e-12).all()

    def test_positivity_matches_walk_oracle(self, fixture):
        seq = fixture[0]
        graphs = [digraph_of(m) for m in seq]
        for l in range(0, len(seq) + 1, 3):
            for k in range(l, min(l + 6, len(seq) + 1)):
                entries = partial_product(seq, l, k)
                for i in range(1, seq.n + 1):
                    for j in range(1, seq.n + 1):
                        assert (entries[i - 1, j - 1] > 0) == time_varying_walk_exists(graphs[l:k], i, j)


class TestConsensusRow:
    def test_midrange(self):
        m = validated([[0.2, 0.8], [0.4, 0.6]])
        assert np.allclose(consensus_row(m), [0.3, 0.7])
