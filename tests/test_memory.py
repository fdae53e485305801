"""Memory regressions: the product layer stays O(n^2) per step, and the
parser holds no Python float per value.

Peaks are tracemalloc's, which counts numpy's array buffers. At n = 300 one
n x n float array is 0.69 MiB and a one-shot n x n x n semi-norm temporary
would be 206 MiB. At n = 101 and L = 150 a stack of 150 distinct factors is
11.7 MiB; a parse that held one Python float per value peaked at 62 MiB there.
A file of repeated records keeps each distinct record once.
"""

import tracemalloc

import numpy as np

from ergocert.convergence import run_to_tolerance
from ergocert.generate import generate_sequence
from ergocert.hypotheses import MatrixSequence, analyze, positivity_onsets
from ergocert.seqfile import format_sequence, parse_sequence_text
from ergocert.stochastic import matrix_seminorm, min_positive_entry, multiply

from oracles import random_stochastic, validated

N = 300
MIB = 2**20


def peak_mib(fn, *args) -> float:
    tracemalloc.start()
    try:
        fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / MIB


def retained_mib(fn, *args) -> float:
    """tracemalloc's count of what the call's result still holds when it returns."""
    tracemalloc.start()
    try:
        result = fn(*args)  # noqa: F841  (held while the count is read)
        current, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return current / MIB


def random_matrix(rng) -> np.ndarray:
    return validated(random_stochastic(rng, N, density=0.5))


def test_seminorm_peak_at_n300():
    m = random_matrix(np.random.default_rng(60))
    assert peak_mib(matrix_seminorm, m) < 16


def test_seminorm_peak_of_a_contracting_product_at_n300():
    # a product of three factors (semi-norm 0.0045): the rows are ordered by their distance
    # to the column mean and a sorted copy is compared block by block. Measured 2.1 MiB
    rng = np.random.default_rng(64)
    product = random_matrix(rng)
    for _ in range(2):
        product = multiply(random_matrix(rng), product)
    assert matrix_seminorm(product) < 0.01
    assert peak_mib(matrix_seminorm, product) < 16


def test_run_to_tolerance_peak_at_n300():
    rng = np.random.default_rng(61)
    seq = MatrixSequence([random_matrix(rng) for _ in range(6)])
    x0 = rng.random(N)
    # epsilon below any reachable semi-norm: every step is taken
    assert peak_mib(run_to_tolerance, seq, 1e-300) < 32
    assert peak_mib(run_to_tolerance, seq, 1e-300, x0) < 32


def test_parse_peak_at_n101_l150():
    seqf = generate_sequence("positive-diagonal", 101, 150, 0.001, seed=3)
    text = format_sequence(seqf.matrices, seqf.metadata)
    del seqf
    # the 12 MiB text is allocated before tracing starts
    assert peak_mib(parse_sequence_text, text) < 40


def test_parse_peak_of_a_periodic_file_at_n101_l150():
    # 150 records repeat one record of 101 lines: its lines are converted once, and no
    # stack is gathered. Measured 7.2 MiB, the text's lines; gathering the 11.7 MiB stack
    # peaked at 12.6 MiB, a parse that held every line at 19 MiB, one converting every line at 21
    seqf = generate_sequence("periodic-counterexample", 101, 150, 0.001, seed=3)
    text = format_sequence(seqf.matrices, seqf.metadata)
    del seqf
    assert peak_mib(parse_sequence_text, text) < 16


def test_min_positive_entry_peak_of_a_positive_stack_at_n101_l150():
    # every entry of the 11.7 MiB stack is positive: a minimum over all of them at once
    # would copy the whole stack (13.1 MiB); chunks of 12 records copy about 1 MiB each
    stack = np.stack([random_stochastic(np.random.default_rng(62 + k), 101, density=1.0) for k in range(150)])
    assert peak_mib(min_positive_entry, stack) < 2


def test_positivity_onsets_peak_of_a_non_repeating_sparse_stack_at_n200_l400():
    # every factor occurs once, so each predecessor table is built and released at one
    # step. Measured 1.1 MiB; keys copied with tobytes() (a 160 KB float32 record each)
    # peaked at 61 MiB, and one bool copy of the whole stack at 15-17 MiB
    rng = np.random.default_rng(63)
    stack = rng.random((400, 200, 200)) < 0.01
    order = rng.permutation(200)
    stack[:, order, np.roll(order, -1)] = True
    patterns = stack.astype(np.float32)
    del stack
    assert peak_mib(positivity_onsets, patterns, np.arange(400)) < 4


def test_analyze_all_starts_peak_of_a_periodic_file_at_n101_l150():
    # the one factor's pattern is 10 KiB and the all-starts pass adds O(n^2) per step.
    # Measured 0.16 MiB; a boolean pattern stack of all 150 records peaked at 1.6 MiB, and a
    # float32 one at 7.3
    seq = generate_sequence("periodic-counterexample", 101, 150, 0.001, seed=3).to_sequence()
    assert peak_mib(analyze, seq, True) < 4


def test_parsed_periodic_file_retains_its_distinct_records_at_n50_l2000():
    # a 20 MB file of 2000 records that alternate two permutations: the sequence keeps two
    # factors (39 KiB) and a word of 2000 indices. Measured 0.06 MiB; the gathered
    # (2000, 50, 50) stack held 38.1 MiB
    seqf = generate_sequence("periodic-counterexample", 50, 2000, None, seed=0)
    text = format_sequence(seqf.matrices, seqf.metadata)
    del seqf
    assert len(text) > 20_000_000
    assert retained_mib(parse_sequence_text, text) < 1
