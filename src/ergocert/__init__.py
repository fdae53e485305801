"""Analysis of backward products of row-stochastic matrices.

Validates matrix sequences, checks the four convergence conditions
(entry lower bound, eventual positivity, complete reducibility, and a
common sink-free aperiodic spanning pattern), and produces explicit
contraction certificates and disagreement trajectories.
"""

from .convergence import (
    ConvergenceCertificate,
    ProductState,
    ToleranceRun,
    consensus_row,
    contraction_certificate,
    disagreement_trajectory,
    find_saturation_K,
    iter_products,
    partial_product,
    run_to_tolerance,
    saturation_floor,
)
from .digraph import (
    AperiodicityReport,
    Digraph,
    SccPartition,
    completely_reducible,
    component_periods,
    intersection,
    is_aperiodic,
    pattern_product,
    reachability,
    strongly_connected_components,
    wielandt_bound,
    wielandt_graph,
)
from .errors import (
    CertificationRefused,
    ContractViolation,
    DimensionError,
    NegativityError,
    StochasticityError,
)
from .generate import PRESETS, generate_sequence
from .hypotheses import (
    HypothesisReport,
    MatrixSequence,
    analyze,
    check_eventual_positivity,
)
from .seqfile import (
    SequenceFile,
    SequenceFileError,
    format_sequence,
    parse_sequence_text,
    read_sequence_file,
    write_sequence_file,
)
from .stochastic import (
    StochasticMatrix,
    digraph_of,
    identity_matrix,
    matrix_seminorm,
    min_positive_entry,
    multiply,
    vector_seminorm,
)

__version__ = "0.1.0"
