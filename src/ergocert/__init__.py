"""Analysis of backward products of row-stochastic matrices.

Validates matrix sequences, checks the four convergence conditions
(entry lower bound, eventual positivity, complete reducibility, and a
common sink-free aperiodic spanning pattern), and produces explicit
contraction certificates and disagreement trajectories.

The package root exports the documented calls, their types and exceptions;
every other name is imported from its module (`ergocert.stochastic`, ...).
"""

from .convergence import (
    ConvergenceCertificate,
    ProductState,
    ToleranceRun,
    contraction_certificate,
    disagreement_trajectory,
    run_to_tolerance,
)
from .errors import (
    CertificationRefused,
    ContractViolation,
    DimensionError,
    NegativityError,
    StochasticityError,
)
from .hypotheses import HypothesisReport, analyze
from .seqfile import SequenceFile, SequenceFileError, read_sequence_file
from .stochastic import MatrixSequence

__version__ = "0.1.0"
