"""Analysis of backward products of row-stochastic matrices.

Validates matrix sequences, checks the four convergence conditions
(entry lower bound, eventual positivity, complete reducibility, and a
common sink-free aperiodic spanning pattern), and produces explicit
contraction certificates and disagreement trajectories.

The package root exports the documented calls, their types and exceptions;
every other name is imported from its module (`ergocert.stochastic`, ...).
`_EXPORTS` maps each export to its module, which is imported on first access
(PEP 562): `import ergocert` alone imports no ergocert module.
"""

from importlib import import_module

_EXPORTS = {name: module for module, names in {
    "convergence": ("ConvergenceCertificate", "ProductState", "ToleranceRun", "contraction_certificate",
                    "disagreement_trajectory", "run_to_tolerance"),
    "errors": ("CertificationRefused", "ContractViolation", "DimensionError", "NegativityError",
               "StochasticityError"),
    "hypotheses": ("HypothesisReport", "analyze"),
    "seqfile": ("SequenceFile", "SequenceFileError", "read_sequence_file"),
    "stochastic": ("MatrixSequence",),
}.items() for name in names}
__all__ = sorted(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)


def __dir__() -> list[str]:
    return list(__all__)
