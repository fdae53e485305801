"""The ergocert names that the benchmark's traced run calls, and the public API.

`perfbench/layers.py` rebuilds every CLI command from public module calls.
Removing or renaming one of those names breaks `perfbench/run.py --trace 1`
and no other test, so this module imports each of them, checks that the
list below still covers the file, and reads the result attributes the
traced run reads. It also checks that the package root exports exactly the
documented library, that the README's library example resolves, and that
the package exports no name, and no exported type an attribute, that only
tests use.
"""

import ast
import dataclasses
import re
from pathlib import Path
from types import ModuleType

import numpy as np

import ergocert
from ergocert import convergence, digraph, generate, hypotheses, seqfile, stochastic
from ergocert.cli import main  # noqa: F401  (perfbench/bench.py runs commands in process)
from ergocert.convergence import (
    consensus_row,
    disagreement_trajectory,
    find_saturation_K,
    iter_products,
    partial_product,
    run_to_tolerance,
    saturation_floor,
)
from ergocert.digraph import Digraph, intersection, is_aperiodic, strongly_connected_components
from ergocert.generate import generate_sequence
from ergocert.hypotheses import MatrixSequence, check_eventual_positivity
from ergocert.seqfile import read_sequence_file, write_sequence_file
from ergocert.stochastic import digraph_of, identity_matrix, matrix_seminorm, min_positive_entry, multiply

MODULES = {"convergence": convergence, "digraph": digraph, "generate": generate,
           "hypotheses": hypotheses, "seqfile": seqfile, "stochastic": stochastic}
ROOT = Path(__file__).resolve().parents[1]
LAYERS = ROOT / "perfbench" / "layers.py"
PACKAGE = ROOT / "src" / "ergocert"
README = ROOT / "README.md"
DOCUMENTED = {
    "read_sequence_file", "analyze", "contraction_certificate", "run_to_tolerance", "disagreement_trajectory",
    "StochasticMatrix", "MatrixSequence",
    "SequenceFile", "HypothesisReport", "ConvergenceCertificate", "ToleranceRun", "ProductState",
    "SequenceFileError", "ContractViolation", "CertificationRefused", "DimensionError", "StochasticityError",
    "NegativityError",
}


def referenced_names(path: Path) -> set[str]:
    """Every name read in the file, bare or as an attribute."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.Name, ast.Attribute))
    }


INIT = PACKAGE / "__init__.py"


def non_test_reads() -> set[str]:
    """Every name read in the package modules or in the traced run."""
    callers = [path for path in PACKAGE.glob("*.py") if path != INIT] + [LAYERS]
    return set().union(*(referenced_names(path) for path in callers))


def test_every_export_has_a_non_test_caller():
    exported = {
        alias.asname or alias.name
        for node in ast.walk(ast.parse(INIT.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert exported
    assert exported - non_test_reads() == set()


def test_every_public_attribute_of_an_exported_type_has_a_non_test_reader():
    attributes = set()
    for cls in (value for value in vars(ergocert).values() if isinstance(value, type)):
        fields = [field.name for field in dataclasses.fields(cls)] if dataclasses.is_dataclass(cls) else []
        attributes |= {(cls.__name__, name) for name in [*fields, *vars(cls)] if not name.startswith("_")}
    assert attributes
    used = non_test_reads()
    assert {(cls, name) for cls, name in attributes if name not in used} == set()


def test_root_exports_the_documented_library():
    public = {
        name for name in dir(ergocert)
        if not name.startswith("_") and not isinstance(getattr(ergocert, name), ModuleType)
    }
    assert public == DOCUMENTED
    library = README.read_text(encoding="utf-8").split("## Library", 1)[1]
    example = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    shown = set(re.findall(r"\bec\.(\w+)", example))
    assert shown
    assert {name for name in shown if not hasattr(ergocert, name)} == set()


def test_imports_cover_the_traced_run():
    used = {
        (node.value.id, node.attr)
        for node in ast.walk(ast.parse(LAYERS.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in MODULES
    }
    assert used
    # every name the traced run calls is imported above, from the same module
    missing = {(m, name) for m, name in used if globals().get(name) is not getattr(MODULES[m], name, None)}
    assert missing == set()


def test_result_attributes_the_traced_run_reads(tmp_path):
    path = tmp_path / "pd.seq"
    seqf = generate_sequence("positive-diagonal", 3, 8, 0.1, 1)
    write_sequence_file(path, seqf.matrices, seqf.metadata)
    seqf = read_sequence_file(path)
    assert (seqf.n, seqf.length) == (3, 8)
    seq = seqf.to_sequence()
    assert isinstance(seq, MatrixSequence)
    alpha = min_positive_entry(seq.items)

    patterns = [digraph_of(m) for m in seq]
    assert all(p.edges for p in patterns)
    assert not strongly_connected_components(patterns[0]).condensation_edges
    common = intersection(patterns)
    aperiodicity = is_aperiodic(common)
    assert aperiodicity.aperiodic
    component_of = {u: i for i, comp in enumerate(aperiodicity.components) for u in comp}
    Digraph(common.n, {(u, v) for u, v in common.edges if component_of[u] == component_of[v]})
    assert check_eventual_positivity(seq, 1) is not None

    saturation = find_saturation_K(seq, alpha)
    assert 0 < saturation_floor(seq.n, alpha) < 1
    assert 0 <= matrix_seminorm(partial_product(seq, 0, saturation)) < 1
    product = multiply(seq.factor(1), identity_matrix(seq.n))
    assert consensus_row(product).shape == (3,)
    assert next(iter_products(seq)).seminorm == 1.0
    run_to_tolerance(seq, 1e-6)
    assert len(disagreement_trajectory(seq, np.arange(3.0))) == 9
