"""The ergocert names that the benchmark's traced run calls, and the public API.

`perfbench/layers.py` rebuilds every CLI command from public module calls.
Removing or renaming one of those names breaks `perfbench/run.py --trace 1`
and no other test, so this module imports each of them, checks that the
list below still covers the file, and reads the result attributes the
traced run reads. It also checks that the package root exports exactly the
documented library, that the README's library example runs, and that
the package exports no name, and no public class of a package module an
attribute, that only tests use. Every other public module-level name must
be read in the package or by the traced run, and the names only the traced
run reads are pinned.
"""

import ast
import dataclasses
import importlib
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

from oracles import stack_of

MODULES = {"convergence": convergence, "digraph": digraph, "generate": generate,
           "hypotheses": hypotheses, "seqfile": seqfile, "stochastic": stochastic}
ROOT = Path(__file__).resolve().parents[1]
LAYERS = ROOT / "perfbench" / "layers.py"
PACKAGE = ROOT / "src" / "ergocert"
README = ROOT / "README.md"
DOCUMENTED = {
    "read_sequence_file", "analyze", "contraction_certificate", "run_to_tolerance", "disagreement_trajectory",
    "MatrixSequence",
    "SequenceFile", "HypothesisReport", "ConvergenceCertificate", "ToleranceRun", "ProductState",
    "SequenceFileError", "ContractViolation", "CertificationRefused", "DimensionError", "StochasticityError",
    "NegativityError",
}


INIT = PACKAGE / "__init__.py"
CALLERS = [path for path in PACKAGE.glob("*.py") if path != INIT] + [LAYERS]


# Public names that only the traced run reads: ROADMAP item 5 removes or moves them once
# perfbench stops calling them, and a new caller in the package drops one from this set.
ONLY_TRACED = {
    "partial_product", "find_saturation_K", "disagreement_trajectory", "strongly_connected_components",
    "is_aperiodic", "intersection", "check_eventual_positivity", "identity_matrix", "multiply", "digraph_of",
}


def top_level_reads(path: Path) -> set[str]:
    """Every name the file reads bare, or as an attribute of a package module (stochastic.multiply)."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        or isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in MODULES
    }


def test_names_only_the_traced_run_reads():
    # each public top-level name of a module is read in the package (its own module or
    # another) or in perfbench/layers.py; a def or class name, or an assignment target, is no read
    modules = [path for path in PACKAGE.glob("*.py") if path != INIT]
    package_reads = set().union(*map(top_level_reads, modules))
    traced_reads = top_level_reads(LAYERS)
    defined = set()
    for path in modules:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined |= {target.id for target in targets if isinstance(target, ast.Name)}
    public = {name for name in defined if not name.startswith("_")}
    assert len(public) > len(ONLY_TRACED)
    assert public - package_reads - traced_reads == set()
    assert (public - package_reads) & traced_reads == ONLY_TRACED


def test_every_export_has_a_non_test_caller():
    exported = {
        alias.asname or alias.name
        for node in ast.walk(ast.parse(INIT.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert exported
    assert exported - set().union(*map(top_level_reads, CALLERS)) == set()


def type_names(annotation) -> set[str]:
    """The class names an annotation gives: T, module.T, "T" or a union of them."""
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        return type_names(ast.parse(annotation.value, mode="eval").body)
    if isinstance(annotation, ast.BinOp):
        return type_names(annotation.left) | type_names(annotation.right)
    if isinstance(annotation, ast.Name):
        return {annotation.id}
    return {annotation.attr} if isinstance(annotation, ast.Attribute) else set()


def return_annotations() -> dict[str, list]:
    """The return annotations of the package's functions and methods, by name."""
    returns = {}
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef) and node.returns is not None:
                returns.setdefault(node.name, []).append(node.returns)
    return returns


def typed_reads(tree: ast.Module, classes: set[str], returns: dict[str, list]) -> set[tuple[str, str]]:
    """(T, name) for each receiver.name read where the receiver's type T shows in the same function.

    It shows for a parameter annotated with T, for self inside class T, and for a name
    assigned from a call to T or to a package function whose return annotation names T;
    in a tuple unpack, the first name takes the type of the first element of a tuple return.
    """
    owner = {id(f): c.name for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
             for f in c.body if isinstance(f, ast.FunctionDef)}
    reads = set()
    for func in (node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)):
        params = func.args.posonlyargs + func.args.args + func.args.kwonlyargs
        env = {arg.arg: type_names(arg.annotation) for arg in params if arg.annotation is not None}
        if id(func) in owner and params:
            env[params[0].arg] = {owner[id(func)]}
        for node in ast.walk(func):
            if not (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)):
                continue
            callee = node.value.func
            callee = callee.id if isinstance(callee, ast.Name) else getattr(callee, "attr", None)
            returned = [ast.Name(callee)] if callee in classes else returns.get(callee, [])
            for target in node.targets:
                annotations = returned
                if isinstance(target, ast.Tuple) and target.elts:
                    target = target.elts[0]
                    annotations = [a.slice.elts[0] for a in returned
                                   if isinstance(a, ast.Subscript) and isinstance(a.slice, ast.Tuple)]
                if isinstance(target, ast.Name):
                    env[target.id] = set().union(*map(type_names, annotations))
        reads |= {(cls, node.attr) for node in ast.walk(func)
                  if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                  and isinstance(node.value, ast.Name) for cls in env.get(node.value.id, ())}
    return reads


def package_classes() -> list[type]:
    """Every public class defined in a package module, exported at the root or not."""
    modules = [importlib.import_module(f"ergocert.{path.stem}") for path in PACKAGE.glob("*.py") if path != INIT]
    return [value for module in modules for name, value in vars(module).items()
            if isinstance(value, type) and value.__module__ == module.__name__ and not name.startswith("_")]


def test_every_public_attribute_of_an_exported_type_has_a_non_test_reader():
    # exported by its module: the guard covers the classes the root does not export too
    attributes = set()
    for cls in package_classes():
        fields = [field.name for field in dataclasses.fields(cls)] if dataclasses.is_dataclass(cls) else []
        attributes |= {(cls.__name__, name) for name in [*fields, *vars(cls)] if not name.startswith("_")}
    assert {"Digraph", "SccPartition", "AperiodicityReport"} <= {cls for cls, _ in attributes}
    owners = {}
    for cls, name in attributes:
        owners.setdefault(name, set()).add(cls)
    assert {name for name, classes in owners.items() if len(classes) > 1}  # names the owner-aware rule covers
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in CALLERS]
    # a name of one exported type counts on any attribute read; a name that several define
    # counts for type T only through a receiver whose type shows as T
    read = {node.attr for tree in trees for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    classes, returns = {cls for cls, _ in attributes}, return_annotations()
    typed = set().union(*(typed_reads(tree, classes, returns) for tree in trees))
    unread = {(cls, name) for cls, name in attributes
              if ((cls, name) not in typed if len(owners[name]) > 1 else name not in read)}
    assert unread == set()


def readme_example() -> str:
    """The python block under the README's "## Library" heading."""
    library = README.read_text(encoding="utf-8").split("## Library", 1)[1]
    return re.search(r"```python\n(.*?)```", library, re.S).group(1)


def test_root_exports_the_documented_library():
    public = {
        name for name in dir(ergocert)
        if not name.startswith("_") and not isinstance(getattr(ergocert, name), ModuleType)
    }
    assert public == DOCUMENTED
    shown = set(re.findall(r"\bec\.(\w+)", readme_example()))
    assert shown
    assert {name for name in shown if not hasattr(ergocert, name)} == set()


def test_readme_library_example_runs(tmp_path, monkeypatch):
    # the example reads walk.seq from the working directory and builds a sequence from arrays
    seqf = generate_sequence("positive-diagonal", 3, 8, 0.1, 1)
    write_sequence_file(tmp_path / "walk.seq", seqf.sequence, seqf.metadata)
    monkeypatch.chdir(tmp_path)
    names = {"arrays": [np.array(a) for a in seqf.sequence], "x0": np.arange(3.0)}
    exec(readme_example(), names)
    assert np.allclose(stack_of(names["seq"]), stack_of(seqf.sequence), rtol=0, atol=1e-15)  # renormalized once more
    assert isinstance(names["report"], ergocert.HypothesisReport)
    assert isinstance(names["run"], ergocert.ToleranceRun) and names["run"].vector_seminorms is not None
    assert len(names["traj"]) == 9


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
