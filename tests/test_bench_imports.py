"""The benchmark in ``bench/`` uses frobpush's public names; these tests fail
when a change to the package removes or renames one of them, or breaks an
assumption its tracer makes about the package, or lets a closed form or an
oracle into the paths it times, or keeps a public function that neither the
package nor the benchmark calls.

The benchmark files are parsed with ``ast``, never imported or edited.
"""

import ast
import importlib
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
PACKAGE = Path(__file__).resolve().parent.parent / "src" / "frobpush"
COMBINAT = PACKAGE / "combinat.py"
BENCH_FILES = sorted(BENCH.glob("*.py"))


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def constant(tree: ast.Module, name: str):
    """The literal value of a module-level assignment ``name = ...``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not assigned")


def resolve(module: str, name: str):
    """``from module import name``: an attribute, else a submodule."""
    owner = importlib.import_module(module)
    if hasattr(owner, name):
        return getattr(owner, name)
    return importlib.import_module(f"{module}.{name}")


def test_bench_files_found():
    assert {"run.py", "tracer.py", "workloads.py"} <= {p.name for p in BENCH_FILES}


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_names_resolve(path):
    """Every name imported from frobpush resolves, and so does every
    attribute read off an imported frobpush module."""
    tree = parse(path)
    imported = {}
    missing = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "frobpush":
            for alias in node.names:
                try:
                    value = resolve(node.module, alias.name)
                except (AttributeError, ImportError):
                    missing.append(f"{node.module}.{alias.name}")
                else:
                    imported[alias.asname or alias.name] = value
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "frobpush":
                    importlib.import_module(alias.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            owner = imported.get(node.value.id)
            if isinstance(owner, types.ModuleType) and not hasattr(owner, node.attr):
                missing.append(f"{owner.__name__}.{node.attr}")
    assert not missing, f"{path.name} uses names frobpush no longer has: {missing}"


def test_tracer_layers_import():
    tree = parse(BENCH / "tracer.py")
    for layer in constant(tree, "LAYERS"):
        importlib.import_module(f"frobpush.{layer}")
    picard = importlib.import_module("frobpush.picard")
    for cls_name, method in constant(tree, "PICARD_LEAVES") + constant(tree, "PICARD_METHODS"):
        assert hasattr(getattr(picard, cls_name), method), f"picard.{cls_name}.{method}"


def test_combinat_functions_are_leaves():
    """The tracer times ``combinat`` functions as leaves that call no other
    traced function.  A public function that calls one of its parameters
    could call back into a traced layer, so none may."""
    tree = parse(COMBINAT)
    assert "combinat" in constant(parse(BENCH / "tracer.py"), "LEAF_LAYERS")
    offenders = []
    for node in tree.body:
        if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
            continue
        args = node.args
        params = {
            a.arg
            for a in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
            if a is not None
        }
        for call in ast.walk(node):
            if (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                    and call.func.id in params):
                offenders.append(f"{node.name} calls its parameter {call.func.id}")
    assert not offenders, offenders


# Closed forms and independent oracles: regression data for ``verify`` and
# the tests, never a route of the library.
ORACLES = {"hirzebruch_closed_multiplicities", "hirzebruch_block_multiplicities",
           "determinant_twist_sum", "volume_identity", "bounded_power_coefficients",
           "blowup_multiplicity", "thomsen_loop", "cox_degrees"}


def referenced_names(node: ast.AST) -> set[str]:
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    if isinstance(node, ast.ImportFrom):
        return {alias.name for alias in node.names}
    return set()


def test_oracles_stay_out_of_hot_paths():
    """Only ``verify`` references a closed form or an oracle.  The modules
    that define them may build one on another, and ``__init__`` re-exports
    them."""
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "verify":
            continue
        tree = parse(path)
        exempt = {
            id(inner)
            for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name in ORACLES
            for inner in ast.walk(node)
        }
        for node in ast.walk(tree):
            if id(node) in exempt or (path.stem == "__init__" and isinstance(node, ast.ImportFrom)):
                continue
            for name in referenced_names(node) & ORACLES:
                offenders.append(f"{path.name}:{node.lineno} references {name}")
    assert not offenders, offenders


# Public functions with no caller in the package or the benchmark, kept as
# library API: ``cli.decomposition_to_json`` is the documented dict form of
# the JSON schema, which the CLI writes straight from a decomposition's
# stores and which the writer's tests compare against.
LIBRARY_API = {"decomposition_to_json"}


def test_public_functions_have_a_caller():
    """Every public module-level function of the package is referenced from
    the package or the benchmark, so none is kept for the tests alone; the
    ``LIBRARY_API`` functions are the named exceptions.  A re-export in
    ``__init__`` is no reference, nor is a function's reference to itself;
    a declaration's builder string "module.function" is one."""
    defined = {
        node.name: path.stem
        for path in sorted(PACKAGE.glob("*.py"))
        for node in parse(path).body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    }
    referenced = set()
    for path in [*sorted(PACKAGE.glob("*.py")), *BENCH_FILES]:
        if path == PACKAGE / "__init__.py":
            continue
        tree = parse(path)
        enclosing = {
            id(inner): node.name
            for node in tree.body
            if isinstance(node, ast.FunctionDef)
            for inner in ast.walk(node)
        }
        for node in ast.walk(tree):
            names = referenced_names(node)
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                module, _, name = node.value.rpartition(".")
                if defined.get(name) == module:
                    names = {name}
            referenced |= names - {enclosing.get(id(node))}
    assert not sorted(set(defined) - referenced - LIBRARY_API)
    assert LIBRARY_API <= set(defined) - referenced  # each exception still uncalled
