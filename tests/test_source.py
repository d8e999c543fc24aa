"""Checks on the package source itself: invariant checks that survive
``python -O``, no test code imported by the library, no private library
code imported by the oracles, a clean ``__all__``, no sorted-id set
algebra in the refinement loop."""

import ast
import pathlib

import pytest

import wellclust

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "wellclust"
ORACLES = pathlib.Path(__file__).resolve().parent / "oracles.py"
MODULES = sorted(SRC.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def test_source_modules_found():
    assert {p.name for p in MODULES} >= {"__init__.py", "tree.py", "graph.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    lines = [node.lineno for node in ast.walk(_tree(path))
             if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name}: assert at lines {lines}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_test_module_imports(path):
    imported = []
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append(node.module or "")
            imported += [alias.name for alias in node.names]
    bad = [name for name in imported
           if {"conftest", "oracles"} & set(name.split("."))]
    assert not bad, f"{path.name} imports {bad}"


def test_oracles_import_no_private_library_name():
    """An oracle that calls the pipeline's private helpers checks the
    pipeline against itself."""
    private = []
    for node in ast.walk(_tree(ORACLES)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        private += [name for name in names
                    if name.split(".")[0] == "wellclust"
                    and any(part.startswith("_") for part in name.split("."))]
    assert not private, f"oracles.py imports {private}"


def test_public_names_resolve_once():
    names = wellclust.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(wellclust, name)]
    assert not missing


def test_decomposition_keeps_one_membership_representation():
    """The refinement loop holds clusters as a label array and cores as a
    mask; sorted-id set algebra would bring back a second representation
    and its O(n log n) conversions."""
    banned = {"intersect1d", "setdiff1d", "union1d", "vertex_set", "volume"}
    calls = []
    for node in ast.walk(_tree(SRC / "decomposition.py")):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else \
                getattr(func, "id", None)
            if name in banned:
                calls.append((name, node.lineno))
    assert not calls, f"decomposition.py calls {calls}"
