"""Checks on the package source itself: invariant checks that survive
``python -O``, no test code imported by the library, no private library
code imported by the oracles, a clean ``__all__`` that holds only
documented API and its types, no sorted-id set algebra in the refinement
loop."""

import ast
import pathlib
import re

import pytest

import wellclust

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "wellclust"
ORACLES = pathlib.Path(__file__).resolve().parent / "oracles.py"
README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
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


# Exported types that API functions return or raise; every other exported
# name is named in the README's "Library API" list.
RETURN_TYPES = {
    "DecompParams",              # derive_params
    "Partition",                 # strong_decomposition
    "PlantedLabels",             # generate
    "PruneMergeResult",          # run_prune_merge, best_over_k
    "RunOutcome",                # run_algorithm
    "SpectralResult",            # smallest_eigenvalues
    "SweepCut",                  # spectral_partition
    "DecompositionError",        # strong_decomposition
    "SpectralConvergenceError",  # smallest_eigenvalues
}


def _readme_api_names():
    text = README.read_text()
    section = text.split("\n## Library API\n", 1)[1].split("\n## ", 1)[0]
    return {name for span in re.findall(r"`([^`]*)`", section)
            for name in re.findall(r"[A-Za-z_]\w*", span)}


def test_public_names_are_documented_api_or_its_types():
    """A reader tells the API from the plumbing by the README alone: every
    exported name is in its Library API list or is a type listed above."""
    names, documented = set(wellclust.__all__), _readme_api_names()
    assert RETURN_TYPES <= names
    assert not RETURN_TYPES & documented, "listed twice"
    undocumented = names - documented - RETURN_TYPES
    assert not undocumented, f"exported but undocumented: {undocumented}"
    assert all(isinstance(getattr(wellclust, name), type)
               for name in RETURN_TYPES)


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
