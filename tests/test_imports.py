"""Every name a module of the package imports is referenced in that module."""

import ast
import graphlib
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sosconvex"


def imported_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(alias.asname or alias.name for alias in node.names)
    return names


def referenced_names(tree: ast.Module) -> set[str]:
    """Names loaded anywhere, including inside quoted annotations."""
    names = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.arg | ast.AnnAssign) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef) and node.returns:
            annotations.append(node.returns)
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names |= referenced_names(ast.parse(node.value, mode="eval"))
    return names


def unused_imports(source: str) -> set[str]:
    tree = ast.parse(source)
    return imported_names(tree) - referenced_names(tree)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == set()


def test_scan_sees_unused_and_quoted_names():
    source = (
        "from typing import Iterable, Sequence\n"
        "import numpy as np\n"
        "from .forms import Form\n"
        "def f(x: 'Sequence[Form]') -> None:\n"
        "    return np.zeros(1)\n"
    )
    assert unused_imports(source) == {"Iterable"}


def package_imports(tree: ast.Module) -> list[tuple[str, bool]]:
    """(module, inside a function) for each `from .module import` at any depth."""
    found = []

    def visit(node, local):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ImportFrom) and child.level == 1:
                found.append((child.module, local))
            visit(child, local or isinstance(child, ast.FunctionDef | ast.AsyncFunctionDef))

    visit(tree, False)
    return found


IMPORTS = {path.stem: package_imports(ast.parse(path.read_text(encoding="utf-8")))
           for path in sorted(PACKAGE.glob("*.py"))}


def test_package_imports_are_acyclic():
    graph = {module: {target for target, _ in found} for module, found in IMPORTS.items()}
    graphlib.TopologicalSorter(graph).prepare()  # a CycleError on any cycle


def test_biquadratic_is_imported_by_the_cli_alone():
    importers = {module for module, found in IMPORTS.items()
                 if any(target == "biquadratic" for target, _ in found)}
    assert importers == {"cli"}


def test_the_search_is_the_one_import_inside_a_function():
    # only `check` loads numpy, through the search
    local = [(module, target) for module, found in IMPORTS.items() for target, inside in found
             if inside]
    assert local == [("cli", "search")]
