import ast
from pathlib import Path

import pytest

import levylab

SRC = Path(levylab.__file__).resolve().parent
ROUTES = ("covariance", "levy_kernel", "pvariation", "simulate", "spectral")


def imported_modules(path):
    """Every dotted name an import statement of the file names, relative ones with their dots."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


@pytest.mark.parametrize("route", ROUTES)
def test_route_modules_do_not_import_the_checks(route):
    # the dense references live in checks, which no route may reach for
    for name in imported_modules(SRC / f"{route}.py"):
        assert name.split(".")[-1] != "checks", f"{route} imports {name}"


def test_reference_only_functions_are_not_exported():
    for name in ("eigen_solve", "discretize_classical_operator", "cell_sign_matrix"):
        assert not hasattr(levylab, name), name
