import ast
import inspect
from pathlib import Path

import pytest

import levylab
import levylab.checks

SRC = Path(levylab.__file__).resolve().parent
ROUTES = ("covariance", "levy_kernel", "pvariation", "simulate", "spectral")
#: modules that use level Grams only through covariance's LevelGram methods
GRAM_USERS = ("simulate", "spectral", "levy_kernel", "pvariation", "cli")
#: a level Gram's storage, which only covariance may read: its `values`
#: attribute and the names of its structures
GRAM_VALUES = "values"
GRAM_STRUCTURES = ("DIAGONAL", "TOEPLITZ", "FACTORED", "_STRUCTURE")
#: the 2D Young audits and the cosh residual: only `levylab check` and the tests call them
AUDIT_ONLY = ("area_control", "grid_control", "control_product_check", "ControlEstimate",
              "ControlReport", "young_integral_2d", "YoungNorm", "YoungBound",
              "cosh_factorization_check")


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
    for name in ("eigen_solve", "discretize_classical_operator", "cell_sign_matrix",
                 "min_eigenvalue_ratio", "v1p_exhaustive"):
        assert not hasattr(levylab, name), name
    # the PSD audit's eigenvalue ratio and v1p's exhaustive reference live in
    # checks, and a Gram's mirror halves are built from its Toeplitz lags
    # only: no dense Gram
    assert not hasattr(levylab.covariance, "min_eigenvalue_ratio")
    assert not hasattr(levylab.pvariation, "v1p_exhaustive")
    assert "dense" not in called_names(function_node("covariance", "mirror_half"))


@pytest.mark.parametrize("name", AUDIT_ONLY)
def test_audit_only_names_live_in_the_checks(name):
    for module in (levylab, levylab.pvariation, levylab.spectral):
        assert not hasattr(module, name), (module.__name__, name)
    assert hasattr(levylab.checks, name), name


@pytest.mark.parametrize("name", ("ChaosNorm", "DyadicApprox", "approx_eval", "cell_index"))
def test_pointwise_approximation_and_norm_record_are_retired(name):
    # the step approximation is evaluated only as sign_product's matrix, and
    # its norms are plain floats; kernel_eval stays as the kernel's definition
    for module in (levylab, levylab.levy_kernel):
        assert not hasattr(module, name), (module.__name__, name)
    assert hasattr(levylab.levy_kernel, "kernel_eval")


def test_norms_are_floats_and_the_pair_tolerance_is_a_constant():
    br = levylab.brownian()
    assert type(levylab.norm_approx(2, br, br)) is float
    assert type(levylab.norm_diff(1, 2, br, br)) is float
    assert "pair_tol" not in inspect.signature(levylab.spectral.symmetry_check).parameters


def function_node(module, name):
    """The ast node of the function or method `name` defined in the module."""
    tree = ast.parse((SRC / f"{module}.py").read_text())
    return next(node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == name)


def called_names(node):
    """The names and attribute names of everything called within the node."""
    calls = (n.func for n in ast.walk(node) if isinstance(n, ast.Call))
    return {f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None) for f in calls}


def test_sign_product_holds_no_accumulate():
    # every numpy accumulate holds the GIL; sign_product is blocked matrix
    # products, sums and adds, which release it, so run_mc's workers overlap
    called = called_names(function_node("levy_kernel", "sign_product"))
    assert not called & {"cumsum", "accumulate"}, called


def test_the_jitter_ladder_is_retired():
    # every level Gram has an unshifted root (LevelGram.root, mirror_roots):
    # no shifted factorization and no rung is left in the library; nor a stored
    # mirror flag, since mirror_roots alone decides the split
    for name in ("cholesky_factor", "mirror_factors", "_factor_at_one_rung", "_shifted",
                 "jitter_rung", "mirror_symmetric"):
        assert not hasattr(levylab, name), name
        for path in sorted(SRC.glob("*.py")):
            assert name not in path.read_text(), (path.name, name)


def storage_reads(path):
    """(line, name) of every `.values` read and every use or import of a structure name."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Attribute):
            names = [node.attr] if node.attr in (GRAM_VALUES, *GRAM_STRUCTURES) else []
        elif isinstance(node, ast.Name):
            names = [node.id] if node.id in GRAM_STRUCTURES else []
        elif isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names if alias.name in GRAM_STRUCTURES]
        else:
            continue
        found += [(node.lineno, name) for name in names]
    return found


@pytest.mark.parametrize("module", GRAM_USERS)
def test_only_covariance_reads_a_grams_storage(module):
    # a Gram's structure is taught to covariance alone: its factor, equality and sums
    assert storage_reads(SRC / f"{module}.py") == [], module
