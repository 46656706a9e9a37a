"""Checks on the package source itself."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import kronstab
from kronstab.partitions import SizeCapError


def test_no_assert_statements():
    # Exactness checks must raise errors: ``python -O`` strips asserts.
    found = []
    for path in sorted(Path(kronstab.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_exactness_errors_raise_under_python_O():
    # Both exactness errors in a real ``python -O`` run: a class sum that does
    # not divide, and bound 0 for 3,1 / 3,1 / 2,2 along the squares
    # direction, whose sequence is 1, 2, 2, 2.
    code = (
        "from kronstab.kronecker import _multiplicity\n"
        "for call in (lambda: _multiplicity(7, 6, (3,), (3,), (3,)),\n"
        "             lambda: kronstab.d_real(((3, 1), (3, 1), (2, 2)), kronstab.FAMILIES['squares'].direction, 0)):\n"
        "    try:\n"
        "        call()\n"
        "    except (kronstab.ConsistencyError, kronstab.CertificateViolationError) as exc:\n"
        "        print(type(exc).__name__)\n"
        "print(sys.flags.optimize)"
    )
    assert _fresh_import(code, "-O") == "ConsistencyError\nCertificateViolationError\n1\n"


def test_only_partitions_builds_size_cap_errors():
    # Every cap error goes through ``partitions.over_cap``, so all share
    # one message form.
    found = []
    for path in sorted(Path(kronstab.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name == "SizeCapError" and path.name != "partitions.py":
                    found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_star_import_binds_no_modules():
    namespace = {}
    exec("from kronstab import *", namespace)
    assert [name for name, value in namespace.items() if isinstance(value, ModuleType)] == []
    assert namespace["SizeCapError"] is SizeCapError is kronstab.SizeCapError


def test_clear_caches_empties_every_cache():
    from kronstab import clear_caches, dim_sn, hyperoct_coeff, kron, lr, plethysm_coeff
    from kronstab.characters import _memo, _rows, _size
    from kronstab.kronecker import _values, kron_block
    from kronstab.plethysm import _positions

    kron((2, 1), (2, 1), (2, 1))
    kron_block((2, 1), [(2, 1)], [(3,)])
    lr((1,), (1,), (2,))
    hyperoct_coeff(((1,), (1,)), ((1,), (1,)), ((1, 1), ()))
    plethysm_coeff((2,), (2,), (4,))
    dim_sn((3, 1))
    held = len(_rows)
    sizes = clear_caches()
    assert [name for name, size in sizes.items() if not size] == []
    assert sizes["characters._rows"] == held > 1 and _rows == [[1]]
    modules = [importlib.import_module(f"kronstab.{m.name}") for m in pkgutil.iter_modules(kronstab.__path__)]
    cached = [
        f"{module.__name__}.{name}" for module in modules for name, value in vars(module).items()
        if hasattr(value, "cache_info") and value.cache_info().currsize
    ]
    assert cached == []
    assert not _memo and not _size and not _values and not _positions


def test_exactness_errors_survive_optimisation():
    from kronstab.kronecker import ConsistencyError as reexported
    from kronstab.partitions import ConsistencyError
    from kronstab.stabilization import CertificateViolationError

    assert reexported is ConsistencyError is kronstab.ConsistencyError
    for error in (ConsistencyError, CertificateViolationError):
        assert not issubclass(error, AssertionError)


def _fresh_import(code: str, *flags: str) -> str:
    """Standard output of ``code`` run after ``import kronstab`` in a new
    interpreter started with ``flags``."""
    path = os.pathsep.join([str(Path(kronstab.__file__).parent.parent), os.environ.get("PYTHONPATH", "")])
    return subprocess.run(
        [sys.executable, *flags, "-c", f"import sys, kronstab; {code}"],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": path},
    ).stdout


def test_import_loads_no_fractions():
    # Exact values are integers over one denominator; importing
    # ``fractions`` (and the ``decimal`` it pulls in) would only add to
    # the start-up time of every process.  The records are named tuples,
    # so ``dataclasses`` (and the ``inspect`` it pulls in) stay out too.
    unwanted = {"fractions", "decimal", "dataclasses", "inspect"}
    assert _fresh_import(f"print(sorted({unwanted!r} & set(sys.modules)))") == "[]\n"


def test_import_builds_no_class_count_rows():
    # The rows of class counts are grown when a column or class sizes
    # first need them; building them at import would add to the start-up
    # time of every process.
    assert _fresh_import("print(len(kronstab.characters._rows))") == "1\n"


def test_product_expansion_independent_of_lr():
    # The benchmark and the tests check lr against schur_product_expand,
    # which shows something only while neither calls the other.
    path = Path(kronstab.__file__).parent / "lr.py"
    tree = ast.parse(path.read_text(), str(path))
    (expand,) = [
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "schur_product_expand"
    ]
    names = {node.id for node in ast.walk(expand) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(expand) if isinstance(node, ast.Attribute)}
    assert names & {"lr", "_lr", "_skew", "_tableaux"} == set()
