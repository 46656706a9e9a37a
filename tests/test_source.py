"""Checks on the package source itself."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import kronstab


def test_no_assert_statements():
    # Exactness checks must raise errors: ``python -O`` strips asserts.
    found = []
    for path in sorted(Path(kronstab.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_exactness_errors_survive_optimisation():
    from kronstab.kronecker import ConsistencyError as reexported
    from kronstab.partitions import ConsistencyError
    from kronstab.stabilization import CertificateViolationError

    assert reexported is ConsistencyError is kronstab.ConsistencyError
    for error in (ConsistencyError, CertificateViolationError):
        assert not issubclass(error, AssertionError)


def test_import_loads_no_fractions():
    # Exact values are integers over one denominator; importing
    # ``fractions`` (and the ``decimal`` it pulls in) would only add to
    # the start-up time of every process.  The records are named tuples,
    # so ``dataclasses`` (and the ``inspect`` it pulls in) stay out too.
    path = os.pathsep.join([str(Path(kronstab.__file__).parent.parent), os.environ.get("PYTHONPATH", "")])
    unwanted = {"fractions", "decimal", "dataclasses", "inspect"}
    loaded = subprocess.run(
        [sys.executable, "-c", f"import sys, kronstab; print(sorted({unwanted!r} & set(sys.modules)))"],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": path},
    ).stdout
    assert loaded == "[]\n"


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
