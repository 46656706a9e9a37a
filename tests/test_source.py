"""Checks on the package source itself."""

import ast
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
