"""Checks on the package source itself."""

import ast
import doctest
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

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
    # not divide, and the certified D2 = 0 for 3,1 / 3,1 / 2,2, whose
    # squares sequence is 1, 2, 2, 2.
    code = (
        "from kronstab.kronecker import _multiplicity\n"
        "for call in (lambda: _multiplicity(7, 6, (3,), (3,), (3,)),\n"
        "             lambda: kronstab.d_real('squares', ((3, 1), (3, 1), (2, 2)))):\n"
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


def _functions():
    """(file name, function name, node) for every function of the package."""
    for path in sorted(Path(kronstab.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.FunctionDef):
                yield path.name, node.name, node


def _is_int_test(node) -> bool:
    """``isinstance(x, int)`` or ``type(x) is [not] int``."""
    if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
        kinds = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
        return any(getattr(k, "id", None) == "int" for k in kinds)
    if isinstance(node, ast.Compare) and isinstance(node.ops[0], (ast.Is, ast.IsNot)):
        return (
            isinstance(node.left, ast.Call) and getattr(node.left.func, "id", None) == "type"
            and getattr(node.comparators[0], "id", None) == "int"
        )
    return False


def test_counts_checked_in_one_place():
    # A count is checked by ``partitions.check_count``, so every count error
    # has one message form.  ``part_at`` writes the same rule inline, since a
    # bound query calls it about 40 times; ``check_partition`` type-tests
    # parts, not counts.  A hand check is an int type test, or a parameter
    # compared below a constant where the branch raises.  ``hm_bound``'s
    # weight check raises the scenario's own error on the bound-query path.
    allowed = {("partitions.py", name) for name in ("check_count", "check_partition", "part_at")}
    allowed.add(("hm.py", "hm_bound"))
    found = []
    for file, name, fn in _functions():
        if (file, name) in allowed:
            continue
        params = {a.arg for a in fn.args.args + fn.args.kwonlyargs}
        for node in ast.walk(fn):
            if not isinstance(node, ast.If):
                continue
            raises = any(isinstance(s, ast.Raise) for s in node.body)
            for test in ast.walk(node.test):
                bound = (
                    isinstance(test, ast.Compare) and isinstance(test.ops[0], (ast.Lt, ast.LtE))
                    and getattr(test.left, "id", None) in params
                    and isinstance(test.comparators[0], ast.Constant)
                )
                if _is_int_test(test) or (bound and raises):
                    found.append(f"{file}:{node.lineno} {name}")
    assert found == []


def test_double_partitions_checked_in_one_place():
    # A double partition is checked by ``partitions.check_double_partition``,
    # so a non-pair raises one named ``PartitionError``; no other code
    # unpacks a pair to check its halves.
    found = []
    for file, name, fn in _functions():
        if name == "check_double_partition":
            continue
        def pair(target):
            return isinstance(target, ast.Tuple) and len(target.elts) == 2

        loops = [n.target for n in ast.walk(fn) if isinstance(n, (ast.For, ast.comprehension))]
        halves = {e.id for t in loops if pair(t) for e in t.elts if isinstance(e, ast.Name)}
        for node in ast.walk(fn):
            # check_partition(p) in a loop ``for p, m in ...``, or
            # plus, minus = map(check_partition, pair)
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "check_partition":
                if getattr(node.args[0], "id", None) in halves:
                    found.append(f"{file}:{node.lineno} {name}")
            elif isinstance(node, ast.Assign) and pair(node.targets[0]):
                value = node.value
                if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "map" \
                        and getattr(value.args[0], "id", None) == "check_partition":
                    found.append(f"{file}:{node.lineno} {name}")
    assert found == []


def test_kind_of_a_triple_is_declared_not_sniffed():
    # Whether a triple holds partitions or double partitions is declared by
    # its family (``Family.double``); only ``check_double_partition`` tests
    # whether a value is a tuple or a list.
    found = []
    for path in sorted(Path(kronstab.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        allowed = {
            id(node) for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef) and fn.name == "check_double_partition"
            for node in ast.walk(fn)
        }
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
                and id(node) not in allowed
                and {"tuple", "list"} & {getattr(k, "id", None) for k in ast.walk(node.args[1])}
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_modules_import_no_private_names_of_others():
    # A module uses another's ``_``-prefixed names only where the coupling
    # is listed here with its reason; otherwise it goes through the public
    # functions, so a private table can change in its own module alone.
    allowed = {
        "__init__": "the cache handles that clear_caches empties",
        "hyperoct <- lr._skew": "the coproduct rows that lr caches",
        "lr <- partitions._conjugate": "the unchecked core, on shapes lr has checked",
    }
    found = []
    for path in sorted(Path(kronstab.__file__).parent.rglob("*.py")):
        importer = path.stem
        tree = ast.parse(path.read_text(), str(path))
        modules = {}  # local name of each sibling module imported whole
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("kronstab")):
                source = (node.module or "").removeprefix("kronstab").strip(".")
                for alias in node.names:
                    if not source:
                        modules[alias.asname or alias.name] = alias.name
                    elif alias.name.startswith("_"):
                        found.append(f"{importer} <- {source}.{alias.name}")
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr.startswith("_") \
                    and getattr(node.value, "id", None) in modules:
                found.append(f"{importer} <- {modules[node.value.id]}.{node.attr}")
    assert [f for f in found if f not in allowed and f.split()[0] not in allowed] == []
    # and no entry outlives its coupling
    assert set(allowed) <= set(found) | {f.split()[0] for f in found}


def test_star_import_binds_no_modules():
    namespace = {}
    exec("from kronstab import *", namespace)
    assert [name for name, value in namespace.items() if isinstance(value, ModuleType)] == []
    assert namespace["SizeCapError"] is SizeCapError is kronstab.SizeCapError


def test_clear_caches_empties_every_cache():
    from kronstab import clear_caches, hyperoct_coeff, kron, lr, plethysm_coeff
    from kronstab.characters import _memo, _size
    from kronstab.kronecker import _values

    kron((2, 1), (2, 1), (2, 1))
    lr((1,), (1,), (2,))
    hyperoct_coeff(((1,), (1,)), ((1,), (1,)), ((1, 1), ()))
    plethysm_coeff((2,), (2,), (4,))
    sizes = clear_caches()
    assert [name for name, size in sizes.items() if not size] == []
    assert sizes["characters._row"] > 1
    modules = [importlib.import_module(f"kronstab.{m.name}") for m in pkgutil.iter_modules(kronstab.__path__)]
    cached = [
        f"{module.__name__}.{name}" for module in modules for name, value in vars(module).items()
        if hasattr(value, "cache_info") and value.cache_info().currsize
    ]
    assert cached == []
    assert not _memo and not _size and not _values


def test_docstring_examples_pass():
    modules = [kronstab] + [importlib.import_module(f"kronstab.{m.name}") for m in pkgutil.iter_modules(kronstab.__path__)]
    results = {module.__name__: doctest.testmod(module) for module in modules}
    assert [name for name, result in results.items() if result.failed] == []
    assert sum(result.attempted for result in results.values()) > 0


def test_distribution_is_named_and_versioned_as_the_package():
    tomllib = pytest.importorskip("tomllib")
    path = Path(__file__).parents[1] / "pyproject.toml"
    project = tomllib.loads(path.read_text())["project"]
    assert (project["name"], project["version"]) == ("kronstab", kronstab.__version__)


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
    assert _fresh_import("print(kronstab.characters._row.cache_info().currsize)") == "0\n"


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
