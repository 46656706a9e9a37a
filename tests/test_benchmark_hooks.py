"""The names and outputs the benchmark in ``perfbench/`` relies on.

The benchmark traces package functions by name and re-checks their
outputs in worker processes; a renamed function or a changed output
makes its runs fail.  These tests import the benchmark's own modules and
run those checks in process.
"""

import ast
import contextlib
import importlib
import io
import json
import sys
from pathlib import Path
from types import ModuleType

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import calltrace  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

from kronstab import cli  # noqa: E402


@pytest.fixture
def tracer():
    tracer = calltrace.Tracer(calltrace.SITES)
    tracer.install()
    try:
        yield tracer
    finally:
        for site, fn in tracer.originals.items():
            short, attr = site.split(".", 1)
            setattr(importlib.import_module(f"kronstab.{short}"), attr, fn)


def test_every_traced_name_exists(tracer):
    assert tracer.missing == []


def _resolve(node):
    """The object a ``name`` or ``name.attr...`` expression of the worker
    reads, or None."""
    if isinstance(node, ast.Name):
        return getattr(worker, node.id, None)
    if isinstance(node, ast.Attribute):
        return getattr(_resolve(node.value), node.attr, None)
    return None


def test_every_worker_name_exists():
    # Every attribute the worker reads from a kronstab module, such as
    # ``hm.tau_B`` or ``kronstab.cli.main``: a missing one fails a workload.
    tree = ast.parse(Path(worker.__file__).read_text())
    reads = [
        (node, base) for node in ast.walk(tree) if isinstance(node, ast.Attribute)
        and isinstance(base := _resolve(node.value), ModuleType) and base.__name__.startswith("kronstab")
    ]
    assert len(reads) > 10
    assert [ast.unparse(node) for node, base in reads if not hasattr(base, node.attr)] == []


def test_bound_queries_pass(tracer):
    queries = workloads.query_mix_inputs(0, workloads.load_reference())
    bounds = [q for q in queries if q["kind"] == "bounds"][:10]
    assert len(bounds) == 10
    for q in bounds:
        assert worker.query_bounds(worker.as_tuple(q["args"]), None), q["args"]
    assert tracer.stats["bounds.bound_D1"][0] > 0


def test_lr_queries_pass(tracer):
    # the benchmark checks each coefficient against the product expansion
    queries = workloads.query_mix_inputs(0, workloads.load_reference())
    lrs = [q for q in queries if q["kind"] == "lr"]
    assert len(lrs) == 120
    for q in lrs:
        assert worker.query_lr(worker.as_tuple(q["args"]), None), q["args"]
    assert tracer.stats["lr.schur_product_expand"][0] == 120


def test_hyperoct_reference_queries(tracer):
    # The workload's own output check on all 32 stored queries, through
    # the traced name.  Every stored value came from the engine the block
    # contraction replaced, at total sizes 10-14.
    queries = workloads.hyperoct_inputs(0, workloads.load_reference())
    assert len(queries) == len(workloads.load_reference()["hyperoct"]) == 32
    for q in queries:
        assert worker.query_hyperoct(worker.as_tuple(q["args"]), q["expect"]), q
    assert tracer.stats["hyperoct.hyperoct_coeff"][0] == 32


def test_table_output_checks(tracer):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["table", "3.6.2", "--format", "json"])
    attempted, failed = worker.check_table("3.6.2", code, out.getvalue())
    assert (attempted, failed) == (25, 0)
    assert tracer.stats["fixtures.bound_values"][0] == 12
