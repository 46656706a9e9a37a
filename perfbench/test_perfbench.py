"""Tests of the benchmark itself.  Run from the repository root::

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import os
import sys
import time

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import calltrace  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", ["hyperoct", "query-mix"])
def test_same_seed_same_inputs(workload):
    assert workloads.jobs(workload, 7) == workloads.jobs(workload, 7)
    assert workloads.jobs(workload, 7) != workloads.jobs(workload, 8)


def test_query_mix_shape():
    queries = workloads.jobs("query-mix", 3)[0]["queries"]
    kinds = [q["kind"] for q in queries]
    assert len(queries) >= 200
    assert set(kinds) == {"lr", "bounds", "plethysm"}
    assert kinds.count("plethysm") / len(kinds) > 0.05


def test_partition_generator():
    import random

    rng = random.Random(1)
    for n in range(3, 30):
        for length in range(1, n + 1):
            p = workloads.partition(rng, n, length)
            assert sum(p) == n and len(p) == length and list(p) == sorted(p, reverse=True)


def test_checker_rejects_wrong_stored_value():
    job = workloads.jobs("hyperoct", 0)[0]
    q = next(q for q in job["queries"] if q["expect"])
    args = worker.as_tuple(q["args"])
    assert worker.query_hyperoct(args, q["expect"])
    assert not worker.query_hyperoct(args, q["expect"] + 1)
    assert not worker.query_plethysm(((2,), (2,), (4,)), 0)  # s2[s2] contains s4


def test_checker_rejects_wrong_table_cell():
    payload = {"rows": [{"cells": {}} for _ in range(12)]}
    payload["rows"][1]["cells"] = {
        "D2": {"provenance": "computed", "status": "match", "computed": 5, "expected": 5},
        "Dreal": {"provenance": "computed", "status": "match", "computed": 4, "expected": 3},
    }
    attempted, failed = worker.check_table("3.6.2", 0, json.dumps(payload))
    # the wrong value, plus the 22 cells the payload leaves out
    assert (attempted, failed) == (25, 1 + 22)
    assert worker.check_table("3.6.2", 0, "not json") == (25, 25)


def test_known_mismatch_must_stay_flagged():
    cell = {"provenance": "computed", "status": "match", "computed": 6, "expected": 6}
    payload = {"rows": [{"cells": {"DBOR2": cell}}]}
    assert worker.check_table("3.6.1", 0, json.dumps(payload))[1] == 1 + 59


def test_lr_query_detects_disagreement(monkeypatch):
    args = ((2, 1), (2, 1), (3, 2, 1))
    assert worker.query_lr(args, None)
    monkeypatch.setattr(worker.lr, "lr", lambda *a: 1)
    assert not worker.query_lr(args, None)


def test_partition_count():
    assert [calltrace.partition_count(n) for n in range(8)] == [1, 1, 2, 3, 5, 7, 11, 15]
    assert calltrace.partition_count(48) == 147273


def fake_report(wall):
    sites = {}
    for short, names, _, _ in calltrace.SITES:
        for name in names:
            sites[f"{short}.{name.rstrip('*')}x"] = [2, 0.5, 1.0, 0.75, 1]
    trace = {"sites": sites, "missing": [], "kron_classes": 3, "kron_max_n": 3, "term_max_n": 5}
    return {"wall_s": wall, "scaled_wall_s": wall, "trace": trace, "memo_entries": 10,
            "lr_cache": [3, 1], "scaled_latencies_s": [0.001, 0.002, 0.003],
            "peak_rss_mb": 50.0, "setup_s": 0.1}


def test_metric_names_match_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e, _ = run.end_to_end([[fake_report(2.0)]], [0.1, 0.2])
    layers, unmeasured = run.per_layer([fake_report(2.5)], 2.0)
    assert unmeasured == []
    assert list(e2e) == [m["name"] for m in spec["end_to_end"]]
    assert list(layers) == [m["name"] for m in spec["per_layer"]]
    assert [w["name"] for w in spec["workloads"]] == ["tables", "hyperoct", "query-mix"]


def test_wall_time_is_the_median_over_rounds():
    rounds = [[fake_report(w)] for w in (3.0, 1.0, 2.0)]
    rounds[0][0]["scaled_latencies_s"] = [0.009, 0.001, 0.001]
    e2e, samples = run.end_to_end(rounds, [0.1])
    assert e2e["wall_s"] == 2.0 and samples == 9
    assert e2e["query_p50_ms"] == 2.0  # of 1, 1, 1, 1, 2, 2, 3, 3 and 9 ms


def test_scaled_time_discounts_slow_spells_and_sampling():
    ref = speed.REFERENCE_S
    sampler = speed.Sampler()
    # a sample every 10 ms; the loop runs at reference speed, then at half
    for i in range(20):
        sampler.starts.append(0.01 * i)
        sampler.ends.append(0.01 * i + (ref if i < 10 else 2 * ref))
    sampler._prepare()
    gap = 0.01 - ref
    assert sampler.scaled(0.01, 0.03) == pytest.approx(2 * gap)
    assert sampler.scaled(0.15, 0.17) == pytest.approx(0.01 - 2 * ref)
    assert sampler.scaled(0.0, 0.0) == 0.0


def test_sampler_measures_real_work():
    sampler = speed.Sampler()
    sampler.start()
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < 0.2:
        pass
    t1 = time.perf_counter()
    sampler.stop()
    assert len(sampler.starts) >= 5
    assert 0 < sampler.scaled(t0, t1) < 10 * (t1 - t0)


def test_missing_traced_name_drops_only_its_metrics():
    report = fake_report(2.0)
    report["trace"]["missing"] = ["hyperoct.kron"]
    layers, unmeasured = run.per_layer([report], 2.0)
    assert "hyperoct.kron_calls" in unmeasured and "kronecker.calls" in unmeasured
    assert "hyperoct.kron_calls" not in layers and "plethysm.calls" in layers


def test_tracer_self_time_and_missing_names():
    import types

    mod = types.ModuleType("kronstab.fake")
    mod.outer = lambda n: mod.inner(n) + 1
    mod.inner = lambda n: 0
    sys.modules["kronstab.fake"] = mod
    try:
        tracer = calltrace.Tracer((("fake", ("outer", "inner", "gone*"), None, None),))
        tracer.install()
        assert mod.outer(3) == 1
    finally:
        del sys.modules["kronstab.fake"]
    outer, inner = tracer.stats["fake.outer"], tracer.stats["fake.inner"]
    assert outer[0] == inner[0] == 1 and inner[4] == 1
    assert outer[1] <= outer[2] - inner[2] + 1e-9
    assert tracer.missing == ["fake.gone"]
