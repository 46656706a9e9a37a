"""Benchmark for kronstab: three workloads, each run in fresh workers.

Usage, from the repository root::

    python3 perfbench/run.py --workload tables --seed 1 --seconds 20 --trace 0

Workloads (closed loop, one client, one worker process at a time):

- ``tables``: ``kronstab table 3.6.1 --format json`` and then ``3.6.2``,
  each through ``kronstab.cli.main`` in its own worker.  This is how the
  paper's tables are regenerated; Murnaghan-Nakayama recursion for
  shapes of size up to 34 dominates.  A latency sample is one table row.
- ``hyperoct``: a seeded list of 32 ``hyperoct_coeff`` queries of total
  size 10 to 14 (some prune to 0) in one worker: many small, mostly
  memoized ``kron`` calls and cached ``lr`` calls, so per-call overhead
  dominates.
- ``query-mix``: a seeded stream of 244 independent point queries in one
  worker: ``lr`` checked against ``schur_product_expand``, ``plethysm_coeff``
  at degree 18 and 24, and the closed-form bounds re-derived from their
  ``hm`` scenarios.  No ``kron`` queries.

``workloads.py`` says which inputs the seed draws and which it only
orders.  Every output is checked: table cells against the embedded
tables, ``plethysm`` and ``hyperoct`` values against ``reference.json``,
``lr`` and the bounds against an independent second computation.

A round runs the workload's jobs once, each in a fresh worker, so every
round starts from cold caches and does the same work.  Rounds repeat
until ``--seconds`` have passed, and at least ``MIN_ROUNDS`` times.
Times are scaled to a reference machine speed (see ``speed.py``): wall
time is a median over the rounds and the latency percentiles pool every
round (see ``end_to_end``); the raw wall time is printed beside them.
Peak memory is the median over rounds, and set-up time, also scaled, is
the median over every worker launched plus at least ``SETUP_PROBES``
workers that only import the package, two before each round.

With ``--trace 1`` one more round runs with every call site traced (see
``calltrace.py``) and the per-layer metrics are printed instead of the
end-to-end ones; its spans go to ``perfbench/out/``.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (value and unit per metric).
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import workloads
from speed import speed_now

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SETUP_PROBES = 24  # at least this many import-only workers
MIN_ROUNDS = 3  # a median needs several; about one tables round fits in 20 s
WORKER_TIMEOUT_S = 150


class WorkerError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    # The table command would otherwise read a thread count from here.
    env.pop("KRONSTAB_THREADS", None)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.path.join(ROOT, "src")  # the package is not installed
    return env


def environment() -> dict:
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
    }


def launch(job: dict, env: dict) -> dict:
    speed = speed_now()
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, WORKER], input=json.dumps(job), env=env, cwd=ROOT,
            stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise WorkerError(f"worker timed out after {WORKER_TIMEOUT_S} s") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise WorkerError(f"worker exited with code {proc.returncode}")
    report = json.loads(proc.stdout.splitlines()[-1])
    report["setup_s"] = (report["ready"] - t0) * speed
    return report


def run_round(jobs: list, env: dict, trace: bool, workload: str) -> list[dict]:
    reports = []
    for i, job in enumerate(jobs):
        job = dict(job, trace=trace)
        if trace:
            job["spans_path"] = os.path.join(HERE, "out", f"spans-{workload}-{i}.jsonl")
        reports.append(launch(job, env))
    return reports


def end_to_end(rounds: list, setups: list) -> tuple[dict, int]:
    """End-to-end metrics, and the number of latency samples they rest on.

    Times are scaled to the reference speed (see ``speed.py``), because a
    shared machine slows down by up to 1.8x for seconds at a time.
    ``wall_s`` sums, over a round's jobs, the median over rounds of each
    job's scaled wall time.  The latency percentiles pool every row or
    query of every round, so that the 95th has more samples beyond it.
    """
    wall = sum(statistics.median(r["scaled_wall_s"] for r in reports) for reports in zip(*rounds))
    latencies = [1000 * x for rnd in rounds for r in rnd for x in r["scaled_latencies_s"]]
    return {
        "wall_s": wall,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(max(r["peak_rss_mb"] for r in rnd) for rnd in rounds),
        "query_p50_ms": statistics.median(latencies),
        "query_p95_ms": statistics.quantiles(latencies, n=20)[18],
    }, len(latencies)


class MissingSite(LookupError):
    pass


def per_layer(reports: list, untraced_wall: float) -> tuple[dict, list]:
    """Per-layer metrics of one traced round, and the names that could not
    be measured because a traced name no longer exists."""
    sites: dict[str, list] = {}
    for r in reports:
        for site, st in r["trace"]["sites"].items():
            acc = sites.setdefault(site, [0, 0.0, 0.0, 0.0, 0])
            acc[0] += st[0]
            acc[1] += st[1]
            acc[2] += st[2]
            acc[3] = max(acc[3], st[3])
            acc[4] += st[4]
    missing = {m for r in reports for m in r["trace"]["missing"]}

    def pick(*prefixes):
        for p in prefixes:
            if any(m.startswith(p) or p.startswith(m) for m in missing):
                raise MissingSite(p)
        return [st for site, st in sites.items() if site.startswith(prefixes)]

    def calls(*p):
        return sum(st[0] for st in pick(*p))

    def self_s(*p):
        return sum(st[1] for st in pick(*p))

    def ratio(a, b):
        return a / b if b else 0.0

    def total(key, combine=sum):
        values = [r[key] if key in r else r["trace"][key] for r in reports]
        if any(v is None for v in values):
            raise MissingSite(key)
        return combine(values)

    def lr_hit_frac():
        hits, misses = (sum(pair) for pair in zip(*total("lr_cache", list)))
        return ratio(hits, hits + misses)

    wall = sum(r["wall_s"] for r in reports)
    ch = ("kronecker.character", "plethysm.character")
    kr = ("stabilization.kron", "hyperoct.kron")
    lrs = ("lr.lr", "hyperoct.lr")
    bd = ("bounds.", "fixtures.bound_")
    defs = {
        "characters.calls": lambda: calls(*ch),
        "characters.self_s": lambda: self_s(*ch),
        "characters.zero_frac": lambda: ratio(sum(st[4] for st in pick(*ch)), calls(*ch)),
        "characters.memo_entries": lambda: total("memo_entries", max),
        "characters.wall_share": lambda: ratio(self_s(*ch), wall),
        "kronecker.calls": lambda: calls(*kr),
        "kronecker.self_s": lambda: self_s(*kr),
        "kronecker.classes": lambda: calls(*kr) and total("kron_classes"),
        "kronecker.max_n": lambda: calls(*kr) and total("kron_max_n", max),
        "stabilization.terms": lambda: calls("stabilization.sequence_term"),
        "stabilization.self_s": lambda: self_s("stabilization.sequence_term", "fixtures.d_real"),
        "stabilization.max_term_n": lambda: calls("stabilization.sequence_term") and total("term_max_n", max),
        "fixtures.rows": lambda: calls("cli.evaluate_row"),
        "fixtures.row_max_s": lambda: max((st[3] for st in pick("cli.evaluate_row")), default=0.0),
        "cli.self_s": lambda: self_s("cli.main"),
        "hyperoct.calls": lambda: calls("hyperoct.hyperoct_coeff"),
        "hyperoct.self_s": lambda: self_s("hyperoct.hyperoct_coeff"),
        "hyperoct.kron_calls": lambda: calls("hyperoct.kron"),
        "hyperoct.lr_calls": lambda: calls("hyperoct.lr"),
        "lr.calls": lambda: calls(*lrs),
        "lr.self_s": lambda: self_s(*lrs),
        "lr.cache_hit_frac": lr_hit_frac,
        "lr.expand_calls": lambda: calls("lr.schur_product_expand"),
        "lr.expand_self_s": lambda: self_s("lr.schur_product_expand"),
        "plethysm.calls": lambda: calls("plethysm.plethysm_coeff"),
        "plethysm.self_s": lambda: self_s("plethysm.plethysm_coeff"),
        "bounds.calls": lambda: calls(*bd),
        "bounds.self_s": lambda: self_s(*bd),
        "hm.calls": lambda: calls("hm.hm_bound", "hm.tau"),
        "hm.self_s": lambda: self_s("hm."),
        "hm.assignment_calls": lambda: calls("hm.solve_assignment"),
        "trace_overhead_frac": lambda: sum(r["scaled_wall_s"] for r in reports) / untraced_wall - 1,
    }
    metrics, unmeasured = {}, []
    for name, fn in defs.items():
        try:
            metrics[name] = fn()
        except MissingSite:
            unmeasured.append(name)
    return metrics, unmeasured


def declared_units() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("tables", "hyperoct", "query-mix"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "kronstab", "__init__.py")):
        print(f"error: no kronstab sources under {ROOT}/src", file=sys.stderr)
        return 2
    units = declared_units()
    env = worker_env()
    jobs = workloads.jobs(args.workload, args.seed)
    print("env:", json.dumps(environment()))
    try:
        setups, rounds = [], []
        probe = lambda k: setups.extend(launch({"workload": "setup"}, env)["setup_s"] for _ in range(k))
        deadline = time.monotonic() + args.seconds
        while len(rounds) < MIN_ROUNDS or time.monotonic() < deadline:
            probe(2)  # spread over the run, so they share its slow and fast spells
            rounds.append(run_round(jobs, env, False, args.workload))
        probe(max(0, SETUP_PROBES - len(setups)))
        metrics, samples = end_to_end(rounds, setups + [r["setup_s"] for rnd in rounds for r in rnd])
        raw = sum(statistics.median(r["wall_s"] for r in reports) for reports in zip(*rounds))
        print(f"rounds: {len(rounds)}, latency samples: {samples}, raw wall: {raw:.6g} s")
        if args.trace:
            traced = run_round(jobs, env, True, args.workload)
            rounds.append(traced)
            metrics, unmeasured = per_layer(traced, metrics["wall_s"])
            for name in unmeasured:
                print(f"{name}: missing (traced name not found)")
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for rnd in rounds for r in rnd)
    failed = sum(r["failed"] for rnd in rounds for r in rnd)
    for name, value in metrics.items():
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"{name} = {shown} {units[name]}")
    print(f"fail_frac = {failed / attempted:.6g} ({failed}/{attempted} outputs)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
