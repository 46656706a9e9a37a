"""Seeded inputs for the benchmark workloads (standard library only).

Every list is a pure function of the seed, so one seed always gives the
same inputs.  ``lr`` and ``bounds`` queries are drawn afresh for each
seed; their outputs are checked against a second, independent
computation.  ``plethysm`` and ``hyperoct`` queries come from the fixed
sets in ``reference.json``, which store each query's value, and the
seed only fixes their order (``hyperoct``) or their places in the stream
(``query-mix``).  Drawing those triples per seed was tried
first: the work of a round then varied by about 30% between seeds, more
than the changes the benchmark has to detect.
"""

import json
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")

TABLE_IDS = ("3.6.1", "3.6.2")

HYPEROCT_SIZE_CAP = 14

# lr and bounds queries per query-mix round.  With the 24 plethysm queries
# of reference.json they make 244.  The 20 of degree 24 are the slowest
# 8% of the stream, so the 95th percentile latency falls inside that
# group rather than at its edge, and no layer takes more than about half
# of the round.
QUERY_MIX = {"lr": 120, "bounds": 100}


def partition(rng: random.Random, n: int, length: int) -> tuple[int, ...]:
    """A partition of ``n`` with exactly ``length`` parts, from a random
    composition of ``n``."""
    cuts = sorted(rng.sample(range(1, n), length - 1))
    parts = [b - a for a, b in zip([0] + cuts, cuts + [n])]
    return tuple(sorted(parts, reverse=True))


def load_reference() -> dict:
    with open(REFERENCE) as f:
        return json.load(f)


def _stored(kind: str, reference: dict) -> list[dict]:
    return [{"kind": kind, "args": args, "expect": value}
            for *args, value in reference[kind]]


def _lr_query(rng: random.Random) -> dict:
    a, b = rng.randint(5, 9), rng.randint(5, 9)
    lam = partition(rng, a, rng.randint(1, min(a, 5)))
    mu = partition(rng, b, rng.randint(1, min(b, 5)))
    pick = rng.randrange(3)
    if pick == 0:  # union of the parts: coefficient 1
        nu = tuple(sorted(lam + mu, reverse=True))
    elif pick == 1:  # row-wise sum: coefficient 1
        width = max(len(lam), len(mu))
        pad = lambda p: p + (0,) * (width - len(p))
        nu = tuple(x + y for x, y in zip(pad(lam), pad(mu)))
    else:  # any shape of the right size, often outside the product
        nu = partition(rng, a + b, rng.randint(1, min(a + b, 8)))
    return {"kind": "lr", "args": [lam, mu, nu]}


def _bounds_query(rng: random.Random) -> dict:
    # Lengths of at least 3 make every destabilizing scenario applicable.
    n = rng.randint(12, 24)
    triple = [partition(rng, n, rng.randint(3, 8)) for _ in range(3)]
    return {"kind": "bounds", "args": triple}


def hyperoct_inputs(seed: int, reference: dict) -> list[dict]:
    queries = _stored("hyperoct", reference)
    random.Random(seed).shuffle(queries)
    return queries


def query_mix_inputs(seed: int, reference: dict) -> list[dict]:
    rng = random.Random(seed)
    queries = _stored("plethysm", reference)
    queries += [_lr_query(rng) for _ in range(QUERY_MIX["lr"])]
    queries += [_bounds_query(rng) for _ in range(QUERY_MIX["bounds"])]
    rng.shuffle(queries)
    # The plethysm queries share the character memo, so their order sets
    # which of them fill it; the seed places them but keeps their order.
    stored = iter(_stored("plethysm", reference))
    return [next(stored) if q["kind"] == "plethysm" else q for q in queries]


def jobs(workload: str, seed: int) -> list[dict]:
    """The jobs of one round, one fresh worker process each."""
    if workload == "tables":
        return [{"workload": "tables", "table": t} for t in TABLE_IDS]
    reference = load_reference()
    make = {"hyperoct": hyperoct_inputs, "query-mix": query_mix_inputs}[workload]
    return [{"workload": workload, "queries": make(seed, reference)}]
