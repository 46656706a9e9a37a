"""Rebuild ``reference.json``: fixed query sets with their stored values.

Run from the repository root::

    PYTHONPATH=src python3 perfbench/make_reference.py

The queries are drawn with a fixed generator seed, so the output only
changes if the library's answers change.  The stored values are those
the library computed when the sets were built; the benchmark compares
later results against them.
"""

import json
import random

from kronstab import hyperoct, plethysm

from workloads import HYPEROCT_SIZE_CAP, REFERENCE, partition

# total size -> how many queries with a nonzero and with a zero value
HYPEROCT_SETS = {10: (10, 0), 12: (8, 4), 14: (6, 4)}
# degree -> ((outer size, inner size) choices, (nonzero, zero) counts)
PLETHYSM_SETS = {
    24: ([(2, 12), (3, 8), (4, 6), (6, 4), (8, 3), (12, 2)], (12, 8)),
    18: ([(2, 9), (3, 6), (6, 3), (9, 2)], (2, 2)),
}


def any_partition(rng, n, max_len=4):
    return partition(rng, n, rng.randint(1, min(n, max_len)))


def keep(draw, evaluate, counts):
    """Draw queries until ``counts`` = (nonzero, zero) of them are kept,
    each as its arguments followed by its value."""
    want = {True: counts[0], False: counts[1]}
    kept = []
    while any(want.values()):
        args = draw()
        value = evaluate(*args)
        if want[value != 0]:
            want[value != 0] -= 1
            kept.append([*args, value])
    return kept


def hyperoct_queries(rng):
    def evaluate(*triple):
        return hyperoct.hyperoct_coeff(*triple, size_cap=HYPEROCT_SIZE_CAP)

    out = []
    for n, counts in HYPEROCT_SETS.items():
        def draw():
            sizes = [rng.randint(n // 2 - 2, n // 2 + 2) for _ in range(3)]
            return [(any_partition(rng, k), any_partition(rng, n - k)) for k in sizes]
        out += keep(draw, evaluate, counts)
    return out


def plethysm_queries(rng):
    out = []
    for degree, (shapes, counts) in PLETHYSM_SETS.items():
        def draw():
            a, b = rng.choice(shapes)
            return [any_partition(rng, a), any_partition(rng, b),
                    any_partition(rng, degree, 8)]
        out += keep(draw, plethysm.plethysm_coeff, counts)
    return out


def main():
    rng = random.Random(20160617)
    reference = {"hyperoct": hyperoct_queries(rng), "plethysm": plethysm_queries(rng)}
    with open(REFERENCE, "w") as f:
        json.dump(reference, f, separators=(",", ":"))
        f.write("\n")
    for kind, queries in reference.items():
        print(f"{kind}: {len(queries)} queries")


if __name__ == "__main__":
    main()
