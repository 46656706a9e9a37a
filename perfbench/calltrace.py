"""Call-site tracing from outside the package.

A ``Tracer`` replaces module attributes such as ``kronstab.hyperoct.kron``
with timing wrappers, so only calls made through that name (the calls
from that module) are counted.  Each site accumulates calls, self time
(time not spent in a nested traced call), total and longest time, and
how many calls returned zero.  Sites with a span kind also record one
span per call: kind, label, start, duration and the enclosing span.
"""

import fnmatch
import importlib
import time
from contextlib import contextmanager
from functools import cache

# (module under kronstab, attribute names or patterns, span kind, label)
SITES = (
    ("cli", ("main",), None, None),
    ("cli", ("evaluate_row",), "row", lambda table, row: f"{table.table_id} {row.triple}"),
    ("fixtures", ("d_real", "bound_*"), None, None),
    ("stabilization", ("sequence_term",), "term",
     lambda base, direction, d: sum(base[0]) + d * sum(direction[0])),
    ("stabilization", ("kron",), "kron", lambda a, b, c: sum(a)),
    ("hyperoct", ("kron",), "kron", lambda a, b, c: sum(a)),
    ("hyperoct", ("hyperoct_coeff", "lr"), None, None),
    ("kronecker", ("character",), None, None),
    ("plethysm", ("plethysm_coeff", "character"), None, None),
    ("lr", ("lr", "schur_product_expand"), None, None),
    ("bounds", ("bound_*", "dbor2_*"), None, None),
    ("hm", ("hm_bound", "tau*", "solve_assignment"), None, None),
)
# Untraced runs wrap only the rows, to report their latency.
ROW_SITES = tuple(s for s in SITES if s[2] == "row")


@cache
def partition_count(n: int) -> int:
    """p(n): the number of conjugacy classes a Kronecker call of size n
    sums over."""
    counts = [1] + [0] * n
    for k in range(1, n + 1):
        for m in range(k, n + 1):
            counts[m] += counts[m - k]
    return counts[n]


class Tracer:
    def __init__(self, sites=SITES):
        self.sites = sites
        self.stats: dict[str, list] = {}  # site -> [calls, self, total, max, zeros]
        self.spans: list[tuple] = []  # (kind, label, start, duration, parent)
        self.missing: list[str] = []
        self.originals: dict[str, object] = {}
        self._stack: list[list] = [[0.0, -1]]  # [child time, enclosing span]
        self._t0 = time.perf_counter()

    def install(self) -> None:
        for short, names, kind, label in self.sites:
            module = importlib.import_module(f"kronstab.{short}")
            for name in names:
                found = fnmatch.filter(vars(module), name)
                if not found:
                    self.missing.append(f"{short}.{name.rstrip('*')}")
                for attr in found:
                    site = f"{short}.{attr}"
                    fn = getattr(module, attr)
                    self.originals[site] = fn
                    setattr(module, attr, self._wrap(site, fn, kind, label))

    def _wrap(self, site, fn, kind, label):
        st = self.stats.setdefault(site, [0, 0.0, 0.0, 0.0, 0])
        stack, spans, clock = self._stack, self.spans, time.perf_counter

        def traced(*args, **kwargs):
            frame = [0.0, stack[-1][1]]
            if kind:
                frame[1] = len(spans)
                spans.append(None)  # filled in on return, keeps start order
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stack[-1][0] += dt
                st[0] += 1
                st[1] += dt - frame[0]
                st[2] += dt
                st[3] = max(st[3], dt)
                if kind:
                    spans[frame[1]] = (kind, label(*args), t0 - self._t0, dt, stack[-1][1])
            if result == 0:
                st[4] += 1
            return result

        return traced

    @contextmanager
    def span(self, kind: str, label):
        """A span around code run by the benchmark itself, e.g. one query."""
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1][1]
        self._stack.append([0.0, idx])
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dt = time.perf_counter() - t0
            self._stack.pop()
            self._stack[-1][0] += dt
            self.spans[idx] = (kind, label, t0 - self._t0, dt, parent)

    def summary(self) -> dict:
        """Site statistics plus the figures derived from spans."""
        kron_n = [s[1] for s in self.spans if s[0] == "kron"]
        term_n = [s[1] for s in self.spans if s[0] == "term"]
        return {
            "sites": self.stats,
            "missing": self.missing,
            "kron_classes": sum(partition_count(n) for n in kron_n),
            "kron_max_n": max(kron_n, default=0),
            "term_max_n": max(term_n, default=0),
        }
