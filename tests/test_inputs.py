"""Every public function rejects bad input with a library error that
names it.

One table lists each function of ``kronstab.__all__`` with valid
arguments; each argument that is input (a partition, a double
partition, a triple, partition text or a count) is a slot.  Each bad
input class is put into one slot at a time, and the call must raise a
``ValueError`` (``PartitionError`` and ``SizeCapError`` are ones) whose
message names the bad value, and for a count also the parameter.
Unequal sizes are not a bad input class here: ``lr``, ``plethysm_coeff``
and ``hyperoct_coeff`` return 0 for them by definition.
"""

import re
from types import GenericAlias
from typing import NamedTuple

import kronstab

P = (2, 1)
D = ((2, 1), (1,))
ONE_BOX = ((1,), (1,), (1,))

# class: (bad partition, the value its message names)
BAD_PARTS = {
    "float part": ((2.0, 1), 2.0),
    "bool part": ((2, True), True),
    "str part": ((2, "1"), "1"),
    "zero part": ((2, 1, 0), 0),
    "negative part": ((2, -1), -1),
}
# class: (bad partition text, the token its message names)
BAD_TEXT = {
    "float part": ("2.5,1", "2.5"),
    "bool part": ("True,1", "True"),
    "str part": ("a,1", "a"),
    "zero part": ("2,1,0", 0),
    "negative part": ("2,-1", -1),
}
BAD_COUNTS = {"non-int count": 2.5, "bool count": True}


class Slot(NamedTuple):
    kind: str
    valid: object
    name: str = ""  # a count's parameter


def count(name, valid):
    return Slot("count", valid, name)


p, d = Slot("partition", P), Slot("double", D)
base, text, dtext = Slot("base", (P, P, P)), Slot("text", "2,1"), Slot("dtext", "2,1;1")

CALLS = {
    "add_scaled": (p, count("d", 1), p),
    "bound_D1": (p, p, p),
    "bound_D2": (p, p, p),
    "bound_DB": (p, p, p),
    "bound_DB_improved": (p, p, p),
    "bound_DBOR2": (p, p, p),
    "bound_DBOR2_improved": (p, p, p),
    "bound_Dm": (p, p, p),
    "bound_hyperoct": (d, d, d),
    "bound_values": ("murnaghan", p, p, p),
    "character": (p, p),
    "check_partition": (p,),
    "clear_caches": (count("degree", 3),),
    "conjugate": (p,),
    "d_real": (base, ONE_BOX, count("certified_bound", 2), count("margin", 1)),
    "dim_gl": (p, count("m", 3)),
    "dim_sn": (p,),
    "dim_wreath": (d,),
    "empirical_scan": (base, ONE_BOX, count("horizon", 2)),
    "format_partition": (p,),
    "hyperoct_coeff": (d, d, d, count("size_cap", 20)),
    "kron": (p, p, p),
    "lr": (p, p, p),
    "parse_double_partition": (dtext,),
    "parse_partition": (text,),
    # the partition is read unchecked: every bound formula calls part_at
    # on partitions it has checked, about 40 times per query
    "part_at": (P, count("k", 1)),
    "partitions_of": (count("n", 3), count("max_part", 2)),
    "plethysm_coeff": (p, p, p),
    "schur_product_expand": (p, p),
    "sequence_term": (base, ONE_BOX, count("d", 1)),
    "weak_stability_probe": (p, p, p, count("horizon", 2)),
}


def _bad(slot):
    """(class, bad value, the value its message names) for each bad input
    class that fits the slot."""
    if slot.kind == "count":
        return [(cls, v, v) for cls, v in BAD_COUNTS.items()]
    if slot.kind == "text":
        return [*((cls, t, v) for cls, (t, v) in BAD_TEXT.items()), ("wrong nesting", P, P)]
    if slot.kind == "dtext":
        return [*((cls, t + ";1", v) for cls, (t, v) in BAD_TEXT.items()), ("wrong nesting", D, D)]
    if slot.kind == "double":
        return [*((cls, (lam, (1,)), v) for cls, (lam, v) in BAD_PARTS.items()), ("wrong nesting", P, P)]
    cases = [*((cls, lam, v) for cls, (lam, v) in BAD_PARTS.items()), ("wrong nesting", D, D[0])]
    return [(cls, (lam, P, P), v) for cls, lam, v in cases] if slot.kind == "base" else cases


def _holds(message, word) -> bool:
    return re.search(rf"(?<![\w.]){re.escape(word)}(?![\w.])", message) is not None


def test_every_public_function_names_its_bad_input():
    public = {
        name for name in kronstab.__all__
        if callable(value := getattr(kronstab, name)) and not isinstance(value, (type, GenericAlias))
    }
    assert set(CALLS) == public
    failures = []
    for name, slots in CALLS.items():
        fn = getattr(kronstab, name)
        valid = [s.valid if isinstance(s, Slot) else s for s in slots]
        fn(*valid)
        for i, slot in enumerate(slots):
            if not isinstance(slot, Slot):
                continue
            for cls, bad, named in _bad(slot):
                args = valid[:i] + [bad] + valid[i + 1:]
                words = (repr(named), slot.name) if slot.kind == "count" else (repr(named),)
                try:
                    fn(*args)
                except ValueError as exc:
                    if not all(_holds(str(exc), w) for w in words):
                        failures.append(f"{name} arg {i} {cls}: {type(exc).__name__}: {exc}")
                except Exception as exc:
                    failures.append(f"{name} arg {i} {cls}: {type(exc).__name__}: {exc}")
                else:
                    failures.append(f"{name} arg {i} {cls}: no error")
    assert failures == []
