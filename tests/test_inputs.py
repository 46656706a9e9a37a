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
import tracemalloc
from types import GenericAlias
from typing import NamedTuple

import kronstab
from kronstab import cli

P = (2, 1)
D = ((2, 1), (1,))
ONE_BOX = ((1,), (1,), (1,))
HYPEROCT = (((1,), ()),) * 3

# A repeat count this large makes laying out its parts fail at once,
# instead of filling memory, should the parser ever do that before its cap.
HUGE_COUNT = 10 ** 12
HUGE_TEXT = f"1^{HUGE_COUNT}"

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
    "huge repeat": (HUGE_TEXT, HUGE_COUNT),
}
BAD_COUNTS = {"non-int count": 2.5, "bool count": True}


class Slot(NamedTuple):
    kind: str
    valid: object
    name: str = ""  # a count's parameter


def count(name, valid):
    return Slot("count", valid, name)


p, d = Slot("partition", P), Slot("double", D)
base, dbase = Slot("base", (P, P, P)), Slot("dbase", (D, D, D))
text, dtext = Slot("text", "2,1"), Slot("dtext", "2,1;1")

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
    "clear_caches": (),
    "conjugate": (p,),
    "d_real": ("murnaghan", base),
    "dim_gl": (p, count("m", 3)),
    "dim_sn": (p,),
    "dim_wreath": (d,),
    "empirical_scan": (base, ONE_BOX, count("horizon", 2)),
    "format_partition": (p,),
    "hyperoct_coeff": (d, d, d, count("size_cap", 20)),
    "hyperoct_term": (dbase, HYPEROCT, count("d", 1)),
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
    if slot.kind in ("double", "dbase"):
        cases = [*((cls, (lam, (1,)), v) for cls, (lam, v) in BAD_PARTS.items()), ("wrong nesting", P, P)]
    else:
        cases = [*((cls, lam, v) for cls, (lam, v) in BAD_PARTS.items()), ("wrong nesting", D, D[0])]
    if slot.kind in ("base", "dbase"):
        not_sequences = [("not a sequence", v, v) for v in (None, 5)]
        return [*((cls, (bad, *slot.valid[1:]), v) for cls, bad, v in cases), *not_sequences]
    return cases


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


# A part this large makes any allocation of one cell per box fail at once,
# instead of filling memory, should a cap ever come after one.
HUGE = 10 ** 18
H, HD = (HUGE, 1), ((HUGE, 1), ())


def _capped_calls():
    from kronstab.plethysm import schur_to_powersum

    return {
        "kron": lambda: kronstab.kron(H, H, H),
        "character": lambda: kronstab.character(H, H),
        "plethysm_coeff": lambda: kronstab.plethysm_coeff((HUGE,), (1,), (HUGE,)),
        "schur_to_powersum": lambda: schur_to_powersum(H),
        "hyperoct_coeff": lambda: kronstab.hyperoct_coeff(HD, HD, HD),
        "sequence_term": lambda: kronstab.sequence_term((H, H, H), ONE_BOX, 0),
        "hyperoct_term": lambda: kronstab.hyperoct_term((HD, HD, HD), HYPEROCT, 0),
        "d_real murnaghan": lambda: kronstab.d_real("murnaghan", (H, H, H)),
        "d_real hyperoct": lambda: kronstab.d_real("hyperoct", (HD, HD, HD)),
        "empirical_scan": lambda: kronstab.empirical_scan((H, H, H), ONE_BOX, 0),
        "weak_stability_probe": lambda: kronstab.weak_stability_probe(H, H, H, 2),
        "lr": lambda: kronstab.lr(H, H, (2 * HUGE, 2)),
        "conjugate": lambda: kronstab.conjugate(H),
        "dim_sn": lambda: kronstab.dim_sn(H),
        # both halves huge: the binomial of their sizes would never end
        "dim_wreath": lambda: kronstab.dim_wreath(((HUGE,), (HUGE,))),
        "schur_product_expand": lambda: kronstab.schur_product_expand((HUGE,), (HUGE,)),
    }


# public functions that take a partition and need no cap: huge parts are
# valid input, and each returns without a step or a cell per box
CLOSED_FORM = "a closed-form bound only adds and compares parts"
CAP_FREE = {
    "add_scaled": "adds each part once",
    "bound_D1": CLOSED_FORM,
    "bound_D2": CLOSED_FORM,
    "bound_DB": CLOSED_FORM,
    "bound_DB_improved": CLOSED_FORM,
    "bound_DBOR2": CLOSED_FORM,
    "bound_DBOR2_improved": CLOSED_FORM,
    "bound_Dm": CLOSED_FORM,
    "bound_hyperoct": CLOSED_FORM,
    "bound_values": CLOSED_FORM,
    "check_partition": "reads each part once",
    "dim_gl": "one binomial per row",
    "format_partition": "prints each part once",
}


def _huge(slot):
    return {"partition": H, "double": HD, "base": (H, H, H), "dbase": (HD, HD, HD)}.get(slot.kind)


def _with_huge_parts():
    """Each public function whose input holds partitions: a call with
    huge parts in every such slot and valid values elsewhere."""
    calls = {}
    for name, slots in CALLS.items():
        args = [s.valid if isinstance(s, Slot) else s for s in slots]
        huge = [_huge(s) if isinstance(s, Slot) else None for s in slots]
        if any(h is not None for h in huge):
            calls[name] = [a if h is None else h for a, h in zip(args, huge)]
    return calls


def _traced_peak(call):
    """Run ``call`` under tracemalloc: its error, if any, and its peak."""
    tracemalloc.start()
    try:
        call()
    except Exception as exc:
        return exc, tracemalloc.get_traced_memory()[1]
    else:
        return None, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_huge_parts_hit_the_cap_before_any_allocation():
    """Every public function that takes partitions either has a size cap,
    and raises ``SizeCapError`` for huge parts, naming them, before it
    allocates anything that grows with the parts, or is cap-free with a
    stated reason, and then takes huge parts as valid input at the same
    small cost.  ``d_real`` reaches its cap through its first term,
    after the certified bound."""
    capped = _capped_calls()
    swept = _with_huge_parts()
    assert set(CAP_FREE) <= set(swept)
    assert {name.split()[0] for name in capped} | set(CAP_FREE) >= set(swept)
    assert not {name.split()[0] for name in capped} & set(CAP_FREE)
    failures = []
    for name, call in capped.items():
        exc, peak = _traced_peak(call)
        if not isinstance(exc, kronstab.SizeCapError):
            failures.append(f"{name}: {type(exc).__name__}: {exc}")
        elif str(HUGE) not in str(exc) or peak > 1 << 16:
            failures.append(f"{name}: peak {peak} B: {exc}")
    for name in CAP_FREE:
        exc, peak = _traced_peak(lambda: getattr(kronstab, name)(*swept[name]))
        if exc is not None or peak > 1 << 16:
            failures.append(f"{name}: peak {peak} B: {type(exc).__name__}: {exc}")
    assert failures == []
    assert kronstab.bound_values("murnaghan", H, H, H)["Dm"] == 0
    assert kronstab.bound_hyperoct(HD, HD, HD) == 0


def test_huge_repeat_counts_hit_the_cap_before_any_allocation(capsys):
    """The parsers sum the repeat counts of partition text before they
    lay out a part, so a huge count fails at the same small cost as a
    huge part, and so does the CLI that reads such text; and
    ``partitions_of`` refuses a size above ``KRON_SIZE_CAP`` before it
    lists a partition."""
    for name, call, named in (
        ("parse_partition", lambda: kronstab.parse_partition(HUGE_TEXT), HUGE_COUNT),
        ("parse_double_partition", lambda: kronstab.parse_double_partition(f"{HUGE_TEXT};1"), HUGE_COUNT),
        # one past the cap first: should the cap be missing, the huge
        # count would list partitions until memory ran out
        ("partitions_of", lambda: kronstab.partitions_of(51), 51),
        ("partitions_of", lambda: kronstab.partitions_of(HUGE_COUNT), HUGE_COUNT),
    ):
        exc, peak = _traced_peak(call)
        ok = isinstance(exc, kronstab.SizeCapError) and _holds(str(exc), str(named)) and peak <= 1 << 16
        assert ok, f"{name}: peak {peak} B: {type(exc).__name__}: {exc}"
    # the first call compiles argparse's patterns, which the peak would count
    assert cli.main(["kron", "1 / 1 / 1"]) == 0
    capsys.readouterr()
    codes = []
    exc, peak = _traced_peak(lambda: codes.append(cli.main(["kron", f"{HUGE_TEXT} / {HUGE_TEXT} / {HUGE_TEXT}"])))
    err = capsys.readouterr().err
    assert (exc, codes) == (None, [1]) and peak <= 1 << 16
    assert err == f"error: {HUGE_COUNT} parts of partition text {HUGE_TEXT!r} exceeds the desk-scale limit of 32768\n"
