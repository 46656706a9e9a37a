"""Command-line surface.

Subcommands: kron, bound, dreal, plethysm, hyperoct, table.  Triples use
"/" between partitions, ";" between the two halves of a double
partition, "-" (or nothing) for the empty partition.
"""

import argparse
import csv
import io
import json
import sys

from .partitions import PartitionError, format_partition, parse_partition
from .kronecker import kron
from .lr import lr
from .plethysm import plethysm_coeff
from .hyperoct import hyperoct_coeff, parse_double_partition, format_double_partition
from .bounds import (
    BoundReport,
    DegenerateTripleError,
    bound_D1,
    bound_D2,
    bound_hyperoct,
    murnaghan_report,
    squares_report,
)
from .stabilization import DIRECTIONS, d_real, empirical_scan
from .fixtures import TABLES, RowResult, evaluate_row


def _parse_triple(text: str):
    parts = text.split("/")
    if len(parts) != 3:
        raise PartitionError(
            f"expected three '/'-separated partitions, got {len(parts)}"
        )
    return tuple(parse_partition(p) for p in parts)


def _parse_double_triple(text: str):
    parts = text.split("/")
    if len(parts) != 3:
        raise PartitionError(
            f"expected three '/'-separated double partitions, got {len(parts)}"
        )
    return tuple(parse_double_partition(p) for p in parts)


def cmd_kron(args) -> int:
    lam, mu, nu = _parse_triple(args.triple)
    n = sum(lam)
    print(f"n = {n}")
    print(kron(lam, mu, nu))
    return 0


def cmd_bound(args) -> int:
    if args.family == "hyperoct":
        lam, mu, nu = _parse_double_triple(args.triple)
        print(f"D_hyperoct = {bound_hyperoct(lam, mu, nu)}")
        return 0
    lam, mu, nu = _parse_triple(args.triple)
    if args.family == "squares":
        report = squares_report(lam, mu, nu)
    elif args.all:
        report = murnaghan_report(lam, mu, nu)
    else:
        try:
            d1 = bound_D1(lam, mu, nu, minimize_over_orderings=args.reorder)
        except DegenerateTripleError:
            d1 = 0
        report = BoundReport("murnaghan", (lam, mu, nu), (("D1", d1),))
    for name, value in report.values:
        print(f"{name} = {value}")
    for note in report.notes:
        print(f"note: {note}")
    return 0


def cmd_dreal(args) -> int:
    lam, mu, nu = _parse_triple(args.triple)
    base = (lam, mu, nu)
    if args.direction is not None:
        direction = _parse_triple(args.direction)
        horizon = args.horizon if args.horizon is not None else 10
        res = empirical_scan(base, direction, horizon)
    else:
        direction = DIRECTIONS[args.family]
        if args.family == "murnaghan":
            try:
                bound = bound_D1(lam, mu, nu)
            except DegenerateTripleError:
                bound = 0
            cert = "D1"
        else:
            bound = bound_D2(lam, mu, nu)
            cert = "D2"
        res = d_real(base, direction, bound, certificate=cert)
    print(f"d_real = {res.d_real}")
    print(f"limit = {res.limit}")
    print(f"sequence = {list(res.sequence)}")
    print(f"certificate = {res.certificate}")
    return 0


def cmd_plethysm(args) -> int:
    lam, mu, nu = _parse_triple(args.triple)
    print(plethysm_coeff(lam, mu, nu))
    return 0


def cmd_hyperoct(args) -> int:
    alpha, beta, gamma = _parse_double_triple(args.triple)
    kwargs = {}
    if args.size_cap is not None:
        kwargs["size_cap"] = args.size_cap
    print(hyperoct_coeff(alpha, beta, gamma, **kwargs))
    return 0


def _row_json(result: RowResult) -> dict:
    return {
        "triple": result.triple_text,
        "cells": {
            c.name: {
                "expected": c.expected,
                "computed": c.computed,
                "provenance": c.provenance,
                "status": c.status,
            }
            for c in result.cells
        },
    }


def _emit_md(table, results) -> str:
    header = ["triple"] + list(table.columns)
    lines = ["| " + " | ".join(header) + " |",
             "|" + "|".join("---" for _ in header) + "|"]
    for r in results:
        row = [r.triple_text]
        for name in table.columns:
            c = r.cell(name)
            if c.provenance == "fixture":
                row.append(f"{c.expected} (fixture)")
            elif c.status == "match":
                row.append(str(c.expected))
            else:
                row.append(f"{c.computed} (expected {c.expected}, {c.status})")
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines)


def _emit_csv(table, results) -> str:
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["triple"] + list(table.columns))
    for r in results:
        row = [r.triple_text]
        for name in table.columns:
            c = r.cell(name)
            row.append(c.expected if c.provenance == "fixture" else c.computed)
        w.writerow(row)
    return buf.getvalue().rstrip("\n")


def cmd_table(args) -> int:
    table = TABLES.get(args.table_id)
    if table is None:
        print(f"unknown table id {args.table_id!r}; "
              f"available: {', '.join(sorted(TABLES))}", file=sys.stderr)
        return 2
    rows = table.rows
    if args.rows:
        wanted = {int(tok) for tok in args.rows.split(",")}
        rows = tuple(r for i, r in enumerate(rows, 1) if i in wanted)
    results = [evaluate_row(table, r) for r in rows]
    if args.format == "json":
        payload = {
            "table": table.table_id,
            "columns": list(table.columns),
            "rows": [_row_json(r) for r in results],
        }
        ok = all(
            c.status != "mismatch" for r in results for c in r.cells
        )
        payload["status"] = "ok" if ok else "mismatch"
        print(json.dumps(payload, indent=2))
    elif args.format == "csv":
        print(_emit_csv(table, results))
    else:
        print(_emit_md(table, results))
    if any(c.status == "mismatch" for r in results for c in r.cells):
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="kronstab",
        description="Exact tensor-product multiplicities and their "
        "stabilization bounds.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("kron", help="Kronecker coefficient of a triple")
    sp.add_argument("triple", help='e.g. "2,1 / 2,1 / 2,1"')
    sp.set_defaults(func=cmd_kron)

    sp = sub.add_parser("bound", help="stabilization bounds for a triple")
    sp.add_argument("family", choices=["murnaghan", "squares", "hyperoct"])
    sp.add_argument("triple")
    sp.add_argument("--reorder", action=argparse.BooleanOptionalAction,
                    default=True,
                    help="minimize over orderings of the triple")
    sp.add_argument("--all", action="store_true",
                    help="print every bound plus the combined minimum")
    sp.set_defaults(func=cmd_bound)

    sp = sub.add_parser("dreal", help="certified true stabilization index")
    sp.add_argument("family", choices=["murnaghan", "squares"])
    sp.add_argument("triple")
    sp.add_argument("--direction", default=None,
                    help="custom growth direction (uncertified scan)")
    sp.add_argument("--horizon", type=int, default=None,
                    help="scan horizon for a custom direction")
    sp.set_defaults(func=cmd_dreal)

    sp = sub.add_parser("plethysm", help="plethysm coefficient")
    sp.add_argument("triple", help='outer / inner / target, e.g. "2 / 2,1 / 4,2"')
    sp.set_defaults(func=cmd_plethysm)

    sp = sub.add_parser("hyperoct", help="hyperoctahedral tensor coefficient")
    sp.add_argument("triple", help='e.g. "2;2 / 2;2 / 2;2"')
    sp.add_argument("--size-cap", type=int, default=None)
    sp.set_defaults(func=cmd_hyperoct)

    sp = sub.add_parser("table", help="recompute an embedded comparison table")
    sp.add_argument("table_id", help="3.6.1 or 3.6.2")
    sp.add_argument("--format", choices=["md", "csv", "json"], default="md")
    sp.add_argument("--rows", default=None,
                    help="comma-separated 1-based row subset")
    sp.set_defaults(func=cmd_table)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (PartitionError, DegenerateTripleError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if args.command == "table" else 1
    except Exception as exc:  # internal failure
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
