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

from .partitions import parse_triple
from .kronecker import kron
from .plethysm import plethysm_coeff
from .hyperoct import hyperoct_coeff
from .bounds import FAMILIES, bound_values
from .stabilization import (
    CertificateViolationError,
    d_real,
    empirical_scan,
)
from .fixtures import TABLES, evaluate_row


def cmd_kron(args) -> int:
    lam, mu, nu = parse_triple(args.triple)
    value = kron(lam, mu, nu)
    print(f"n = {sum(lam)}\n{value}")
    return 0


def cmd_bound(args) -> int:
    record = FAMILIES[args.family]
    values = bound_values(args.family, *parse_triple(args.triple, record.double))
    for name in values if args.all else [record.certified]:
        print(f"{name} = {values[name]}")
    return 0


def cmd_dreal(args) -> int:
    double = FAMILIES[args.family].double
    base = parse_triple(args.triple, double)
    if args.direction is None:
        if args.horizon is not None:
            raise ValueError("--horizon needs --direction: it is the horizon of a custom scan")
        res = d_real(args.family, base)
    elif double:
        raise ValueError(f"--direction is for Kronecker sequences only, not {args.family}")
    else:
        res = empirical_scan(base, parse_triple(args.direction), 10 if args.horizon is None else args.horizon)
    print(f"d_real = {res.d_real}")
    print(f"limit = {res.limit}")
    print(f"sequence = {list(res.sequence)}")
    print(f"certificate = {res.certificate}")
    return 0


def cmd_plethysm(args) -> int:
    lam, mu, nu = parse_triple(args.triple)
    print(plethysm_coeff(lam, mu, nu))
    return 0


def cmd_hyperoct(args) -> int:
    alpha, beta, gamma = parse_triple(args.triple, double=True)
    print(hyperoct_coeff(alpha, beta, gamma))
    return 0


def _md_cell(c: dict) -> str:
    if c["provenance"] == "fixture":
        return f"{c['expected']} (fixture)"
    if c["status"] == "match":
        return str(c["expected"])
    return f"{c['computed']} (expected {c['expected']}, {c['status']})"


def _emit_md(table, results) -> str:
    header = ["triple"] + list(table.columns)
    lines = ["| " + " | ".join(header) + " |",
             "|" + "|".join("---" for _ in header) + "|"]
    for r in results:
        row = [r["triple"]] + [_md_cell(c) for c in r["cells"].values()]
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines)


def _emit_csv(table, results) -> str:
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["triple"] + list(table.columns))
    for r in results:
        w.writerow([r["triple"]] + [
            c["expected"] if c["provenance"] == "fixture" else c["computed"]
            for c in r["cells"].values()
        ])
    return buf.getvalue().rstrip("\n")


def _row_numbers(text: str, count: int) -> set[int]:
    """The 1-based row numbers of a ``--rows`` list."""
    wanted = set()
    for tok in text.split(","):
        try:
            i = int(tok)
        except ValueError:
            i = 0
        if not 1 <= i <= count:
            raise ValueError(f"bad row {tok!r} in --rows; valid rows are 1..{count}")
        wanted.add(i)
    return wanted


def cmd_table(args) -> int:
    table = TABLES.get(args.table_id)
    if table is None:
        raise ValueError(f"unknown table id {args.table_id!r}; available: {', '.join(sorted(TABLES))}")
    rows = table.rows
    if args.rows:
        wanted = _row_numbers(args.rows, len(rows))
        rows = tuple(r for i, r in enumerate(rows, 1) if i in wanted)
    results = [evaluate_row(table, r) for r in rows]
    ok = all(c["status"] != "mismatch" for r in results for c in r["cells"].values())
    if args.format == "json":
        print(json.dumps({
            "table": table.table_id,
            "columns": list(table.columns),
            "rows": results,
            "status": "ok" if ok else "mismatch",
        }, indent=2))
    elif args.format == "csv":
        print(_emit_csv(table, results))
    else:
        print(_emit_md(table, results))
    return 0 if ok else 1


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

    sp = sub.add_parser("bound", help="the certified stabilization bound of a triple")
    sp.add_argument("family", choices=list(FAMILIES))
    sp.add_argument("triple")
    sp.add_argument("--all", action="store_true",
                    help="print every bound of the family, not only the certified one")
    sp.set_defaults(func=cmd_bound)

    sp = sub.add_parser("dreal", help="certified true stabilization index")
    sp.add_argument("family", choices=list(FAMILIES))
    sp.add_argument("triple")
    sp.add_argument("--direction", default=None,
                    help="custom growth direction of partitions (uncertified scan)")
    sp.add_argument("--horizon", type=int, default=None,
                    help="scan horizon for a custom direction (default 10)")
    sp.set_defaults(func=cmd_dreal)

    sp = sub.add_parser("plethysm", help="plethysm coefficient")
    sp.add_argument("triple", help='outer / inner / target, e.g. "2 / 2,1 / 4,2"')
    sp.set_defaults(func=cmd_plethysm)

    sp = sub.add_parser("hyperoct", help="hyperoctahedral tensor coefficient")
    sp.add_argument("triple", help='e.g. "2;2 / 2;2 / 2;2"')
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
    except (ValueError, CertificateViolationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if args.command == "table" else 1
    except Exception as exc:  # internal failure
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
