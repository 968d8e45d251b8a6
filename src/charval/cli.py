"""Command-line front end: tables, invariants, checks, and scans.

Exit codes: 0 all good, 1 at least one FAIL verdict, 2 usage or input
error.  JSON output is byte-stable for a fixed seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import catalog, verify
from .chartab import CharTable, TooManyClasses, character_table
from .invariants import InvariantReport, report
from .permcore import (
    OrderBoundExceeded, ParseError, PermGroup, conjugacy_classes,
    parse_group_file,
)
from .symchar import SizeMismatch, mn_value


def _emit(text: str) -> None:
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _emit_json(obj) -> None:
    _emit(json.dumps(obj, indent=2))


def _looks_like_path(selector: str) -> bool:
    """A selector with a path separator or a .txt suffix is a file; any
    other is a file only when it names no catalog entry or alias."""
    if os.sep in selector or selector.endswith(".txt"):
        return True
    try:
        catalog.resolve_name(selector)
    except catalog.UnknownName:
        return os.path.exists(selector)
    return False


def _load(selector: str, seed: int, max_order: int) -> tuple[
        str, PermGroup, CharTable, InvariantReport]:
    """Resolve a catalog name or group file into computed artifacts."""
    if max_order < 1:
        raise ValueError("--max-order must be a positive integer")
    if _looks_like_path(selector):
        with open(selector, encoding="utf-8") as fh:
            group = parse_group_file(fh.read(), bound=max_order)
        label = os.path.splitext(os.path.basename(selector))[0]
        classes = conjugacy_classes(group)
        table = character_table(group, classes, seed=seed)
        return label, group, table, report(table)
    ent, group, _, table, rep = catalog.bundle(selector, seed)
    return ent.name, group, table, rep


def _render_table(label: str, table: CharTable) -> str:
    classes = table.classes
    group = table.group
    head = [f"group {label}  order {group.order}  classes "
            f"{classes.n_classes}  prime {table.dixon_prime}"]
    cols: list[list[str]] = [
        ["class"], ["size"], ["order"], ["rep"],
    ]
    for k in range(classes.n_classes):
        cols[0].append(str(k))
        cols[1].append(str(classes.sizes[k]))
        cols[2].append(str(classes.element_orders[k]))
        cols[3].append(group.elements[classes.reps[k]].cycle_string())
    rows = [cols[0], cols[1], cols[2], cols[3]]
    for row in table.rows:
        line = [f"deg {row.degree}"]
        line.extend(v.display() for v in row.values)
        rows.append(line)
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    out = head
    for r in rows:
        out.append("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip())
    return "\n".join(out)


def _render_invariants(label: str, rep: InvariantReport) -> str:
    d = rep.to_json_dict()
    lines = [f"group {label}  order {d['order']}  classes {d['class_count']}"]
    for key in ("cv", "cd", "cdc", "ncv", "cod", "per_char_cv_sizes",
                "root_of_unity_elements"):
        lines.append(f"{key}: " + ", ".join(str(x) for x in d[key]))
    lines.append(f"b: {d['b']}")
    lines.append(f"dl: {d['dl']}")
    lines.append(f"rational: {d['is_rational_group']}")
    lines.append("flags: " + json.dumps(d["flags"]))
    return "\n".join(lines)


def _cmd_table(args) -> int:
    label, _, table, _ = _load(args.group, args.seed, args.max_order)
    if args.json:
        _emit_json(table.to_json_dict())
    else:
        _emit(_render_table(label, table))
    return 0


def _cmd_invariants(args) -> int:
    label, _, _, rep = _load(args.group, args.seed, args.max_order)
    if args.json:
        _emit_json(rep.to_json_dict())
    else:
        _emit(_render_invariants(label, rep))
    return 0


def _corpus_names(args) -> list[str]:
    """The core tier, plus the optional tier under --optional-tier."""
    names = catalog.names("core")
    if args.optional_tier:
        names += catalog.names("optional")
    return names


def _cmd_verify(args) -> int:
    if args.group:
        targets = [catalog.resolve_name(g) for g in args.group]
    else:
        targets = _corpus_names(args)
    verdicts = verify.verify_names(targets, args.seed,
                                   include_scans=not args.group)
    if args.claim:
        verdicts = [v for v in verdicts if v.claim == args.claim]
    if args.json:
        _emit_json([v.to_json_dict() for v in verdicts])
    else:
        for v in verdicts:
            _emit(f"{v.status:7s} {v.group:22s} {v.claim:24s} {v.details}")
        fails = sum(1 for v in verdicts if v.status == "FAIL")
        _emit(f"{len(verdicts)} verdicts, {fails} FAIL")
    return 1 if verify.any_fail(verdicts) else 0


def _cmd_scan(args) -> int:
    hits = verify.scan(args.property, _corpus_names(args), args.seed)
    if args.json:
        _emit_json({"property": args.property, "matches": hits})
    else:
        for name in hits:
            _emit(name)
    return 0


def _cmd_mn(args) -> int:
    lam = _int_tuple(args.partition)
    rho = _int_tuple(args.cycle_type)
    value = mn_value(lam, rho)
    if args.json:
        _emit_json({"partition": list(lam), "cycle_type": list(rho),
                    "value": value})
    else:
        _emit(str(value))
    return 0


def _cmd_catalog(args) -> int:
    names = catalog.names() if args.all_tiers else _corpus_names(args)
    rows = []
    for name in names:
        ent = catalog.entry(name)
        rows.append({"name": ent.name, "order": ent.order,
                     "tier": ent.tier, "source": ent.source})
    rows.sort(key=lambda r: (r["order"], r["name"]))
    if args.json:
        _emit_json(rows)
    else:
        for r in rows:
            _emit(f"{r['name']:24s} {r['order']:5d}  {r['tier']:8s} {r['source']}")
    return 0


def _int_tuple(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise SizeMismatch(f"expected comma-separated integers, got {text!r}")


def _add_common(sub, group_required: bool = True) -> None:
    sub.add_argument("--group", required=group_required,
                     help="catalog name or group file path")
    sub.add_argument("--json", action="store_true")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--max-order", type=int, default=2500,
                     help="element bound when reading group files")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="charval",
        description="exact character tables and value-set invariants "
                    "of small finite groups")
    subs = parser.add_subparsers(dest="command", required=True)

    t = subs.add_parser("table", help="print a character table")
    _add_common(t)
    t.set_defaults(fn=_cmd_table)

    inv = subs.add_parser("invariants", help="print value-set invariants")
    _add_common(inv)
    inv.set_defaults(fn=_cmd_invariants)

    ver = subs.add_parser("verify", help="run classification checkers")
    ver.add_argument("--group", action="append", default=[],
                     help="catalog entry (repeatable); default: --all")
    ver.add_argument("--all", action="store_true",
                     help="whole core tier plus corpus scans")
    ver.add_argument("--claim", choices=verify.CLAIMS,
                     help="restrict output to one claim")
    ver.add_argument("--optional-tier", action="store_true")
    ver.add_argument("--json", action="store_true")
    ver.add_argument("--seed", type=int, default=0)
    ver.set_defaults(fn=_cmd_verify)

    sc = subs.add_parser("scan", help="list entries matching a predicate")
    sc.add_argument("--property", required=True,
                    help="cdc=K | ncv=K | rows<=K | rational")
    sc.add_argument("--optional-tier", action="store_true")
    sc.add_argument("--json", action="store_true")
    sc.add_argument("--seed", type=int, default=0)
    sc.set_defaults(fn=_cmd_scan)

    mn = subs.add_parser("mn", help="symmetric-group character value")
    mn.add_argument("--partition", required=True, help="e.g. 13,1,1")
    mn.add_argument("--cycle-type", required=True, help="e.g. 9,4,2")
    mn.add_argument("--json", action="store_true")
    mn.set_defaults(fn=_cmd_mn)

    cat = subs.add_parser("catalog", help="list catalog entries")
    cat.add_argument("action", nargs="?", default="list", choices=["list"])
    cat.add_argument("--optional-tier", action="store_true")
    cat.add_argument("--all-tiers", action="store_true")
    cat.add_argument("--json", action="store_true")
    cat.set_defaults(fn=_cmd_catalog)
    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (ParseError, catalog.UnknownName, catalog.ConstructionMismatch,
            OrderBoundExceeded, SizeMismatch, TooManyClasses,
            ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
