"""Command line interface.

Exit codes: 0 = success / verdict holds, 1 = counterexample found,
2 = usage error, bad input, unreadable file or refused size.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from contextlib import contextmanager
from functools import cache

from . import harness
from .chirotope import alternating_chirotope, parse_chirotope
from .circuits import circuits_from_chirotope
from .constructions import (
    composite_construction,
    disjoint_cocircuit_construction,
    search_k_neighborly,
)
from .cyclic import CValueTable
from .errors import FormatError, OrimatError
from .neighborly import (
    check_enumeration_size,
    check_k,
    check_tope_graph_size,
    o_vector,
    tope_graph_edges,
)


def _add_common(p: argparse.ArgumentParser, db: bool = False):
    p.add_argument("--rank", "-r", type=int, required=True)
    p.add_argument("--elements", "-n", type=int, required=True)
    p.add_argument("--base-order", choices=["lex", "colex"], default="lex")
    p.add_argument(
        "--file",
        help="chirotope text file ('-' for stdin); omit for the alternating matroid"
        if not db
        else "database file ('-' for stdin)",
        default=None if not db else "-",
    )


def _read_chirotope(args):
    if args.file is None:
        return alternating_chirotope(args.rank, args.elements)
    with _open(args.file) as (fh, name):
        texts = [line for line in map(str.strip, fh) if line and line[0] != "#"]
    if not texts:
        raise FormatError(f"no chirotope in {name}")
    if len(texts) > 1:
        raise FormatError(f"{name} holds {len(texts)} chirotope lines; expected one")
    return parse_chirotope(texts[0], args.rank, args.elements, base_order=args.base_order)


@contextmanager
def _open(path: str):
    """The named text file, or stdin (left open on exit) for '-', read as
    strict UTF-8 with universal newlines (a line ends at LF, CRLF or a lone
    CR), and its name in messages: "stdin" for '-'.  Text that does not
    decode is refused, naming the file."""
    name = "stdin" if path == "-" else path
    if path == "-":  # rewrapped: sys.stdin splits at "\n" only on POSIX
        fh = io.TextIOWrapper(sys.stdin.buffer, encoding="utf-8")
    else:
        fh = open(path, encoding="utf-8")
    try:
        yield fh, name
    except UnicodeDecodeError as exc:
        raise FormatError(f"{name} is not UTF-8 text ({exc.reason})") from None
    finally:
        fh.detach() if path == "-" else fh.close()


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process."""
    parser = argparse.ArgumentParser(prog="orimat")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("circuits", help="print normalized circuits, one per line")
    _add_common(p)

    p = sub.add_parser("ovector", help="o-vector and m-values as JSON")
    _add_common(p)
    p.add_argument("--tope-graph", metavar="PATH", help="also write the tope graph edge list")

    p = sub.add_parser("mvalue", help="number of k-neighborly reorientations")
    _add_common(p)
    p.add_argument("--k", type=int, required=True)

    p = sub.add_parser("dual", help="print the dual chirotope")
    _add_common(p)

    p = sub.add_parser("minor", help="print a single-element minor")
    _add_common(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--delete", type=int, metavar="E")
    group.add_argument("--contract", type=int, metavar="E")

    p = sub.add_parser("reorient", help="print the reoriented chirotope")
    _add_common(p)
    p.add_argument("--set", required=True, metavar="ELEMS", help="e.g. 1,3,5")

    p = sub.add_parser("construct", help="find a k-neighborly reorientation")
    _add_common(p)
    p.add_argument("--method", choices=["search", "cocircuits", "composite"], default="search")
    p.add_argument("--k", type=int, required=True)

    p = sub.add_parser("cvalue", help="c_r(n,k) for the alternating matroid")
    p.add_argument("--rank", "-r", type=int, required=True)
    p.add_argument("--elements", "-n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--show-provenance", action="store_true")

    for name, help_text in [
        ("roudneff", "max m(M,k) over a database vs c_r(n,k)"),
        ("mcmullen", "min m(M,k) over a database (existence of reorientations)"),
    ]:
        p = sub.add_parser(name, help=help_text)
        _add_common(p, db=True)
        p.add_argument("--k", type=int, required=True)
        p.add_argument("--format", choices=["json", "csv"], default="json")
        p.add_argument("--checkpoint", metavar="PATH")

    p = sub.add_parser("audit", help="deletion/contraction inequality per element")
    _add_common(p)
    p.add_argument("--k", type=int, required=True)

    p = sub.add_parser("reduce", help="finite reduction check for (rank, k)")
    p.add_argument("--rank", "-r", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument(
        "--db",
        action="append",
        default=[],
        metavar="RANK:N:PATH",
        help="base-case database, repeatable",
    )
    p.add_argument("--base-order", choices=["lex", "colex"], default="lex")
    return parser


def _cmd_circuits(args) -> int:
    cs = circuits_from_chirotope(_read_chirotope(args))
    for x in cs.members:
        print(x)
    return 0


def _cmd_ovector(args) -> int:
    check_enumeration_size(args.rank, args.elements)
    if args.tope_graph:
        check_tope_graph_size(args.elements)
    cs = circuits_from_chirotope(_read_chirotope(args))
    ov = o_vector(cs)
    harness.check_tope_count(ov.m(0), ov.r, ov.n)
    if args.tope_graph:  # written first: a path that fails prints nothing
        with open(args.tope_graph, "w") as fh:
            for a, b in tope_graph_edges(cs):
                fh.write(f"{a} {b}\n")
    print(
        json.dumps(
            {"r": ov.r, "n": ov.n, "ovector": list(ov.entries), "m": list(ov.m_values())}
        )
    )
    return 0


def _cmd_mvalue(args) -> int:
    check_enumeration_size(args.rank, args.elements)
    cs = circuits_from_chirotope(_read_chirotope(args))
    check_k(cs.r, args.k)
    ov = o_vector(cs)
    harness.check_tope_count(ov.m(0), ov.r, ov.n)
    print(ov.m(args.k))
    return 0


def _cmd_dual(args) -> int:
    print(_read_chirotope(args).dual().serialize())
    return 0


def _cmd_minor(args) -> int:
    chi = _read_chirotope(args)
    chi = chi.delete(args.delete) if args.delete is not None else chi.contract(args.contract)
    print(chi.serialize())
    return 0


def _cmd_reorient(args) -> int:
    try:
        r_set = [int(x) for x in args.set.split(",") if x]
    except ValueError:
        raise FormatError(f"--set expects comma-separated elements, got {args.set!r}") from None
    print(_read_chirotope(args).reorient(r_set).serialize())
    return 0


def _cmd_construct(args) -> int:
    if args.method == "search":
        check_enumeration_size(args.rank, args.elements)
    chi = _read_chirotope(args)
    if args.method == "search":
        witness = search_k_neighborly(chi, args.k)
        if witness is None:
            print("none")
            return 1
    elif args.method == "cocircuits":
        witness = disjoint_cocircuit_construction(chi, args.k)
    else:
        witness = composite_construction(chi, args.k)
    print(f"R={','.join(map(str, witness.r_set)) or '-'} level={witness.k}")
    return 0


def _cmd_cvalue(args) -> int:
    entry = CValueTable().entry(args.rank, args.elements, args.k)
    print(f"{entry.value} {entry.provenance}" if args.show_provenance else entry.value)
    return 0


def _cmd_reports(args) -> int:
    r, n = args.rank, args.elements
    agg = harness.new_aggregate(args.command, r, n, args.k)
    with _open(args.file) as (fh, name):
        blocks = list(harness.parse_database(fh, r, n, args.base_order, blocks=True))
    for block in harness.report_rows(agg, blocks, args.checkpoint, source=name):
        print("\n".join(block.lines(args.format)))
    print(json.dumps(agg.summary()), file=sys.stderr)
    return 0 if agg.holds else 1


def _cmd_audit(args) -> int:
    check_enumeration_size(args.rank, args.elements)
    chi = _read_chirotope(args)
    triples = harness.deletion_contraction_audit(chi, args.k)
    ok = True
    for t in triples:
        print(
            f"e={t.element} m={t.m_full} m_delete={t.m_delete} "
            f"m_contract={t.m_contract} holds={t.holds}"
        )
        ok = ok and t.holds
    return 0 if ok else 1


def _cmd_reduce(args) -> int:
    specs = []
    for db_arg in args.db:
        try:
            rank_s, n_s, path = db_arg.split(":", 2)
            specs.append((int(rank_s), int(n_s), path))
        except ValueError:
            raise FormatError(f"--db expects RANK:N:PATH, got {db_arg!r}") from None
    harness.check_reduction_inputs(args.rank, args.k, [spec[:2] for spec in specs])
    db_map, sources = {}, {}
    for r_prime, n_prime, path in specs:
        with _open(path) as (fh, name):
            sources[r_prime, n_prime] = name
            db_map[(r_prime, n_prime)] = list(
                harness.parse_database(fh, r_prime, n_prime, args.base_order, blocks=True)
            )
    verdict = harness.finite_reduction_check(args.rank, args.k, db_map, sources=sources)
    for line in verdict.detail:
        print(line)
    if verdict.confirmed:
        print("confirmed")
        return 0
    print("incomplete-evidence" if verdict.incomplete else "counterexample")
    return 0 if verdict.incomplete else 1


_COMMANDS = {
    "circuits": _cmd_circuits,
    "ovector": _cmd_ovector,
    "mvalue": _cmd_mvalue,
    "dual": _cmd_dual,
    "minor": _cmd_minor,
    "reorient": _cmd_reorient,
    "construct": _cmd_construct,
    "cvalue": _cmd_cvalue,
    "roudneff": _cmd_reports,
    "mcmullen": _cmd_reports,
    "audit": _cmd_audit,
    "reduce": _cmd_reduce,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return _COMMANDS[args.command](args)
    except (OrimatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print(f"error: out of memory running {args.command}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
