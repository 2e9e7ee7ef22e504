"""Command-line frontend.

Subcommands::

    construct  --family {G1|G2|G3|H1|H2|H3|T|H4} [--m M | --n N | --sizes a,b,c] --out PATH
    verify     --family ... [params] [--in PATH] [--format text|json]
    covering   --in PATH --pattern {K4-|K5-|K4|Kt:T|Kt-:T} [--vertex V] [--format ...]
    koenig     --in PATH [--format ...]
    oracle     --n N --pattern P [--budget-nodes K] [--budget-seconds S] [--allow-large] [--format ...]
    export     --in PATH --format {json|hg} [--out PATH]

Exit codes: 0 success / verified / covered / exhaustive; 1 verification or
covering failure (or non-exhaustive search); 2 usage error; 3 I/O or parse
error.  Diagnostics go to stderr, reports to stdout.

Text reports are key-sorted ``key = value`` lines with JSON-encoded values,
so the text and JSON renderings carry identical fields.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from .constructions import FAMILIES, check_construction, construct, verify_claim
from .fileio import FormatError, _parse_int, dumps_json, load, save, write_edge_list
from .hypergraphs import Graph, TriGraph, _check_vertex
from .koenig import bipartite_edge_coloring
from .oracle import DEFAULT_HARD_CAP, exact_c2
from .patterns import builtin_pattern, covered_at, covering_report

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_IO = 3


def integer(text: str) -> int:
    """argparse type: an integer as the file formats spell it, so '+9', '09',
    '1_000' and non-ASCII digits are rejected ("invalid integer value")."""
    return _parse_int(text, "integer")


def sizes(text: str) -> tuple[int, int, int]:
    """argparse type: three comma-separated integers, each read as
    ``integer`` reads one; argparse names this function in its error
    ("invalid sizes value")."""
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError("sizes must be three comma-separated integers")
    return tuple(map(integer, parts))  # type: ignore[return-value]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tricover",
        description="3-uniform hypergraph covering-threshold toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("text", "json"), default="text")

    def add_family(p: argparse.ArgumentParser) -> None:
        p.add_argument("--family", required=True, choices=FAMILIES)
        p.add_argument("--m", type=integer, help="parameter for H1/H2/H3")
        p.add_argument("--n", type=integer, help="vertex count for H4")
        p.add_argument("--sizes", type=sizes, help="part sizes for T, e.g. 2,2,3")

    p = sub.add_parser("construct", help="build a construction and write its edge-list file")
    add_family(p)
    p.add_argument("--out", required=True)

    p = sub.add_parser("verify", help="verify a construction's claims (exit 0 iff they pass)")
    add_family(p)
    p.add_argument("--in", dest="infile", help="verify this file instead of a fresh construction")
    add_format(p)

    p = sub.add_parser("covering", help="per-vertex pattern covering report")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--pattern", required=True)
    p.add_argument("--vertex", help="report on this vertex alone: an index, or the literal 'x'"
                   " for the file's X marker (default: every vertex, exit 0 iff all are covered)")
    add_format(p)

    p = sub.add_parser("koenig", help="partition a bipartite graph's edges into Delta matchings")
    p.add_argument("--in", dest="infile", required=True)
    add_format(p)

    p = sub.add_parser("oracle", help="exhaustively compute the covering threshold at small n")
    p.add_argument("--n", type=integer, required=True)
    p.add_argument("--pattern", required=True)
    p.add_argument("--budget-nodes", type=integer)
    p.add_argument("--budget-seconds", type=float)
    p.add_argument("--allow-large", action="store_true",
                   help=f"override the n <= {DEFAULT_HARD_CAP} hard cap (requires a budget)")
    add_format(p)

    p = sub.add_parser("export", help="convert between the edge-list and JSON formats")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--format", choices=("json", "hg"), required=True)
    p.add_argument("--out")
    return parser


def render_text(doc: dict) -> str:
    lines = [f"{key} = {json.dumps(doc[key], sort_keys=True)}" for key in sorted(doc)]
    return "\n".join(lines) + "\n"


def _emit(doc: dict, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    else:
        sys.stdout.write(render_text(doc))


def _resolve_vertex(token: str, H: TriGraph) -> int:
    if token == "x":
        if H.distinguished is None:
            raise FormatError("the input file marks no distinguished vertex (no X line)")
        return H.distinguished
    try:
        v = _parse_int(token, "vertex")
    except FormatError:
        raise ValueError(f"bad vertex {token!r}: expected an index or 'x'") from None
    _check_vertex(v, H.n)
    return v


def _cmd_construct(args: argparse.Namespace) -> int:
    save(construct(args.family, m=args.m, n=args.n, sizes=args.sizes), args.out)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.infile:
        report = check_construction(load(args.infile), args.family, m=args.m, n=args.n, sizes=args.sizes)
    else:
        report = verify_claim(args.family, m=args.m, n=args.n, sizes=args.sizes)
    _emit(report.to_dict(), args.format)
    return EXIT_OK if report.passed else EXIT_FAIL


def _cmd_covering(args: argparse.Namespace) -> int:
    obj = load(args.infile)
    if not isinstance(obj, TriGraph):
        raise FormatError("covering analysis needs a 3-graph input (HG 3 header)")
    pattern = builtin_pattern(args.pattern)
    if args.vertex is None:
        report = covering_report(obj, pattern)
        _emit(report.to_dict(), args.format)
        return EXIT_OK if report.fully_covered else EXIT_FAIL
    v = _resolve_vertex(args.vertex, obj)
    witness = covered_at(obj, v, pattern)
    _emit({
        "pattern": pattern.name,
        "n": obj.n,
        "vertex": v,
        "covered": witness is not None,
        "witness": None if witness is None else list(witness),
    }, args.format)
    return EXIT_OK if witness is not None else EXIT_FAIL


def _cmd_koenig(args: argparse.Namespace) -> int:
    obj = load(args.infile)
    if not isinstance(obj, Graph):
        raise FormatError("edge coloring needs a 2-graph input (HG 2 header)")
    coloring = bipartite_edge_coloring(obj)
    if args.format == "json":
        _emit(coloring.to_dict(), "json")
    else:
        lines = [f"DELTA {coloring.delta}"]
        for i, cls in enumerate(coloring.classes):
            lines.append(f"M {i}")
            for u, v in cls:
                lines.append(f"{u} {v}")
        sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_oracle(args: argparse.Namespace) -> int:
    pattern = builtin_pattern(args.pattern)
    result = exact_c2(
        args.n,
        pattern,
        node_budget=args.budget_nodes,
        time_budget=args.budget_seconds,
        allow_large=args.allow_large,
    )
    if args.format == "json":
        _emit(result.to_dict(), "json")
    else:
        doc = result.to_dict()
        doc.pop("witness")
        out = render_text(doc)
        if result.witness is not None:
            out += "WITNESS\n" + write_edge_list(result.witness)
        sys.stdout.write(out)
    return EXIT_OK if result.exhaustive else EXIT_FAIL


def _cmd_export(args: argparse.Namespace) -> int:
    obj = load(args.infile)
    text = dumps_json(obj) if args.format == "json" else write_edge_list(obj)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


_DISPATCH = {
    "construct": _cmd_construct,
    "verify": _cmd_verify,
    "covering": _cmd_covering,
    "koenig": _cmd_koenig,
    "oracle": _cmd_oracle,
    "export": _cmd_export,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _DISPATCH[args.command](args)
    except (FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
