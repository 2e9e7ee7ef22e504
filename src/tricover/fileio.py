"""Edge-list text format and JSON conversion for graphs and 3-graphs.

The text format, shared by every tool in the package::

    # comment lines start with '#'
    HG <k> <n> <edge_count>      header: uniformity (2 or 3), vertices, edges
    X <index>                    optional, 3-graphs only: distinguished vertex
    CLASS <vertex> <label>       optional, repeated: vertex class labels
    a b c                        one edge per line, strictly increasing indices

Every integer is spelled as the writer spells it (``_DECIMAL``): ASCII
digits with an optional leading '-', and no leading zero and no '-0'.
Lines use LF endings, and only LF ends a line; a CR right before the LF
belongs to the line ending, so a CR LF ending reads as LF.  A token is a
run of characters other than space and tab (``_tokens``): any other
character, such as U+00A0, VT, FF, U+2028 or a CR elsewhere in the line,
stays inside its token, where the integer rule or the graph's label rule
rejects it.  The writer is canonical (CLASS lines sorted by vertex, edges in
lexicographic order, no comments), so write -> parse -> write is bit-exact.

Beyond syntax the readers check only what belongs to a document: the vertex
limit below, the declared edge count and an edge given twice.  Every rule on
a graph's content (vertex sets, labels) is the graph type's own, which
``_build`` reports as FormatError, so both writers accept every graph.

The writer spells each vertex once and formats every edge from those
spellings.  The reader takes the edge lines in bulk when they are all in
the writer's form (``_edge_block``): once every line is seen to hold k - 1
spaces, one join and one split give all the tokens, and each distinct token
is converted once.  Any other document, such as one with comments, tabs or
X/CLASS lines among or after the edges, is read one line at a time, and
that loop alone decides every error and its message.

Both readers reject a vertex count above ``MAX_VERTICES`` before anything is
allocated: a graph of n vertices holds n adjacency sets, so a 20-byte header
could otherwise ask for gigabytes.
"""

from __future__ import annotations

import json
import os
import re
from itertools import repeat
from operator import lt
from pathlib import Path
from typing import Optional, Sequence, Union

from .hypergraphs import Graph, TriGraph, _is_int

GraphLike = Union[Graph, TriGraph]

MAX_VERTICES = 65_536


class FormatError(ValueError):
    """Raised when an edge-list or JSON document does not parse."""


def _kind(obj: GraphLike) -> tuple[int, Sequence[tuple[int, ...]], Optional[int]]:
    """(uniformity, edges, distinguished vertex) of a Graph or TriGraph."""
    if isinstance(obj, TriGraph):
        return 3, obj.edges, obj.distinguished
    if isinstance(obj, Graph):
        return 2, obj.edges(), None
    raise ValueError(f"cannot serialize {type(obj).__name__}")


def _build(k: int, n: int, edges: list, distinguished: Optional[int], class_of: dict) -> GraphLike:
    """The Graph (k=2) or TriGraph (k=3) a reader parsed; ValueError becomes
    FormatError, and so does an edge given twice, in any vertex order."""
    if k not in (2, 3):
        raise FormatError(f"unsupported uniformity {k!r}")
    labels = class_of or None
    try:
        if k == 3:
            G: GraphLike = TriGraph(n, edges, distinguished=distinguished, class_of=labels)
        else:
            G = Graph(n, edges, class_of=labels)
    except ValueError as exc:
        raise FormatError(str(exc)) from None
    # the graph keeps each edge once, so a repeated edge shows as a
    # shortfall; only then is the first repeat looked up for the message
    if G.edge_count < len(edges):
        seen: set[tuple[int, ...]] = set()
        for e in map(tuple, map(sorted, edges)):
            if e in seen:
                raise FormatError(f"duplicate edge {e}")
            seen.add(e)
    return G


def write_edge_list(obj: GraphLike) -> str:
    """Canonical edge-list text for a Graph (k=2) or TriGraph (k=3)."""
    k, edges, distinguished = _kind(obj)
    lines = [f"HG {k} {obj.n} {len(edges)}"]
    if distinguished is not None:
        lines.append(f"X {distinguished}")
    if obj.class_of:
        for v in sorted(obj.class_of):
            lines.append(f"CLASS {v} {obj.class_of[v]}")
    name = list(map(str, range(obj.n)))
    if k == 3:
        lines += [f"{name[a]} {name[b]} {name[c]}" for a, b, c in edges]
    else:
        lines += [f"{name[a]} {name[b]}" for a, b in edges]
    return "\n".join(lines) + "\n"


# the writer's spelling of an integer: int() alone would also read '+1', '0_0',
# '-0', '01' and non-ASCII digits, which the writer turns into other text
_DECIMAL = re.compile(r"0|-?[1-9][0-9]*")


def _parse_int(token: str, what: str) -> int:
    if _DECIMAL.fullmatch(token):
        try:
            return int(token)
        except ValueError:  # more digits than int() converts
            pass
    raise FormatError(f"bad {what}: {token!r}")


def _read_text(path: Union[str, Path]) -> str:
    # bytes decoded as they are: text mode would turn a lone CR into LF
    try:
        return Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path} is not UTF-8 text: {exc}") from None


def _check_size(n: int) -> None:
    if n > MAX_VERTICES:
        raise FormatError(f"vertex count {n} exceeds the limit {MAX_VERTICES}")


def _edge_block(lines: list[str], k: int) -> Optional[list[tuple[int, ...]]]:
    """The edges of ``lines`` when every line is an edge line as the writer
    spells it: k ``_DECIMAL`` tokens separated by single spaces, in strictly
    increasing order.  Each distinct token is converted once.  None when any
    line is otherwise (a comment, a blank, an X or CLASS line, a tab, a bad
    token), and the caller then reads the lines one at a time.

    Every line must hold exactly k - 1 spaces; the lines are then joined
    and split once, which gives k tokens per line in order.  A line's shape
    is checked before the join, so no token moves from one line to the
    next, and an empty token (a doubled, leading or trailing space), a tab
    or a CR stays inside a token that ``_DECIMAL`` rejects."""
    if set(map(str.count, lines, repeat(" "))) != {k - 1}:
        return None
    tokens = " ".join(lines).split(" ")
    try:
        value = {t: int(t) for t in set(tokens) if _DECIMAL.fullmatch(t)}
    except ValueError:  # more digits than int() converts
        return None
    try:
        flat = list(map(value.__getitem__, tokens))
    except KeyError:  # a token not spelled as _DECIMAL
        return None
    columns = [flat[j::k] for j in range(k)]
    if not all(all(map(lt, u, v)) for u, v in zip(columns, columns[1:])):
        return None
    return list(zip(*columns))


_TOKEN = re.compile(r"[^ \t]+")


def _tokens(line: str) -> list[str]:
    # not str.split(), which also splits at U+00A0, U+3000, VT, FF,
    # U+001C-U+001F, U+0085, U+2028, U+2029 and a CR inside the line
    return _TOKEN.findall(line.removesuffix("\r"))


def parse_edge_list(text: str) -> GraphLike:
    """Parse the edge-list format; returns a Graph or TriGraph per the header."""
    if not isinstance(text, str):
        raise FormatError(f"expected text (str), got {type(text).__name__}")
    # the empty piece after a final LF is no line, so a canonical document
    # reaches the bulk reader with edge lines alone
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()
    # (index, tokens) of each line that is neither blank nor a comment
    rows = ((i, parts) for i, parts in enumerate(map(_tokens, lines)) if parts and parts[0][0] != "#")
    i, head = next(rows, (None, None))
    if head is None:
        raise FormatError("empty document")
    if len(head) != 4 or head[0] != "HG":
        raise FormatError(f"bad header line: {lines[i]!r}")
    k = _parse_int(head[1], "uniformity")
    n = _parse_int(head[2], "vertex count")
    m = _parse_int(head[3], "edge count")
    if k not in (2, 3):
        raise FormatError(f"unsupported uniformity {k}")
    if n < 0 or m < 0:
        raise FormatError("negative counts in header")
    _check_size(n)

    distinguished = None
    class_of: dict[int, str] = {}
    edges: list[tuple[int, ...]] = []
    for i, parts in rows:
        if parts[0] == "X":
            if k != 3 or len(parts) != 2:
                raise FormatError(f"bad X line: {lines[i]!r}")
            if distinguished is not None:
                raise FormatError("duplicate X line")
            distinguished = _parse_int(parts[1], "distinguished vertex")
        elif parts[0] == "CLASS":
            if len(parts) != 3:
                raise FormatError(f"bad CLASS line: {lines[i]!r}")
            v = _parse_int(parts[1], "class vertex")
            if v in class_of:
                raise FormatError(f"duplicate CLASS line for vertex {v}")
            class_of[v] = parts[2]
        else:
            if not edges:
                # the first edge line, as each one is appended or raises: the
                # rest of the document is read in bulk if it is all edge lines
                # in the writer's form
                block = _edge_block(lines[i:], k)
                if block is not None:
                    edges = block
                    break
            if len(parts) != k:
                raise FormatError(f"edge line {lines[i]!r}: expected {k} indices")
            e = tuple(_parse_int(p, "vertex index") for p in parts)
            if not (e[0] < e[1] if k == 2 else e[0] < e[1] < e[2]):
                raise FormatError(f"edge line {lines[i]!r}: indices must be strictly increasing")
            edges.append(e)

    if len(edges) != m:
        raise FormatError(f"header declares {m} edges, found {len(edges)}")
    return _build(k, n, edges, distinguished, class_of)


def to_json_dict(obj: GraphLike) -> dict:
    """JSON-ready dictionary with a stable schema (keys sorted on dump)."""
    k, edges, distinguished = _kind(obj)
    edges = [list(e) for e in edges]
    classes = {str(v): lab for v, lab in sorted((obj.class_of or {}).items())}
    return {
        "uniformity": k,
        "n": obj.n,
        "edge_count": len(edges),
        "edges": edges,
        "distinguished": distinguished,
        "classes": classes,
    }


def _json_int(value: object, what: str) -> int:
    # bool is an int subclass, and 5.0 == 5, so both would slip past a
    # comparison and reach the writer as "True" or "5.0"
    if not _is_int(value):
        raise FormatError(f"bad {what}: {value!r} is not an integer")
    return value


def from_json_dict(doc: dict) -> GraphLike:
    """The Graph or TriGraph of a ``to_json_dict`` document, held to the
    rules ``parse_edge_list`` applies to the same graph as text."""
    try:
        k = _json_int(doc["uniformity"], "uniformity")
        n = _json_int(doc["n"], "vertex count")
        edges = list(doc["edges"])
        # a key "01" or "+1" next to "1" would relabel vertex 1 silently
        classes = {_parse_int(v, "class vertex"): lab for v, lab in doc.get("classes", {}).items()}
        distinguished = doc.get("distinguished")
        m = doc.get("edge_count")
        if m is not None:
            m = _json_int(m, "edge count")
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise FormatError(f"bad JSON graph document: {exc}") from None
    if distinguished is not None and k == 2:
        # as a 2-graph's X line is rejected by parse_edge_list
        raise FormatError("a distinguished vertex is for 3-graphs only")
    if m is not None and m != len(edges):
        # as a wrong header count is
        raise FormatError(f"edge_count declares {m} edges, found {len(edges)}")
    _check_size(n)
    return _build(k, n, edges, distinguished, classes)


def dumps_json(obj: GraphLike) -> str:
    return json.dumps(to_json_dict(obj), sort_keys=True, indent=2) + "\n"


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    # json.loads would keep the last value of a repeated key silently; the
    # edge-list reader refuses a second X line or CLASS line for one vertex
    doc: dict = {}
    for key, value in pairs:
        if key in doc:
            raise FormatError(f"repeated key {key!r}")
        doc[key] = value
    return doc


def parse_any(text: str) -> GraphLike:
    """Parse either format, sniffing JSON by the leading brace.  A key
    repeated in any object of a JSON document is malformed input, and so is
    anything but a str."""
    if isinstance(text, str) and text.lstrip().startswith("{"):
        try:
            doc = json.loads(text, object_pairs_hook=_unique_keys)
        except ValueError as exc:  # a JSONDecodeError, a repeated key, or past int()'s digit limit
            raise FormatError(f"bad JSON: {exc}") from None
        return from_json_dict(doc)
    return parse_edge_list(text)


def _check_path(path: object) -> None:
    # Path() takes only a str or an os.PathLike whose __fspath__ gives a str
    try:
        ok = isinstance(os.fspath(path), str)
    except TypeError:
        ok = False
    if not ok:
        raise ValueError(f"path must be a str or os.PathLike, got {type(path).__name__}")


def load(path: Union[str, Path]) -> GraphLike:
    _check_path(path)
    return parse_any(_read_text(path))


def save(obj: GraphLike, path: Union[str, Path]) -> None:
    _check_path(path)
    Path(path).write_text(write_edge_list(obj), encoding="utf-8", newline="\n")
