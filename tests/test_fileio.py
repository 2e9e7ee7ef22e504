"""Edge-list and JSON round-trip tests."""

import json
import os
import re
import sys
from random import Random

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from tricover import (
    FormatError,
    Graph,
    TriGraph,
    base_graph,
    construct,
    dumps_json,
    from_json_dict,
    load,
    parse_any,
    parse_edge_list,
    save,
    to_json_dict,
    write_edge_list,
)
from tricover.fileio import MAX_VERTICES

from _brute import random_trigraph


ALL_CONSTRUCTIONS = [
    ("G1", {}),
    ("G2", {}),
    ("G3", {}),
    ("H1", {"m": 2}),
    ("H2", {"m": 1}),
    ("H3", {"m": 2}),
    ("T", {"sizes": (2, 3, 3)}),
    ("H4", {"n": 8}),
]


@pytest.mark.parametrize("family,kwargs", ALL_CONSTRUCTIONS)
def test_bit_exact_round_trip(family, kwargs):
    obj = construct(family, **kwargs)
    text = write_edge_list(obj)
    parsed = parse_edge_list(text)
    assert parsed == obj
    assert write_edge_list(parsed) == text


CANONICAL = (
    [(f, {"m": m}) for f in ("H1", "H2", "H3") for m in range(1, 8)]
    + [("H4", {"n": n}) for n in range(5, 41)]
    + [(f, {}) for f in ("G1", "G2", "G3")]
    + [("T", {"sizes": s}) for s in ((1, 1, 1), (2, 3, 3), (4, 4, 5), (2, 7, 9))]
)


def test_canonical_documents_read_back_exactly(monkeypatch):
    import tricover.fileio as fileio

    checked = []
    parse_int = fileio._parse_int
    monkeypatch.setattr(fileio, "_parse_int", lambda token, what: checked.append(what) or parse_int(token, what))
    for family, kwargs in CANONICAL:
        obj = construct(family, **kwargs)
        text, doc = write_edge_list(obj), dumps_json(obj)
        from_text, from_json = parse_edge_list(text), parse_any(doc)
        assert from_text == obj and write_edge_list(from_text) == text
        assert from_json == obj and dumps_json(from_json) == doc
    # the writer's edge lines take the int() path, token checks and all
    assert checked and "vertex index" not in checked


def test_random_trigraph_round_trip():
    rng = Random(12)
    for _ in range(20):
        H = random_trigraph(rng, rng.randint(3, 10), 0.4)
        assert parse_edge_list(write_edge_list(H)) == H


def test_header_and_sections():
    H = TriGraph(4, [(0, 1, 2)], distinguished=3, class_of={0: "a", 3: "x"})
    text = write_edge_list(H)
    assert text.splitlines() == ["HG 3 4 1", "X 3", "CLASS 0 a", "CLASS 3 x", "0 1 2"]


def test_comments_and_blank_lines_ignored():
    text = "# header comment\n\nHG 3 4 1\n# another\n0 1 3\n"
    H = parse_edge_list(text)
    assert H.edges == ((0, 1, 3),)


def test_two_graph_round_trip():
    g = base_graph("G1")
    text = write_edge_list(g)
    assert text.startswith("HG 2 11 21\n")
    assert parse_edge_list(text) == g


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "HG 4 3 0\n",
        "HG 3 4\n",
        "HG 3 4 1\n0 1\n",
        "HG 3 4 1\n1 0 2\n",
        "HG 3 4 2\n0 1 2\n0 1 2\n",
        "HG 3 4 0\n0 1 2\n",
        "HG 3 4 1\n0 1 9\n",
        "HG 2 3 1\nX 0\n0 1\n",
        "HG 3 4 1\nX 0\nX 1\n0 1 2\n",
        "HG 3 4 1\nCLASS 0 a\nCLASS 0 b\n0 1 2\n",
    ],
)
def test_parse_errors(bad):
    with pytest.raises(FormatError):
        parse_edge_list(bad)


# int() reads each of these tokens, and the writer would turn the graph
# into other text ('HG 3 4 1', 'X 0', 'CLASS 1 a', '0 1 2')
NON_DECIMAL = [
    ("HG 3 +4 0\n", "bad vertex count: '+4'"),
    ("HG 3 4 1\nX 0_0\n0 1 2\n", "bad distinguished vertex: '0_0'"),
    ("HG 3 4 1\nCLASS +1 a\n0 1 2\n", "bad class vertex: '+1'"),
    ("HG 3 5 2\n0 1 2\n1 2 \u0663\n", "bad vertex index: '\u0663'"),
]


@pytest.mark.parametrize("text, message", NON_DECIMAL + [
    ("HG 3 5 2\n0 1 2\n+1 2 3\n", "bad vertex index: '+1'"),
    ("HG 3 5 2\n0 1 2\n1 2 0_3\n", "bad vertex index: '0_3'"),
])
def test_non_decimal_integer_rejected(text, message):
    with pytest.raises(FormatError) as exc:
        parse_edge_list(text)
    assert str(exc.value) == message


def test_plus_underscore_and_non_ascii_outside_integers():
    # labels and comments may hold what no integer token may
    G = parse_edge_list("# n+1 \u00e9\nHG 3 4 1\nCLASS 0 part_A\nCLASS 1 \u00e9\n0 1 2\n")
    assert G.class_of == {0: "part_A", 1: "\u00e9"} and list(G.edges) == [(0, 1, 2)]


# more digits than int() converts, on a Python that limits them
BIG = "9" * 5000
DIGIT_LIMITED = 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < len(BIG)
# where each kind of integer token sits in an edge list
TOKEN_SITES = {
    "vertex count": "HG 3 {} 0\n",
    "edge count": "HG 3 4 {}\n0 1 2\n",
    "distinguished vertex": "HG 3 4 1\nX {}\n0 1 2\n",
    "class vertex": "HG 3 4 1\nCLASS {} a\n0 1 2\n",
    "vertex index": "HG 3 4 1\n{} 1 2\n",
}


@pytest.mark.parametrize("what", sorted(TOKEN_SITES))
@pytest.mark.parametrize("token", ["-0", "01", "00", "-01", BIG], ids=["-0", "01", "00", "-01", "big"])
def test_only_the_writers_spelling(what, token):
    # int() reads '-0' as 0 and '01' as 1, and the writer would turn each
    # into other text; BIG raised a bare ValueError
    with pytest.raises(FormatError) as exc:
        parse_edge_list(TOKEN_SITES[what].format(token))
    if token != BIG or DIGIT_LIMITED:
        assert str(exc.value) == f"bad {what}: {token!r}"


@pytest.mark.parametrize("text, message", [
    ("HG 3 4 1\n0 01 2\n", "bad vertex index: '01'"),
    ("HG 3 5 2\n0 1 2\n1 2 03\n", "bad vertex index: '03'"),
    ("HG 3 5 2\n0 1 2\n1 2\t03\n", "bad vertex index: '03'"),
    ("HG 3 4 1\n-0 1 2\n", "bad vertex index: '-0'"),
])
def test_zero_led_edge_token_rejected(text, message):
    # nothing else in these documents leaves the int() path
    with pytest.raises(FormatError) as exc:
        parse_edge_list(text)
    assert str(exc.value) == message


def test_zeros_outside_integers():
    # a label or comment with '-0' or a zero-led token sends the edge tokens
    # through _parse_int, which reads them as int() would
    text = "# 01 -0\nHG 3 11 2\nCLASS 0 a-0\nCLASS 10 01\n0 1 2\n1 2 10\n"
    G = parse_edge_list(text)
    assert G.class_of == {0: "a-0", 10: "01"} and list(G.edges) == [(0, 1, 2), (1, 2, 10)]


# canonical texts with an X line, CLASS lines and hundreds of edge lines
ROUTE_GRAPHS = [("H4", {"n": 20}), ("H1", {"m": 3})]


def _edge_line_indices(lines):
    return [i for i, ln in enumerate(lines) if ln[0].isdigit()]


def _moved_sections_below_edges(lines):
    # the header stays first; X and CLASS lines go after the edges
    body = lines[1:]
    return lines[:1] + [ln for ln in body if ln[0].isdigit()] + [ln for ln in body if not ln[0].isdigit()]


def _edit_line(at, edit):
    """A rewrite of a document's lines that applies ``edit`` to the edge
    line at position ``at`` among its edge lines."""
    def rewrite(lines):
        i = _edge_line_indices(lines)[at - 1]
        return lines[:i] + edit(lines[i]) + lines[i + 1:]
    return rewrite


# each keeps the graph and makes the bulk edge block refuse the document
OFF_FORM = {
    "comment between edges": _edit_line(100, lambda ln: ["# a comment", ln]),
    "blank line between edges": _edit_line(100, lambda ln: ["", ln]),
    "sections after edges": _moved_sections_below_edges,
    "tab": _edit_line(100, lambda ln: [ln.replace(" ", "\t", 1)]),
    "doubled space": _edit_line(100, lambda ln: [ln.replace(" ", "  ")]),
}


@pytest.mark.parametrize("family, kwargs", ROUTE_GRAPHS)
@pytest.mark.parametrize("variant", sorted(OFF_FORM))
def test_off_form_documents_read_line_by_line(monkeypatch, family, kwargs, variant):
    import tricover.fileio as fileio

    blocks = []
    edge_block = fileio._edge_block
    monkeypatch.setattr(fileio, "_edge_block", lambda lines, k: blocks.append(edge_block(lines, k)) or blocks[-1])
    obj = construct(family, **kwargs)
    text = write_edge_list(obj)
    edited = "\n".join(OFF_FORM[variant](text.splitlines())) + "\n"
    G = parse_edge_list(edited)
    assert G == obj and write_edge_list(G) == text
    assert blocks == [None]


@pytest.mark.parametrize("family, kwargs", ROUTE_GRAPHS)
def test_crlf_document_reads_back_exactly(family, kwargs):
    # lines end at LF, and the line loop reads the CR before it as whitespace
    obj = construct(family, **kwargs)
    text = write_edge_list(obj)
    G = parse_edge_list(text.replace("\n", "\r\n"))
    assert G == obj and write_edge_list(G) == text


# str.splitlines() ends a line at each of these as at LF
LINE_BREAKS_BUT_LF = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029", "\r"]


@pytest.mark.parametrize("sep", LINE_BREAKS_BUT_LF, ids=lambda sep: f"U+{ord(sep):04X}")
@pytest.mark.parametrize("doc, message", [
    ("HG 3 4 2{}0 1 2{}1 2 3\n", "bad header line"),
    ("HG 3 4 2\n0 1 2{}1 2 3\n", "expected 3 indices"),
    ("HG 3 4 2\nX 0{}0 1 2\n1 2 3\n", "bad X line"),
    ("HG 2 3 2\n0 1{}1 2{}\n", "expected 2 indices"),
])
def test_only_lf_ends_a_line(sep, doc, message):
    # each document once read as a 2-edge graph, one line per separator
    with pytest.raises(FormatError, match=message):
        parse_edge_list(doc.format(sep, sep))


# str.split() splits at each of these, and the line loop once did; only a
# space or a tab separates tokens, and a CR only ends a line before its LF
WHITESPACE_BUT_SPACE_AND_TAB = [
    "\xa0", "\u3000", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\u2028", "\u2029", "\r",
]


@pytest.mark.parametrize("sep", WHITESPACE_BUT_SPACE_AND_TAB, ids=lambda sep: f"U+{ord(sep):04X}")
@pytest.mark.parametrize("doc, message", [
    ("HG{}3 4 1\n0 1 2\n", "bad header line"),
    # 'HG 3 4 1\n0\xa01\u30002\n' once read as the edge (0, 1, 2)
    ("HG 3 4 1\n0{}1\u30002\n", "expected 3 indices"),
    ("HG 3 4 1\n0 1{}2 3\n", "bad vertex index"),
    ("HG 3 4 1\nCLASS 0 a{}b\n0 1 2\n", "class label"),
])
def test_only_space_and_tab_separate_tokens(sep, doc, message):
    with pytest.raises(FormatError, match=message):
        parse_edge_list(doc.format(sep))


def test_write_refuses_a_non_graph():
    with pytest.raises(ValueError, match="cannot serialize object"):
        write_edge_list(object())


@pytest.mark.parametrize(
    "write",
    [lambda path: to_json_dict(None), lambda path: dumps_json(None), lambda path: save(None, path)],
    ids=["to_json_dict", "dumps_json", "save"],
)
def test_writers_refuse_a_non_graph(write, tmp_path):
    with pytest.raises(ValueError, match="cannot serialize NoneType"):
        write(tmp_path / "g.hg")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("read, text", [(parse_edge_list, None), (parse_any, b"HG 3 4 0\n"), (parse_any, None)],
                         ids=["parse_edge_list-None", "parse_any-bytes", "parse_any-None"])
def test_readers_refuse_anything_but_text(read, text):
    with pytest.raises(FormatError, match=f"expected text \\(str\\), got {type(text).__name__}"):
        read(text)


def _reversed_line(ln):
    return " ".join(reversed(ln.split(" ")))


def _token_moved(ln, nx):
    # the next line's first token ends this one: the text's tokens and
    # spaces are the same, and so is the joined text of the two lines
    first, rest = nx.split(" ", 1)
    return ln + " " + first, rest


# a fault in the 500th edge line of H4(20), whose 873 edge lines the block
# refuses as a whole; the loop then names the line or token in its message.
# Each edit maps (500th line, 501st line) to their new text.
BROKEN_500TH = {
    "extra token": (lambda ln, nx: (ln + " 7", nx),
                    lambda ln, nx: f"edge line {ln + ' 7'!r}: expected 3 indices"),
    "zero-led token": (lambda ln, nx: ("01 " + ln.split(" ", 1)[1], nx),
                       lambda ln, nx: "bad vertex index: '01'"),
    "5000 digits": (lambda ln, nx: (ln.rsplit(" ", 1)[0] + " " + BIG, nx),
                    lambda ln, nx: f"bad vertex index: {BIG!r}"),
    "decreasing": (lambda ln, nx: (_reversed_line(ln), nx),
                   lambda ln, nx: f"edge line {_reversed_line(ln)!r}: indices must be strictly increasing"),
    "token moved to the next line": (
        _token_moved,
        lambda ln, nx: f"edge line {_token_moved(ln, nx)[0]!r}: expected 3 indices"),
}


@pytest.mark.parametrize("fault", sorted(BROKEN_500TH))
def test_fault_deep_in_a_long_block_is_named(fault):
    edit, message = BROKEN_500TH[fault]
    lines = write_edge_list(construct("H4", n=20)).splitlines()
    i, j = _edge_line_indices(lines)[499:501]
    line, following = lines[i], lines[j]
    lines[i], lines[j] = edit(line, following)
    with pytest.raises(FormatError) as exc:
        parse_edge_list("\n".join(lines) + "\n")
    if fault != "5000 digits" or DIGIT_LIMITED:
        assert str(exc.value) == message(line, following)


REPEATED_EDGE = {
    2: ("HG 2 4 3\n0 1\n1 2\n0 1\n", "duplicate edge (0, 1)"),
    3: ("HG 3 5 3\n0 1 2\n1 2 3\n1 2 3\n", "duplicate edge (1, 2, 3)"),
}


@pytest.mark.parametrize("k", sorted(REPEATED_EDGE))
def test_repeated_edge_line_rejected(k):
    text, message = REPEATED_EDGE[k]
    with pytest.raises(FormatError) as exc:
        parse_edge_list(text)
    assert str(exc.value) == message


def test_whitespace_label_rejected_on_write():
    # the graph types own the label rule, so no writer ever meets such a label
    with pytest.raises(ValueError, match="class label 'two words' must be"):
        TriGraph(3, [(0, 1, 2)], class_of={0: "two words"})


def _label_refused(label):
    """The label rule as the readers and writers once stated it themselves."""
    return not label or any(ch.isspace() for ch in label)


# whitespace of every kind, and characters that mean something in a file
LABEL_TEXT = st.text() | st.text(alphabet=st.sampled_from(WHITESPACE_BUT_SPACE_AND_TAB + [" ", "\t", "\n", "a", "#", "-", "0", "{"]))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from((2, 3)), st.dictionaries(st.integers(0, 4), LABEL_TEXT, min_size=1, max_size=3))
def test_every_buildable_label_round_trips(k, labels):
    def build():
        if k == 2:
            return Graph(5, [(0, 1), (3, 4)], class_of=labels)
        return TriGraph(5, [(0, 1, 2), (1, 3, 4)], distinguished=0, class_of=labels)

    if any(map(_label_refused, labels.values())):
        with pytest.raises(ValueError, match="class label"):
            build()
        return
    G = build()
    assert parse_edge_list(write_edge_list(G)) == G
    assert parse_any(dumps_json(G)) == G


def test_json_round_trip():
    for family, kwargs in ALL_CONSTRUCTIONS:
        obj = construct(family, **kwargs)
        assert from_json_dict(to_json_dict(obj)) == obj


def test_parse_any_sniffs_json():
    H = construct("H4", n=7)
    assert parse_any(dumps_json(H)) == H
    assert parse_any(write_edge_list(H)) == H


def test_save_load(tmp_path):
    H = construct("H1", m=1)
    path = tmp_path / "h1.hg"
    save(H, path)
    assert load(path) == H
    raw = path.read_bytes()
    assert b"\r" not in raw and raw.endswith(b"\n")


class BytesPath(os.PathLike):
    def __fspath__(self):
        return b"x"


@pytest.mark.parametrize("path", [None, 5, b"x", BytesPath()], ids=["None", "int", "bytes", "bytes-PathLike"])
@pytest.mark.parametrize("call", [load, lambda path: save(construct("H1", m=1), path)], ids=["load", "save"])
def test_path_of_the_wrong_type_rejected(call, path, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(ValueError, match=f"path must be a str or os.PathLike, got {type(path).__name__}"):
        call(path)
    assert not list(tmp_path.iterdir())


def test_bad_json_document():
    with pytest.raises(FormatError):
        from_json_dict({"uniformity": 5, "n": 3, "edges": []})
    with pytest.raises(FormatError):
        parse_any("{not json")


@pytest.mark.parametrize("text", [
    '{"uniformity": 3, "n": 4, "edges": [[0, 1, 2]], "distinguished": 0, "distinguished": 3}',
    '{"uniformity": 3, "n": 4, "edges": [[0, 1, 2]], "classes": {"1": "a", "1": "b"}}',
    '{"uniformity": 3, "n": 4, "n": 4, "edges": [[0, 1, 2]]}',
], ids=["top", "nested", "same-value"])
def test_json_repeated_key_rejected(text):
    # json.loads would keep the last value; the edge list refuses a second
    # X line or CLASS line for one vertex, so the JSON reader refuses a
    # repeated key at any depth, even with the same value
    with pytest.raises(FormatError, match="repeated key"):
        parse_any(text)
    with pytest.raises(FormatError, match="duplicate X line"):
        parse_edge_list("HG 3 4 1\nX 0\nX 3\n0 1 2\n")


def test_json_distinguished_on_2_graph_rejected():
    # parse_edge_list rejects an X line on a 2-graph; the JSON reader agrees
    doc = {"uniformity": 2, "n": 3, "edges": [[0, 1]], "distinguished": 1}
    with pytest.raises(FormatError, match="3-graphs only"):
        from_json_dict(doc)
    with pytest.raises(FormatError, match="bad X line"):
        parse_edge_list("HG 2 3 1\nX 1\n0 1\n")


@pytest.mark.parametrize(
    "k, edges, message",
    [
        (3, [[0, 1, 2], [0, 1, 2]], "duplicate edge (0, 1, 2)"),
        (3, [[0, 1, 2], [1, 2, 3], [2, 1, 0]], "duplicate edge (0, 1, 2)"),
        (2, [[0, 1], [1, 2], [1, 0]], "duplicate edge (0, 1)"),
    ],
    ids=["same-order", "reversed-3", "reversed-2"],
)
def test_json_repeated_edge_rejected(k, edges, message):
    # the graph would keep the edge once; parse_edge_list rejects the same
    # repeat as a line, so the JSON reader does too
    with pytest.raises(FormatError) as exc:
        from_json_dict({"uniformity": k, "n": 4, "edges": edges})
    assert str(exc.value) == message


@pytest.mark.parametrize("key", ["01", "+1", " 1", "1_0", "-0"])
def test_json_class_key_must_be_written_form(key):
    # int() reads each of these, as vertex 1 (or 10, or 0), but to_json_dict
    # never writes them; "01" next to "1" would relabel vertex 1 silently
    doc = {"uniformity": 3, "n": 12, "edges": [[0, 1, 2]], "classes": {"1": "a", key: "b"}}
    with pytest.raises(FormatError, match=re.escape(f"bad class vertex: {key!r}")):
        from_json_dict(doc)
    assert from_json_dict({**doc, "classes": {"1": "a"}}).class_of == {1: "a"}


@pytest.mark.parametrize("key", ["00", "-01", "\u0661", BIG], ids=["00", "-01", "non-ascii", "big"])
def test_json_class_key_follows_the_edge_list_rule(key):
    # the rule that CLASS lines follow, digit limit included
    doc = {"uniformity": 3, "n": 4, "edges": [[0, 1, 2]], "classes": {key: "b"}}
    with pytest.raises(FormatError) as exc:
        from_json_dict(doc)
    if key != BIG or DIGIT_LIMITED:
        assert str(exc.value) == f"bad JSON graph document: bad class vertex: {key!r}"
    with pytest.raises(FormatError):
        parse_edge_list(f"HG 3 4 1\nCLASS {key} b\n0 1 2\n")


@pytest.mark.parametrize("field", ["n", "edges"])
def test_json_number_past_digit_limit_rejected(field):
    # json.loads raises a plain ValueError, not a JSONDecodeError, on a
    # Python that limits the digits int() converts
    doc = {"uniformity": 3, "n": 4, "edges": [[0, 1, 2]]}
    text = json.dumps({**doc, field: 0}).replace(f'"{field}": 0', f'"{field}": {BIG}')
    with pytest.raises(FormatError):
        parse_any(text)


def test_non_utf8_file_rejected(tmp_path):
    path = tmp_path / "latin1.hg"
    path.write_bytes("HG 3 4 1\nCLASS 0 \u00e9\n0 1 2\n".encode("latin-1"))
    with pytest.raises(FormatError, match="not UTF-8 text"):
        load(path)


@pytest.mark.parametrize("count", [0, 2, 5])
def test_json_edge_count_mismatch_rejected(count):
    doc = {"uniformity": 3, "n": 4, "edges": [[0, 1, 2]]}
    with pytest.raises(FormatError, match=f"edge_count declares {count} edges, found 1"):
        from_json_dict({**doc, "edge_count": count})
    # absent, or equal to the number of edges, it is accepted
    assert from_json_dict(doc) == from_json_dict({**doc, "edge_count": 1})


@pytest.mark.parametrize(
    "fields",
    [
        {"n": "5"},
        {"n": 5.0},
        {"n": True},
        {"uniformity": 3.0},
        {"classes": {"0": 7}},
        {"classes": ["a"]},
    ],
    ids=["n-string", "n-float", "n-bool", "uniformity-float", "label-int", "classes-list"],
)
def test_json_field_types_rejected(fields):
    doc = {"uniformity": 3, "n": 5, "edges": [], **fields}
    with pytest.raises(FormatError):
        parse_any(json.dumps(doc))


def test_round_trip_with_random_labels():
    from hypothesis import given, settings
    from hypothesis import strategies as st

    label = st.text(
        alphabet=st.characters(min_codepoint=33, max_codepoint=126), min_size=1, max_size=8
    )

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(3, 8).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(
                    st.sets(st.integers(0, n - 1), min_size=3, max_size=3).map(
                        lambda s: tuple(sorted(s))
                    ),
                    max_size=15,
                ),
                st.dictionaries(st.integers(0, n - 1), label, max_size=n),
                st.none() | st.integers(0, n - 1),
            )
        )
    )
    def check(args):
        n, edges, class_of, x = args
        H = TriGraph(n, edges, distinguished=x, class_of=class_of or None)
        text = write_edge_list(H)
        assert parse_edge_list(text) == H
        assert write_edge_list(parse_edge_list(text)) == text
        assert from_json_dict(to_json_dict(H)) == H

    check()


def test_vertex_count_above_limit_rejected():
    # no edges: the count alone is refused, before anything is allocated
    n = MAX_VERTICES + 1
    for k in (2, 3):
        with pytest.raises(FormatError, match="exceeds the limit"):
            parse_edge_list(f"HG {k} {n} 0\n")
        with pytest.raises(FormatError, match="exceeds the limit"):
            from_json_dict({"uniformity": k, "n": n, "edges": []})


def _round_trips_or_rejects(text):
    try:
        G = parse_any(text)
    except FormatError:
        return
    assert parse_edge_list(write_edge_list(G)) == G


@st.composite
def written_graphs(draw):
    """``write_edge_list`` output of a small Graph or TriGraph with labels."""
    k, n = draw(st.sampled_from((2, 3))), draw(st.integers(3, 7))
    edges = draw(st.lists(
        st.sets(st.integers(0, n - 1), min_size=k, max_size=k).map(lambda s: tuple(sorted(s))),
        max_size=12,
    ))
    labels = draw(st.dictionaries(st.integers(0, n - 1), st.sampled_from(("a", "V1", "x")), max_size=3))
    if k == 2:
        return write_edge_list(Graph(n, edges, class_of=labels or None))
    x = draw(st.none() | st.integers(0, n - 1))
    return write_edge_list(TriGraph(n, edges, distinguished=x, class_of=labels or None))


def _mutate(draw, items):
    """Drop, duplicate or swap one entry of a list, in place."""
    if not items:
        return
    i, j = draw(st.integers(0, len(items) - 1)), draw(st.integers(0, len(items) - 1))
    kind = draw(st.sampled_from(("drop", "duplicate", "swap")))
    if kind == "drop":
        del items[i]
    elif kind == "duplicate":
        items.insert(j, items[i])
    else:
        items[i], items[j] = items[j], items[i]


@settings(max_examples=300, deadline=None)
@given(written_graphs(), st.data())
def test_mutated_edge_list_round_trips_or_is_rejected(text, data):
    lines = [ln.split(" ") for ln in text.splitlines()]
    for _ in range(data.draw(st.integers(1, 4))):
        if data.draw(st.booleans()):
            _mutate(data.draw, lines)
        elif lines:
            _mutate(data.draw, lines[data.draw(st.integers(0, len(lines) - 1))])
    _round_trips_or_rejects("".join(" ".join(ln) + "\n" for ln in lines))


@settings(max_examples=300, deadline=None)
@given(st.text() | st.text(alphabet=" \n#-0123456789HGXCLAS{}"))
def test_any_text_round_trips_or_is_rejected(text):
    _round_trips_or_rejects(text)
