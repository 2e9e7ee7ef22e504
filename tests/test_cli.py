"""Command-line interface tests: grammar, exit codes, output stability."""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tricover import (
    TriGraph,
    bipartite_edge_coloring,
    builtin_pattern,
    coloring_is_valid,
    construct,
    construct_h,
    construct_h4,
    exact_c2,
    load,
    parse_edge_list,
    save,
    write_edge_list,
)
from tricover.cli import main
from tricover.constructions import FAMILIES
from tricover.fileio import MAX_VERTICES, dumps_json
from tricover.koenig import EdgeColoring

DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestConstruct:
    def test_round_trips(self, capsys, tmp_path):
        for args, n in (
            (["--family", "H1", "--m", "2"], 12),
            (["--family", "H4", "--n", "9"], 9),
            (["--family", "T", "--sizes", "2,2,3"], 7),
            (["--family", "G2"], 14),
        ):
            out_path = tmp_path / "g.hg"
            code, _, _ = run(capsys, "construct", *args, "--out", str(out_path))
            assert code == 0
            obj = load(out_path)
            assert obj.n == n
            save(obj, tmp_path / "again.hg")
            assert (tmp_path / "again.hg").read_text() == out_path.read_text()

    def test_missing_parameter_is_usage_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "construct", "--family", "H1", "--out", str(tmp_path / "x"))
        assert code == 2 and "m" in err

    @pytest.mark.parametrize("option, value", [
        ("--n", "+9"), ("--n", "\u0669"), ("--n", "09"),
        ("--m", "-0"), ("--m", "01"), ("--sizes", "+2,3,3"), ("--sizes", "2,03,3"),
    ])
    def test_integer_options_spelled_as_written(self, capsys, tmp_path, option, value):
        # int() read each of these, and '+9' or an Arabic-Indic nine built H4(9)
        family = {"--n": "H4", "--m": "H1", "--sizes": "T"}[option]
        out_path = tmp_path / "g.hg"
        code, out, err = run(capsys, "construct", "--family", family, option, value, "--out", str(out_path))
        assert code == 2 and out == "" and not out_path.exists()
        kind = "sizes" if option == "--sizes" else "integer"
        assert f"invalid {kind} value: {value!r}" in err

    def test_unknown_flag_rejected(self, capsys, tmp_path):
        code, _, _ = run(capsys, "construct", "--family", "G1", "--out", str(tmp_path / "x"), "--bogus")
        assert code == 2


class TestVerify:
    def test_pass_gives_exit_0(self, capsys):
        code, out, _ = run(capsys, "verify", "--family", "H1", "--m", "2")
        assert code == 0
        assert 'measured_delta2 = 4' in out

    def test_json_output_matches_golden(self, capsys):
        code, out, _ = run(capsys, "verify", "--family", "H1", "--m", "1", "--format", "json")
        assert code == 0
        assert out == (DATA / "verify_h1_m1.json").read_text()
        doc = json.loads(out)
        assert doc["passed"] is True

    def test_mutated_file_fails_with_delta2_mismatch(self, capsys, tmp_path):
        H = construct_h("H1", 2)
        x_edge = next(e for e in H.edges if 0 in e)
        mutated = TriGraph(
            H.n,
            [e for e in H.edges if e != x_edge],
            distinguished=0,
            class_of=H.class_of,
        )
        path = tmp_path / "mutated.hg"
        save(mutated, path)
        code, out, _ = run(capsys, "verify", "--family", "H1", "--m", "2", "--in", str(path))
        assert code == 1
        doc = dict(line.split(" = ", 1) for line in out.strip().splitlines())
        assert json.loads(doc["passed"]) is False
        assert json.loads(doc["checks"])["delta2"] is False

    def test_verify_t_and_h4(self, capsys):
        assert run(capsys, "verify", "--family", "T", "--sizes", "2,2,2")[0] == 0
        assert run(capsys, "verify", "--family", "H4", "--n", "11")[0] == 0

    @pytest.mark.parametrize("family, args", [
        ("H1", ["--m", "0"]), ("H3", ["--m", "-1"]), ("T", ["--sizes", "0,0,0"]), ("T", []),
    ])
    def test_bad_parameter_with_input_file_is_usage_error(self, capsys, tmp_path, family, args):
        # the same rule as without --in, where the construction rejects it
        path = tmp_path / "g.hg"
        save(construct("T", sizes=(2, 3, 3)) if family == "T" else construct(family, m=1), path)
        assert run(capsys, "verify", "--family", family, *args)[0] == 2
        code, out, err = run(capsys, "verify", "--family", family, *args, "--in", str(path))
        assert code == 2 and out == "" and err

    @pytest.mark.parametrize("family, own, foreign", [
        ("H4", ["--n", "9"], ["--m", "3"]),
        ("H1", ["--m", "1"], ["--n", "99"]),
        ("T", ["--sizes", "2,3,3"], ["--m", "1"]),
        ("G1", [], ["--sizes", "2,3,3"]),
    ], ids=["H4-m", "H1-n", "T-m", "G1-sizes"])
    def test_parameter_the_family_does_not_take_is_usage_error(self, capsys, tmp_path, family, own, foreign):
        # each of these once built or verified the family, ignoring the parameter
        message = f"{family} takes no parameter {foreign[0][2:]}"
        path = tmp_path / "g.hg"
        code, out, err = run(capsys, "construct", "--family", family, *own, *foreign, "--out", str(path))
        assert code == 2 and not path.exists() and message in err
        assert run(capsys, "construct", "--family", family, *own, "--out", str(path))[0] == 0
        for extra in ([], ["--in", str(path)]):
            code, out, err = run(capsys, "verify", "--family", family, *own, *foreign, *extra)
            assert code == 2 and out == "" and message in err

    @pytest.mark.parametrize("family", FAMILIES)
    def test_construct_without_a_parameter(self, capsys, tmp_path, family):
        # the base graphs take none; every other family names the one it needs
        path = tmp_path / "g.hg"
        code, out, err = run(capsys, "construct", "--family", family, "--out", str(path))
        if family in ("G1", "G2", "G3"):
            assert code == 0 and path.exists()
        else:
            assert code == 2 and not path.exists() and "needs the parameter" in err

    def test_3_graph_family_on_2_graph_file_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "g.hg"
        save(construct("G1"), path)
        code, out, err = run(capsys, "verify", "--family", "H4", "--in", str(path))
        assert code == 2 and out == "" and "3-graph family" in err


class TestCovering:
    def test_x_uncovered_exit_1(self, capsys, tmp_path):
        path = tmp_path / "h.hg"
        assert run(capsys, "construct", "--family", "H4", "--n", "7", "--out", str(path))[0] == 0
        code, out, _ = run(capsys, "covering", "--in", str(path), "--pattern", "K5-", "--vertex", "x")
        assert code == 1
        # x alone is reported, not the whole graph
        assert out.splitlines() == [
            "covered = false", "n = 7", 'pattern = "K5-"', "vertex = 0", "witness = null",
        ]

    def test_fully_covered_exit_0(self, capsys, tmp_path):
        from itertools import combinations

        path = tmp_path / "k5.hg"
        save(TriGraph(5, combinations(range(5), 3)), path)
        code, _, _ = run(capsys, "covering", "--in", str(path), "--pattern", "K5-")
        assert code == 0
        code, out, _ = run(capsys, "covering", "--in", str(path), "--pattern", "K4", "--vertex", "3",
                           "--format", "json")
        assert code == 0
        assert json.loads(out) == {
            "pattern": "K4", "n": 5, "vertex": 3, "covered": True, "witness": [0, 1, 2, 3],
        }
        # the whole-graph report is the default, with no flag for it
        assert run(capsys, "covering", "--in", str(path), "--pattern", "K5-", "--all")[0] == 2

    def test_vertex_x_without_marker_is_io_error(self, capsys, tmp_path):
        path = tmp_path / "plain.hg"
        save(TriGraph(4, [(0, 1, 2)]), path)
        code, _, err = run(capsys, "covering", "--in", str(path), "--pattern", "K4-", "--vertex", "x")
        assert code == 3 and "X line" in err

    def test_two_graph_input_rejected(self, capsys, tmp_path):
        path = tmp_path / "g.hg"
        assert run(capsys, "construct", "--family", "G1", "--out", str(path))[0] == 0
        code, _, _ = run(capsys, "covering", "--in", str(path), "--pattern", "K4-")
        assert code == 3

    def test_bad_vertex_prints_no_report(self, capsys, tmp_path):
        path = tmp_path / "h.hg"
        save(TriGraph(5, [(0, 1, 2)]), path)
        code, out, err = run(capsys, "covering", "--in", str(path), "--pattern", "K4-", "--vertex", "9")
        assert code == 2 and out == "" and "out of range" in err
        code, out, err = run(capsys, "covering", "--in", str(path), "--pattern", "K4-", "--vertex", "1.5")
        assert code == 2 and out == "" and "bad vertex '1.5'" in err
        # int() reads each as 1, or 0
        for token in ("+1", "0_1", "01", "-0"):
            code, out, err = run(capsys, "covering", "--in", str(path), "--pattern", "K4-", "--vertex", token)
            assert code == 2 and out == "" and f"bad vertex {token!r}" in err

    def test_mistyped_json_is_io_error(self, capsys, tmp_path):
        path = tmp_path / "h.json"
        path.write_text('{"uniformity": 3, "n": "5", "edges": []}')
        code, out, err = run(capsys, "covering", "--in", str(path), "--pattern", "K4-")
        assert code == 3 and out == "" and "Traceback" not in err

    def test_generic_pattern_spelling(self, capsys, tmp_path):
        from itertools import combinations

        path = tmp_path / "k6.hg"
        save(TriGraph(6, combinations(range(6), 3)), path)
        code, _, _ = run(capsys, "covering", "--in", str(path), "--pattern", "Kt-:6")
        assert code == 0


class TestKoenig:
    def test_text_sections_form_valid_coloring(self, capsys, tmp_path):
        gpath = tmp_path / "g.hg"
        g_lines = ["HG 2 6 9"] + [f"{u} {v}" for u in range(3) for v in range(3, 6)]
        gpath.write_text("\n".join(g_lines) + "\n")
        code, out, _ = run(capsys, "koenig", "--in", str(gpath))
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "DELTA 3"
        classes, current = [], None
        for ln in lines[1:]:
            if ln.startswith("M "):
                current = []
                classes.append(current)
            else:
                u, v = map(int, ln.split())
                current.append((u, v))
        coloring = EdgeColoring(tuple(tuple(c) for c in classes), delta=3)
        assert coloring_is_valid(parse_edge_list(gpath.read_text()), coloring)

    def test_json_is_the_coloring_dict(self, capsys, tmp_path):
        gpath = tmp_path / "g.hg"
        gpath.write_text("HG 2 5 4\n0 3\n0 4\n1 3\n2 4\n")
        code, out, _ = run(capsys, "koenig", "--in", str(gpath), "--format", "json")
        expected = bipartite_edge_coloring(load(gpath)).to_dict()
        assert code == 0 and json.loads(out) == expected and expected["delta"] == 2

    def test_odd_cycle_is_usage_error(self, capsys, tmp_path):
        gpath = tmp_path / "g.hg"
        gpath.write_text("HG 2 4 3\n0 1\n0 2\n1 2\n")
        code, out, err = run(capsys, "koenig", "--in", str(gpath))
        assert code == 2 and out == "" and "edge (1, 2) closes an odd cycle" in err

    def test_3_graph_input_is_io_error(self, capsys, tmp_path):
        gpath = tmp_path / "h.hg"
        save(construct_h4(9), gpath)
        code, out, err = run(capsys, "koenig", "--in", str(gpath))
        assert code == 3 and out == "" and "2-graph input" in err


class TestOracle:
    def test_exhaustive_run(self, capsys):
        code, out, _ = run(capsys, "oracle", "--n", "6", "--pattern", "K4-")
        assert code == 0
        assert "value = 2" in out and "exhaustive = true" in out
        assert "WITNESS" in out and "HG 3 6" in out

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "oracle", "--n", "6", "--pattern", "K4-", "--format", "json")
        doc = json.loads(out)
        assert code == 0 and doc["value"] == 2 and doc["exhaustive"] is True
        assert doc["witness"]["n"] == 6

    def test_budget_exhaustion_exit_1(self, capsys):
        code, out, _ = run(capsys, "oracle", "--n", "7", "--pattern", "K5-", "--budget-nodes", "40")
        assert code == 1
        assert "exhaustive = false" in out

    def test_too_deep_search_exit_1(self, capsys):
        # the CLI adds frames to the stack, and the result is still the one a
        # direct call gives
        code, out, err = run(capsys, "oracle", "--n", "20", "--pattern", "K5-",
                             "--allow-large", "--budget-nodes", "20000")
        assert code == 1 and err == ""
        res = exact_c2(20, builtin_pattern("K5-"), allow_large=True, node_budget=20000)
        assert res.value >= 0 and "exhaustive = false" in out
        assert f"value = {res.value}\n" in out and f"nodes_explored = {res.nodes_explored}\n" in out
        assert "WITNESS" in out and "value = -1" not in out

    def test_removed_options_rejected(self, capsys):
        assert run(capsys, "oracle", "--n", "6", "--pattern", "K4-", "--threads", "2")[0] == 2
        assert run(capsys, "oracle", "--n", "6", "--pattern", "K4-", "--seed", "1")[0] == 2

    @pytest.mark.parametrize("argv", [
        ("--n", "+9", "--pattern", "K4-"),
        ("--n", "7", "--pattern", "K4-", "--budget-nodes", "1_000"),
        ("--n", "7", "--pattern", "K04"),
        ("--n", "7", "--pattern", "Kt:05"),
    ])
    def test_integers_spelled_as_written_usage_error(self, capsys, argv):
        code, out, err = run(capsys, "oracle", *argv)
        assert code == 2 and out == "" and err

    def test_cap_violation_usage_error(self, capsys):
        code, _, err = run(capsys, "oracle", "--n", "11", "--pattern", "K4-")
        assert code == 2 and "hard cap" in err

    def test_non_finite_budget_usage_error(self, capsys):
        code, out, err = run(capsys, "oracle", "--n", "11", "--pattern", "K4-",
                             "--allow-large", "--budget-seconds", "nan")
        assert code == 2 and out == ""
        assert err.startswith("error: time_budget") and "Traceback" not in err


class TestExport:
    def test_hg_to_json_and_back(self, capsys, tmp_path):
        path = tmp_path / "h.hg"
        assert run(capsys, "construct", "--family", "H2", "--m", "1", "--out", str(path))[0] == 0
        code, json_text, _ = run(capsys, "export", "--in", str(path), "--format", "json")
        assert code == 0
        jpath = tmp_path / "h.json"
        jpath.write_text(json_text)
        code, hg_text, _ = run(capsys, "export", "--in", str(jpath), "--format", "hg")
        assert code == 0 and hg_text == path.read_text()

    def test_out_path(self, capsys, tmp_path):
        path = tmp_path / "g.hg"
        out_path = tmp_path / "g.json"
        assert run(capsys, "construct", "--family", "G1", "--out", str(path))[0] == 0
        code, out, _ = run(capsys, "export", "--in", str(path), "--format", "json", "--out", str(out_path))
        assert code == 0 and out == ""
        assert json.loads(out_path.read_text())["uniformity"] == 2


class TestErrorStreams:
    def test_missing_file_exit_3(self, capsys):
        code, out, err = run(capsys, "covering", "--in", "/nonexistent.hg", "--pattern", "K4-")
        assert code == 3 and out == "" and err

    @pytest.mark.parametrize("text", [
        "HG 2 4 3\n0 1\n1 2\n0 1\n",
        "HG 3 5 3\n0 1 2\n1 2 3\n1 2 3\n",
    ])
    def test_repeated_edge_line_exit_3(self, capsys, tmp_path, text):
        path = tmp_path / "dup.hg"
        path.write_text(text)
        code, out, err = run(capsys, "export", "--in", str(path), "--format", "json")
        assert code == 3 and out == "" and "duplicate edge" in err

    def test_distinguished_2_graph_json_exit_3(self, capsys, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"uniformity": 2, "n": 3, "edges": [[0, 1]], "distinguished": 1}))
        code, out, err = run(capsys, "export", "--in", str(path), "--format", "hg")
        assert code == 3 and out == "" and "3-graphs only" in err

    @pytest.mark.parametrize("fields, message", [
        ({}, "bad class vertex: '01'"),
        ({"classes": {"1": "a"}}, "edge_count declares 5 edges, found 2"),
        ({"classes": {"1": "a"}, "edge_count": 2}, "duplicate edge (0, 1, 2)"),
    ])
    def test_json_reader_parity_exit_3(self, capsys, tmp_path, fields, message):
        # the reader once exported each of these with exit 0, as one edge
        # with vertex 1 labelled "b"
        doc = {"uniformity": 3, "n": 4, "edges": [[0, 1, 2], [2, 1, 0]],
               "classes": {"1": "a", "01": "b"}, "edge_count": 5, **fields}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "export", "--in", str(path), "--format", "hg")
        assert code == 3 and out == "" and message in err

    def test_loop_edge_in_json_exit_3(self, capsys, tmp_path):
        path = tmp_path / "loop.json"
        path.write_text(json.dumps({"uniformity": 2, "n": 3, "edges": [[1, 1]]}))
        code, out, err = run(capsys, "export", "--in", str(path), "--format", "hg")
        assert code == 3 and out == "" and "edge (1, 1) is not a 2-element vertex set" in err

    @pytest.mark.parametrize("text, message", [
        ("HG 3 +4 0\n", "bad vertex count: '+4'"),
        ("HG 3 4 1\nX 0_0\n0 1 2\n", "bad distinguished vertex: '0_0'"),
        ("HG 3 4 1\nCLASS +1 a\n0 1 2\n", "bad class vertex: '+1'"),
        ("HG 3 5 2\n0 1 2\n1 2 \u0663\n", "bad vertex index: '\u0663'"),
    ])
    def test_non_decimal_integer_exit_3(self, capsys, tmp_path, text, message):
        # each of these once exported with exit 0, as 'HG 3 4 ...', 'X 0',
        # 'CLASS 1 a' or '1 2 3'
        path = tmp_path / "bad.hg"
        path.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "export", "--in", str(path), "--format", "hg")
        assert code == 3 and out == "" and message in err

    def test_negative_header_count_exit_3(self, capsys, tmp_path):
        path = tmp_path / "neg.hg"
        path.write_text("HG 3 -1 0\n")
        code, out, err = run(capsys, "export", "--in", str(path), "--format", "json")
        assert code == 3 and out == "" and "negative counts in header" in err

    def test_vertex_count_above_limit_exit_3(self, capsys, tmp_path):
        path = tmp_path / "huge.hg"
        path.write_text(f"HG 2 {MAX_VERTICES + 1} 0\n")
        code, out, err = run(capsys, "export", "--in", str(path), "--format", "json")
        assert code == 3 and out == "" and "exceeds the limit" in err

    @pytest.mark.parametrize("text", [
        "HG 3 4 1\nX -0\n0 1 2\n",
        "HG 3 4 1\nCLASS 01 a\n0 1 2\n",
        "HG 3 4 1\n-0 1 2\n",
        "HG 3 4 1\n0 01 2\n",
        f"HG 3 {'9' * 5000} 0\n",
        f"HG 3 4 1\n0 1 {'9' * 5000}\n",
        '{"uniformity": 3, "n": %s, "edges": []}' % ("9" * 5000),
    ], ids=["X", "CLASS", "edge-minus-zero", "edge-leading-zero", "header-digits", "edge-digits",
            "json-digits"])
    def test_integer_not_as_written_exit_3(self, capsys, tmp_path, text):
        # int() read the first four as other integers and exported them with
        # exit 0; the digit runs escaped as a ValueError (exit 2)
        path = tmp_path / "bad.hg"
        path.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "export", "--in", str(path), "--format", "hg")
        assert code == 3 and out == "" and err.startswith("error: ")

    @pytest.mark.parametrize("sep", ["\x0c", "\x1c", "\x85", "\u2028", "\r"],
                             ids=lambda sep: f"U+{ord(sep):04X}")
    def test_line_break_other_than_lf_exit_3(self, capsys, tmp_path, sep):
        # the file is read without newline translation, so a lone CR too
        # stays inside its line; each of these once exported as 2 edges
        path = tmp_path / "bad.hg"
        path.write_bytes(f"HG 3 4 2{sep}0 1 2{sep}1 2 3\n".encode("utf-8"))
        code, out, err = run(capsys, "export", "--in", str(path), "--format", "hg")
        assert code == 3 and out == "" and "bad header line" in err

    @pytest.mark.parametrize("sep", ["\xa0", "\u3000", "\x0b"], ids=lambda sep: f"U+{ord(sep):04X}")
    def test_whitespace_other_than_space_and_tab_exit_3(self, capsys, tmp_path, sep):
        # such a character once separated tokens, so this exported with exit 0
        lines = write_edge_list(construct_h4(9)).splitlines()
        lines[-1] = lines[-1].replace(" ", sep, 1)
        path = tmp_path / "bad.hg"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, out, err = run(capsys, "export", "--in", str(path), "--format", "hg")
        assert code == 3 and out == "" and err.startswith("error: ")

    def test_non_utf8_file_exit_3(self, capsys, tmp_path):
        path = tmp_path / "latin1.hg"
        path.write_bytes("HG 3 4 1\nCLASS 0 \u00e9\n0 1 2\n".encode("latin-1"))
        for argv in (("export", "--in", str(path), "--format", "json"),
                     ("verify", "--family", "H4", "--n", "4", "--in", str(path)),
                     ("covering", "--in", str(path), "--pattern", "K4-")):
            code, out, err = run(capsys, *argv)
            assert code == 3 and out == "" and "not UTF-8 text" in err

    def test_no_subcommand_exit_2(self, capsys):
        assert run(capsys)[0] == 2

    def test_help_exit_0(self, capsys):
        assert run(capsys, "--help")[0] == 0


# Every numeric token is at most 8, so no example can start a large oracle
# search or build a large construction; "@..." tokens name the paths below.
_VALUES = ("-1", "0", "1", "3", "8", "x", "1.5", "", "nan", "K4-", "Kt:9", "H4", "2,3,3")
_PATHS = ("@valid", "@malformed", "@json", "@missing", "@dir")
_OPTIONS = {
    "construct": ("--family", "--m", "--n", "--sizes", "--out"),
    "verify": ("--family", "--m", "--n", "--sizes", "--in", "--format"),
    "covering": ("--in", "--pattern", "--vertex", "--format"),
    "koenig": ("--in", "--format"),
    "oracle": ("--n", "--pattern", "--budget-nodes", "--budget-seconds", "--allow-large", "--format"),
    "export": ("--in", "--format", "--out"),
}
_FLAGS = ("--allow-large", "--help")
_REQUIRED = ("--family", "--in", "--out", "--pattern")
_ANY = st.sampled_from(
    tuple(_OPTIONS) + tuple(dict.fromkeys(o for opts in _OPTIONS.values() for o in opts))
    + _FLAGS + _VALUES + _PATHS
)
# mostly a value of the option's own kind, so that examples get past argparse
# into every subcommand
_KIND = {
    "--family": st.sampled_from(FAMILIES),
    "--format": st.sampled_from(("text", "json", "hg")),
    "--pattern": st.sampled_from(("K4-", "K5-", "K4", "Kt:5", "Kt-:6", "Kt:9")),
    "--in": st.sampled_from(_PATHS), "--out": st.sampled_from(_PATHS),
    "--m": st.sampled_from(("-1", "0", "1", "3", "8")),
    "--n": st.sampled_from(("-1", "0", "1", "3", "8")),
    "--sizes": st.sampled_from(("2,3,3", "1,1,1", "3")),
    "--vertex": st.sampled_from(("x", "-1", "0", "3", "8")),
    "--budget-nodes": st.sampled_from(("-1", "0", "1", "8")),
    "--budget-seconds": st.sampled_from(("0", "1", "1.5", "nan")),
}
# Hypothesis favours boundary values, so a 1-in-k integer draw fires far
# more often than 1/k; an index into a list of outcomes is drawn evenly
_USUALLY = st.sampled_from((True,) * 7 + (False,))


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(tuple(_OPTIONS)) if draw(_USUALLY) else _ANY)
    argv = [command]
    for opt in draw(st.permutations(_OPTIONS.get(command, ()))):
        required = opt in _REQUIRED or (command, opt) in (("oracle", "--n"), ("export", "--format"))
        if not draw(_USUALLY if required else st.booleans()):
            continue
        argv.append(opt)
        if opt not in _FLAGS:
            argv.append(draw(_KIND[opt] if draw(_USUALLY) else _ANY))
    if not draw(_USUALLY):
        argv += draw(st.lists(_ANY, min_size=1, max_size=2))
    return argv


def test_any_argv_exits_with_a_documented_code(capsys, tmp_path, monkeypatch):
    # any token can land after --out, so relative outputs go to tmp_path
    monkeypatch.chdir(tmp_path)
    paths = {
        "@valid": tmp_path / "valid.hg",
        "@malformed": tmp_path / "malformed.hg",
        "@json": tmp_path / "graph.json",  # a 2-graph
        "@missing": tmp_path / "missing.hg",
        "@dir": tmp_path,
    }

    @settings(max_examples=200, deadline=None)
    @given(_argv())
    def check(argv):
        # construct and export may have overwritten the inputs: restore them
        save(construct_h4(8), paths["@valid"])
        paths["@malformed"].write_text("HG 3 4 2\n0 1 2\n0 1\n")
        paths["@json"].write_text(dumps_json(construct("G1")))
        paths["@missing"].unlink(missing_ok=True)
        code = main([str(paths.get(tok, tok)) for tok in argv])
        capsys.readouterr()
        assert code in (0, 1, 2, 3)

    check()
