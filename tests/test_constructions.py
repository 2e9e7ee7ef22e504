"""Construction and claim-verifier tests."""

import hashlib
import json
import re
import sys
from collections import Counter
from itertools import combinations
from pathlib import Path

import pytest

from tricover import (
    FAMILIES,
    Graph,
    Pattern,
    TriGraph,
    UnsupportedResidueError,
    base_graph,
    builtin_pattern,
    check_construction,
    codegree,
    construct,
    construct_h,
    construct_h4,
    construct_t,
    covered_at,
    h4_part_sizes,
    is_triangle_free,
    link_graph,
    link_graph_for,
    lower_bound_certificate,
    min_codegree,
    pair_degree_table,
    verify_claim,
    write_edge_list,
)
from tricover import constructions, hypergraphs
from tricover.constructions import (
    check_base_graph,
    check_h4_construction,
    check_h_construction,
    check_t_construction,
)

from _brute import bf_construct_h, bf_construct_h4

# sha256 of the canonical edge list and of the sorted-key JSON claim report
# of each construction, as recorded before the certify path was reworked
DIGESTS = json.loads((Path(__file__).parent / "data" / "certify_digests.json").read_text())


# a valid value of each family's parameter, and the builder and checker the
# family dispatches to
OWN = {
    "G1": {}, "G2": {}, "G3": {}, "H1": {"m": 1}, "H2": {"m": 1}, "H3": {"m": 1},
    "T": {"sizes": (2, 3, 3)}, "H4": {"n": 9},
}
ROUTES = {
    **dict.fromkeys(("G1", "G2", "G3"), ("base_graph", "check_base_graph")),
    **dict.fromkeys(("H1", "H2", "H3"), ("construct_h", "check_h_construction")),
    "T": ("construct_t", "check_t_construction"),
    "H4": ("construct_h4", "check_h4_construction"),
}
FOREIGN_VALUES = {"m": 3, "n": 99, "sizes": (2, 3, 3)}


def _by_label(obj):
    table = {}
    for v, lab in obj.class_of.items():
        table.setdefault(lab, []).append(v)
    return table


class TestBaseGraphs:
    @pytest.mark.parametrize("name,n,edges", [("G1", 11, 21), ("G2", 14, 30), ("G3", 15, 35)])
    def test_counts_and_triangle_freeness(self, name, n, edges):
        g = base_graph(name)
        assert (g.n, g.edge_count) == (n, edges)
        assert is_triangle_free(g).triangle_free

    def test_g1_degree_of_v1(self):
        g = base_graph("G1")
        lab = {s: v for v, s in g.class_of.items()}
        v1 = lab["v1"]
        assert len(g.adj[v1]) == 3
        assert g.adj[v1] == {lab["v2"], lab["v6"], lab["1"]}

    def test_g3_degree_of_vertex_9(self):
        g = base_graph("G3")
        lab = {s: v for v, s in g.class_of.items()}
        nine = lab["9"]
        assert len(g.adj[nine]) == 5
        assert g.adj[nine] == {lab["1"], lab["3"], lab["7"], lab["v2"], lab["v5"]}

    def test_hexagon_and_outer_cycle_present(self):
        for name, r in (("G1", 5), ("G2", 8), ("G3", 8)):
            g = base_graph(name)
            lab = {s: v for v, s in g.class_of.items()}
            for j in range(6):
                assert g.has_edge(lab[f"v{j + 1}"], lab[f"v{(j + 1) % 6 + 1}"])
            for i in range(r):
                assert g.has_edge(lab[str(i + 1)], lab[str((i + 1) % r + 1)])

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            base_graph("G4")


class TestLinkFamilies:
    def test_h1_m1(self):
        H = construct_h("H1", 1)
        assert H.n == 6 and H.distinguished == 0
        link = link_graph(H, 0).graph
        assert all(len(link.adj[v]) == 2 for v in range(5)) and link.edge_count == 5
        assert min_codegree(H).min == 2

    def test_h2_m1(self):
        H = construct_h("H2", 1)
        assert H.n == 9
        assert min_codegree(H).min == 3
        assert covered_at(H, 0, builtin_pattern("K4-")) is None

    def test_h3_m2(self):
        H = construct_h("H3", 2)
        assert H.n == 16
        assert min_codegree(H).min == 5 == 16 // 3
        one = _by_label(H)["1"][0]
        assert codegree(H, 0, one) == 2 * 2 + 2 == 6

    @pytest.mark.parametrize("family,m", [(f, m) for f in ("H1", "H2", "H3") for m in (1, 2, 3)])
    def test_link_regularity(self, family, m):
        H = construct_h(family, m)
        link = link_graph(H, 0).graph
        degs = sorted(len(link.adj[v]) for v in range(link.n))
        if family == "H1":
            assert degs == [2 * m] * (H.n - 1)
        elif family == "H2":
            assert degs == [2 * m + 1] * (H.n - 1)
        else:
            assert degs == [2 * m + 1] * (H.n - 2) + [2 * m + 2]

    def test_link_rule_defines_non_x_edges(self):
        # a triple avoiding x is an edge exactly when it spans <= 1 link edge
        H = construct_h("H2", 2)
        link = link_graph(H, 0)
        inv = link.host_to_link()
        for tri in combinations(range(1, H.n), 3):
            spans = sum(
                1
                for a, b in combinations(tri, 2)
                if link.graph.has_edge(inv[a], inv[b])
            )
            assert (tri in H.edge_set) == (spans <= 1)

    @pytest.mark.parametrize("family,m", [(f, m) for f in ("H1", "H2", "H3") for m in range(1, 9)])
    def test_matches_the_triple_by_triple_reference(self, family, m):
        H, ref = construct_h(family, m), bf_construct_h(family, m)
        assert H.edges == ref.edges and H.distinguished == ref.distinguished == 0
        assert list(H.class_of.items()) == list(ref.class_of.items())

    def test_construct_link_matches_link_graph(self):
        for fam, m in (("H1", 2), ("H3", 1)):
            H = construct_h(fam, m)
            assert link_graph(H, 0).graph.edges() == link_graph_for(fam, m).edges()

    def test_invalid_m(self):
        with pytest.raises(ValueError):
            construct_h("H1", 0)

    @pytest.mark.parametrize("m", [0, -1, 1.5, 2.0, "2", True, None])
    def test_link_rejects_non_positive_int_m(self, m):
        with pytest.raises(ValueError, match="m must be a positive integer"):
            link_graph_for("H1", m)


class TestMatchingPartite:
    def test_2_2_2_cross_codegrees(self):
        T = construct_t((2, 2, 2))
        table = pair_degree_table(T)
        for a in range(2):
            for b in range(2, 4):
                assert table[(a, b)] == 1

    def test_1_1_2_single_edge(self):
        assert construct_t((1, 1, 2)).edge_count == 1

    @pytest.mark.parametrize("sizes", [(1, 1, 1), (2, 2, 3), (2, 3, 3), (3, 3, 4), (4, 5, 5)])
    def test_max_codegree_at_most_1(self, sizes):
        T = construct_t(sizes)
        assert max(pair_degree_table(T).values()) <= 1
        assert verify_claim("T", sizes=sizes).passed

    def test_bad_sizes(self):
        for sizes in ((0, 1, 1), (2, 1, 3), (3, 3, 2)):
            with pytest.raises(ValueError):
                construct_t(sizes)


class TestThreePartConstruction:
    def test_part_sizes(self):
        assert h4_part_sizes(5) == (1, 1, 2)
        assert h4_part_sizes(7) == (2, 2, 2)
        assert h4_part_sizes(10) == (3, 3, 3)
        assert h4_part_sizes(12) == (3, 4, 4)
        with pytest.raises(ValueError):
            h4_part_sizes(4)

    def test_part_sizes_are_near_balanced(self):
        for n in range(5, 301):
            a, m, ell = h4_part_sizes(n)
            assert a + m + ell == n - 1
            assert m - 1 <= a <= m <= ell <= m + 1 and ell - a <= 1

    def test_n7(self):
        H = construct_h4(7)
        assert min_codegree(H).min == 4 == (2 * 7 - 2) // 3
        assert covered_at(H, 0, builtin_pattern("K5-")) is None

    def test_n10(self):
        assert min_codegree(construct_h4(10)).min == 6

    @pytest.mark.parametrize("n", range(5, 61))
    def test_matches_the_triple_by_triple_reference(self, n):
        H, ref = construct_h4(n), bf_construct_h4(n)
        assert H.edges == ref.edges and H.distinguished == ref.distinguished == 0
        assert list(H.class_of.items()) == list(ref.class_of.items())

    def test_x_codegree_formula(self):
        for n in (7, 9, 12):
            H = construct_h4(n)
            sizes = h4_part_sizes(n)
            offsets = [1, 1 + sizes[0], 1 + sizes[0] + sizes[1]]
            for i, size in enumerate(sizes):
                for b in range(offsets[i], offsets[i] + size):
                    assert codegree(H, 0, b) == n - 1 - size


class TestVerifyClaim:
    @pytest.mark.parametrize("family,m", [(f, m) for f in ("H1", "H2", "H3") for m in (1, 2)])
    def test_link_families_pass(self, family, m):
        report = verify_claim(family, m=m)
        assert report.passed
        expected = {"H1": 2 * m, "H2": 2 * m + 1, "H3": 2 * m + 1}[family]
        assert report.measured_delta2 == report.expected_delta2 == expected

    @pytest.mark.parametrize("n", [5, 6, 7, 8, 13])
    def test_three_part_passes(self, n):
        report = verify_claim("H4", n=n)
        assert report.passed and report.measured_delta2 == (2 * n - 2) // 3

    @pytest.mark.parametrize("name,kw", [("H4", {"n": 70}), ("H3", {"m": 12})])
    def test_passes_past_64_vertices(self, name, kw):
        # neighbourhood masks wider than a machine word
        report = verify_claim(name, **kw)
        assert report.passed and report.n > 64

    def test_base_graphs_pass(self):
        for name in ("G1", "G2", "G3"):
            assert verify_claim(name).passed

    def test_mutated_construction_fails_on_delta2(self):
        H = construct_h("H1", 2)
        x_edge = next(e for e in H.edges if 0 in e)
        mutated = TriGraph(
            H.n,
            [e for e in H.edges if e != x_edge],
            distinguished=H.distinguished,
            class_of=H.class_of,
        )
        report = check_construction(mutated, "H1", m=2)
        assert not report.passed
        assert report.checks["delta2"] is False
        assert report.measured_delta2 == 2 * 2 - 1

    def test_report_dict_key_stability(self):
        doc = verify_claim("H1", m=1).to_dict()
        assert list(doc) == [
            "family", "parameter", "n", "edge_count", "expected_delta2",
            "measured_delta2", "pattern", "link_degree_profile", "checks",
            "labels", "notes", "passed",
        ]

    def test_infers_m_from_vertex_count(self):
        H = construct_h("H2", 2)
        assert check_construction(H, "H2").parameter == {"m": 2}

    @pytest.mark.parametrize("family, kw", [("H1", {"m": 1}), ("H4", {"n": 9})], ids=["H1", "H4"])
    def test_missing_distinguished_vertex(self, family, kw):
        H = construct(family, **kw)
        stripped = TriGraph(H.n, H.edges, class_of=H.class_of)
        report = check_construction(stripped, family, **kw)
        assert not report.passed and "has_distinguished_vertex" in report.checks

    @pytest.mark.parametrize("family, n", [("H1", 7), ("H2", 4)])
    def test_no_m_fits_the_vertex_count(self, family, n):
        with pytest.raises(ValueError, match="no parameter m"):
            check_construction(TriGraph(n, []), family)


class TestLowerBoundCertificate:
    def test_12_k4m_uses_h1(self):
        H, report = lower_bound_certificate(12, "K4-")
        assert report.family == "H1" and report.parameter == {"m": 2}
        assert report.passed and report.measured_delta2 == 4

    def test_10_k4m_uses_h3(self):
        H, report = lower_bound_certificate(10, "K4-")
        assert report.family == "H3" and report.measured_delta2 == 3

    def test_9_k4m_uses_h2(self):
        _, report = lower_bound_certificate(9, "K4-")
        assert report.family == "H2" and report.passed

    def test_unsupported_residue(self):
        for n in (8, 11, 13, 17):
            with pytest.raises(UnsupportedResidueError):
                lower_bound_certificate(n, "K4-")

    def test_k5m_any_n(self):
        for n in (5, 7, 11, 20):
            H, report = lower_bound_certificate(n, "K5-")
            assert report.passed and report.measured_delta2 == (2 * n - 2) // 3

    def test_unknown_pattern(self):
        with pytest.raises(ValueError):
            lower_bound_certificate(9, "K4")

    def test_pattern_without_a_name_is_named_by_its_value(self):
        with pytest.raises(ValueError, match=r"^no certificate family for pattern \['K4-'\]$"):
            lower_bound_certificate(9, ["K4-"])

    def test_family_follows_the_structure_not_the_name(self):
        # one edge named K4-: its vertex 0 is covered, so no K4- certificate
        one_edge = Pattern(4, frozenset({(0, 1, 2)}), "K4-")
        assert covered_at(lower_bound_certificate(12, "K4-")[0], 0, one_edge) == (0, 1, 2, 3)
        with pytest.raises(ValueError, match=r"^no certificate family for pattern 'K4-'$"):
            lower_bound_certificate(12, one_edge)
        # a true K4- or K5- under another name takes its family
        for name, n, family in (("K4-", 12, "H1"), ("K5-", 9, "H4")):
            F = builtin_pattern(name)
            H, report = lower_bound_certificate(n, Pattern(F.t, F.edges, "renamed"))
            assert report.passed and report.family == family
            assert H == lower_bound_certificate(n, name)[0]

    @pytest.mark.parametrize("pattern", ["K4", "K9", "Kt-:5x", 4, None])
    def test_refused_names_and_values(self, pattern):
        message = f"^no certificate family for pattern {re.escape(repr(pattern))}$"
        with pytest.raises(ValueError, match=message):
            lower_bound_certificate(9, pattern)


def test_link_graph_for_unknown_family():
    with pytest.raises(ValueError, match="unknown construction family 'H4'"):
        link_graph_for("H4", 1)


def test_h_check_refuses_other_families():
    with pytest.raises(ValueError, match="not one of the blowup-link families"):
        check_h_construction(construct_h4(9), "H4")


def test_h_check_needs_two_vertices():
    with pytest.raises(ValueError, match="at least 2 vertices"):
        check_h_construction(TriGraph(1, distinguished=0), "H1", m=1)
    with pytest.raises(ValueError, match="at least 2 vertices"):
        check_h4_construction(TriGraph(1, distinguished=0), n=5)


@pytest.mark.parametrize("family, check, args", [
    ("H1", check_h_construction, ("H1",)), ("H2", check_h_construction, ("H2", 1)),
    ("T", check_t_construction, ((2, 3, 3),)), ("H4", check_h4_construction, (9,)),
])
def test_checks_refuse_a_2_graph(family, check, args):
    # as check_construction does, before any attribute of a 3-graph is read
    with pytest.raises(ValueError, match=f"^{family} is a 3-graph family$"):
        check(base_graph("G1"), *args)


def test_base_graph_check_refuses_a_3_graph():
    for check in (check_base_graph, check_construction):
        with pytest.raises(ValueError, match="^G2 is a 2-graph family$"):
            check(construct_h("H1", 1), "G2")


def _count_tables(monkeypatch):
    """Wrap ``codegree_neighbourhoods`` at every module binding of tricover;
    the returned list collects the graph of every call."""
    original = hypergraphs.codegree_neighbourhoods
    graphs = []

    def counting(H):
        graphs.append(H)
        return original(H)

    bound = [mod for name, mod in sorted(sys.modules.items())
             if name.split(".")[0] == "tricover" and vars(mod).get("codegree_neighbourhoods") is original]
    assert {"tricover.hypergraphs", "tricover.patterns", "tricover.constructions"} <= {m.__name__ for m in bound}
    for mod in bound:
        monkeypatch.setattr(mod, "codegree_neighbourhoods", counting)
    return graphs


@pytest.mark.parametrize("family, m", [("H1", 3), ("H2", 2), ("H3", 2)])
def test_h_claim_builds_one_table(monkeypatch, family, m):
    graphs = _count_tables(monkeypatch)
    report = verify_claim(family, m=m)
    assert report.passed and len(graphs) == 1
    assert graphs[0] == construct_h(family, m)


def test_h4_claim_builds_one_table_on_h(monkeypatch):
    graphs = _count_tables(monkeypatch)
    report = verify_claim("H4", n=20)
    assert report.passed
    # T, rebuilt from its sizes as an independent reference, has its own table
    assert sorted(graphs, key=lambda G: G.n) == [construct_t(h4_part_sizes(20)), construct_h4(20)]


def test_construct_dispatcher_requires_params():
    taking = [f for f in FAMILIES if OWN[f]]
    assert taking == ["H1", "H2", "H3", "T", "H4"]
    for family in taking:
        (name,) = OWN[family]
        with pytest.raises(ValueError, match=f"^{family} needs the parameter {name}$"):
            construct(family)
    with pytest.raises(ValueError, match="^T needs the parameter sizes$"):
        check_construction(construct_t((2, 3, 3)), "T")
    with pytest.raises(ValueError, match="^unknown construction family 'H9'$"):
        construct("H9")


def test_a_family_that_is_not_a_string_is_unknown():
    message = r"^unknown construction family \['H1'\]$"
    with pytest.raises(ValueError, match=message):
        construct(["H1"], m=1)
    with pytest.raises(ValueError, match=message):
        check_construction(construct_h("H1", 1), ["H1"])
    with pytest.raises(ValueError, match=message):
        verify_claim(["H1"], m=1)


@pytest.mark.parametrize("call, message", [
    (lambda: base_graph([]), r"^unknown base graph \[\] \(expected G1, G2 or G3\)$"),
    (lambda: link_graph_for([], 1), r"^unknown construction family \[\]$"),
    (lambda: construct_h([], 1), r"^unknown construction family \[\]$"),
    (lambda: check_h_construction(construct_h("H1", 1), []), r"^\[\] is not one of the blowup-link families$"),
    (lambda: check_base_graph(base_graph("G1"), []), r"^unknown base graph \[\] \(expected G1, G2 or G3\)$"),
], ids=["base_graph", "link_graph_for", "construct_h", "check_h_construction", "check_base_graph"])
def test_a_name_that_is_not_a_string_is_unknown(call, message):
    # an unhashable name must not escape from a dict lookup as TypeError
    with pytest.raises(ValueError, match=message):
        call()


def test_dispatch_calls_builders_and_checkers_through_module_attributes(monkeypatch):
    # a wrapper bound to a module attribute, as a tracer installs it, must
    # see every call the dispatchers make
    calls = Counter()
    for name in {fn for route in ROUTES.values() for fn in route}:
        def counting(*args, _name=name, _original=getattr(constructions, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(constructions, name, counting)
    for family in FAMILIES:
        builder, checker = ROUTES[family]
        calls.clear()
        obj = construct(family, **OWN[family])
        assert calls[builder] == 1, family
        check_construction(obj, family, **OWN[family])
        assert calls[checker] == 1, family
    for n, pattern, family in ((12, "K4-", "H1"), (9, "K4-", "H2"), (9, "K5-", "H4")):
        builder, checker = ROUTES[family]
        calls.clear()
        lower_bound_certificate(n, pattern)
        assert calls[builder] == calls[checker] == 1, (n, pattern)


class TestParameterRules:
    """One rule per family parameter, on the build path and the check path."""

    @pytest.mark.parametrize("n", [5.5, 7.0, "9", True, None])
    def test_h4_part_sizes_needs_an_int(self, n):
        with pytest.raises(ValueError, match="n must be an int"):
            h4_part_sizes(n)

    @pytest.mark.parametrize("n", [5.5, "9", True])
    def test_h4_build_and_check_share_the_rule(self, n):
        with pytest.raises(ValueError, match="n must be an int"):
            construct_h4(n)
        with pytest.raises(ValueError, match="n must be an int"):
            check_construction(construct_h4(5), "H4", n=n)

    @pytest.mark.parametrize("sizes", [(1.5, 2, 3), "abc", (1, 2), (1, 2, 3, 4), (True, 2, 3), 5])
    def test_t_sizes_must_be_three_ints(self, sizes):
        with pytest.raises(ValueError, match="sizes must be three ints"):
            construct_t(sizes)
        with pytest.raises(ValueError, match="sizes must be three ints"):
            check_construction(construct_t((2, 3, 3)), "T", sizes=sizes)

    @pytest.mark.parametrize("sizes", [(0, 0, 0), (2, 1, 3)])
    def test_t_check_rejects_what_the_build_rejects(self, sizes):
        with pytest.raises(ValueError, match=r"1 <= \|V1\|"):
            check_construction(construct_t((2, 3, 3)), "T", sizes=sizes)

    @pytest.mark.parametrize("m", [0, -1, 1.5, "1", True])
    def test_h_check_rejects_a_bad_m(self, m):
        with pytest.raises(ValueError, match="m must be a positive integer"):
            check_construction(construct_h("H1", 1), "H1", m=m)

    @pytest.mark.parametrize("family, keyword", [
        (f, k) for f in FAMILIES for k in FOREIGN_VALUES if k not in OWN[f]
    ])
    def test_parameter_the_family_does_not_take(self, family, keyword):
        own, foreign = OWN[family], {keyword: FOREIGN_VALUES[keyword]}
        message = f"^{family} takes no parameter {keyword}$"
        with pytest.raises(ValueError, match=message):
            construct(family, **own, **foreign)
        with pytest.raises(ValueError, match=message):
            check_construction(construct(family, **own), family, **own, **foreign)
        with pytest.raises(ValueError, match=message):
            verify_claim(family, **own, **foreign)

    def test_h4_check_reads_n_from_the_graph(self):
        report = check_construction(construct_h4(9), "H4")
        assert report.passed and report.parameter["n"] == 9

    def test_a_graph_of_another_size_is_measured(self):
        # H4(12) has vertices past the 8 of the T that n = 9 rebuilds, and
        # T(1, 1, 1) lacks most of the V1 x V2 pairs of sizes (2, 3, 3):
        # every check is still measured, none reads past a table
        checks = check_construction(construct_h4(12), "H4", n=9).checks
        assert not any(checks[k] for k in checks if k != "x_uncovered") and checks["x_uncovered"]
        checks = check_construction(construct_t((1, 1, 1)), "T", sizes=(2, 3, 3)).checks
        assert checks == {"vertex_count": False, "edge_count": False, "all_edges_transversal": False,
                          "max_codegree_le_1": True, "v1_v2_codegree_1": False}

    @pytest.mark.parametrize("pattern", ["K4-", "K5-"])
    def test_certificate_needs_an_int_n(self, pattern):
        with pytest.raises(ValueError, match="n must be an int"):
            lower_bound_certificate(9.5, pattern)
        with pytest.raises(ValueError, match="n must be an int"):
            lower_bound_certificate("9", pattern)


def _edit(H, add=(), remove=(), n=None, class_of=None):
    """H with edges added and removed, on n vertices, keeping x and (by default) the labels."""
    edges = [e for e in H.edges if e not in set(remove)] + list(add)
    return TriGraph(n or H.n, edges, distinguished=H.distinguished,
                    class_of=H.class_of if class_of is None else class_of)


def _link_path(H):
    """A link path a-b-c of x = 0 (a, c non-adjacent: the link is triangle-free)."""
    link = link_graph(H, 0)
    for b in range(link.graph.n):
        nb = sorted(link.graph.adj[b])
        if len(nb) >= 2:
            a, c = nb[:2]
            return tuple(link.to_host[i] for i in (a, b, c))
    raise AssertionError("link has no path of length 2")


def _h_defect(key):
    H = construct_h("H1", 2)
    if key == "vertex_count":
        return _edit(H, n=H.n + 1)
    if key in ("link_triangle_free", "x_uncovered"):
        # three link pairs on {1, 2, 3}: a link triangle, and x in a K4-
        return _edit(H, add=[(0, 1, 2), (0, 1, 3), (0, 2, 3)])
    if key == "link_degree_profile":
        return _edit(H, remove=[next(e for e in H.edges if 0 in e)])
    if key == "obstruction":
        return _edit(H, add=[tuple(sorted(_link_path(H)))])
    raise KeyError(key)


def _h4_defect(key):
    H = construct_h4(9)  # parts V1 = {1, 2}, V2 = {3, 4, 5}, V3 = {6, 7, 8}
    if key == "codegree_same_part":
        return _edit(H, remove=[(3, 4, 5)])
    if key == "codegree_x_pairs":
        return _edit(H, remove=[(0, 1, 3)])
    if key == "codegree_cross_part":
        return _edit(H, remove=[next(e for e in H.edges if e[0] <= 2 < e[1] <= 5 < e[2])])
    if key == "x_uncovered":
        return _edit(H, add=[e for e in combinations(range(9), 3) if e[0] == 0])
    raise KeyError(key)


def _t_defect(key):
    T = construct_t((2, 3, 3))  # V1 = {0, 1}, V2 = {2, 3, 4}, V3 = {5, 6, 7}
    if key == "all_edges_transversal":
        return _edit(T, add=[(0, 1, 5)])
    if key == "max_codegree_le_1":
        u, w, z = T.edges[0]
        other = next(v for v in range(5, 8) if v != z)
        return _edit(T, add=[(u, w, other)])
    if key == "v1_v2_codegree_1":
        return _edit(T, remove=[T.edges[0]])
    raise KeyError(key)


class TestEveryClaimCheckCanFail:
    """Each check key is False on a construction with the matching defect."""

    @pytest.mark.parametrize("key", [
        "vertex_count", "link_triangle_free", "link_degree_profile", "obstruction", "x_uncovered",
    ])
    def test_h_family(self, key):
        report = check_construction(_h_defect(key), "H1", m=2)
        assert report.checks[key] is False and not report.passed

    def test_obstruction_alone_when_the_link_stays_triangle_free(self):
        report = check_construction(_h_defect("obstruction"), "H1", m=2)
        assert report.checks["link_triangle_free"] is True
        assert report.checks["obstruction"] is False

    def test_h3_heavy_vertex_degree(self):
        H = construct_h("H3", 2)
        heavy = next(v for v, lab in H.class_of.items() if lab == "1")
        other = next(v for v, lab in H.class_of.items() if lab == "2")
        labels = dict(H.class_of)
        labels[heavy], labels[other] = "2", "1"
        report = check_construction(_edit(H, class_of=labels), "H3", m=2)
        assert report.checks["heavy_vertex_degree"] is False and not report.passed
        assert verify_claim("H3", m=2).checks["heavy_vertex_degree"] is True

    def test_h3_heavy_label_on_x(self):
        H = construct_h("H3", 2)
        labels = {v: ("1" if v == 0 else ("x" if lab == "1" else lab)) for v, lab in H.class_of.items()}
        report = check_construction(_edit(H, class_of=labels), "H3", m=2)
        assert report.checks["heavy_vertex_degree"] is False

    @pytest.mark.parametrize("key", [
        "codegree_same_part", "codegree_x_pairs", "codegree_cross_part", "x_uncovered",
    ])
    def test_h4(self, key):
        report = check_construction(_h4_defect(key), "H4", n=9)
        assert report.checks[key] is False and not report.passed

    @pytest.mark.parametrize("key", ["all_edges_transversal", "max_codegree_le_1", "v1_v2_codegree_1"])
    def test_t(self, key):
        report = check_construction(_t_defect(key), "T", sizes=(2, 3, 3))
        assert report.checks[key] is False and not report.passed

    def test_base_graph_triangle_free(self):
        G = base_graph("G1")
        u, v = next(
            (u, v) for u, v in combinations(range(G.n), 2)
            if v not in G.adj[u] and G.adj[u] & G.adj[v]
        )
        report = check_construction(Graph(G.n, G.edges() + [(u, v)], class_of=G.class_of), "G1")
        assert report.checks["triangle_free"] is False and not report.passed

    def test_base_graph_edge_count(self):
        G = base_graph("G1")
        report = check_construction(Graph(G.n, G.edges()[1:], class_of=G.class_of), "G1")
        assert report.checks["edge_count"] is False and not report.passed
        assert report.checks["triangle_free"] is True


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _case_id(case):
    return "-".join([case["family"]] + [
        k + ("_".join(map(str, v)) if isinstance(v, list) else str(v))
        for k, v in case["params"].items()
    ])


@pytest.mark.parametrize("case", DIGESTS, ids=_case_id)
def test_edge_list_and_claim_report_match_recorded_digests(case):
    params = {k: tuple(v) if isinstance(v, list) else v for k, v in case["params"].items()}
    obj = construct(case["family"], **params)
    assert _sha256(write_edge_list(obj)) == case["edge_list"]
    report = verify_claim(case["family"], **params)
    assert _sha256(json.dumps(report.to_dict(), sort_keys=True)) == case["claim"]
