"""Blowup and matching-insertion tests."""

import pytest

from tricover import (
    BlowupResult,
    BlowupSpec,
    Graph,
    add_edge_list,
    add_matching_between,
    base_graph,
    blowup,
    complete_trigraph,
    is_triangle_free,
    link_graph_for,
)

from _brute import bf_blowup_edge_count


def test_single_edge_blowup_is_complete_bipartite():
    res = blowup(BlowupSpec(Graph(2, [(0, 1)]), {0: 2, 1: 3}))
    g = res.graph
    assert g.n == 5 and g.edge_count == 6
    assert res.class_members == {0: [0, 1], 1: [2, 3, 4]}
    for u in (0, 1):
        for w in (2, 3, 4):
            assert g.has_edge(u, w)
    assert not g.has_edge(0, 1) and not g.has_edge(2, 3)


def test_identity_blowup():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    res = blowup(BlowupSpec(g, {v: 1 for v in range(4)}))
    assert res.graph.edges() == g.edges()
    assert res.graph.n == g.n


def test_g1_blowup_edge_count_matches_sum_formula():
    # classes of size 2 on the hexagon, singletons outside: brute-force count
    # and the sum-over-edges formula both give 49
    base = base_graph("G1")
    mult = {v: 1 for v in range(5)}
    mult.update({5 + j: 2 for j in range(6)})
    res = blowup(BlowupSpec(base, mult))
    formula = sum(mult[u] * mult[v] for u, v in base.edges())
    assert res.graph.edge_count == formula == bf_blowup_edge_count(base, mult) == 49


def test_blowup_degree_formula():
    base = base_graph("G2")
    mult = {v: (v % 3) + 1 for v in range(base.n)}
    res = blowup(BlowupSpec(base, mult))
    for v in range(base.n):
        expected = sum(mult[u] for u in base.adj[v])
        for copy in res.class_members[v]:
            assert len(res.graph.adj[copy]) == expected


def test_blowup_deterministic():
    base = base_graph("G3")
    mult = {v: 2 for v in range(base.n)}
    a = blowup(BlowupSpec(base, mult))
    b = blowup(BlowupSpec(base, mult))
    assert a.graph == b.graph and a.class_members == b.class_members


def test_blowup_preserves_triangle_freeness():
    for name in ("G1", "G2", "G3"):
        base = base_graph(name)
        res = blowup(BlowupSpec(base, {v: 3 for v in range(base.n)}))
        assert is_triangle_free(res.graph).triangle_free


def test_zero_multiplicity_gives_empty_class():
    res = blowup(BlowupSpec(Graph(3, [(0, 1), (1, 2)]), {0: 0, 1: 2, 2: 0}))
    assert res.class_members == {0: [], 1: [0, 1], 2: []}
    assert res.graph.n == 2 and res.graph.edges() == []


def test_bad_multiplicity_rejected():
    for mult in ({0: -1, 1: 1}, {0: 1.5, 1: 1}, {0: "2", 1: 1}, {0: 2}, {0: True, 1: 1}):
        with pytest.raises(ValueError):
            BlowupSpec(Graph(2, [(0, 1)]), mult)


@pytest.mark.parametrize("base", [None, complete_trigraph(4)], ids=["None", "TriGraph"])
def test_base_must_be_a_graph(base):
    with pytest.raises(ValueError, match=r"^expected a 2-graph \(Graph\), got "):
        BlowupSpec(base, {})


class TestAddMatchingBetween:
    def test_empty_classes_leave_graph_unchanged(self):
        g = Graph(3, [(0, 1)])
        res = BlowupResult(g, {0: [0], 1: [1], 2: [2], 7: [], 8: []})
        assert add_matching_between(res, 7, 8) == g

    def test_identity_matching_by_copy_index(self):
        res = blowup(BlowupSpec(Graph(3, [(0, 2), (1, 2)]), {0: 2, 1: 2, 2: 1}))
        g = add_matching_between(res, 0, 1)
        a0, a1 = res.class_members[0]
        b0, b1 = res.class_members[1]
        assert g.has_edge(a0, b0) and g.has_edge(a1, b1)
        assert not g.has_edge(a0, b1) and not g.has_edge(a1, b0)
        assert g.edge_count == res.graph.edge_count + 2

    def test_h1_link_m2_is_4_regular_on_v1(self):
        link = link_graph_for("H1", 2)
        lab = [v for v, s in link.class_of.items() if s == "v1"]
        assert lab and all(len(link.adj[v]) == 4 for v in lab)

    def test_size_mismatch(self):
        res = blowup(BlowupSpec(Graph(2), {0: 2, 1: 3}))
        with pytest.raises(ValueError):
            add_matching_between(res, 0, 1)

    def test_adjacent_classes_rejected(self):
        res = blowup(BlowupSpec(Graph(2, [(0, 1)]), {0: 2, 1: 2}))
        with pytest.raises(ValueError):
            add_matching_between(res, 0, 1)

    def test_unknown_class(self):
        res = blowup(BlowupSpec(Graph(2), {0: 1, 1: 1}))
        with pytest.raises(ValueError):
            add_matching_between(res, 0, 9)


@pytest.mark.parametrize("call, message", [
    (lambda: blowup(None), "^expected a BlowupSpec, got NoneType$"),
    (lambda: add_matching_between(None, 0, 1), "^expected a BlowupResult, got NoneType$"),
], ids=["blowup", "add_matching_between"])
def test_refuses_a_wrong_argument_type(call, message):
    with pytest.raises(ValueError, match=message):
        call()


class TestAddEdgeList:
    def test_matching_on_8_cycle_reaches_degree_3(self):
        cyc = Graph(8, [(i, (i + 1) % 8) for i in range(8)])
        g = add_edge_list(cyc, [(0, 4), (1, 5), (2, 6), (3, 7)])
        assert all(len(g.adj[v]) == 3 for v in range(8))

    def test_empty_list(self):
        g = Graph(4, [(0, 1)])
        assert add_edge_list(g, []) == g

    def test_existing_edge_rejected(self):
        g = Graph(4, [(0, 1)])
        with pytest.raises(ValueError):
            add_edge_list(g, [(1, 0)])

    def test_duplicate_pair_rejected(self):
        g = Graph(4)
        with pytest.raises(ValueError):
            add_edge_list(g, [(0, 1), (1, 0)])

    def test_loop_rejected(self):
        with pytest.raises(ValueError):
            add_edge_list(Graph(3), [(1, 1)])

    @pytest.mark.parametrize("pair", [(0, 1, "a"), (0, "a"), 5, (1, 1), (0, True)])
    def test_malformed_pair_is_value_error(self, pair):
        with pytest.raises(ValueError, match="is not a 2-element vertex set"):
            add_edge_list(Graph(3), [pair])

    @pytest.mark.parametrize("g", [None, complete_trigraph(4)], ids=["None", "TriGraph"])
    def test_refuses_anything_but_a_graph(self, g):
        with pytest.raises(ValueError, match=r"^expected a 2-graph \(Graph\), got "):
            add_edge_list(g, [(0, 1)])

    def test_iterator_pair(self):
        assert add_edge_list(Graph(3), [iter((2, 0))]).edges() == [(0, 2)]
        with pytest.raises(ValueError, match=r"edge \(1, 1\) is not a 2-element vertex set"):
            add_edge_list(Graph(3), [iter((1, 1))])
