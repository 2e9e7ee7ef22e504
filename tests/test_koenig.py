"""Edge-coloring tests: Delta matchings partitioning a bipartite edge set."""

from random import Random

import pytest

from tricover import (
    EdgeColoring,
    Graph,
    bipartite_edge_coloring,
    coloring_is_valid,
    complete_bipartite_matchings,
    complete_trigraph,
)

from _brute import random_bipartite, random_regular_bipartite


def _complete_bipartite(a, b):
    return Graph(a + b, [(u, a + w) for u in range(a) for w in range(b)])


def test_k33_three_perfect_matchings():
    g = _complete_bipartite(3, 3)
    col = bipartite_edge_coloring(g)
    assert col.delta == 3 and len(col.classes) == 3
    for cls in col.classes:
        assert len(cls) == 3
        assert {v for e in cls for v in e} == set(range(6))
    assert coloring_is_valid(g, col)


def test_path_two_singletons():
    g = Graph(3, [(0, 1), (1, 2)])
    col = bipartite_edge_coloring(g)
    assert col.delta == 2
    assert sorted(len(c) for c in col.classes) == [1, 1]
    assert coloring_is_valid(g, col)


def test_random_200_edge_max_degree_5_instance():
    # 200 edges across a 50+50 split, degree capped at 5
    rng = Random(17)
    deg = [0] * 100
    edges = set()
    while len(edges) < 200:
        u, w = rng.randrange(50), 50 + rng.randrange(50)
        if deg[u] < 5 and deg[w] < 5 and (u, w) not in edges:
            edges.add((u, w))
            deg[u] += 1
            deg[w] += 1
    g = Graph(100, edges)
    assert g.edge_count == 200 and g.max_degree() == 5
    col = bipartite_edge_coloring(g)
    assert col.delta == 5 and len(col.classes) == 5
    assert coloring_is_valid(g, col)


def test_regular_instances_yield_perfect_matchings():
    rng = Random(23)
    for s, d in ((4, 3), (7, 4), (10, 6)):
        g = random_regular_bipartite(rng, s, d)
        col = bipartite_edge_coloring(g)
        assert coloring_is_valid(g, col)
        for cls in col.classes:
            assert len(cls) == s  # perfect matching on both sides


def test_alternating_path_swap_pins_the_classes():
    # edges arrive as 01, 03, 24, 34; at 34 colour 0 is taken at 4 and colour
    # 1 at 3, so the (0, 1)-path 3-0-1 swaps colours and 34 takes colour 1
    col = bipartite_edge_coloring(Graph(5, [(0, 1), (0, 3), (2, 4), (3, 4)]))
    assert col.classes == (((0, 3), (2, 4)), ((0, 1), (3, 4))) and col.delta == 2


def test_empty_graph():
    col = bipartite_edge_coloring(Graph(4))
    assert col.delta == 0 and col.classes == ()


@pytest.mark.parametrize("edges, named", [
    pytest.param([(0, 1), (1, 2), (0, 2)], (1, 2), id="triangle"),
    # BFS from 0 colors 1 and 4 as 1, then 2 and 3 as 0: the 5-cycle's edge
    # (2, 3) is the first with both ends in one color; (5, 6) is bipartite
    pytest.param([(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (5, 6)], (2, 3), id="5-cycle"),
    # the odd cycle lies in the second component, away from its least vertex 3
    pytest.param([(0, 1), (3, 4), (4, 5), (5, 6), (6, 7), (5, 7)], (6, 7), id="second-component"),
])
def test_odd_cycle_edge_reported(edges, named):
    with pytest.raises(ValueError, match=rf"edge \({named[0]}, {named[1]}\) closes an odd cycle"):
        bipartite_edge_coloring(Graph(8, edges))


def test_edge_count_is_the_graphs():
    g = Graph(7, [(0, 4), (0, 5), (1, 4), (1, 6), (2, 5), (2, 6), (3, 4), (0, 6)])
    assert bipartite_edge_coloring(g).edge_count == g.edge_count == 8


class TestColoringIsValid:
    """Each rule of the validator rejects a coloring that breaks only that
    rule, on the graph with edges 02, 03 and 14 (Delta = 2, at vertex 0)."""

    G = Graph(5, [(0, 2), (0, 3), (1, 4)])

    def test_accepts_a_valid_coloring(self):
        assert coloring_is_valid(self.G, EdgeColoring((((0, 2), (1, 4)), ((0, 3),)), delta=2))

    @pytest.mark.parametrize("classes, delta", [
        pytest.param((((0, 2), (1, 3)), ((0, 3),)), 2, id="edge-not-in-graph"),
        pytest.param((((0, 2), (1, 4)), ((0, 3), (1, 4))), 2, id="edge-in-two-classes"),
        pytest.param((((0, 2), (0, 3)), ((1, 4),)), 2, id="class-edges-share-endpoint"),
        pytest.param((((0, 2),), ((1, 4),)), 2, id="edge-in-no-class"),
        # the class count, the recorded delta and the graph's Delta must agree
        pytest.param((((0, 2), (1, 4)), ((0, 3),), ()), 2, id="class-count-not-delta"),
        pytest.param((((0, 2), (1, 4)), ((0, 3),)), 3, id="delta-not-max-degree"),
        pytest.param((((0, 2), (1, 4)), ((0, 3),), ()), 3, id="both-not-max-degree"),
    ])
    def test_rejects(self, classes, delta):
        assert not coloring_is_valid(self.G, EdgeColoring(classes, delta=delta))


class TestCompleteBipartiteMatchings:
    def test_2x2(self):
        col = complete_bipartite_matchings(2, 2)
        assert col.delta == 2 and len(col.classes) == 2
        assert coloring_is_valid(_complete_bipartite(2, 2), col)

    def test_1x3_singletons(self):
        col = complete_bipartite_matchings(1, 3)
        assert col.delta == 3
        assert [len(c) for c in col.classes] == [1, 1, 1]

    def test_2x3_partition(self):
        col = complete_bipartite_matchings(2, 3)
        assert col.delta == 3 and all(len(c) == 2 for c in col.classes)
        assert coloring_is_valid(_complete_bipartite(2, 3), col)

    def test_agrees_with_general_routine(self):
        # both are valid colorings of K(a, b); validity is the shared contract
        for a, b in ((1, 1), (2, 4), (3, 3), (4, 5)):
            g = _complete_bipartite(a, b)
            fast = complete_bipartite_matchings(a, b)
            general = bipartite_edge_coloring(g)
            assert coloring_is_valid(g, fast)
            assert coloring_is_valid(g, general)
            assert fast.delta == general.delta == b

    def test_negative_side_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            complete_bipartite_matchings(-1, 2)

    def test_zero_sides(self):
        assert complete_bipartite_matchings(0, 3).delta == 0
        assert complete_bipartite_matchings(0, 0).classes == ()

    def test_order_enforced(self):
        with pytest.raises(ValueError):
            complete_bipartite_matchings(3, 2)

    @pytest.mark.parametrize("a, b", [(1.5, 2), (1, 2.0), ("1", 2), (True, 2), (0, None)])
    def test_side_sizes_must_be_ints(self, a, b):
        with pytest.raises(ValueError, match="side sizes must be ints"):
            complete_bipartite_matchings(a, b)


@pytest.mark.parametrize("G", [None, complete_trigraph(4)], ids=["None", "TriGraph"])
def test_refuses_anything_but_a_graph(G):
    # the guard the 2-graph helpers share with is_triangle_free
    with pytest.raises(ValueError, match=r"^expected a 2-graph \(Graph\), got "):
        bipartite_edge_coloring(G)
    with pytest.raises(ValueError, match=r"^expected a 2-graph \(Graph\), got "):
        coloring_is_valid(G, EdgeColoring(classes=(), delta=0))


def test_property_sweep_random_instances():
    rng = Random(4096)
    for _ in range(80):
        g = random_bipartite(rng, rng.randint(4, 40), rng.randint(1, 8))
        # relabelled, so the bipartition the routine finds interleaves the
        # vertex numbers
        perm = list(range(g.n))
        rng.shuffle(perm)
        g = Graph(g.n, [(perm[u], perm[w]) for u, w in g.edges()])
        col = bipartite_edge_coloring(g)
        assert coloring_is_valid(g, col)
