"""Core type and degree-query tests."""

import re
from itertools import combinations
from math import comb
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tricover import (
    Graph,
    TriGraph,
    codegree,
    codegree_neighbourhoods,
    complete_trigraph,
    construct_h,
    construct_h4,
    is_triangle_free,
    link_graph,
    min_codegree,
    pair_degree_table,
)
from tricover.hypergraphs import _cone, _delta2, _first_triangle, _sparse

from _brute import (
    bf_codegree,
    bf_cone_edges,
    bf_min_codegree,
    bf_sparse_triples,
    bf_triangle_free,
    random_trigraph,
)


class _SubInt(int):
    """An int subclass: a valid vertex, though not an exact int."""


def trigraphs(max_n=9):
    return st.integers(3, max_n).flatmap(
        lambda n: st.builds(
            lambda es: TriGraph(n, es),
            st.lists(
                st.sets(st.integers(0, n - 1), min_size=3, max_size=3).map(lambda s: tuple(sorted(s))),
                max_size=40,
            ),
        )
    )


class TestGraph:
    def test_adjacency_symmetric_irreflexive(self):
        g = Graph(4, [(0, 1), (1, 2)])
        assert g.has_edge(1, 0) and g.has_edge(0, 1)
        assert not g.has_edge(0, 2)
        with pytest.raises(ValueError):
            Graph(3, [(1, 1)])
        with pytest.raises(ValueError):
            Graph(3, [(0, 3)])

    @pytest.mark.parametrize("edge", [5, (0, 1, 2), (0,), None])
    def test_malformed_edge_is_value_error(self, edge):
        with pytest.raises(ValueError, match="not a 2-element vertex set"):
            Graph(3, [edge])

    @pytest.mark.parametrize("n", [2.5, True, "3", None])
    def test_non_int_count_is_value_error(self, n):
        with pytest.raises(ValueError, match="vertex count"):
            Graph(n)

    def test_iterator_edge(self):
        assert Graph(3, [iter((2, 0))]).edges() == [(0, 2)]

    @pytest.mark.parametrize("edge", [(1, 1), (0, "a"), (0, True), (0, 1.0)])
    def test_vertex_set_rule_shared_with_trigraph(self, edge):
        with pytest.raises(ValueError, match=r"edge \(.*\) is not a 2-element vertex set"):
            Graph(3, [edge])

    def test_out_of_range_names_the_least_bad_vertex(self):
        with pytest.raises(ValueError, match=r"vertex 3 out of range \[0, 3\)"):
            Graph(3, [(4, 3)])

    def test_edges_sorted(self):
        g = Graph(4, [(2, 3), (1, 0), (3, 1)])
        assert g.edges() == [(0, 1), (1, 3), (2, 3)]
        assert g.edge_count == 3

    def test_unequal_to_a_non_graph_and_repr(self):
        g = Graph(4, [(0, 1)])
        assert g != (4, [(0, 1)]) and g != TriGraph(4)
        assert repr(g) == "Graph(n=4, edges=1)"


class TestTriGraph:
    def test_canonical_edges_and_membership(self):
        h = TriGraph(5, [(2, 0, 1), (3, 4, 2)])
        assert h.edges == ((0, 1, 2), (2, 3, 4))
        assert h.has_edge(4, 2, 3)
        assert not h.has_edge(0, 1, 3)

    def test_unequal_to_a_non_graph_and_repr(self):
        h = TriGraph(4, [(0, 1, 2)])
        assert h != ((0, 1, 2),) and h != Graph(4)
        assert repr(h) == "TriGraph(n=4, edges=1)"
        assert repr(TriGraph(4, [(0, 1, 2), (1, 2, 3)], distinguished=0)) == "TriGraph(n=4, edges=2, x=0)"

    def test_rejects_bad_edges(self):
        with pytest.raises(ValueError):
            TriGraph(4, [(0, 1, 1)])
        with pytest.raises(ValueError):
            TriGraph(4, [(0, 1, 4)])

    @pytest.mark.parametrize(
        "edge", [(0, "a", 1), (0, None, 1), 5, (True, 0, 1), ("a", "b", "c"), (0, 1), (0, 1, 2, 3)]
    )
    def test_malformed_edge_is_value_error(self, edge):
        with pytest.raises(ValueError, match="not a 3-element vertex set"):
            TriGraph(3, [edge])

    def test_out_of_range_message(self):
        with pytest.raises(ValueError, match=r"vertex 4 out of range \[0, 4\)"):
            TriGraph(4, [(4, 0, 1)])
        with pytest.raises(ValueError, match=r"vertex -1 out of range"):
            TriGraph(4, [(0, -1, 2)])

    @pytest.mark.parametrize("n", [5.5, True, False, "5", None])
    def test_non_int_count_is_value_error(self, n):
        with pytest.raises(ValueError, match="vertex count"):
            TriGraph(n, [(0, 1, 4)] if n == 5.5 else [])

    @pytest.mark.parametrize("n", [1.0, "4", None, True], ids=repr)
    def test_complete_trigraph_refuses_a_non_int_count(self, n):
        with pytest.raises(ValueError, match="^vertex count .* is not an int$"):
            complete_trigraph(n)

    def test_iterator_edge(self):
        assert TriGraph(4, [iter((3, 0, 1))]).edges == ((0, 1, 3),)
        with pytest.raises(ValueError, match=r"edge \(2, 0, 2\) is not"):
            TriGraph(4, [iter((2, 0, 2))])

    @settings(max_examples=300, deadline=None)
    @given(
        st.tuples(
            *[
                st.one_of(
                    st.integers(-2, 6), st.integers(-2, 6).map(_SubInt), st.booleans(), st.none(), st.text(max_size=2)
                )
            ]
            * 3
        )
    )
    def test_accepts_exactly_distinct_in_range_ints(self, edge):
        n = 5
        valid = (
            all(isinstance(v, int) and not isinstance(v, bool) and 0 <= v < n for v in edge)
            and len(set(edge)) == 3
        )
        if valid:
            assert TriGraph(n, [edge]).edges == (tuple(sorted(edge)),)
        else:
            with pytest.raises(ValueError):
                TriGraph(n, [edge])

    def test_duplicate_edges_collapse(self):
        h = TriGraph(4, [(0, 1, 2), (2, 1, 0)])
        assert h.edge_count == 1

    def test_has_edge_before_edge_set_is_read(self):
        # the edge set is built on first use, by has_edge as by edge_set
        for edges in ([(0, 1, 2), (1, 3, 4)], [(4, 3, 1), (2, 0, 1), (1, 2, 0)]):
            h = TriGraph(5, edges)
            assert h.has_edge(3, 1, 4) and h.has_edge(1, 0, 2) and not h.has_edge(0, 1, 3)
            assert h.edge_set == frozenset(h.edges) == {(0, 1, 2), (1, 3, 4)}
            assert h.edge_set is h.edge_set

    @pytest.mark.parametrize("v", [2.0, "a", 99, -1, None, True], ids=repr)
    def test_has_edge_checks_each_vertex(self, v):
        # as Graph.has_edge does: a vertex that is not an int in [0, n) is
        # a ValueError, in any of the three places
        h = TriGraph(5, [(0, 1, 2)])
        for args in ((0, 1, v), (v, 0, 1), (0, v, 1)):
            with pytest.raises(ValueError, match=f"^vertex {re.escape(repr(v))} out of range"):
                h.has_edge(*args)

    def test_has_edge_with_a_repeated_vertex_is_false(self):
        h = complete_trigraph(4)
        assert not h.has_edge(0, 1, 1) and not h.has_edge(2, 2, 2)

    def test_same_edges_other_marks_are_unequal(self):
        edges = [(0, 1, 2), (1, 2, 3)]
        plain = TriGraph(4, edges)
        marked = [TriGraph(4, edges, distinguished=0), TriGraph(4, edges, distinguished=3),
                  TriGraph(4, edges, class_of={0: "a"}), TriGraph(4, edges, class_of={0: "b"})]
        for i, H in enumerate(marked):
            assert H != plain and plain != H
            assert all(H != other for other in marked[i + 1:])
            assert H == TriGraph(4, reversed(edges), distinguished=H.distinguished, class_of=H.class_of)


class TestFromMask:
    """``TriGraph.from_mask``: bit i for the i-th triple in ``combinations`` order."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 14).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, (1 << comb(n, 3)) - 1))))
    def test_equals_the_graph_of_its_set_bits(self, case):
        n, mask = case
        triples = [t for i, t in enumerate(combinations(range(n), 3)) if mask >> i & 1]
        H = TriGraph.from_mask(n, mask)
        assert H == TriGraph(n, triples) and H.edges == tuple(triples)
        assert H.edge_set == frozenset(triples) and hash(H) == hash(TriGraph(n, triples))

    def test_marks_ride_along(self):
        H = TriGraph.from_mask(4, 0b1001, distinguished=3, class_of={0: "x", 3: "y"})
        assert H == TriGraph(4, [(0, 1, 2), (1, 2, 3)], distinguished=3, class_of={0: "x", 3: "y"})

    def test_widest_and_empty_masks(self):
        for n in range(8):
            assert TriGraph.from_mask(n, (1 << comb(n, 3)) - 1) == complete_trigraph(n)
            assert TriGraph.from_mask(n, 0) == TriGraph(n)

    @pytest.mark.parametrize(
        "n, mask, message",
        [
            (4, -1, "not a set of the 4 triples"),
            (4, 1 << 4, "not a set of the 4 triples"),
            (2, 1, "not a set of the 0 triples"),
            (4, True, "is not an int"),
            (4, 1.0, "is not an int"),
            (4, "1", "is not an int"),
            (4, None, "is not an int"),
            (-1, 0, "vertex count must be non-negative"),
            (4.0, 0, "vertex count"),
        ],
        ids=repr,
    )
    def test_bad_count_or_mask_is_value_error(self, n, mask, message):
        with pytest.raises(ValueError, match=message):
            TriGraph.from_mask(n, mask)

    @pytest.mark.parametrize("x", [4, -1, 1.0, "0", True])
    def test_bad_distinguished_is_value_error(self, x):
        with pytest.raises(ValueError, match="out of range"):
            TriGraph.from_mask(4, 1, distinguished=x)

    @pytest.mark.parametrize("class_of", [{0: ""}, {0: "a b"}, {0: 5}, {4: "a"}, [1]], ids=repr)
    def test_bad_labels_are_value_error(self, class_of):
        with pytest.raises(ValueError):
            TriGraph.from_mask(4, 1, class_of=class_of)


def _adjacency(n, bits):
    """The adjacency masks of the graph on n vertices whose pair i, in
    ``combinations`` order, is an edge iff bit i of ``bits`` is set."""
    N = [0] * n
    for i, (x, y) in enumerate(combinations(range(n), 2)):
        if bits >> i & 1:
            N[x] |= 1 << y
            N[y] |= 1 << x
    return N


class TestSparseAndCone:
    """``_sparse(N, cap)``, the triples spanning at most ``cap`` edges of
    the graph N, and ``_cone(N, avoid)``, vertex 0 with the link N plus the
    triples of ``avoid`` shifted up by one, against the triple-by-triple
    references ``bf_sparse_triples`` and ``bf_cone_edges``."""

    @staticmethod
    def check(N, cap):
        n = len(N)
        triples = bf_sparse_triples(N, cap)
        assert TriGraph.from_mask(n, _sparse(N, cap)) == TriGraph(n, triples), (N, cap)
        cone = TriGraph.from_mask(n + 1, _cone(N, _sparse(N, cap)))
        assert cone == TriGraph(n + 1, bf_cone_edges(N, triples)), (N, cap)

    @pytest.mark.parametrize("cap", [1, 2])
    def test_every_graph_on_at_most_6_vertices(self, cap):
        for n in range(7):
            for bits in range(1 << comb(n, 2)):
                self.check(_adjacency(n, bits), cap)

    @pytest.mark.parametrize("cap", [-1, 0, 3])
    def test_other_caps_on_every_graph_on_at_most_5_vertices(self, cap):
        for n in range(6):
            for bits in range(1 << comb(n, 2)):
                self.check(_adjacency(n, bits), cap)

    @pytest.mark.parametrize("cap", [1, 2])
    def test_seeded_graphs_on_7_to_14_vertices(self, cap):
        rng = Random(714 + cap)
        for n in range(7, 15):
            for _ in range(40):
                # the meet of one to three random pair masks: dense to sparse
                bits = -1
                for _ in range(rng.randint(1, 3)):
                    bits &= rng.getrandbits(comb(n, 2))
                self.check(_adjacency(n, bits), cap)

    def test_cone_of_any_triple_mask(self):
        rng = Random(15)
        for n in range(15):
            triples = list(combinations(range(n), 3))
            for _ in range(20):
                N = _adjacency(n, rng.getrandbits(comb(n, 2)))
                avoid = rng.getrandbits(len(triples))
                chosen = [t for i, t in enumerate(triples) if avoid >> i & 1]
                assert TriGraph.from_mask(n + 1, _cone(N, avoid)) == TriGraph(
                    n + 1, bf_cone_edges(N, chosen)), (N, avoid)

    def test_up_to_two_vertices_the_mask_is_0(self):
        # no triple on 0-2 vertices; the cone on 1-2 vertices is 0 too
        for N in ([], [0], [0, 0], [2, 1]):
            for cap in (-1, 0, 1, 2, 3):
                assert _sparse(N, cap) == 0
        assert _cone([], 0) == _cone([0], 0) == 0


_BOTH_TYPES = pytest.mark.parametrize(
    "build", [lambda c: Graph(3, class_of=c), lambda c: TriGraph(3, class_of=c)], ids=["Graph", "TriGraph"]
)


class TestLabels:
    """The label rule both graph types run on ``class_of``."""

    @pytest.mark.parametrize("label", [5, None, "", "two words", "a\xa0b", "tab\t", "\n"], ids=repr)
    @_BOTH_TYPES
    def test_bad_label_refused_at_construction(self, build, label):
        # a label is written as one token, so no writer could spell these
        with pytest.raises(ValueError, match=f"^class label {re.escape(repr(label))} must be a non-empty"):
            build({0: "ok", 1: label})

    @pytest.mark.parametrize("class_of", [[1], "ab", {(0, "a")}], ids=["list", "str", "set"])
    @_BOTH_TYPES
    def test_labels_must_be_a_mapping(self, build, class_of):
        with pytest.raises(ValueError, match="^class labels must be a mapping, got "):
            build(class_of)


class TestEdgeForms:
    """A sorted, duplicate-free list of canonical tuples is kept as given;
    lists, unsorted vertex orders, repeats and any edge order go through
    the canonicalising fallback.  Both must build the same graph."""

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_trigraph_forms_agree(self, data):
        n = data.draw(st.integers(3, 9))
        canonical = sorted(data.draw(st.sets(st.sets(
            st.integers(0, n - 1), min_size=3, max_size=3).map(lambda s: tuple(sorted(s))), max_size=40)))
        ref = TriGraph(n, canonical)
        assert ref.edges == tuple(canonical)
        edges = []
        for e in canonical:
            form = data.draw(st.sampled_from(("tuple", "list", "permuted", "repeated")))
            if form == "list":
                edges.append(list(e))
            elif form == "permuted":
                edges.append(tuple(data.draw(st.permutations(e))))
            else:
                edges += [e] * (2 if form == "repeated" else 1)
        H = TriGraph(n, data.draw(st.permutations(edges)))
        assert H == ref and hash(H) == hash(ref)
        assert H.edges == ref.edges and H.edge_set == ref.edge_set
        assert H.edge_count == ref.edge_count

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_graph_forms_agree(self, data):
        n = data.draw(st.integers(2, 9))
        canonical = sorted(data.draw(st.sets(st.sets(
            st.integers(0, n - 1), min_size=2, max_size=2).map(lambda s: tuple(sorted(s))), max_size=30)))
        ref = Graph(n, canonical)
        assert ref.edges() == canonical
        edges = []
        for e in canonical:
            form = data.draw(st.sampled_from(("tuple", "list", "reversed", "repeated")))
            if form == "list":
                edges.append(list(e))
            elif form == "reversed":
                edges.append(e[::-1])
            else:
                edges += [e] * (2 if form == "repeated" else 1)
        G = Graph(n, data.draw(st.permutations(edges)))
        assert G == ref and hash(G) == hash(ref)
        assert G.edges() == ref.edges() and G.edge_count == ref.edge_count


class TestCodegree:
    def test_complete_on_5(self):
        H = complete_trigraph(5)
        assert all(codegree(H, a, b) == 3 for a, b in combinations(range(5), 2))

    def test_blowup_link_family_m1(self):
        # at m = 1 the link of x is 2-regular, so every pair through x has codegree 2
        H = construct_h("H1", 1)
        assert all(codegree(H, 0, a) == 2 for a in range(1, 6))

    def test_edgeless(self):
        H = TriGraph(6)
        assert codegree(H, 2, 5) == 0

    def test_errors(self):
        H = complete_trigraph(4)
        with pytest.raises(ValueError):
            codegree(H, 1, 1)
        with pytest.raises(ValueError):
            codegree(H, 0, 4)

    def test_against_brute_force(self):
        rng = Random(11)
        for _ in range(20):
            H = random_trigraph(rng, rng.randint(4, 8), 0.4)
            for a, b in combinations(range(H.n), 2):
                assert codegree(H, a, b) == bf_codegree(H, a, b)


class TestMinCodegree:
    def test_complete_k4(self):
        assert min_codegree(complete_trigraph(4)).min == 2

    def test_h2_m1(self):
        assert min_codegree(construct_h("H2", 1)).min == 3

    def test_h4_n7(self):
        assert min_codegree(construct_h4(7)).min == (2 * 7 - 2) // 3 == 4

    def test_complete_is_n_minus_2(self):
        for n in range(3, 9):
            assert min_codegree(complete_trigraph(n)).min == n - 2

    def test_histogram_totals(self):
        rng = Random(5)
        for _ in range(10):
            H = random_trigraph(rng, rng.randint(3, 8), 0.5)
            prof = min_codegree(H)
            assert sum(prof.histogram.values()) == H.n * (H.n - 1) // 2
            assert prof.min == min(k for k, c in prof.histogram.items() if c > 0)
            assert prof.min == bf_min_codegree(H)
            # codegree counts through has_edge, sharing no code with the masks
            degrees = [codegree(H, a, b) for a, b in combinations(range(H.n), 2)]
            assert prof.argmin_pairs == tuple(
                p for p, d in zip(combinations(range(H.n), 2), degrees) if d == prof.min
            )
            assert prof.histogram == {d: degrees.count(d) for d in set(degrees)}

    def test_too_small(self):
        with pytest.raises(ValueError):
            min_codegree(TriGraph(1))

    def test_a_2_graph_is_refused(self):
        # one guard in codegree_neighbourhoods serves every table reader
        G = Graph(4, [(0, 1), (1, 2)])
        for reader in (codegree_neighbourhoods, pair_degree_table, min_codegree):
            with pytest.raises(ValueError, match=r"^expected a 3-graph \(TriGraph\), got Graph$"):
                reader(G)
        with pytest.raises(ValueError, match="^expected a 3-graph"):
            codegree(G, 0, 1)
        # and a 3-graph where a 2-graph is expected
        with pytest.raises(ValueError, match=r"^expected a 2-graph \(Graph\), got TriGraph$"):
            is_triangle_free(complete_trigraph(4))


class TestDelta2:
    """The one delta2, read off the codegree masks, that the claim checks,
    min_codegree and the oracle's re-verification share."""

    @pytest.mark.parametrize("bits", [[], [[0]]])
    def test_needs_two_vertices(self, bits):
        with pytest.raises(ValueError, match="^minimum codegree needs at least 2 vertices$"):
            _delta2(bits)

    def test_complete_is_n_minus_2(self):
        for n in range(2, 9):
            assert _delta2(codegree_neighbourhoods(complete_trigraph(n))) == n - 2

    def test_against_brute_force(self):
        rng = Random(11)
        for _ in range(30):
            H = random_trigraph(rng, rng.randint(2, 9), rng.choice((0.3, 0.6, 0.9)))
            assert _delta2(codegree_neighbourhoods(H)) == bf_min_codegree(H)

    def test_only_pairs_above_the_diagonal_count(self):
        # a table row lists only the pairs a < b; the diagonal and the lower
        # triangle are never read
        assert _delta2([[0b111, 0b100], [0, 0b111]]) == 1


class TestLinkGraph:
    def test_complete_k4_link_is_triangle(self):
        link = link_graph(complete_trigraph(4), 0)
        assert link.graph.edges() == [(0, 1), (0, 2), (1, 2)]
        assert link.to_host == (1, 2, 3)

    def test_h1_m1_link_is_5_cycle(self):
        link = link_graph(construct_h("H1", 1), 0).graph
        assert link.n == 5
        assert all(len(link.adj[v]) == 2 for v in range(5))
        assert link.edge_count == 5

    def test_h3_m1_link_profile(self):
        # one vertex of degree 4 (the one labeled "1"), the other eight of degree 3
        H = construct_h("H3", 1)
        link = link_graph(H, 0)
        degs = sorted(len(link.graph.adj[v]) for v in range(link.graph.n))
        assert degs == [3] * 8 + [4]
        heavy = max(range(link.graph.n), key=lambda v: len(link.graph.adj[v]))
        assert H.class_of[link.to_host[heavy]] == "1"

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            link_graph(complete_trigraph(4), 4)

    def test_a_2_graph_is_refused(self):
        with pytest.raises(ValueError, match="^expected a 3-graph"):
            link_graph(Graph(4, [(0, 1), (1, 2)]), 0)

    @settings(max_examples=60, deadline=None)
    @given(trigraphs(max_n=8), st.data())
    def test_link_degree_equals_codegree(self, H, data):
        x = data.draw(st.integers(0, H.n - 1))
        link = link_graph(H, x)
        for i, host in enumerate(link.to_host):
            assert len(link.graph.adj[i]) == codegree(H, x, host)

    @settings(max_examples=60, deadline=None)
    @given(trigraphs(max_n=8))
    def test_codegree_sum_is_3e(self, H):
        table = pair_degree_table(H)
        assert sum(table.values()) == 3 * H.edge_count

    @settings(max_examples=60, deadline=None)
    @given(trigraphs(max_n=8))
    def test_neighbourhoods_list_every_third_vertex(self, H):
        bits = codegree_neighbourhoods(H)
        expected = [
            [
                sum(1 << c for c in range(H.n) if a != b and c not in (a, b) and H.has_edge(a, b, c))
                for b in range(H.n)
            ]
            for a in range(H.n)
        ]
        assert bits == expected

    def test_neighbourhoods_match_codegrees_on_seeded_graphs(self):
        # the table sets a < b entries only and mirrors them: both orders of
        # a pair must be one int whose popcount is the pair's codegree
        rng = Random(20)
        for n in list(range(1, 21)) * 2:
            H = random_trigraph(rng, n, rng.choice((0.05, 0.2, 0.5, 0.9)))
            bits = codegree_neighbourhoods(H)
            assert len(bits) == n and all(len(row) == n for row in bits)
            for a in range(n):
                assert bits[a][a] == 0
            for (a, b), d in pair_degree_table(H).items():
                assert bits[a][b] is bits[b][a]
                assert bits[a][b].bit_count() == d
                assert bits[a][b] == sum(1 << c for c in range(n) if tuple(sorted((a, b, c))) in H.edge_set)

    def test_pair_degree_table_matches_codegree_on_seeded_graphs(self):
        # codegree counts through has_edge, which shares no code with the
        # neighbourhood masks that pair_degree_table counts
        rng = Random(21)
        for n in range(1, 21):
            for p in (0.05, 0.2, 0.5, 0.9):
                H = random_trigraph(rng, n, p)
                table = pair_degree_table(H)
                assert list(table) == list(combinations(range(n), 2))
                for (a, b), d in table.items():
                    assert d == codegree(H, a, b)


class TestTriangleFree:
    def test_single_triangle(self):
        res = is_triangle_free(Graph(4, [(0, 1), (1, 2), (0, 2)]))
        assert not res.triangle_free and res.witness == (0, 1, 2)

    def test_cycle(self):
        assert is_triangle_free(Graph(5, [(i, (i + 1) % 5) for i in range(5)])).triangle_free

    def test_against_brute_force(self):
        rng = Random(3)
        sizes = [rng.randint(3, 12) for _ in range(40)] + [20, 40, 60, 60]
        for n in sizes:
            p = rng.choice((0.05, 0.15, 0.3))
            edges = [e for e in combinations(range(n), 2) if rng.random() < p]
            g = Graph(n, edges)
            res = is_triangle_free(g)
            assert res.triangle_free == bf_triangle_free(g)
            # the witness is the lexicographically first triangle
            first = next(
                (
                    (a, b, c) for a, b, c in combinations(range(n), 3)
                    if g.has_edge(a, b) and g.has_edge(a, c) and g.has_edge(b, c)
                ),
                None,
            )
            assert res.witness == first

    @pytest.mark.parametrize("G", [None, [[1], [0]], complete_trigraph(4)], ids=["None", "list", "TriGraph"])
    def test_refuses_anything_but_a_graph(self, G):
        with pytest.raises(ValueError, match=r"^expected a 2-graph \(Graph\), got "):
            is_triangle_free(G)


def _rows(n, edges):
    """Adjacency masks of the graph on n vertices with the given edges."""
    rows = [0] * n
    for u, v in edges:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return rows


class TestFirstTriangle:
    """The one smallest-triangle search, which is_triangle_free and the
    K4^- obstruction share."""

    def test_triangle(self):
        assert _first_triangle(_rows(3, [(0, 1), (1, 2), (0, 2)])) == (0, 1, 2)

    def test_no_vertices(self):
        assert _first_triangle([]) is None

    def test_independent(self):
        assert _first_triangle(_rows(5, [])) is None

    def test_5_cycle(self):
        assert _first_triangle(_rows(5, [(i, (i + 1) % 5) for i in range(5)])) is None

    def test_smallest_of_two(self):
        # triangles {1, 2, 3} and {0, 3, 4}: the one through 0 comes first,
        # though the other's largest vertex is the smaller
        rows = _rows(5, [(1, 2), (2, 3), (1, 3), (0, 3), (0, 4), (3, 4)])
        assert _first_triangle(rows) == (0, 3, 4)

    def test_against_brute_force(self):
        rng = Random(13)
        for _ in range(60):
            n = rng.randint(0, 10)
            edges = [e for e in combinations(range(n), 2) if rng.random() < rng.choice((0.1, 0.3, 0.5))]
            edge_set = set(edges)
            first = next(
                (
                    (a, b, c) for a, b, c in combinations(range(n), 3)
                    if {(a, b), (a, c), (b, c)} <= edge_set
                ),
                None,
            )
            assert _first_triangle(_rows(n, edges)) == first
