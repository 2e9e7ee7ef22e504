"""Pattern containment, covering reports, and the local obstruction."""

import gc
import re
from itertools import combinations
from random import Random

import pytest

from tricover import (
    Graph,
    Pattern,
    TriGraph,
    builtin_pattern,
    clique_profile,
    complete_trigraph,
    construct_h,
    construct_h4,
    covered_at,
    covered_by_count,
    covering_obstruction,
    covering_report,
    codegree_neighbourhoods,
    is_covered,
    is_triangle_free,
    link_graph,
)
from tricover import patterns

from _brute import (
    bf_anchor_steps,
    bf_class_plans,
    bf_covered,
    bf_covering_obstruction,
    bf_lexmin_embedding,
    bf_sample_above_threshold,
    bf_symmetry_classes,
    random_trigraph,
)

BOOK2 = Pattern(4, frozenset({(0, 1, 2), (0, 1, 3)}), "book2")
PATH = Pattern(5, frozenset({(0, 1, 2), (1, 2, 3), (2, 3, 4)}), "path")
BOOK3 = Pattern(5, frozenset({(0, 1, 2), (0, 1, 3), (0, 1, 4)}), "book3")
# turned onto itself by a rotation of {0, 1, 2} and {3, 4, 5} together
ROTATION = Pattern(6, frozenset({(0, 1, 3), (1, 2, 4), (0, 2, 5)}), "rotation")


class TestBuiltinPatterns:
    def test_edge_counts(self):
        assert (builtin_pattern("K4-").t, builtin_pattern("K4-").edge_count) == (4, 3)
        assert (builtin_pattern("K5-").t, builtin_pattern("K5-").edge_count) == (5, 9)
        assert (builtin_pattern("K4").t, builtin_pattern("K4").edge_count) == (4, 4)

    def test_removed_edge_is_012(self):
        assert (0, 1, 2) not in builtin_pattern("K6-").edges

    def test_cli_spellings(self):
        assert builtin_pattern("Kt:6") == builtin_pattern("K6")
        assert builtin_pattern("Kt-:5") == builtin_pattern("K5-")

    def test_unknown_names(self):
        for bad in ("K3", "K9", "K4--", "Q4", "k4-"):
            with pytest.raises(ValueError):
                builtin_pattern(bad)
        # a name that is not a str is unknown too, not an AttributeError
        for bad in (None, 4, ["K4-"]):
            with pytest.raises(ValueError, match="unknown pattern name"):
                builtin_pattern(bad)

    @pytest.mark.parametrize("bad", ["K04", "K04-", "K\u0664", "Kt:05", "Kt-:04", "K00", "K4\n", "K-5", "Kt:5-"])
    def test_t_is_spelled_as_in_the_file_formats(self, bad):
        # int() reads the digits of each of the first seven as 4, 5 or 0;
        # t follows the rule of the edge-list readers, and K<t>- is spelled
        # K<t>- or Kt-:<t>, never Kt:<t>-
        with pytest.raises(ValueError, match="unknown pattern name"):
            builtin_pattern(bad)

    @pytest.mark.parametrize("t, edges", [
        (3, [(0, 0, 1)]),
        (3, [(0, 1, 2.5)]),
        (3, [(0, 1, True)]),
        (3, [(1, 0, 2)]),
        (3, [(0, 1, 3)]),
        (3, [(0, 1)]),
        (3, [frozenset({0, 1, 2})]),
        (2.5, []),
        ("4", []),
        (True, []),
        (-1, []),
    ], ids=["repeated-vertex", "float-vertex", "bool-vertex", "unsorted", "out-of-range",
            "two-vertices", "set-edge", "float-t", "str-t", "bool-t", "negative-t"])
    def test_malformed_pattern_rejected(self, t, edges):
        # TriGraph's rule: sorted tuples of distinct in-range ints, t an int
        with pytest.raises(ValueError):
            Pattern(t, frozenset(edges), "p")

    @pytest.mark.parametrize("edges", [[(0, 1, 2)], [(0, 1, 2), (0, 1, 2)], None])
    def test_pattern_edges_must_be_a_frozenset(self, edges):
        # a list would make the pattern unhashable and could count an edge twice
        with pytest.raises(ValueError, match="frozenset"):
            Pattern(3, edges, "p")

    def test_clique_profile(self):
        assert clique_profile(builtin_pattern("K5-")) == (5, 9)
        assert clique_profile(builtin_pattern("K4")) == (4, 4)
        odd = Pattern(5, frozenset({(0, 1, 2), (2, 3, 4)}), "pair")
        assert clique_profile(odd) is None

    def test_clique_profile_refuses_a_non_pattern(self):
        with pytest.raises(ValueError, match="^pattern must be a Pattern, got None$"):
            clique_profile(None)


def _embedding_is_valid(H, F, emb):
    if len(set(emb)) != F.t:
        return False
    return all(tuple(sorted((emb[a], emb[b], emb[c]))) in H.edge_set for a, b, c in F.edges)


class TestCoveredAt:
    def test_pattern_in_itself(self):
        F = builtin_pattern("K4-")
        H = TriGraph(4, F.edges)
        for v in range(4):
            emb = covered_at(H, v, F)
            assert emb is not None and v in emb and _embedding_is_valid(H, F, emb)

    def test_pinned_vertex_never_covered_in_link_constructions(self):
        F = builtin_pattern("K4-")
        for m in (1, 2):
            assert covered_at(construct_h("H1", m), 0, F) is None

    def test_pinned_vertex_never_covered_in_three_part_construction(self):
        assert covered_at(construct_h4(7), 0, builtin_pattern("K5-")) is None

    def test_pattern_larger_than_graph(self):
        assert covered_at(complete_trigraph(4), 0, builtin_pattern("K5")) is None

    def test_bad_vertex(self):
        with pytest.raises(ValueError):
            covered_at(complete_trigraph(4), 4, builtin_pattern("K4"))

    def test_agrees_with_brute_force(self):
        rng = Random(2024)
        K4m, K5m = builtin_pattern("K4-"), builtin_pattern("K5-")
        for _ in range(25):
            H = random_trigraph(rng, rng.randint(4, 7), rng.choice((0.3, 0.5, 0.7)))
            for v in range(H.n):
                for F in (K4m, K5m):
                    emb = covered_at(H, v, F)
                    assert (emb is not None) == (bf_covered(H, v, F) is not None)
                    if emb is not None:
                        assert v in emb and _embedding_is_valid(H, F, emb)

    def test_witness_is_lexicographically_smallest(self):
        rng = Random(99)
        F = builtin_pattern("K4-")
        for _ in range(15):
            H = random_trigraph(rng, 6, 0.6)
            for v in range(H.n):
                assert covered_at(H, v, F) == bf_lexmin_embedding(H, v, F)
        F5 = builtin_pattern("K5-")
        for _ in range(4):
            H = random_trigraph(rng, 7, 0.7)
            for v in range(H.n):
                assert covered_at(H, v, F5) == bf_lexmin_embedding(H, v, F5)

    @pytest.mark.parametrize("F", [
        Pattern(5, frozenset({(1, 2, 4), (0, 3, 4), (2, 3, 4)}), "asymmetric"),
        Pattern(5, frozenset({(0, 1, 2), (1, 2, 3)}), "isolated vertex"),
        Pattern(4, frozenset({(0, 1, 2), (0, 1, 3)}), "book2"),
        Pattern(5, frozenset({(0, 1, 2), (2, 3, 4)}), "pair"),
    ], ids=lambda F: F.name)
    def test_witness_is_lexicographically_smallest_for_generic_patterns(self, F):
        rng = Random(F.name)
        for _ in range(8):
            H = random_trigraph(rng, rng.randint(5, 7), rng.choice((0.15, 0.3, 0.5)))
            report = covering_report(H, F)
            for v in range(H.n):
                emb = covered_at(H, v, F)
                assert emb == bf_lexmin_embedding(H, v, F) == report.witnesses.get(v)
                assert is_covered(H, v, F) == (emb is not None)

    @pytest.mark.parametrize("F, classes", [
        (builtin_pattern("K4-"), (0, 0, 0, 3)),
        (builtin_pattern("K5-"), (0, 0, 0, 3, 3)),
        (builtin_pattern("K5"), (0, 0, 0, 0, 0)),
        (BOOK2, (0, 0, 2, 2)),
        (ROTATION, (0, 1, 2, 3, 4, 5)),
    ], ids=["K4-", "K5-", "K5", "book2", "rotation"])
    def test_symmetry_classes(self, F, classes):
        assert patterns._symmetry_classes(F) == classes

    def test_rotation_has_an_automorphism_but_no_swap(self):
        # i -> i + 1 on {0, 1, 2} and on {3, 4, 5} maps the edges onto
        # themselves, yet no single swap of two positions does
        rot = (1, 2, 0, 4, 5, 3)
        assert {tuple(sorted(rot[w] for w in e)) for e in ROTATION.edges} == ROTATION.edges

    @pytest.mark.parametrize("F", [
        builtin_pattern("K4-"), builtin_pattern("K5-"), builtin_pattern("K5"), BOOK2, ROTATION,
    ], ids=lambda F: F.name)
    def test_symmetry_broken_search_agrees_with_brute_force(self, F):
        rng = Random(F.name)
        for _ in range(6):
            n = rng.randint(5, 7)
            H = random_trigraph(rng, n, rng.choice((0.3, 0.5, 0.8)))
            for v in range(n):
                assert covered_at(H, v, F) == bf_lexmin_embedding(H, v, F), (H.edges, v)
                assert is_covered(H, v, F) == (bf_covered(H, v, F) is not None), (H.edges, v)

    @pytest.mark.parametrize("F", [
        builtin_pattern("K8"),
        Pattern(9, frozenset(combinations(range(9), 3)), "K9"),
    ], ids=lambda F: F.name)
    def test_large_complete_patterns(self, F):
        # one symmetry class of t members: the lex-min copy through v is the
        # least t-set holding v, in increasing order
        H = complete_trigraph(F.t + 1)
        for v in range(H.n):
            least = tuple(range(F.t)) if v < F.t else tuple(range(F.t - 1)) + (v,)
            assert covered_at(H, v, F) == least
            assert is_covered(H, v, F)

    @pytest.mark.parametrize("v", [True, 1.0, -1, 99])
    def test_bad_vertex_in_every_detector(self, v):
        H, F = complete_trigraph(6), builtin_pattern("K4-")
        for detector in (covered_at, is_covered, covered_by_count):
            with pytest.raises(ValueError):
                detector(H, v, F)

    @pytest.mark.parametrize("F", ["K4-", None, ("K4-",)], ids=repr)
    def test_not_a_pattern_in_every_detector(self, F):
        # a name is not resolved, and no attribute lookup escapes
        H = complete_trigraph(6)
        message = f"^pattern must be a Pattern, got {re.escape(repr(F))}$"
        for detector in (covered_at, is_covered, covered_by_count):
            with pytest.raises(ValueError, match=message):
                detector(H, 0, F)
        with pytest.raises(ValueError, match=message):
            covering_report(H, F)

    def test_a_2_graph_in_every_detector(self):
        G, F = Graph(6, [(0, 1), (1, 2)]), builtin_pattern("K4-")
        for detector in (covered_at, is_covered, covered_by_count):
            with pytest.raises(ValueError, match="^expected a 3-graph"):
                detector(G, 0, F)
            # the graph is checked before the vertex reads its size
            with pytest.raises(ValueError, match=r"^expected a 3-graph \(TriGraph\), got NoneType$"):
                detector(None, 0, F)
        with pytest.raises(ValueError, match="^expected a 3-graph"):
            covering_report(G, F)

    @pytest.mark.parametrize("F", [builtin_pattern("K4-"), builtin_pattern("K5-"), BOOK2],
                             ids=lambda F: F.name)
    def test_given_table_gives_the_same_answer(self, F):
        # the claim checks pass H's own table; it must change nothing
        rng = Random(34)
        for n in range(1, 11):
            for p in (0.2, 0.5, 0.8):
                H = random_trigraph(rng, n, p)
                bits = codegree_neighbourhoods(H)
                for v in range(n):
                    assert covered_at(H, v, F, bits=bits) == covered_at(H, v, F), (H.edges, v)

    def test_search_leaves_no_reference_cycles(self):
        K5m = builtin_pattern("K5-")
        gc.disable()
        try:
            gc.collect()
            assert covering_report(construct_h4(20), K5m).uncovered == (0,)
            assert covered_at(construct_h4(20), 0, K5m) is None
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_monotone_under_edge_addition(self):
        rng = Random(41)
        F = builtin_pattern("K4-")
        for _ in range(10):
            H = random_trigraph(rng, 7, 0.3)
            covered_before = {v for v in range(7) if is_covered(H, v, F)}
            extra = [t for t in combinations(range(7), 3) if t not in H.edge_set]
            rng.shuffle(extra)
            H2 = TriGraph(7, list(H.edges) + extra[:4])
            covered_after = {v for v in range(7) if is_covered(H2, v, F)}
            assert covered_before <= covered_after


class TestAnchorPlans:
    """``_anchor_plans`` builds every anchor's plan from one sorted edge list
    and tests swaps on edge bitmasks; ``bf_anchor_steps`` rebuilds each
    anchor's plan from sorted tuples, as the embedder first did."""

    @staticmethod
    def agree(F):
        assert patterns._symmetry_classes(F) == bf_symmetry_classes(F)
        assert patterns._anchor_plans(F) == tuple(bf_anchor_steps(F, a) for a in range(F.t))

    @pytest.mark.parametrize("t", range(4, 9))
    def test_cliques_and_near_cliques(self, t):
        self.agree(builtin_pattern(f"K{t}"))
        self.agree(builtin_pattern(f"K{t}-"))

    @pytest.mark.parametrize("F", [BOOK2, PATH, ROTATION], ids=lambda F: F.name)
    def test_named_patterns(self, F):
        self.agree(F)

    def test_seeded_random_patterns(self):
        rng = Random(300)
        for _ in range(400):
            t = rng.randint(3, 8)
            p = rng.choice((0.15, 0.4, 0.7, 0.9))
            edges = frozenset(e for e in combinations(range(t), 3) if rng.random() < p)
            self.agree(Pattern(t, edges, "random"))


class TestClassPlans:
    """``_class_plans`` orders each class leader's steps most constrained
    first; ``bf_class_plans`` rebuilds them with sets of positions."""

    @staticmethod
    def agree(F):
        plans = patterns._class_plans(F)
        # the existence search never caps a position below v
        assert all(cap == -1 for _, steps in plans for *_, cap in steps)
        assert tuple(
            (leader, tuple(step[:3] for step in steps)) for leader, steps in plans
        ) == bf_class_plans(F)
        classes = bf_symmetry_classes(F)
        assert [leader for leader, _ in plans] == sorted(set(classes))
        for leader, steps in plans:
            assert sorted(q for q, *_ in steps) == [q for q in range(F.t) if q != leader]
            placed = {leader}
            closed = []
            for q, pairs, prev, _ in steps:
                assert all(a in placed and b in placed for a, b in pairs)
                closed += [tuple(sorted((a, b, q))) for a, b in pairs]
                # each class goes in index order, so the one bound a step
                # needs is its last placed class-mate, never the leader
                mates = [p for p in placed if p != leader and classes[p] == classes[q]]
                assert all(p < q for p in mates)
                assert prev == max(mates, default=-1)
                placed.add(q)
            # every pattern edge is closed by exactly one step
            assert sorted(closed) == sorted(F.edges)

    @pytest.mark.parametrize("t", range(4, 9))
    def test_cliques_and_near_cliques(self, t):
        self.agree(builtin_pattern(f"K{t}"))
        self.agree(builtin_pattern(f"K{t}-"))

    @pytest.mark.parametrize("F", [BOOK2, BOOK3, PATH, ROTATION], ids=lambda F: F.name)
    def test_named_patterns(self, F):
        self.agree(F)

    def test_seeded_random_patterns(self):
        rng = Random(301)
        for _ in range(400):
            t = rng.randint(1, 8)
            p = rng.choice((0.15, 0.4, 0.7, 0.9))
            edges = frozenset(e for e in combinations(range(t), 3) if rng.random() < p)
            self.agree(Pattern(t, edges, "random"))

    def test_near_clique_orders(self):
        # 1 and 2 close no edge with 0 alone (012 is the missing triple), so
        # the class {3, 4} goes first when v sits at 0
        def orders(name):
            return {leader: [q for q, *_ in steps] for leader, steps in patterns._class_plans(builtin_pattern(name))}

        assert orders("K5-") == {0: [3, 4, 1, 2], 3: [0, 1, 4, 2]}
        assert orders("K4-") == {0: [3, 1, 2], 3: [0, 1, 2]}


class TestExistenceSearch:
    """``_exists`` against the enumerating embedder at every vertex."""

    @staticmethod
    def agree(F, rng, densities, sizes):
        outcomes = set()
        for p in densities:
            H = random_trigraph(rng, rng.choice(sizes), p)
            bits = codegree_neighbourhoods(H)
            for v in range(H.n):
                found = patterns._exists(bits, H.n, v, F)
                assert found == (bf_covered(H, v, F) is not None), (H.edges, v)
                outcomes.add(found)
        return outcomes

    @pytest.mark.parametrize("F", [
        builtin_pattern("K4-"), builtin_pattern("K5-"), builtin_pattern("K4"), builtin_pattern("K5"),
        builtin_pattern("K6-"), BOOK2, BOOK3, PATH, ROTATION,
    ], ids=lambda F: F.name)
    def test_named_patterns(self, F):
        sizes = range(6, 11) if F.t < 6 else range(6, 9)
        densities = (0.05, 0.15, 0.3, 0.5, 0.8, 0.95) * 2
        assert self.agree(F, Random(F.name), densities, sizes) == {False, True}

    def test_seeded_random_patterns(self):
        rng = Random(302)
        outcomes = set()
        for _ in range(200):
            t = rng.randint(3, 5)
            p = rng.choice((0.15, 0.4, 0.7, 0.9))
            F = Pattern(t, frozenset(e for e in combinations(range(t), 3) if rng.random() < p), "random")
            outcomes |= self.agree(F, rng, [rng.choice((0.05, 0.15, 0.3, 0.5, 0.8))], range(6, 11))
        assert outcomes == {False, True}

    def test_dead_vertices_are_never_candidates(self):
        # a vertex outside every copy can be dropped without changing any
        # other vertex's answer, and dropping a covered one can change it
        rng = Random(303)
        K5m = builtin_pattern("K5-")
        for _ in range(20):
            H = random_trigraph(rng, rng.randint(8, 10), 0.45)
            bits = codegree_neighbourhoods(H)
            covered = [patterns._exists(bits, H.n, v, K5m) for v in range(H.n)]
            dead = sum(1 << v for v in range(H.n) if not covered[v])
            for v in range(H.n):
                if covered[v]:
                    assert patterns._exists(bits, H.n, v, K5m, dead)
        H = complete_trigraph(5)
        assert not patterns._exists(codegree_neighbourhoods(H), 5, 0, K5m, 1 << 4)

    def test_pattern_larger_than_host(self):
        H = complete_trigraph(4)
        assert not patterns._exists(codegree_neighbourhoods(H), 4, 0, builtin_pattern("K5"))

    def test_edgeless_and_single_vertex_patterns(self):
        H = TriGraph(3)
        bits = codegree_neighbourhoods(H)
        assert patterns._exists(bits, 3, 2, Pattern(3, frozenset(), "empty"))
        assert patterns._exists(bits, 3, 1, Pattern(1, frozenset(), "point"))
        assert not patterns._exists(bits, 3, 0, Pattern(4, frozenset(), "empty4"))


class TestCountingDetector:
    def test_cross_validates_with_embedder(self):
        rng = Random(7)
        K4m, K5m, K4, K5 = (builtin_pattern(s) for s in ("K4-", "K5-", "K4", "K5"))
        for _ in range(40):
            H = random_trigraph(rng, rng.randint(4, 8), rng.choice((0.3, 0.5, 0.8)))
            for F in (K4m, K5m, K4, K5):
                for v in range(H.n):
                    assert covered_by_count(H, v, F) == is_covered(H, v, F)

    def test_agrees_with_brute_force(self):
        # every vertex of each sample, so v comes first, between and last in
        # its link pairs' triples; at n = 9 some vertices lie in no K5-, K4
        # or K5
        rng = Random(2)
        patterns_ = [builtin_pattern(s) for s in ("K4-", "K5-", "K4", "K5")]
        outcomes = set()
        for n, threshold in ((9, 1), (10, 3), (11, 4), (12, 5)):
            H = bf_sample_above_threshold(n, threshold, rng)
            for F in patterns_:
                for v in range(n):
                    got = covered_by_count(H, v, F)
                    assert got == (bf_covered(H, v, F) is not None)
                    outcomes.add((F.name, got))
        assert outcomes >= {(name, got) for name in ("K5-", "K4", "K5") for got in (False, True)}

    def test_rejects_other_shapes(self):
        odd = Pattern(4, frozenset({(0, 1, 2)}), "one")
        with pytest.raises(ValueError):
            covered_by_count(complete_trigraph(4), 0, odd)


class TestCoveringReport:
    def test_complete_5_fully_covered(self):
        rep = covering_report(complete_trigraph(5), builtin_pattern("K5-"))
        assert rep.uncovered == () and rep.fully_covered
        assert set(rep.witnesses) == set(range(5))

    def test_h2_m1_x_uncovered(self):
        rep = covering_report(construct_h("H2", 1), builtin_pattern("K4-"))
        assert 0 in rep.uncovered

    def test_edgeless(self):
        rep = covering_report(TriGraph(6), builtin_pattern("K4-"))
        assert rep.uncovered == tuple(range(6)) and not rep.witnesses

    @pytest.mark.parametrize("t, witnesses", [
        (1, {0: (0,), 1: (1,), 2: (2,)}),
        (2, {0: (0, 1), 1: (0, 1), 2: (0, 2)}),
        (3, {0: (0, 1, 2), 1: (0, 1, 2), 2: (0, 1, 2)}),
    ])
    def test_edgeless_patterns(self, t, witnesses):
        # the one-vertex pattern's plans have no steps, and the other
        # patterns' steps close no edge
        H, F = TriGraph(3, [(0, 1, 2)]), Pattern(t, frozenset(), f"empty{t}")
        assert {v: covered_at(H, v, F) for v in range(3)} == witnesses
        rep = covering_report(H, F)
        assert rep.uncovered == () and rep.witnesses == witnesses

    def test_last_step_without_a_candidate(self):
        # the two isolated vertices are placed last, the second above the
        # first, so the last step finds no candidate whenever the first took
        # the highest free vertex: the embedder must then back up
        F = Pattern(5, frozenset({(0, 1, 2)}), "edge+2")
        rng = Random(292)
        hosts = [complete_trigraph(5)] + [random_trigraph(rng, rng.randint(5, 8), 0.3) for _ in range(6)]
        for H in hosts:
            brute = {v: bf_lexmin_embedding(H, v, F) for v in range(H.n)}
            assert {v: covered_at(H, v, F) for v in range(H.n)} == brute, H.edges
            assert covering_report(H, F).witnesses == {v: w for v, w in brute.items() if w is not None}, H.edges

    def test_dict_shape(self):
        rep = covering_report(complete_trigraph(4), builtin_pattern("K4"))
        doc = rep.to_dict()
        assert doc["covered_count"] == 4 and doc["uncovered"] == []
        assert set(doc["witnesses"]) == {"0", "1", "2", "3"}


def _shifted(H, shift):
    """H with every vertex u relabelled (u + shift) mod n."""
    return TriGraph(H.n, [tuple((u + shift) % H.n for u in e) for e in H.edges])


def _assert_report_is_per_vertex(H, F):
    """covering_report(H, F), checked against one unshared covered_at search
    per vertex, against the definition of a witness and, for K_t/K_t^-,
    against the counting detector."""
    report = covering_report(H, F)
    alone = {v: covered_at(H, v, F) for v in range(H.n)}
    assert report.witnesses == {v: w for v, w in alone.items() if w is not None}
    assert report.uncovered == tuple(v for v, w in alone.items() if w is None)
    for v, w in report.witnesses.items():
        assert v in w and _embedding_is_valid(H, F, w)
    if clique_profile(F) is not None:
        assert set(report.uncovered) == {v for v in range(H.n) if not covered_by_count(H, v, F)}
    return report


class TestSharedRefutations:
    """covering_report drops each vertex it finds uncovered from the candidates
    of every later search; the report must equal the unshared one."""

    @pytest.mark.parametrize("F", ["K4-", "K5-"])
    @pytest.mark.parametrize("family", ["H1", "H2", "H3"])
    def test_link_constructions_with_x_moved(self, family, F):
        F = builtin_pattern(F)
        for m in (1, 2):
            H = construct_h(family, m)
            for x in (0, H.n // 2, H.n - 1):
                report = _assert_report_is_per_vertex(_shifted(H, x), F)
                if F.name == "K4-":
                    assert x in report.uncovered

    @pytest.mark.parametrize("n", range(9, 17))
    def test_three_part_construction_with_x_moved(self, n):
        K5m = builtin_pattern("K5-")
        for x in (0, n // 2, n - 1):
            assert _assert_report_is_per_vertex(_shifted(construct_h4(n), x), K5m).uncovered == (x,)

    @pytest.mark.parametrize("F, p", [
        (builtin_pattern("K4-"), 0.1),
        (builtin_pattern("K5-"), 0.45),
        (Pattern(4, frozenset({(0, 1, 2), (0, 1, 3)}), "book2"), 0.05),
    ], ids=lambda x: getattr(x, "name", x))
    def test_random_graphs_with_several_uncovered_vertices(self, F, p):
        # densities chosen so that most graphs mix covered and uncovered
        # vertices; at 0.3, K4- and book2 cover every vertex and K5- none
        rng = Random(F.name)
        shared = 0
        for _ in range(10):
            H = random_trigraph(rng, rng.randint(10, 12), p)
            report = _assert_report_is_per_vertex(H, F)
            if report.uncovered and report.witnesses and report.uncovered[0] < max(report.witnesses):
                shared += 1
        assert shared >= 5

    def test_refutation_prunes_later_searches(self, monkeypatch):
        # the one step function serves refutations and witnesses alike
        H, K5m = construct_h4(16), builtin_pattern("K5-")
        calls = 0

        def counted(step):
            def call(*args):
                nonlocal calls
                calls += 1
                return step(*args)
            return call

        monkeypatch.setattr(patterns, "_complete", counted(patterns._complete))
        for v in range(H.n):
            covered_at(H, v, K5m)
        alone, calls = calls, 0
        covering_report(H, K5m)
        assert 0 < 2 * calls < alone

    def test_refuted_vertex_never_reaches_the_witness_search(self, monkeypatch):
        # x of H4 is refuted by the existence search alone, and later
        # searches never place it
        H, K5m = construct_h4(16), builtin_pattern("K5-")
        witnessed, asked = [], []
        lexmin, exists = patterns._lexmin_embedding, patterns._exists

        def spy_lexmin(bits, n, v, F, dead=0):
            witnessed.append((v, dead))
            return lexmin(bits, n, v, F, dead)

        def spy_exists(bits, n, v, F, dead=0):
            found = exists(bits, n, v, F, dead)
            asked.append((v, dead, found))
            return found

        monkeypatch.setattr(patterns, "_lexmin_embedding", spy_lexmin)
        monkeypatch.setattr(patterns, "_exists", spy_exists)
        assert covering_report(H, K5m).uncovered == (0,)
        # x first; then only vertices outside every witness so far ask
        assert asked[0] == (0, 0, False) and all(found for *_, found in asked[1:])
        assert len(asked) < H.n
        # every later search, of either kind, has x out of its candidates
        assert [v for v, _ in witnessed] == list(range(1, H.n))
        assert all(dead & 1 for _, dead, _ in asked[1:])
        assert all(dead & 1 for _, dead in witnessed)


class TestObstruction:
    def test_holds_on_link_constructions(self):
        for fam in ("H1", "H2", "H3"):
            for m in (1, 2):
                assert covering_obstruction(construct_h(fam, m), 0).holds

    def test_fails_on_complete_k4(self):
        res = covering_obstruction(complete_trigraph(4), 0)
        assert not res.holds and res.link_triangle == (1, 2, 3)

    def test_reports_bad_edge(self):
        # triangle-free link (path 1-2-3 through x) plus the edge {1,2,3}
        H = TriGraph(4, [(0, 1, 2), (0, 2, 3), (1, 2, 3)])
        res = covering_obstruction(H, 0)
        assert not res.holds and res.bad_edge == (1, 2, 3)

    def test_matches_brute_force_on_random_graphs(self):
        rng = Random(20)
        outcomes = set()
        for n in range(1, 13):
            for p in (0.02, 0.1, 0.25, 0.4, 0.6, 0.9):
                for _ in range(6):
                    H = random_trigraph(rng, n, p)
                    bits = codegree_neighbourhoods(H)
                    for x in range(n):
                        got = tuple(covering_obstruction(H, x))
                        assert got == bf_covering_obstruction(H, x), (H.edges, x)
                        # the claim checks pass H's own table
                        assert tuple(covering_obstruction(H, x, bits=bits)) == got
                        # the link triangle is the link graph's smallest one
                        link = link_graph(H, x)
                        tri = is_triangle_free(link.graph).witness
                        assert got[1] == (None if tri is None else tuple(map(link.to_host.__getitem__, tri)))
                        outcomes.add("holds" if got[0] else "triangle" if got[1] else "bad edge")
        assert outcomes == {"holds", "triangle", "bad edge"}

    @pytest.mark.parametrize("x", [-1, 4, True])
    def test_rejects_a_vertex_out_of_range(self, x):
        with pytest.raises(ValueError):
            covering_obstruction(complete_trigraph(4), x)

    def test_rejects_a_2_graph(self):
        with pytest.raises(ValueError, match="^expected a 3-graph"):
            covering_obstruction(Graph(4, [(0, 1), (1, 2), (0, 2)]), 0)
        with pytest.raises(ValueError, match=r"^expected a 3-graph \(TriGraph\), got NoneType$"):
            covering_obstruction(None, 0)

    def test_obstruction_implies_uncovered(self):
        F = builtin_pattern("K4-")
        for fam in ("H1", "H2", "H3"):
            for m in (1, 2, 3):
                H = construct_h(fam, m)
                assert covering_obstruction(H, 0).holds
                assert covered_at(H, 0, F) is None
