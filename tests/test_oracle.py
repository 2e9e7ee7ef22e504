"""Search oracle tests: exact thresholds, pruning soundness, sampling."""

import hashlib
import json
import os
import re
import subprocess
import sys
from itertools import combinations
from math import comb
from pathlib import Path
from random import Random

import pytest

import tricover
import tricover.oracle as oracle
from tricover import (
    Pattern,
    TriGraph,
    builtin_pattern,
    certify_upper_behavior,
    clique_profile,
    complete_trigraph,
    covered_at,
    covered_by_count,
    covering_report,
    exact_c2,
    is_covered,
    min_codegree,
    to_json_dict,
)
from tricover.oracle import (
    _Budget,
    _InnerSearch,
    _coin_flips,
    _covered_vertices,
    _index_tables,
    _sample_above_threshold,
    _tset_tables,
)

from _brute import (
    bf_certify_upper_behavior,
    bf_completion_tables,
    bf_decision_search,
    bf_exact_c2,
    bf_greedy_value,
    bf_is_adjacent_leader,
    bf_is_covered,
    bf_lexmin_links,
    bf_link_vector,
    bf_sample_above_threshold,
)


K4M = builtin_pattern("K4-")
K5M = builtin_pattern("K5-")
BOOK2 = Pattern(4, frozenset({(0, 1, 2), (0, 1, 3)}), "book2")
# its completion search backs up past included triples, undoing their
# codegree table updates
BOOK3 = Pattern(5, frozenset({(0, 1, 2), (0, 1, 3), (0, 1, 4)}), "book3")
# a tight path: its embedder reads codegree pairs in both host orders
PATH = Pattern(5, frozenset({(0, 1, 2), (1, 2, 3), (2, 3, 4)}), "path")
# one edge: its (t-1)-sets are single pairs and hold no triple
EDGE = Pattern(3, frozenset({(0, 1, 2)}), "edge")

# c2(n, F) for n = 6, 7, 8
EXACT_TABLE = {"K4-": (2, 2, 2), "K5-": (3, 4, 4), "K4": (2, 3, 4), "K5": (3, 4, 5)}


class TestExactValues:
    @pytest.mark.parametrize("n", [6, 7, 8])
    @pytest.mark.parametrize("name", sorted(EXACT_TABLE))
    def test_table(self, n, name):
        res = exact_c2(n, builtin_pattern(name))
        assert res.exhaustive and res.value == EXACT_TABLE[name][n - 6]

    @pytest.mark.parametrize(
        "n, name, expected",
        [
            (9, "K4-", 3), (9, "K5-", 5), (9, "K4", 4),
            (10, "K4-", 3), (10, "K5-", 6), (10, "K4", 5), (10, "K5", 6),
            (11, "K4-", 3), (11, "K5", 7), (13, "K4", 7),
        ],
    )
    def test_large_cells_are_exhaustive(self, n, name, expected):
        # K4 at n = 13 takes 2.6 M nodes without the codegree prune
        # exact_c2 re-verifies the witness before returning it
        res = exact_c2(n, builtin_pattern(name), allow_large=True, node_budget=200_000)
        assert res.exhaustive and res.value == expected

    def test_7_k4m_is_2(self):
        res = exact_c2(7, K4M)
        assert res.value == 2 and res.exhaustive

    def test_6_k4m_is_2(self):
        res = exact_c2(6, K4M)
        assert res.value == 2 and res.exhaustive

    def test_7_k5m_is_4(self):
        res = exact_c2(7, K5M)
        assert res.value == 4 and res.exhaustive

    def test_8_matches_threshold_formulas(self):
        assert exact_c2(8, K4M).value == 8 // 3
        assert exact_c2(8, K5M).value == (2 * 8 - 2) // 3

    def test_witness_is_independently_valid(self):
        res = exact_c2(7, K5M)
        assert min_codegree(res.witness).min == res.value
        assert 0 in covering_report(res.witness, K5M).uncovered


class TestPruningSoundness:
    @pytest.mark.parametrize("n", [4, 5])
    @pytest.mark.parametrize("name", ["K4", "K4-", "K5", "K5-"])
    def test_matches_naive_enumeration(self, n, name):
        pattern = builtin_pattern(name)
        if n < pattern.t:
            pytest.skip("pattern larger than the host")
        pruned = exact_c2(n, pattern)
        assert pruned.exhaustive and pruned.value == bf_exact_c2(n, pattern)

    def test_generic_pattern_path(self):
        # not complete or near-complete, so the search must fall back on the
        # embedder for its covering checks
        for F, n in ((BOOK2, 4), (BOOK2, 5), (BOOK3, 5)):
            assert clique_profile(F) is None
            pruned = exact_c2(n, F)
            assert pruned.exhaustive and pruned.value == bf_exact_c2(n, F)

    def test_pinned_vertex_reduction_is_lossless(self):
        # maximizing over "vertex 0 uncovered" equals maximizing over "some
        # vertex uncovered", by relabeling; verify computationally
        for n, name in ((4, "K4-"), (5, "K4-"), (5, "K5-")):
            pattern = builtin_pattern(name)
            triples = list(combinations(range(n), 3))
            best_any = -1
            for mask in range(1 << len(triples)):
                H = TriGraph(n, [triples[i] for i in range(len(triples)) if mask >> i & 1])
                if all(is_covered(H, v, pattern) for v in range(n)):
                    continue
                best_any = max(best_any, min_codegree(H).min)
            assert exact_c2(n, pattern).value == best_any


class TestDeterminism:
    def test_repeat_runs_identical(self):
        a = exact_c2(7, K5M)
        b = exact_c2(7, K5M)
        assert a.value == b.value
        assert a.nodes_explored == b.nodes_explored
        assert a.witness == b.witness


class TestBudgets:
    def test_node_budget_marks_non_exhaustive(self):
        res = exact_c2(7, K5M, node_budget=50)
        assert not res.exhaustive
        if res.witness is not None:
            # any reported value is a verified lower bound
            assert min_codegree(res.witness).min == res.value
            assert 0 in covering_report(res.witness, K5M).uncovered

    def test_hard_cap(self):
        with pytest.raises(ValueError):
            exact_c2(11, K4M)
        with pytest.raises(ValueError):
            exact_c2(11, K4M, allow_large=True)  # budget required

    def test_beyond_cap_with_budget(self):
        # the whole search takes 1 376 nodes
        res = exact_c2(11, K4M, allow_large=True, node_budget=100)
        assert not res.exhaustive
        assert res.value <= 3  # cannot exceed the true threshold

    @staticmethod
    def deep_witness(n, name, budget):
        # the budget, not the depth, ends the search, with a witness
        F = builtin_pattern(name)
        res = exact_c2(n, F, allow_large=True, node_budget=budget)
        assert not res.exhaustive and res.nodes_explored == budget + 1
        assert res.witness is not None and res.value >= 0
        assert min_codegree(res.witness).min == res.value
        assert covered_at(res.witness, 0, F) is None
        return res.value

    def test_too_deep_search_ends_non_exhaustive(self):
        # 171 link pairs and 969 triples, deeper than the interpreter's
        # recursion limit
        self.deep_witness(20, "K5", 5000)

    def test_too_deep_link_search_ends_non_exhaustive(self):
        # the link search alone decides 1 176 pairs
        assert self.deep_witness(50, "K4-", 20000) <= 50 // 3

    def test_preconditions(self):
        with pytest.raises(ValueError):
            exact_c2(4, K5M)
        # a name is not resolved here, and no attribute lookup escapes
        for bad in ("K4-", None):
            with pytest.raises(ValueError, match=f"^pattern must be a Pattern, got {bad!r}$"):
                exact_c2(6, bad)

    @pytest.mark.parametrize("n", [7.5, "7", True], ids=repr)
    def test_malformed_n_rejected(self, n):
        with pytest.raises(ValueError):
            exact_c2(n, K4M)

    @pytest.mark.parametrize(
        "budget",
        [
            {"time_budget": float("nan")}, {"time_budget": float("inf")},
            {"time_budget": float("-inf")}, {"time_budget": -1.0}, {"time_budget": True},
            {"node_budget": -1}, {"node_budget": 2.5}, {"node_budget": "100"},
            {"node_budget": True},
        ],
        ids=repr,
    )
    def test_malformed_budget_rejected(self, budget):
        # a NaN deadline never passes, so accepting it would allow an unbounded search
        with pytest.raises(ValueError, match="budget"):
            exact_c2(11, K4M, allow_large=True, **budget)

    @pytest.mark.parametrize("flag", ["no", 1, None], ids=repr)
    def test_allow_large_must_be_a_bool(self, flag):
        # a truthy "no" once opened the search past the hard cap
        with pytest.raises(ValueError, match=f"^allow_large must be a bool, got {flag!r}$"):
            exact_c2(11, K4M, allow_large=flag, node_budget=5)

    def test_zero_budgets_are_legal(self):
        res = exact_c2(11, K4M, allow_large=True, node_budget=0)
        assert not res.exhaustive and res.nodes_explored == 1 and res.witness is None
        # the clock is read every 1 024 nodes, and this search takes 1 376
        assert exact_c2(11, K4M, allow_large=True, node_budget=10_000).nodes_explored > 1024
        assert not exact_c2(11, K4M, allow_large=True, time_budget=0).exhaustive


# far more nodes than any cell below takes: a budget that never ends the
# search but keeps the climb from level 0
UNREACHED = 10**12
START_CELLS = [(n, name) for n in range(5, 11) for name in ("K4-", "K5-", "K4", "K5")] + [
    (n, name) for n in range(5, 9) for name in ("book2", "book3", "path")
]


def _pattern(name):
    return {"book2": BOOK2, "book3": BOOK3, "path": PATH, "edge": EDGE}.get(name) or builtin_pattern(name)


def _link_covers(n, F, link):
    """Whether the link of vertex 0, as host pairs, puts vertex 0 in a copy
    of F by itself, by the brute-force embedder."""
    return bf_is_covered(TriGraph(n, [(0, a, b) for a, b in link]), 0, F)


def _answer(res):
    return res.value, res.exhaustive, res.witness


class TestStartLevel:
    """Without a budget the search starts at the paper's lower bound; with
    one it climbs from level 0.  Neither the start nor the schedule changes
    the value, the witness or ``exhaustive``."""

    @pytest.mark.parametrize("n, name", START_CELLS)
    def test_jump_matches_the_climb(self, n, name):
        F = _pattern(name)
        res = exact_c2(n, F)
        assert res.exhaustive and _answer(res) == _answer(exact_c2(n, F, node_budget=UNREACHED))

    def test_bound_keyed_on_the_clique_profile(self):
        renamed = Pattern(4, K4M.edges, "renamed")
        for n in range(5, 12):
            assert oracle._start_level(n, renamed) == oracle._start_level(n, K4M) == n // 3
            assert oracle._start_level(n, builtin_pattern("K4")) == n // 3
            for name in ("K5-", "K5"):
                assert oracle._start_level(n, builtin_pattern(name)) == (2 * n - 2) // 3
            for F in (BOOK2, BOOK3, PATH, EDGE, builtin_pattern("K6-")):
                assert oracle._start_level(n, F) == 0

    @staticmethod
    def spy_levels(monkeypatch):
        levels = []
        search_level = _InnerSearch.search_level

        def spying(self, v, budget):
            levels.append(v)
            return search_level(self, v, budget)

        monkeypatch.setattr(_InnerSearch, "search_level", spying)
        return levels

    @pytest.mark.parametrize("n, name", [
        (8, "K5-"), (7, "K5-"), (9, "K4-"), (8, "K4"), (7, "K5"), (10, "K5"), (7, "book2"),
    ])
    @pytest.mark.parametrize("shift", ["+1", "+3", "n-1", "0"])
    def test_wrong_start_keeps_the_answer(self, n, name, shift, monkeypatch):
        F = _pattern(name)
        expected = exact_c2(n, F)
        start = {"+1": expected.value + 1, "+3": expected.value + 3, "n-1": n - 1, "0": 0}[shift]
        monkeypatch.setattr(oracle, "_start_level", lambda n, pattern: start)
        levels = self.spy_levels(monkeypatch)
        assert _answer(exact_c2(n, F)) == _answer(expected)
        # a refuted start is searched once, then the climb from 0 stops at
        # the refutation of value + 1 or just below the start
        if start > expected.value:
            assert levels[0] == start and levels[1] == 0
            assert max(levels[1:]) == min(expected.value + 1, start - 1)

    def test_levels_visited(self, monkeypatch):
        # c2(8, K5-) = 4 = floor(14/3): one witness level, one refutation
        levels = self.spy_levels(monkeypatch)
        assert exact_c2(8, K5M).value == 4
        assert levels == [4, 5]
        levels.clear()
        assert exact_c2(8, K5M, node_budget=UNREACHED).value == 4
        assert levels == [0, 1, 2, 3, 4, 5]
        levels.clear()
        # a start above the value: one refuted level, then the climb below it
        monkeypatch.setattr(oracle, "_start_level", lambda n, pattern: 5)
        assert exact_c2(8, K5M).value == 4
        assert levels == [5, 0, 1, 2, 3, 4]

    def test_budgeted_runs_keep_climbing(self):
        # a search starting at floor(38/3) = 12 would run out of its 20 000
        # nodes before a witness and report -1; the climb reaches 11
        res = exact_c2(20, K5M, allow_large=True, node_budget=20_000)
        assert not res.exhaustive and res.value == 11
        assert res.witness is not None and min_codegree(res.witness).min == 11
        # the whole climb, node for node: K4- at n = 11 takes 1 376 nodes
        res = exact_c2(11, K4M, allow_large=True, node_budget=UNREACHED)
        assert (res.value, res.exhaustive, res.nodes_explored) == (3, True, 1376)


class TestClosedFormStep:
    """For K4 and K4- the leaf is completed in closed form (``leaf_value``,
    ``leaf_witness``).  Two references check it: ``bf_greedy_value``, the
    greedy completion that adds every allowed triple, and
    ``bf_decision_search``, the completion search with forced exclusion
    from the root.  The references agree on every link and level; the
    closed form matches both on the links the link DFS can yield, which are
    all links for K4 and the triangle-free ones for K4-."""

    @staticmethod
    def link_of(inner, bits):
        """Local adjacency masks and host link pairs of a pair-index mask."""
        N = [0] * inner.nv
        link = []
        for j, (x, y) in enumerate(inner.pairs):
            if (bits >> j) & 1:
                N[x] |= 1 << y
                N[y] |= 1 << x
                link.append((x + 1, y + 1))
        return N, link

    @classmethod
    def references_agree(cls, inner, F, bits):
        N, link = cls.link_of(inner, bits)
        greedy = bf_greedy_value(inner.n, F, link)
        for v in range(inner.n - 1):
            found = bf_decision_search(inner.n, F, N, v, _Budget(None, None)) is not None
            assert (greedy is not None and greedy[0] >= v) == found, (bits, v)
        return N, greedy

    @classmethod
    def closed_form_agrees(cls, inner, F, bits):
        N, greedy = cls.references_agree(inner, F, bits)
        assert greedy is not None, bits
        value, edges = greedy
        for v in range(inner.n - 1):
            got = inner.leaf_value(N, v)
            assert got == value if value >= v else got < v, (bits, v)
        assert TriGraph(inner.n, inner.leaf_witness(N)) == TriGraph(inner.n, edges)

    @classmethod
    def yieldable(cls, inner, F, bits):
        if F.name == "K4":
            return True
        N, _ = cls.link_of(inner, bits)
        return not any(N[x] & N[y] for x, y in inner.pairs if (N[x] >> y) & 1)

    @pytest.mark.parametrize("name, built", [("K4-", 0), ("K4", 0), ("K5-", 1), ("K5", 1)])
    def test_completion_tables_only_where_the_search_runs(self, name, built, monkeypatch):
        calls = []
        tables = _InnerSearch._completion_tables

        def counting(self):
            calls.append(self.n)
            return tables(self)

        monkeypatch.setattr(_InnerSearch, "_completion_tables", counting)
        res = exact_c2(8, builtin_pattern(name))
        assert res.exhaustive and calls == [8] * built

    @pytest.mark.parametrize("name", ["K4", "K4-"])
    def test_every_link_at_6(self, name):
        F = builtin_pattern(name)
        inner = _InnerSearch(6, F)
        for bits in range(1 << len(inner.pairs)):
            if self.yieldable(inner, F, bits):
                self.closed_form_agrees(inner, F, bits)
            else:
                self.references_agree(inner, F, bits)

    @pytest.mark.parametrize("name", ["K4", "K4-"])
    def test_sampled_links_at_7(self, name):
        F = builtin_pattern(name)
        inner = _InnerSearch(7, F)
        rng = Random(7)
        for _ in range(1000):
            self.references_agree(inner, F, rng.getrandbits(len(inner.pairs)))

    @pytest.mark.parametrize("name", ["K4", "K4-"])
    def test_closed_form_on_sampled_links_at_7(self, name):
        F = builtin_pattern(name)
        inner = _InnerSearch(7, F)
        rng = Random(70)
        checked = 0
        while checked < 1000:
            bits = rng.getrandbits(len(inner.pairs))
            if self.yieldable(inner, F, bits):
                self.closed_form_agrees(inner, F, bits)
                checked += 1


class TestCodegreePrune:
    """For t = 4 the link DFS cuts an include once a link pair through its
    two ends has a ``leaf_value`` closed form below v (``link_cut``).  The
    cut must never reject a link whose completion reaches v: on every link
    the DFS can yield at n = 6 and on seeded ones at n = 7, with each link
    pair taken as the last include, it is checked against the greedy
    completion ``bf_greedy_value``."""

    @staticmethod
    def check(inner, F, bits):
        """Whether some pair cuts the link at the level above its value."""
        N, link = TestClosedFormStep.link_of(inner, bits)
        value = bf_greedy_value(inner.n, F, link)[0]
        ends = [(x, y) for x, y in inner.pairs if (N[x] >> y) & 1]
        for v in range(value + 1):
            for x, y in ends:
                assert not inner.link_cut(N, x, y, v), (bits, v, x, y)
        return any(inner.link_cut(N, x, y, value + 1) for x, y in ends)

    @pytest.mark.parametrize("name", ["K4", "K4-"])
    def test_every_link_at_6(self, name):
        F = builtin_pattern(name)
        inner = _InnerSearch(6, F)
        cuts = sum(
            self.check(inner, F, bits) for bits in range(1 << len(inner.pairs))
            if TestClosedFormStep.yieldable(inner, F, bits)
        )
        assert cuts > 0  # the prune is not vacuous

    @pytest.mark.parametrize("name", ["K4", "K4-"])
    def test_seeded_links_at_7(self, name):
        F = builtin_pattern(name)
        inner = _InnerSearch(7, F)
        rng = Random(707)
        checked = cuts = 0
        while checked < 300:
            # a sparser draw, so that triangle-free links come up for K4-
            bits = rng.getrandbits(len(inner.pairs)) & rng.getrandbits(len(inner.pairs))
            if TestClosedFormStep.yieldable(inner, F, bits):
                cuts += self.check(inner, F, bits)
                checked += 1
        assert cuts > 0

    @pytest.mark.parametrize("name", ["K4", "K4-"])
    def test_search_matches_every_link_at_6(self, name):
        # the best greedy completion over every labelled link, with neither
        # the lex-leader rule nor any prune; bf_exact_c2 gives the same value
        # but takes half a minute or more per pattern at n = 6
        F = builtin_pattern(name)
        inner = _InnerSearch(6, F)
        best = max(
            found[0] for bits in range(1 << len(inner.pairs))
            if (found := bf_greedy_value(6, F, TestClosedFormStep.link_of(inner, bits)[1]))
        )
        res = exact_c2(6, F)
        assert res.exhaustive and res.value == best


class TestLexLeaders:
    """The link DFS keeps only links L with L <= s(L) for every adjacent
    transposition s of link vertices.  At level 0 with K5 nothing else
    prunes, so the leaves it reaches are exactly those links, and they
    include the lex-min labelling of every isomorphism class."""

    @staticmethod
    def leaves(n, F=builtin_pattern("K5")):
        inner = _InnerSearch(n, F)
        found = []

        def record(N, v, budget):
            found.append(bf_link_vector(inner.nv, {p for p in inner.pairs if (N[p[0]] >> p[1]) & 1}))
            return None

        inner._complete = record
        assert inner.search_level(0, _Budget(None, None)) is None
        assert len(found) == len(set(found))
        return set(found)

    def test_class_minima_survive_at_6(self):
        assert bf_lexmin_links(5) <= self.leaves(6)

    @pytest.mark.parametrize("n, count", [(6, 46), (7, 325)])
    def test_leaves_are_the_adjacent_leaders(self, n, count):
        nv = n - 1
        P = nv * (nv - 1) // 2
        leaders = {
            vec for vec in (tuple((bits >> j) & 1 for j in range(P)) for bits in range(1 << P))
            if bf_is_adjacent_leader(nv, vec)
        }
        assert self.leaves(n) == leaders and len(leaders) == count


class TestCompletionTables:
    """The completion search reads its pair and triple indexes from
    ``_index_tables`` and its (t-1)-set triple masks from ``_tset_tables``,
    and derives the rest from them; together they equal the tables that
    ``bf_completion_tables`` builds directly, entry for entry."""

    @staticmethod
    def tables(n, F):
        inner = _InnerSearch(n, F)
        _, _, pair_tri_mask, tri_pairs = _index_tables(n - 1)
        return tuple(map(list, (inner.pairs, inner.triples, tri_pairs, pair_tri_mask,
                                *inner._completion_tables())))

    @pytest.mark.parametrize(
        "F", [K5M, builtin_pattern("K5"), builtin_pattern("K6-"), BOOK2, BOOK3, PATH, EDGE],
        ids=lambda F: F.name,
    )
    def test_match_direct_construction(self, F):
        for n in range(F.t, 15):
            assert self.tables(n, F) == bf_completion_tables(n, F), n

    def test_match_direct_construction_at_20(self):
        # 3 876 sets of four link vertices, the completion search's widest
        # CI shape (``tricover oracle --n 20 --pattern K5-``)
        assert self.tables(20, K5M) == bf_completion_tables(20, K5M)


class TestIncrementalBound:
    """``decision_search`` against the rescanning search it replaced
    (``bf_decision_search``), which finds the sets to force by its own
    rescan: the same completion and the same node count on every link at
    n = 6 and on seeded links at n = 7, at every level.  For clique patterns
    the reference without forced exclusion is a second route: it finds a
    completion at exactly the same levels, so the best delta2 agrees too,
    though at a given level it may return another completion.  K4 and K4-
    links never reach this search (``leaf_value`` completes them), so it is
    not run on them; nor, for the other patterns, on links that cover
    vertex 0 by themselves, which the link search never hands over."""

    @staticmethod
    def handed_over(inner, F, bits):
        """Whether the link search may hand the link over to the completion:
        every link for a clique pattern, and otherwise one that leaves
        vertex 0 uncovered on its own."""
        if clique_profile(F) is not None:
            return True
        return not _link_covers(inner.n, F, TestClosedFormStep.link_of(inner, bits)[1])

    @staticmethod
    def agree(inner, F, bits):
        N = TestClosedFormStep.link_of(inner, bits)[0]
        for v in range(inner.n - 1):
            ours, ref = _Budget(None, None), _Budget(None, None)
            got = inner.decision_search(N, v, ours)
            edges = bf_decision_search(inner.n, F, N, v, ref)
            assert (got is None) == (edges is None), (bits, v)
            if got is not None:
                value, link, chosen = got
                assert inner.host_edges(link, chosen) == edges, (bits, v)
                # the delta2 read off the leaf's bounds is the witness's own
                assert value == min_codegree(TriGraph(inner.n, edges)).min >= v, (bits, v)
            assert ours.nodes == ref.nodes, (bits, v)
            if clique_profile(F) is not None:
                unforced = bf_decision_search(inner.n, F, N, v, _Budget(None, None), force=False)
                assert (unforced is None) == (got is None), (bits, v)
                if unforced is not None:
                    assert min_codegree(TriGraph(inner.n, unforced)).min >= v, (bits, v)

    @pytest.mark.parametrize(
        "F", [K5M, builtin_pattern("K5"), BOOK2, PATH, BOOK3], ids=lambda F: F.name,
    )
    def test_every_link_at_6(self, F):
        inner = _InnerSearch(6, F)
        for bits in range(1 << len(inner.pairs)):
            if self.handed_over(inner, F, bits):
                self.agree(inner, F, bits)

    @pytest.mark.parametrize(
        "F", [K5M, builtin_pattern("K5"), BOOK2, PATH, BOOK3], ids=lambda F: F.name,
    )
    def test_seeded_links_at_7(self, F):
        # a link leaving vertex 0 uncovered is sparse for the other patterns,
        # so they draw each link as the meet of three random ones
        inner = _InnerSearch(7, F)
        rng = Random(77)
        draws = 1 if clique_profile(F) is not None else 3
        checked = 0
        while checked < 500:
            bits = -1
            for _ in range(draws):
                bits &= rng.getrandbits(len(inner.pairs))
            if self.handed_over(inner, F, bits):
                self.agree(inner, F, bits)
                checked += 1

    @pytest.mark.parametrize("F", [K5M, builtin_pattern("K5")], ids=lambda F: F.name)
    def test_seeded_links_at_8(self, F):
        # 21 link pairs and 35 triples avoiding vertex 0
        inner = _InnerSearch(8, F)
        rng = Random(88)
        for _ in range(100):
            self.agree(inner, F, rng.getrandbits(len(inner.pairs)))

    def test_matching_links_at_7_book2(self):
        # two link pairs through one vertex already cover vertex 0 with a
        # book, so of the links above only matchings reach the completion
        inner = _InnerSearch(7, BOOK2)
        for bits in range(1 << len(inner.pairs)):
            N = TestClosedFormStep.link_of(inner, bits)[0]
            if max(m.bit_count() for m in N) <= 1:
                self.agree(inner, BOOK2, bits)


class TestOneWitness:
    """Levels hand back (delta2, link masks, chosen triples): a pruned search
    builds the edge list and the ``TriGraph`` of its last witness once, at
    the end, also when a budget ends the ascent, and re-verifies that one
    graph.  A witness that fails the re-verification is an error."""

    @pytest.mark.parametrize("n, name, budget", [
        (8, "K5", None), (8, "K4-", None), (7, "book2", None),
        (9, "K5-", 300), (12, "K4", 500),
    ])
    def test_one_edge_list_per_search(self, n, name, budget, monkeypatch):
        built = []
        host_edges = _InnerSearch.host_edges

        def counting(self, N, chosen):
            built.append(self.n)
            return host_edges(self, N, chosen)

        monkeypatch.setattr(_InnerSearch, "host_edges", counting)
        F = BOOK2 if name == "book2" else builtin_pattern(name)
        res = exact_c2(n, F, allow_large=True, node_budget=budget)
        assert res.exhaustive == (budget is None) and res.witness is not None
        assert built == [n]

    @staticmethod
    def fake_levels(monkeypatch, change):
        """Each level's result passed through change(inner, found)."""
        search_level = _InnerSearch.search_level

        def level(self, v, budget):
            found = search_level(self, v, budget)
            return None if found is None else change(self, found)

        monkeypatch.setattr(_InnerSearch, "search_level", level)

    @pytest.mark.parametrize("name", ["K5-", "K4"])
    def test_wrong_delta2_is_caught(self, name, monkeypatch):
        self.fake_levels(monkeypatch, lambda inner, found: (found[0] + 1, *found[1:]))
        with pytest.raises(AssertionError, match="search produced an inconsistent witness"):
            exact_c2(7, builtin_pattern(name))

    @pytest.mark.parametrize("name", ["K5-", "K4"])
    def test_covered_vertex_0_is_caught(self, name, monkeypatch):
        # the complete link and every triple: the complete 3-graph, whose
        # delta2 n - 2 is reported correctly, but vertex 0 is covered
        def complete(inner, found):
            full = (1 << inner.nv) - 1
            return inner.n - 2, [full ^ (1 << x) for x in range(inner.nv)], list(
                range(len(inner.triples))
            )

        self.fake_levels(monkeypatch, complete)
        with pytest.raises(AssertionError, match="search produced an inconsistent witness"):
            exact_c2(7, builtin_pattern(name))

    @pytest.mark.parametrize("name", ["K5", "K4-"])
    def test_one_trigraph_per_search(self, name, monkeypatch):
        built = []
        init = TriGraph.__init__

        def counting(self, *args, **kwargs):
            built.append(args[0])
            init(self, *args, **kwargs)

        monkeypatch.setattr(TriGraph, "__init__", counting)
        res = exact_c2(8, builtin_pattern(name))
        assert res.exhaustive and res.witness is not None
        assert built == [8]


    @pytest.mark.parametrize("n, value, nodes", [(6, 0, 43), (7, 1, 92), (8, 0, 101)])
    def test_book2_keeps_its_values_and_node_counts(self, n, value, nodes):
        res = exact_c2(n, BOOK2)
        assert (res.value, res.nodes_explored, res.exhaustive) == (value, nodes, True)

    @pytest.mark.parametrize("name, n, value, nodes", [
        ("K5-", 8, 4, 450), ("K5-", 9, 5, 763), ("K5-", 10, 6, 1_134),
        ("K5", 8, 5, 399), ("K5", 9, 6, 690), ("K5", 10, 6, 2_398),
        ("K5", 11, 7, 3_811), ("K5", 12, 8, 5_468),
        ("K6-", 8, 5, 450), ("K6-", 9, 6, 1_020), ("K6-", 10, 6, 83_568),
    ])
    def test_completion_search_keeps_its_values_and_node_counts(self, name, n, value, nodes):
        # a node budget that is never reached: the search climbs from level
        # 0, so these counts pin the completion search's branching order at
        # every level below the value, not only at the last two
        res = exact_c2(n, builtin_pattern(name), allow_large=True, node_budget=10**8)
        assert (res.value, res.nodes_explored, res.exhaustive) == (value, nodes, True)

    def test_non_clique_completion_builds_no_trigraph(self, monkeypatch):
        # the covering check follows one codegree table through the search
        built = []
        init = TriGraph.__init__

        def counting(self, *args, **kwargs):
            built.append(args[0])
            init(self, *args, **kwargs)

        monkeypatch.setattr(TriGraph, "__init__", counting)
        res = exact_c2(7, BOOK2)
        assert res.exhaustive and res.witness is not None
        assert built == [7]


# sha256 of the sorted-key JSON of each ``exact_c2(...).to_dict()`` without
# its elapsed_seconds, as recorded before the completion search lost its
# root pass (forced exclusion of the sets the link alone fills); the book2,
# book3 and path cells as recorded once the link search cut links covering
# vertex 0, which kept their values and witnesses and lowered their node
# counts
EXACT_DIGESTS = json.loads((Path(__file__).parent / "data" / "exact_c2_digests.json").read_text())


class TestRecordedDocuments:
    """Values, witnesses and node counts of unbudgeted cells at n = 5-10 and
    of four budgeted ones, against recorded digests."""

    @pytest.mark.parametrize(
        "case", EXACT_DIGESTS,
        ids=lambda c: f"{c['n']}-{c['pattern']}" + (f"-{c['node_budget']}" if c["node_budget"] else ""),
    )
    def test_document_matches_recorded_digest(self, case):
        budget = case["node_budget"]
        doc = exact_c2(case["n"], _pattern(case["pattern"]), node_budget=budget,
                       allow_large=budget is not None).to_dict()
        del doc["elapsed_seconds"]
        assert hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest() == case["sha256"]


class TestNoFullSetAtTheRoot:
    """``decision_search`` starts without forced exclusions: the link it is
    handed fills no (t-1)-set that holds a triple.  For K_t and K_t^- with
    t >= 5 a set holds at most C(t-1, 2) link pairs, below threshold - 1;
    the one-edge pattern's sets are pairs, and its link search includes no
    pair."""

    @pytest.mark.parametrize("name", [f"K{t}{m}" for t in range(5, 9) for m in ("-", "")])
    def test_link_pairs_of_a_set_stay_below_the_cap(self, name):
        F = builtin_pattern(name)
        assert comb(F.t - 1, 2) < clique_profile(F)[1] - 1

    def test_one_edge_links_are_empty(self, monkeypatch):
        links = []
        complete = _InnerSearch._complete

        def spying(self, N, v, budget):
            links.append(list(N))
            return complete(self, N, v, budget)

        monkeypatch.setattr(_InnerSearch, "_complete", spying)
        inner = _InnerSearch(6, EDGE)
        for v in range(inner.nv):
            inner.search_level(v, _Budget(None, None))
        assert links and not any(any(N) for N in links)


class TestLinkOnlyCovering:
    """``search_level`` is the one place that refuses a link covering
    vertex 0 by itself.  For a pattern that is not K_t or K_t^- it cuts an
    include once the link covers vertex 0, so at every level the completion
    search gets only links leaving vertex 0 uncovered, checked here by the
    brute-force embedder on the link alone."""

    @pytest.mark.parametrize("n", [6, 7])
    @pytest.mark.parametrize("name", ["book2", "book3", "path"])
    def test_no_handed_link_covers_vertex_0(self, n, name, monkeypatch):
        F = _pattern(name)
        links = []
        complete = _InnerSearch._complete

        def spying(self, N, v, budget):
            link = [(x + 1, y + 1) for x, y in self.pairs if (N[x] >> y) & 1]
            assert not _link_covers(n, F, link), (link, v)
            links.append(link)
            return complete(self, N, v, budget)

        monkeypatch.setattr(_InnerSearch, "_complete", spying)
        inner = _InnerSearch(n, F)
        for v in range(inner.nv):
            inner.search_level(v, _Budget(None, None))
        assert links

    @pytest.mark.parametrize("n", [6, 7])
    @pytest.mark.parametrize("name", ["book2", "book3", "path"])
    def test_level_0_leaves_are_the_uncovered_leaders(self, n, name):
        # no degree bound cuts at level 0, so the cut refuses exactly the
        # adjacent leaders that cover vertex 0, and no other link
        F = _pattern(name)
        pairs = list(combinations(range(n - 1), 2))
        leaders = {
            vec for vec in TestLexLeaders.leaves(n)
            if not _link_covers(n, F, [(a + 1, b + 1) for (a, b), bit in zip(pairs, vec) if bit])
        }
        assert TestLexLeaders.leaves(n, F) == leaders


class TestOneEdgePattern:
    """A single edge on 3 vertices: vertex 0 is uncovered iff its link is
    empty, so the value is 0 and the witness is every triple avoiding 0."""

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_value_and_witness(self, n):
        res = exact_c2(n, EDGE)
        assert res.exhaustive and res.value == 0
        assert res.witness == TriGraph(n, combinations(range(1, n), 3), distinguished=0)


# every (n, threshold) the sampler takes with 5 <= n <= 12
SAMPLER_SHAPES = [(n, threshold) for n in range(5, 13) for threshold in range(n - 2)]
# more draws at some shapes: the benchmark's, (12, 4) and (8, 4), and
# (12, 9), the top threshold, where every pair gets repaired
SAMPLER_DRAWS = {(12, 4): 200, (8, 4): 200, (5, 0): 50, (6, 1): 50, (7, 3): 50,
                 (9, 3): 50, (10, 3): 50, (11, 3): 50, (12, 9): 50}


class CountingRandom(Random):
    """A Random that counts its choice() calls and records each as
    (len(seq), the index picked)."""

    def __init__(self, seed):
        self.choices = 0
        self.picks = []
        super().__init__(seed)

    def choice(self, seq):
        self.choices += 1
        pick = super().choice(seq)
        self.picks.append((len(seq), seq.index(pick)))
        return pick


class TestCertifyUpperBehavior:
    def test_limited_to_n_12(self):
        with pytest.raises(ValueError, match=r"limited to n <= 12"):
            certify_upper_behavior(13, K4M, 3, 1)

    def test_no_counterexamples_above_threshold(self):
        rep = certify_upper_behavior(9, K4M, 3, 300, seed=5)
        assert rep.counterexample_count == 0
        rep = certify_upper_behavior(7, K5M, 4, 300, seed=5)
        assert rep.counterexample_count == 0

    def test_non_clique_pattern_above_threshold(self):
        # c2(7, book2) = 1; book2 has no counting detector, so every sample
        # goes through the embedder
        rep = certify_upper_behavior(7, BOOK2, 1, 200, seed=3)
        assert rep.samples == 200 and rep.counterexample_count == 0

    def test_below_threshold_witnesses_are_verified(self):
        # below c2(7, K5-) = 4 covering-free samples are common; each one
        # must itself be a valid lower-bound witness
        rep = certify_upper_behavior(7, K5M, 2, 200, seed=17)
        assert rep.counterexample_count > 0
        for H in rep.counterexamples:
            assert min_codegree(H).min > 2
            assert covering_report(H, K5M).uncovered

    def test_sample_respects_threshold(self):
        rng = Random(1)
        for _ in range(30):
            H = TriGraph.from_mask(7, _sample_above_threshold(7, 3, rng)[0])
            assert min_codegree(H).min > 3

    @pytest.mark.parametrize("count", [4, 10, 20, 56, 220])
    def test_coin_flips_match_random_calls(self, count):
        # the sampler's one draw must read the same keep bits as one
        # random() < 0.5 per triple and leave the generator where they leave it
        for seed in (0, 1, 7, 2016, 20160901):
            ours, ref = Random(seed), Random(seed)
            for _ in range(3):
                keep = _coin_flips(ours, count)
                assert [keep >> i & 1 for i in range(count)] == [
                    ref.random() < 0.5 for _ in range(count)
                ]
                assert keep >> count == 0
            assert ours.getstate() == ref.getstate()

    @pytest.mark.parametrize("n, threshold", SAMPLER_SHAPES)
    def test_every_shape_draws_as_the_reference_sampler(self, n, threshold):
        # each repair step's inline draw must pick what rng.choice picks from
        # the pair's absent third vertices, with the same getrandbits calls:
        # every shape up to n = 12 draws the same graphs, leaves the same
        # state and makes as many repair steps as the reference makes choices
        ours, ref = Random(n * 100 + threshold), CountingRandom(n * 100 + threshold)
        repairs = 0
        for _ in range(SAMPLER_DRAWS.get((n, threshold), 20)):
            inc, steps = _sample_above_threshold(n, threshold, ours)
            repairs += steps
            assert TriGraph.from_mask(n, inc) == bf_sample_above_threshold(n, threshold, ref)
        assert ours.getstate() == ref.getstate()
        assert repairs == ref.choices

    def test_shapes_reach_both_ends_of_the_select(self):
        # the shapes above hold k = 1 (one absent triple, at threshold n - 3)
        # and, for k >= 2, picks on both sides of the middle
        ends = set()
        for n, threshold in SAMPLER_SHAPES:
            ref = CountingRandom(n * 100 + threshold)
            for _ in range(20):
                bf_sample_above_threshold(n, threshold, ref)
            ends |= {"k = 1" if k == 1 else "low" if 2 * r < k else "high" for k, r in ref.picks}
        assert ends == {"k = 1", "low", "high"}

    @pytest.mark.parametrize("n", [6, 7, 8, 9])
    def test_top_threshold_gives_complete_graph(self, n):
        rng = Random(n)
        for _ in range(5):
            inc, _ = _sample_above_threshold(n, n - 3, rng)
            assert TriGraph.from_mask(n, inc) == complete_trigraph(n)

    @pytest.mark.parametrize(
        "n, name, threshold, hits",
        [
            (9, "K4-", 3, False),  # at c2(9, K4-) = 3
            (8, "K5-", 4, False),  # at c2(8, K5-) = 4
            (8, "K5-", 2, True),
            (9, "K4", 2, True),
            (9, "K5", 3, True),
            (7, "book2", 1, False),  # at c2(7, book2) = 1, through the embedder
        ],
    )
    def test_matches_reference_spot_check(self, n, name, threshold, hits):
        F = BOOK2 if name == "book2" else builtin_pattern(name)
        rep = certify_upper_behavior(n, F, threshold, 20, seed=3)
        ref = bf_certify_upper_behavior(n, F, threshold, 20, 3)
        assert rep.counterexamples == ref
        assert bool(ref) == hits

    def test_detector_disagreement_raises(self, monkeypatch):
        # a detector calling some vertex uncovered on samples that
        # covering_report finds covered is a fault, not a counterexample
        monkeypatch.setattr("tricover.oracle._covered_vertices", lambda *args: 0)
        with pytest.raises(AssertionError, match="disagree"):
            certify_upper_behavior(9, K4M, 3, 5, seed=1)
        # other patterns run the existence search on each sample's table
        monkeypatch.setattr("tricover.oracle._exists", lambda *args: False)
        with pytest.raises(AssertionError, match="disagree"):
            certify_upper_behavior(7, BOOK2, 1, 5, seed=1)

    @pytest.mark.parametrize("threshold", [0, 1])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_embedder_branch_matches_reference(self, threshold, seed):
        # book2 runs the existence search on one codegree table per sample
        rep = certify_upper_behavior(7, BOOK2, threshold, 30, seed=seed)
        ref = bf_certify_upper_behavior(7, BOOK2, threshold, 30, seed)
        assert rep.counterexamples == ref
        assert rep.to_dict() == {
            "n": 7, "pattern": "book2", "threshold": threshold, "samples": 30, "seed": seed,
            "repairs": rep.repairs, "counterexample_count": len(ref),
            "counterexamples": [to_json_dict(H) for H in ref],
        }

    @pytest.mark.parametrize("n, threshold, seed", [(7, 1, 3), (8, 2, 1), (9, 2, 6)])
    def test_embedder_branch_finds_counterexamples(self, n, threshold, seed):
        # K5 without 012 and 034 is no clique shape, so it takes the
        # existence search; here some samples leave vertices in no copy,
        # and at (8, 2, 1) and (9, 2, 6) some leave vertex 0 alone
        F = Pattern(5, frozenset(set(combinations(range(5), 3)) - {(0, 1, 2), (0, 3, 4)}), "K5--")
        rep = certify_upper_behavior(n, F, threshold, 20, seed=seed)
        ref = bf_certify_upper_behavior(n, F, threshold, 20, seed)
        assert ref and rep.counterexamples == ref

    def test_repairs_count_the_reference_sampler_choices(self):
        for n, F, threshold in ((12, K4M, 4), (8, K5M, 2), (7, BOOK2, 1)):
            rep = certify_upper_behavior(n, F, threshold, 30, seed=4)
            ref = CountingRandom(4)
            for _ in range(30):
                bf_sample_above_threshold(n, threshold, ref)
            assert rep.repairs == ref.choices > 0
            assert rep.to_dict()["repairs"] == rep.repairs

    def test_threshold_too_high(self):
        with pytest.raises(ValueError):
            certify_upper_behavior(7, K5M, 5, 10)

    def test_negative_samples_rejected(self):
        with pytest.raises(ValueError, match="samples"):
            certify_upper_behavior(9, K4M, 3, -5)

    def test_non_int_samples_rejected(self):
        with pytest.raises(ValueError, match="samples"):
            certify_upper_behavior(9, K4M, 3, 2.5)

    def test_bool_threshold_rejected(self):
        with pytest.raises(ValueError, match="threshold"):
            certify_upper_behavior(9, K4M, True, 10)

    @pytest.mark.parametrize("seed", [None, [1], True, 1.5, "1"], ids=repr)
    def test_malformed_seed_rejected(self, seed):
        # None would seed the samples from the clock, so two runs would
        # differ while the report gave one seed
        with pytest.raises(ValueError, match=f"^seed must be an int, got {re.escape(repr(seed))}$"):
            certify_upper_behavior(9, K4M, 3, 10, seed=seed)

    def test_too_few_vertices_for_pattern(self):
        with pytest.raises(ValueError, match="host the pattern"):
            certify_upper_behavior(4, K5M, 1, 10)

    def test_edgeless_pattern_rejected(self):
        with pytest.raises(ValueError, match="at least one edge"):
            certify_upper_behavior(6, Pattern(4, frozenset(), "empty"), 1, 10)
        with pytest.raises(ValueError, match="^pattern must be a Pattern, got 'K4-'$"):
            certify_upper_behavior(6, "K4-", 2, 1)

    def test_zero_samples_is_an_empty_report(self):
        rep = certify_upper_behavior(9, K4M, 3, 0)
        assert rep.samples == 0 and rep.counterexample_count == 0

    def test_report_dict(self):
        doc = certify_upper_behavior(9, K4M, 3, 50, seed=2).to_dict()
        assert doc["samples"] == 50 and doc["counterexample_count"] == 0


class TestMaskDetector:
    # (19, 4): the (t-1)-sets of K5- at n = 20, the largest the oracle's CI runs
    @pytest.mark.parametrize("n, t", [(4, 4), (8, 5), (9, 3), (12, 4), (12, 8), (19, 4)])
    def test_tables_list_tsets_in_combinations_order(self, n, t):
        index = {e: i for i, e in enumerate(combinations(range(n), 3))}
        assert _tset_tables(n, t) == tuple(
            (sum(1 << index[e] for e in combinations(S, 3)), sum(1 << v for v in S))
            for S in combinations(range(n), t)
        )

    @pytest.mark.parametrize("name", [f"K{t}{m}" for t in range(4, 9) for m in ("-", "")])
    def test_matches_counting_detector(self, name):
        # every threshold from 0 up, so most samples lie below c2; at n = t
        # only a (nearly) complete graph covers anything.  Samples at density
        # 1/2 cover every vertex with K4- even below c2, so each sample comes
        # with a mask of density 1/8 too
        F = builtin_pattern(name)
        t, threshold = clique_profile(F)
        rng = Random(t)
        outcomes = set()
        for n in (t, t + 2):
            tsets = _tset_tables(n, t)
            T = comb(n, 3)
            for low in range(n - 2):
                sample, _ = _sample_above_threshold(n, low, rng)
                sparse = rng.getrandbits(T) & rng.getrandbits(T) & rng.getrandbits(T)
                for inc in (sample, sparse):
                    H = TriGraph.from_mask(n, inc)
                    covered = _covered_vertices(inc, tsets, threshold, (1 << n) - 1)
                    for v in range(n):
                        got = bool(covered >> v & 1)
                        assert got == covered_by_count(H, v, F)
                        outcomes.add(got)
        assert outcomes == {False, True}


def test_package_import_leaves_numpy_unloaded():
    # the search needs no numpy, so neither does the package
    env = dict(os.environ, PYTHONPATH=str(Path(tricover.__file__).resolve().parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, tricover; print('numpy' in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=60, check=True,
    )
    assert out.stdout.strip() == "False"
