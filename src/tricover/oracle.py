"""Exhaustive computation of covering codegree thresholds at small n.

The threshold c2(n, F) is the maximum of delta2(H) over n-vertex 3-graphs H
in which some vertex lies in no copy of F.  Relabeling lets the search pin
vertex 0 as the uncovered one, dividing the space by n without loss.

Search strategy (branch and bound):

* The edges through vertex 0 form its link, a 2-graph on the other n-1
  vertices.  A level with target v enumerates labelled links by depth-first
  search over the link pairs, excluding a pair before including it, so
  sparse links come first.  Since the codegree of (0, a) equals the link
  degree of a, a partial link in which some vertex can no longer reach
  degree v is cut.  Only lex-leaders are enumerated (McKay, "Isomorph-free
  exhaustive generation", J. Algorithms 1998): read as its 0/1 vector in
  pair order, a link L must satisfy L <= s(L) for every transposition
  s = (u u+1) of link vertices.  Only excluding a pair can break one of
  these constraints, and it decides at most two of them, each in O(1) mask
  operations.  The first link with a completion is the lex-min of its
  isomorphism class, so it survives: values and witnesses are those of
  the full enumeration.
* Each complete link is then completed by the triples avoiding vertex 0.
  In general this is a depth-first search with an admissible per-pair
  bound (current codegree plus undecided triples) and an incremental
  covering check that forbids any decision making vertex 0 covered.  The
  bound is incremental too: it falls only for the three pairs of an
  excluded triple.  The search branches on the first undecided triple of
  the lowest pair of least bound, found by one scan over the pairs.
* A witness at level v has some delta2 = w >= v, so the next level asks
  for w + 1, and a refuted level v proves a witness of value v - 1
  optimal.  Without a budget the first level is the paper's lower bound
  for K_t / K_t^- (``_start_level``: floor(n/3) for t = 4, floor((2n-2)/3)
  for t = 5), so where the bound is the value the search runs one witness
  level and one refutation, not every level below.  If that first level
  is refuted, the climb restarts at v = 0 and stops just below it, so the
  value never rests on the bound; a wrong one costs only time.  A
  budgeted search climbs from v = 0: a budget may end it at any level, and
  it then reports the best bound reached, where a search that started at
  the bound would have no witness yet.  A level hands back (w, the link's
  adjacency masks, the mask of the chosen triples); only the last witness,
  also when a budget ends the ascent, becomes a ``TriGraph``: the cone over
  its link (``_cone``) of those triples or, at a t = 4 leaf, of the triples
  ``_sparse`` gives, the rule H1-H3 are built by.

For the complete and near-complete patterns K_t / K_t^- vertex 0 is covered
iff some (t-1)-set T satisfies "link pairs in T + edges in T >= threshold",
and the completion search keeps that count per (t-1)-set, starting from a
popcount of the link's pair mask.  A set one short of the threshold is
full: every undecided triple in it is excluded at once (forced exclusion)
after each include for the sets it fills, so the bounds fall as soon as a
triple is lost and an include needs no covering test.  The link alone
reaches the threshold only when it equals C(t-1, 2): for K4- a link
triangle, for the one-edge pattern (t = 3) any link pair.  The link search
never includes such a pair.  For t = 4 every candidate triple lies in one
(t-1)-set only, itself, so adding every triple that spans at most
threshold - 2 link pairs is an optimal completion, and the codegree of each
pair after it is a popcount on the link's adjacency masks (``leaf_value``),
so the completion search never runs for t = 4 and its tables are never
built.  Where it runs, the link alone fills no set holding a triple: a
(t-1)-set holds at most C(t-1, 2) link pairs, below threshold - 1 for
t >= 5, and the one-edge pattern's sets are pairs.  A link pair's closed
form only falls as the link grows, so the link DFS also cuts an include
once a link pair through its two ends has a value below v (``link_cut``,
O(nv) work): no other link pair changes.  Other patterns fall back on the
embedder's search for a copy through vertex 0: the link DFS cuts an include
once the link alone holds one (``_link_table``), and the completion search
runs it on one codegree table following each included and undone triple.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from random import Random
from typing import Optional, Sequence

from .fileio import to_json_dict
from .hypergraphs import TriGraph, _cone, _delta2, _is_int, _sparse, codegree_neighbourhoods
from .patterns import (
    Pattern,
    _check_pattern,
    _exists,
    clique_profile,
    covering_report,
)

DEFAULT_HARD_CAP = 10
DEFAULT_SEED = 20160901

# what a level hands back: (delta2, the link's adjacency masks, the triple
# mask of the chosen triples avoiding vertex 0, None for a t = 4 leaf)
_Found = tuple[int, list[int], Optional[int]]
# the completion tables of ``_InnerSearch``: set_pair_mask, set_tri_mask,
# tri_sets, tri_flips
_Tables = tuple[list[int], list[int], list[list[int]], list[tuple[tuple[int, int, int], ...]]]


class BudgetExhausted(Exception):
    """Internal: search ran out of nodes or time."""


class _Budget:
    __slots__ = ("node_limit", "deadline", "nodes")

    def __init__(self, node_limit: Optional[int], time_limit: Optional[float]):
        # spend() never sees a NaN deadline pass, so NaN would mean no limit
        if node_limit is not None and (not _is_int(node_limit) or node_limit < 0):
            raise ValueError(f"node_budget must be a non-negative int, got {node_limit!r}")
        if time_limit is not None and not (
            type(time_limit) in (int, float) and 0 <= time_limit < math.inf
        ):
            raise ValueError(f"time_budget must be finite and non-negative, got {time_limit!r}")
        self.node_limit = node_limit
        self.deadline = time.monotonic() + time_limit if time_limit is not None else None
        self.nodes = 0

    def spend(self) -> None:
        self.nodes += 1
        if self.node_limit is not None and self.nodes > self.node_limit:
            raise BudgetExhausted
        if self.deadline is not None and self.nodes % 1024 == 0:
            if time.monotonic() > self.deadline:
                raise BudgetExhausted


@dataclass
class SearchResult:
    """Outcome of a threshold search.

    ``value`` is exact when ``exhaustive`` is True; otherwise it is the best
    verified lower bound found before the budget ran out (-1 when no witness
    was found at all, with ``witness`` None).
    """

    n: int
    pattern: str
    value: int
    witness: Optional[TriGraph]
    exhaustive: bool
    nodes_explored: int
    elapsed: float

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "pattern": self.pattern,
            "value": self.value,
            "exhaustive": self.exhaustive,
            "nodes_explored": self.nodes_explored,
            "elapsed_seconds": round(self.elapsed, 6),
            "witness": to_json_dict(self.witness) if self.witness is not None else None,
        }


# ---------------------------------------------------------------------------
# One level: links of vertex 0, then the triples avoiding it
# ---------------------------------------------------------------------------

def _link_table(N: Sequence[int]) -> list[list[int]]:
    """``codegree_neighbourhoods`` of the link N of vertex 0 alone, save that a
    link pair's entry omits vertex 0, which the embedder pinning 0 never takes."""
    return [[0] + [m << 1 for m in N]] + [[m << 1] + [0] * len(N) for m in N]


class _InnerSearch:
    """Per-(n, pattern) tables for enumerating links of vertex 0 and
    completing each one.

    Link vertices carry local labels 0..nv-1 (host vertex = local + 1);
    ``triples`` are the candidate edges avoiding vertex 0.  A link is held
    as adjacency masks: bit y of ``N[x]`` is set iff xy is a link pair.
    """

    def __init__(self, n: int, F: Pattern):
        self.n = n
        self.nv = n - 1
        self.F = F
        self.pairs, self.triples = _index_tables(self.nv)[:2]
        profile = clique_profile(F)
        self.theta: Optional[int] = profile[1] if profile is not None else None
        # K4- and K4: the leaves are completed in closed form
        self.closed_form = self.theta in (3, 4)
        self._tables: Optional[_Tables] = None

    def _completion_tables(self) -> _Tables:
        """The tables that only ``decision_search`` reads and no shared table
        holds, built on its first call: the closed-form K4/K4- leaves never
        need them."""
        tri_pairs = _index_tables(self.nv)[3]
        # per (t-1)-set s of a clique pattern, as ``_tset_tables`` lists
        # them: the masks of its pairs and of its triples, and for each
        # triple the sets holding it
        set_pair_mask: list[int] = []
        set_tri_mask: list[int] = []
        tri_sets: list[list[int]] = [[] for _ in self.triples]
        # tri_flips[i]: the (row, column, bit) updates adding or removing
        # triple i in a host codegree table; clique patterns keep no table
        tri_flips: list[tuple[tuple[int, int, int], ...]] = [() for _ in self.triples]
        if self.theta is not None:
            for s, (m, _) in enumerate(_tset_tables(self.nv, self.F.t - 1)):
                set_tri_mask.append(m)
                # from t = 4 on every pair of a set lies in one of its triples
                mask = 0
                while m:
                    low = m & -m
                    m ^= low
                    i = low.bit_length() - 1
                    tri_sets[i].append(s)
                    a, b, c = tri_pairs[i]
                    mask |= 1 << a | 1 << b | 1 << c
                set_pair_mask.append(mask)
            if self.F.t == 3:  # the sets are the pairs and hold no triple
                set_pair_mask = [1 << p for p in range(len(self.pairs))]
        else:
            tri_flips = [
                ((a + 1, b + 1, 2 << c), (b + 1, a + 1, 2 << c),
                 (a + 1, c + 1, 2 << b), (c + 1, a + 1, 2 << b),
                 (b + 1, c + 1, 2 << a), (c + 1, b + 1, 2 << a))
                for a, b, c in self.triples
            ]
        return set_pair_mask, set_tri_mask, tri_sets, tri_flips

    # -- closed-form completion for K4 and K4- ------------------------------

    def leaf_value(self, N: Sequence[int], v: int) -> int:
        """t = 4: delta2 after adding every triple that keeps vertex 0
        uncovered, or some codegree below v once one is found.

        The codegree of (0, a) is the link degree of a.  For a link pair ab
        it is 1 + |rest - (N[a] | N[b])| (K4-) or nv - 1 - |N[a] & N[b]|
        (K4), and otherwise nv - 2 - |N[a] & N[b]| (K4-) or nv - 2 (K4),
        where rest is the link vertices other than a and b.  The K4 value
        nv - 2 is never below the link degree of a, so it is skipped."""
        nv = self.nv
        minus = self.theta == 3
        value = min(m.bit_count() for m in N)
        if value < v:
            return value
        for a, b in self.pairs:
            Na, Nb = N[a], N[b]
            if (Na >> b) & 1:
                # ab is a link pair, so a and b are in N[a] | N[b]
                c = nv + 1 - (Na | Nb).bit_count() if minus else nv - 1 - (Na & Nb).bit_count()
            elif minus:
                c = nv - 2 - (Na & Nb).bit_count()
            else:
                continue
            if c < value:
                if c < v:
                    return c
                value = c
        return value

    def link_cut(self, N: Sequence[int], x: int, y: int, v: int) -> bool:
        """t = 4, once xy has joined the link: whether a link pair through x
        or y has its ``leaf_value`` closed form below v.  Only those pairs
        change, and their values only fall as the link grows (the union of
        the two neighbourhoods, for K4-, and their intersection, for K4,
        only grow), so no completion of the partial link reaches v."""
        minus = self.theta == 3
        # the value is below v when the union or intersection exceeds limit
        limit = self.nv + 1 - v if minus else self.nv - 1 - v
        for a, m in ((x, N[x]), (y, N[y] & ~(1 << x))):
            Na = N[a]
            while m:
                low = m & -m
                m ^= low
                Nb = N[low.bit_length() - 1]
                if ((Na | Nb) if minus else (Na & Nb)).bit_count() > limit:
                    return True
        return False

    # -- decision search: is there a completion with delta2 >= v? ----------

    def decision_search(self, N: list[int], v: int, budget: _Budget) -> Optional[_Found]:
        """A completion of the link N with delta2 >= v, as (delta2, N, the
        triple mask of the chosen triples), or None.

        Each pair's bound ``val`` is its codegree if every undecided triple
        through it were added; it falls by one exactly when one of its
        triples is excluded, so only those three pairs need the ``< v`` test.
        ``und[p]`` masks the undecided triples through pair p.  The search
        branches on the first undecided triple of the lowest pair of least
        value among the pairs that have one, found by one scan over the
        pairs; when no pair has one, the completion is a leaf.  At an
        accepted leaf every triple is decided, so ``val`` holds the exact
        codegrees of the pairs avoiding vertex 0.

        For a clique pattern ``tot[s]`` counts the link pairs and included
        triples inside (t-1)-set s.  Once it reaches ``cap`` (threshold - 1)
        one more triple of s would cover vertex 0, so every undecided triple
        of s is excluded at once (forced exclusion) after each include for
        the sets it fills.  Forced and branching exclusions share one step;
        a forced one spends no node, and backing up undoes it with the other
        exclusions above the last include.  A non-clique pattern's covering
        check runs the embedder's existence search for vertex 0 on ``bits``,
        the host's codegree table, which follows every included triple.

        The root tests no covering and forces nothing: ``search_level``
        hands over only links leaving vertex 0 uncovered, t = 4 never
        reaches this search (``leaf_value`` completes those links), and the
        link alone fills no set holding a triple (C(t-1, 2) link pairs are
        below ``cap`` for t >= 5; the one-edge pattern's sets are pairs), so
        no undecided triple lies in a full set or is tested against ``cap``.
        """
        n, nv, F = self.n, self.nv, self.F
        degree = min(m.bit_count() for m in N)
        if degree < v:
            return None
        if self._tables is None:
            self._tables = self._completion_tables()
        set_pair_mask, set_tri_mask, tri_sets, tri_flips = self._tables
        _, _, pair_tri_mask, tri_pairs = _index_tables(nv)
        clique = self.theta is not None
        bits = [] if clique else _link_table(N)
        link1 = [(N[x] >> y) & 1 for x, y in self.pairs]
        link = sum(b << p for p, b in enumerate(link1))
        # tot[s] starts from the link pairs in s; other patterns have no sets
        tot = [(link & m).bit_count() for m in set_pair_mask]
        cap = self.theta - 1 if clique else 0
        # the triples to exclude next: the branching triple, or the undecided
        # triples of the sets an include filled
        out = 0
        val = [b + nv - 2 for b in link1]
        und = list(pair_tri_mask)
        # the decisions so far: i includes triple i, ~i excludes it
        stack: list[int] = []
        cut = min(val) < v
        while True:
            # the one exclude step, for a branching triple and for forced
            # ones alike: a pair falling below v cuts the child and ends the
            # step
            while out and not cut:
                bit = out & -out
                out ^= bit
                tri = bit.bit_length() - 1
                ps = tri_pairs[tri]
                if not und[ps[0]] & bit:
                    continue  # the include itself, or excluded before
                for p in ps:
                    und[p] ^= bit
                    val[p] -= 1
                    if val[p] < v:
                        cut = True
                stack.append(~tri)
            budget.spend()
            if cut:
                # back up to the last included triple and exclude it instead
                while stack and (tri := stack.pop()) < 0:
                    bit, ps = 1 << ~tri, tri_pairs[~tri]
                    for p in ps:
                        und[p] ^= bit
                        val[p] += 1
                if tri < 0:  # backed up past the root
                    return None
                bit = 1 << tri
                for p in tri_pairs[tri]:
                    und[p] ^= bit
                for s in tri_sets[tri]:
                    tot[s] -= 1
                for row, col, m in tri_flips[tri]:
                    bits[row][col] ^= m
                out, cut = bit, False
                continue
            # every pair value is at least v here, so a pair of value v
            # ends the scan
            best, least = -1, nv
            for p in range(len(val)):
                if und[p] and val[p] < least:
                    best, least = p, val[p]
                    if least == v:
                        break
            if best < 0:
                return min(degree, min(val)), N, sum(1 << i for i in stack if i >= 0)
            m = und[best]
            bit = m & -m
            tri = bit.bit_length() - 1
            # include the triple when it keeps vertex 0 uncovered; for a
            # clique pattern it always does, by the forced exclusions
            for row, col, m in tri_flips[tri]:
                bits[row][col] ^= m
            if not clique and _exists(bits, n, 0, F):
                for row, col, m in tri_flips[tri]:
                    bits[row][col] ^= m
                out = bit
                continue
            # including leaves every value as it is
            for p in tri_pairs[tri]:
                und[p] ^= bit
            for s in tri_sets[tri]:
                tot[s] += 1
                if tot[s] == cap:
                    out |= set_tri_mask[s]
            stack.append(tri)

    # -- one level of the bottom-up search ----------------------------------

    def search_level(self, v: int, budget: _Budget) -> Optional[_Found]:
        """The first link, in exclude-before-include order, whose completion
        reaches delta2 >= v, as (delta2, link masks, chosen triple mask); None
        refutes level v.

        Only lex-leaders are enumerated: links L with L <= s(L) for every
        transposition s = (u u+1) of link vertices, L read as its 0/1 vector
        in pair order.  Links with a completion at level v are closed under
        relabelling, so the first of them is the lex-min of its class and
        survives, and the witness is the one the full enumeration finds."""
        nv, pairs, P = self.nv, self.pairs, len(self.pairs)
        # reach[u]: the link degree u can still reach, which only an
        # excluded pair lowers
        reach = [nv - 1] * nv
        N = [0] * nv
        # the link only grows, so a pair that makes it cover vertex 0 on its
        # own is never included (theta 1: any pair; theta 3: one closing a
        # link triangle) or, for other patterns, is cut once included; for
        # t = 4 an include that drops a link pair's closed form below v is cut
        no_pair, no_triangle, generic = self.theta == 1, self.theta == 3, self.theta is None

        def breaks_leader(x: int, y: int) -> bool:
            # excluding xy decides the last entry of a comparison with s(L)
            # only for u = y - 1 (entry x) and u = x - 1 (entry y); L > s(L)
            # when N[u] has the bit, N[u+1] lacks it and all lower entries
            # are equal (bits u and u+1 are the fixed pair, not entries)
            if x < y - 1:
                a, b = N[y - 1], N[y]
                if (a >> x) & 1 and not (a ^ b) & ((1 << x) - 1):
                    return True
            if x:
                a, b = N[x - 1], N[x]
                below = ((1 << y) - 1) & ~(3 << (x - 1))
                if (a >> y) & 1 and not (a ^ b) & below:
                    return True
            return False

        # one bool per decided pair, True if it is in the link; a pair whose
        # exclusion breaks a leader constraint is pushed and backed up at once
        stack: list[bool] = []
        cut = nv - 1 < v
        while True:
            # a child cut by the degree bound still counts as a node
            budget.spend()
            if not cut and len(stack) < P:
                x, y = pairs[len(stack)]
                stack.append(False)
                reach[x] -= 1
                reach[y] -= 1
                if not breaks_leader(x, y):
                    cut = reach[x] < v or reach[y] < v
                    continue
            elif not cut and (found := self._complete(N, v, budget)) is not None:
                return found
            # back up to the last excluded pair that may be included instead
            while stack:
                x, y = pairs[len(stack) - 1]
                if stack.pop():
                    N[x] ^= 1 << y
                    N[y] ^= 1 << x
                    continue
                reach[x] += 1
                reach[y] += 1
                if not (no_pair or (no_triangle and N[x] & N[y])):
                    break
            else:
                return None
            N[x] |= 1 << y
            N[y] |= 1 << x
            stack.append(True)
            cut = self.link_cut(N, x, y, v) if self.closed_form else (
                generic and _exists(_link_table(N), self.n, 0, self.F))

    def _complete(self, N: list[int], v: int, budget: _Budget) -> Optional[_Found]:
        if self.closed_form:
            value = self.leaf_value(N, v)
            return (value, N, None) if value >= v else None
        return self.decision_search(N, v, budget)


# ---------------------------------------------------------------------------
# Top-level searches
# ---------------------------------------------------------------------------

def _check_instance(n: int, pattern: Pattern) -> None:
    if not _is_int(n):
        raise ValueError(f"n must be an int, got {n!r}")
    _check_pattern(pattern)
    if pattern.edge_count == 0:
        raise ValueError("pattern must have at least one edge")
    if n < pattern.t:
        raise ValueError(f"need n >= {pattern.t} vertices to host the pattern")


def _start_level(n: int, pattern: Pattern) -> int:
    """The first level of an unbudgeted ``exact_c2``: the paper's lower
    bound on c2(n, K_t^-), floor(n/3) for t = 4 and floor((2n-2)/3) for
    t = 5, which K_t takes too (a vertex in no K_t^- copy is in no K_t
    copy); 0 for every other pattern."""
    profile = clique_profile(pattern)
    t = profile[0] if profile is not None else 0
    return {4: n // 3, 5: (2 * n - 2) // 3}.get(t, 0)


def exact_c2(
    n: int,
    pattern: Pattern,
    *,
    node_budget: Optional[int] = None,
    time_budget: Optional[float] = None,
    allow_large: bool = False,
) -> SearchResult:
    """Maximum delta2 over n-vertex 3-graphs in which vertex 0 is uncovered.

    Exhaustive (``exhaustive=True``) results equal c2(n, pattern).  Witnesses
    are re-verified independently (the least pair codegree, and the embedder
    finding no copy of the pattern through vertex 0) before being returned.
    Beyond ``DEFAULT_HARD_CAP`` the search requires ``allow_large`` plus an
    explicit budget; when the budget runs out the result is non-exhaustive
    and reports the best verified lower bound.  The search is deterministic.
    Without a budget it starts at ``_start_level``'s bound, so
    ``nodes_explored`` counts only the levels from the bound up (for
    n <= 10 two for K4- and K5-, two to four for K4 and K5; a refuted bound
    adds the climb below it).  With any budget it climbs from level 0, so
    that a budget ending it at any level still leaves the best bound
    reached.
    ``n`` must be an int, ``pattern`` a ``Pattern`` (a name is not
    resolved), a budget finite and non-negative (a node budget an int), and
    ``allow_large`` a bool; anything else raises ValueError.
    """
    _check_instance(n, pattern)
    budget = _Budget(node_budget, time_budget)
    if type(allow_large) is not bool:
        raise ValueError(f"allow_large must be a bool, got {allow_large!r}")
    budgeted = node_budget is not None or time_budget is not None
    if n > DEFAULT_HARD_CAP:
        if not allow_large:
            raise ValueError(
                f"n = {n} exceeds the hard cap {DEFAULT_HARD_CAP}; pass allow_large=True"
            )
        if not budgeted:
            raise ValueError("searches beyond the hard cap require a node or time budget")

    start = time.monotonic()
    exhaustive = True
    value = -1
    last: Optional[_Found] = None
    inner = _InnerSearch(n, pattern)
    level, ceiling = 0 if budgeted else _start_level(n, pattern), math.inf
    try:
        # a witness at level v has delta2 = w >= v, so the next level is
        # w + 1; a refuted level v proves a witness of value v - 1 optimal.
        # A refuted start above value + 1 becomes the ceiling of a climb
        # from value + 1 = 0, which stops below it.  A BudgetExhausted keeps
        # the last witness as a verified lower bound
        while level < ceiling:
            found = inner.search_level(level, budget)
            if found is not None:
                last, value = found, found[0]
                level = value + 1
            elif level > value + 1:
                level, ceiling = value + 1, level
            else:
                break
    except BudgetExhausted:
        exhaustive = False
    elapsed = time.monotonic() - start

    witness = None
    if last is not None:
        # the one graph of the search, its last witness, re-verified independently
        _, N, avoid = last
        mask = _cone(N, _sparse(N, inner.theta - 2) if avoid is None else avoid)
        witness = TriGraph.from_mask(n, mask, distinguished=0)
        bits = codegree_neighbourhoods(witness)
        if _delta2(bits) != value or _exists(bits, n, 0, pattern):
            raise AssertionError("search produced an inconsistent witness")
    return SearchResult(
        n=n,
        pattern=pattern.name,
        value=value,
        witness=witness,
        exhaustive=exhaustive,
        nodes_explored=budget.nodes,
        elapsed=elapsed,
    )


# ---------------------------------------------------------------------------
# Randomized spot-check above the threshold
# ---------------------------------------------------------------------------

@dataclass
class CertifyReport:
    """Outcome of sampling 3-graphs with delta2 above a threshold.

    Every sampled graph gets a full covering check; graphs with an uncovered
    vertex are counterexamples to "delta2 > threshold forces a covering" and
    double as lower-bound witnesses.  Above the true threshold none should
    appear.  ``repairs`` is the number of repair steps the sampler took over
    all samples, each one bounded draw that consumes the stream as one
    ``rng.choice`` over the pair's absent triples would, so it is fixed by
    the seed.
    """

    n: int
    pattern: str
    threshold: int
    samples: int
    seed: int
    counterexamples: list[TriGraph] = field(default_factory=list)
    repairs: int = 0

    @property
    def counterexample_count(self) -> int:
        return len(self.counterexamples)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "pattern": self.pattern,
            "threshold": self.threshold,
            "samples": self.samples,
            "seed": self.seed,
            "repairs": self.repairs,
            "counterexample_count": self.counterexample_count,
            "counterexamples": [to_json_dict(H) for H in self.counterexamples],
        }


# byte -> b"1" when its top bit is clear, else b"0": the keep digit of a
# triple from the top byte of its first Mersenne Twister word
_KEEP_DIGIT = bytes(0x31 if b < 0x80 else 0x30 for b in range(256))


def _coin_flips(rng: Random, count: int) -> int:
    """A mask whose bit i is set exactly when the i-th of ``count`` calls
    ``rng.random() < 0.5`` would be true, leaving ``rng`` in the same state.

    CPython's ``random()`` is ``((w0 >> 5) * 2**26 + (w1 >> 6)) / 2**53`` for
    the next two 32-bit Mersenne Twister words w0, w1, so it is below 1/2
    exactly when bit 31 of w0 is clear.  ``getrandbits(64 * count)`` fills
    its 32-bit words least significant first in the order they are
    generated, so it consumes the same 2 * count words, and call i's w0 is
    bytes 8i .. 8i + 3 of its little-endian form: the test is the top bit
    of byte 8i + 3.
    """
    words = rng.getrandbits(64 * count).to_bytes(8 * count, "little")
    return int(words[3::8].translate(_KEEP_DIGIT)[::-1], 2)


@lru_cache(maxsize=None)
def _index_tables(n: int) -> tuple[
    tuple[tuple[int, int], ...], tuple[tuple[int, int, int], ...], tuple[int, ...],
    tuple[tuple[int, int, int], ...],
]:
    """The pair and triple indexes on n vertices, which the completion
    search and the spot-check share, pairs and triples in ``combinations``
    order: the pairs, the triples, per pair the mask of its triples, and
    per triple its three pair indices."""
    pairs = tuple(combinations(range(n), 2))
    pair_index = [[0] * n for _ in range(n)]
    for i, (a, b) in enumerate(pairs):
        pair_index[a][b] = i
    triples = tuple(combinations(range(n), 3))
    tri_pairs = tuple((pair_index[a][b], pair_index[a][c], pair_index[b][c]) for a, b, c in triples)
    pair_tri_mask = [0] * len(pairs)
    for i, ps in enumerate(tri_pairs):
        for p in ps:
            pair_tri_mask[p] |= 1 << i
    return pairs, triples, tuple(pair_tri_mask), tri_pairs


@lru_cache(maxsize=None)
def _tset_tables(n: int, t: int) -> tuple[tuple[int, int], ...]:
    """Per t-set of n vertices, in ``combinations`` order: (the mask of the
    triples inside it, in the triple order of ``_index_tables(n)``, its
    vertex mask).  The spot-check asks for t-sets and the completion search
    for (t-1)-sets; the oracle's largest CI shape, n = 19 and t = 4, has
    C(19, 4) = 3 876 sets.

    A triple lies inside a t-set unless it meets one of the n - t vertices
    the set misses.  Complementing reverses the lexicographic order of sets
    of one size (the least element where two sets differ changes sides), so
    the missed sets, in ``combinations`` order, list the t-sets backwards.
    """
    triples = _index_tables(n)[1]
    through = [0] * n
    for i, tri in enumerate(triples):
        for v in tri:
            through[v] |= 1 << i
    every_triple = (1 << len(triples)) - 1
    everyone = (1 << n) - 1
    tables = []
    for missed in combinations(range(n), n - t):
        meets = outside = 0
        for u in missed:
            meets |= through[u]
            outside |= 1 << u
        tables.append((every_triple & ~meets, everyone ^ outside))
    tables.reverse()
    return tuple(tables)


def _covered_vertices(inc: int, tsets: tuple[tuple[int, int], ...], threshold: int,
                      everyone: int) -> int:
    """The mask of the vertices of the sample ``inc`` that lie in some t-set
    spanning at least ``threshold`` of its triples, which for K_t / K_t^- is
    the mask of covered vertices (the ``clique_profile`` rule).  Sets whose
    vertices are all covered already are skipped, and the walk stops once
    every vertex of ``everyone`` is covered."""
    uncovered = everyone
    for tri_mask, vertices in tsets:
        if vertices & uncovered and (inc & tri_mask).bit_count() >= threshold:
            uncovered &= ~vertices
            if not uncovered:
                break
    return everyone ^ uncovered


def _sample_above_threshold(n: int, threshold: int, rng: Random) -> tuple[int, int]:
    """A random 3-graph with delta2 > threshold, as (its triple mask, the
    number of repair steps): start from density 1/2 and repair by adding
    random triples through minimum-codegree pairs.

    The sample is one int mask, bit i for triple i in ``combinations``
    order (``TriGraph.from_mask`` turns it into a ``TriGraph``), and the
    codegree of a pair is the popcount of the mask under the pair's triple
    mask (``_index_tables``, built once per n).  The repair step takes the
    lexicographically first pair of minimum codegree and a uniform choice
    among its absent triples in increasing order, which is increasing third
    vertex.  Codegrees only grow, so the pairs at one minimum value are met
    in that order by ``counts.index`` from just past the last one repaired;
    a sentinel at the end of ``counts`` ends each value's pass.  The loop
    keeps the complement of the sample, ``absent``, and clears each chosen
    triple's bit in it, so a pair's absent triples are
    ``pair_tri_mask[p] & absent``, and at codegree lo there are
    k = n - 2 - lo of them.

    The random stream is that of one rng.random() per triple in
    ``combinations`` order, then one rng.choice per repair step.  The
    random() calls are drawn at once by ``_coin_flips``: triple i is kept
    exactly when bit 31 of the first of its two Mersenne Twister words is
    clear, which is the top bit of byte 8i + 3 of
    ``getrandbits(64 * T).to_bytes(8 * T, "little")`` for T triples.
    CPython's ``choice(seq)`` is ``seq[_randbelow(len(seq))]``, and for a
    ``Random`` ``_randbelow(k)`` draws ``getrandbits(k.bit_length())``
    until the value r is below k; the loop makes the same calls and takes
    the r-th set bit of the pair's absent mask from the nearer end: when
    2r < k it clears the lowest bit r times and takes the lowest left,
    otherwise it clears the highest bit k - 1 - r times and takes the
    highest left.  So a seed draws the same graphs as the dictionary-based
    reference ``bf_sample_above_threshold`` in the tests, one random() per
    triple and one choice per repair, and leaves the generator in the same
    state.
    """
    _, triples, pair_tri_mask, tri_pairs = _index_tables(n)
    full = (1 << len(triples)) - 1
    inc = _coin_flips(rng, len(triples))
    counts = list(map(int.bit_count, map(inc.__and__, pair_tri_mask)))
    end = len(counts)
    start = min(counts)
    counts.append(start)
    absent = full ^ inc
    getrandbits = rng.getrandbits
    for lo in range(start, threshold + 1):
        # every pair is at lo or above, and a repair moves later pairs at lo
        # up, never earlier ones down: the next pair at lo is past p
        counts[end] = lo
        k = n - 2 - lo
        last = k - 1
        width = k.bit_length()
        p = counts.index(lo)
        while p < end:
            r = getrandbits(width)
            while r >= k:
                r = getrandbits(width)
            mask = pair_tri_mask[p] & absent
            if 2 * r < k:
                while r:
                    mask &= mask - 1
                    r -= 1
                i = (mask & -mask).bit_length() - 1
            else:
                i = mask.bit_length() - 1
                while r < last:
                    mask ^= 1 << i
                    i = mask.bit_length() - 1
                    r += 1
            absent ^= 1 << i
            x, y, z = tri_pairs[i]
            counts[x] += 1
            counts[y] += 1
            counts[z] += 1
            p = counts.index(lo, p + 1)
    # each repair step adds one triple
    repaired = full ^ absent
    return repaired, repaired.bit_count() - inc.bit_count()


def certify_upper_behavior(
    n: int,
    pattern: Pattern,
    threshold: int,
    samples: int,
    seed: int = DEFAULT_SEED,
) -> CertifyReport:
    """Sample 3-graphs with delta2 > threshold and report any without a
    pattern-covering.

    Finding one would contradict "c2(n, pattern) <= threshold"; when the
    threshold is set below the true value, witnesses are expected and are
    reported as lower-bound certificates.  For K_t / K_t^- coverage is
    decided on the sample's triple mask: a vertex is covered exactly when
    some t-set through it spans at least ``clique_profile``'s threshold of
    edges (``_covered_vertices``), and a ``TriGraph`` is built only for a
    sample with an uncovered vertex.  Other patterns build a ``TriGraph``
    and its codegree table per sample and run the embedder's existence
    search on each vertex.  Either way a candidate counterexample is
    re-verified by ``covering_report`` before it is recorded, and a
    disagreement raises AssertionError.  ``n``, ``threshold``, ``samples``
    and ``seed`` must be ints (not bools) with pattern.t <= n <= 12,
    threshold <= n - 3 and samples >= 0, and the pattern must be a
    ``Pattern`` with an edge; anything else raises ValueError.
    """
    _check_instance(n, pattern)
    for name, value in (("threshold", threshold), ("samples", samples), ("seed", seed)):
        if not _is_int(value):
            raise ValueError(f"{name} must be an int, got {value!r}")
    if n > 12:
        raise ValueError("sampling spot-checks are limited to n <= 12")
    if threshold > n - 3:
        raise ValueError(f"no 3-graph on {n} vertices has delta2 > {threshold}")
    if samples < 0:
        raise ValueError(f"samples must be non-negative, got {samples}")
    profile = clique_profile(pattern)
    tsets = _tset_tables(n, profile[0]) if profile is not None else ()
    everyone = (1 << n) - 1
    rng = Random(seed)
    report = CertifyReport(n=n, pattern=pattern.name, threshold=threshold,
                           samples=samples, seed=seed)
    for _ in range(samples):
        inc, repairs = _sample_above_threshold(n, threshold, rng)
        report.repairs += repairs
        if profile is not None and _covered_vertices(inc, tsets, profile[1], everyone) == everyone:
            continue
        H = TriGraph.from_mask(n, inc)
        if profile is None:
            bits = codegree_neighbourhoods(H)
            if all(_exists(bits, n, v, pattern) for v in range(n)):
                continue
        if not covering_report(H, pattern).uncovered:
            raise AssertionError("covering detectors disagree on a sample")
        report.counterexamples.append(H)
    return report
