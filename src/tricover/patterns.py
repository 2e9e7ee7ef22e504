"""Covering targets and the "is vertex v in a copy of F" machinery.

A pattern F is a small 3-graph.  A copy of F in H is an injective vertex map
sending every edge of F to an edge of H (subgraph containment: extra edges
among the image vertices are allowed).  H has an F-covering when every vertex
lies in at least one copy.

Two independent detectors are provided:

* an embedder for any pattern: one backtracking step function over the
  codegree neighbourhoods of placed pairs, run on two kinds of plan, each
  of which pins v at one position and gives every other position a step.
  Pattern vertices that some swap of two vertices maps onto each other form
  a symmetry class, and both plans only build embeddings whose images
  increase along a class, so the labellings of a copy that such swaps give
  are never searched twice.  Neighbourhoods are int bitmasks, so a
  position's candidates are the AND of a few masks with the mask of unused
  vertices, cut to the range its step allows and walked lowest bit first.

  - The existence search (``is_covered``) pins v at each class leader in
    turn, outside its class's order; a swap within a class is an
    automorphism, so any copy through v has a labelling with v there.  It
    places the other positions most constrained first, the one that closes
    the most edges with placed positions, so a refutation prunes as early
    as the pattern allows.
  - The witness search (``covered_at``) pins v at each pattern vertex in
    turn, inside its class's order, and fills the other positions in index
    order, so its first completion is the lexicographically smallest copy
    through v.  It runs only once the existence search has found a copy.

  ``covering_report`` runs both for every vertex in turn and shares what it
  learns: a vertex found uncovered lies in no copy at all, so it leaves the
  unused-vertex mask of every later search (exact, no copy is lost), and a
  vertex inside an earlier witness is known to be covered, so it goes
  straight to the witness search,
* a counting check for the complete and near-complete patterns K_t / K_t^-,
  based on the fact that a t-set of vertices hosts a copy of K_t (K_t^-)
  exactly when it spans at least C(t,3) (C(t,3) - 1) edges.

The obstruction checker certifies that a vertex x lies in no K4^- copy: it
suffices that the link of x is triangle-free and that no edge avoiding x
spans two or more link edges, because a K4^- through x needs three edges on
four vertices and each shape of such a triple violates one of the two
conditions.  Both conditions are read off the same codegree masks as the
embedder's: row x of the table holds each vertex's link neighbourhood, so
it is the link's adjacency masks.  The smallest link triangle is
``hypergraphs._first_triangle`` of that row, the one smallest-triangle
search, which ``is_triangle_free`` runs on a 2-graph's masks.  An edge abc
spanning two link edges is a bit of the codegree mask of ab that also lies
in the union (ab a link edge) or the intersection (otherwise) of the link
masks of a and b.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb
from typing import Mapping, NamedTuple, Optional, Sequence

from .fileio import FormatError, _parse_int
from .hypergraphs import (
    TriGraph,
    _canonical_edge,
    _check_count,
    _check_trigraph,
    _check_vertex,
    _first_triangle,
    codegree_neighbourhoods,
)


@dataclass(frozen=True)
class Pattern:
    """A covering target: 3-graph on vertices 0..t-1 with a display name."""

    t: int
    edges: frozenset[tuple[int, int, int]]
    name: str

    def __post_init__(self):
        # the TriGraph rule: each edge a sorted triple of distinct ints in
        # range; a frozenset keeps the pattern hashable and free of repeats
        _check_count(self.t)
        if not isinstance(self.edges, frozenset):
            raise ValueError(f"pattern edges must be a frozenset, got {type(self.edges).__name__}")
        for e in self.edges:
            if not isinstance(e, tuple) or _canonical_edge(e, self.t, 3) != e:
                raise ValueError(f"bad pattern edge {e!r}")

    @property
    def edge_count(self) -> int:
        return len(self.edges)


# the name's shape; t is read by the file formats' integer rule
_PATTERN_RE = re.compile(r"K([^-]*)(-?)")


def builtin_pattern(name: str) -> Pattern:
    """Built-in patterns by name: ``K4``, ``K4-``, ``K5``, ``K5-``, generally
    ``K<t>`` and ``K<t>-`` for 4 <= t <= 8 (CLI spellings ``Kt:<t>`` and
    ``Kt-:<t>`` are accepted too).

    ``K<t>-`` is the complete 3-graph on t vertices minus the single edge
    {0, 1, 2}.  Any other name, or a name that is not a str, raises
    ValueError.
    """
    if not isinstance(name, str):
        raise ValueError(f"unknown pattern name {name!r}")
    if name.startswith("Kt-:"):
        size, minus = name[4:], True
    elif name.startswith("Kt:"):
        size, minus = name[3:], False
    else:
        m = _PATTERN_RE.fullmatch(name)
        size, minus = (m.group(1), m.group(2) == "-") if m else ("", False)
    try:
        t = _parse_int(size, "pattern size")
    except FormatError:
        raise ValueError(f"unknown pattern name {name!r}") from None
    if not 4 <= t <= 8:
        raise ValueError(f"built-in patterns require 4 <= t <= 8, got {t}")
    edges = set(combinations(range(t), 3))
    if minus:
        edges.discard((0, 1, 2))
    return Pattern(t=t, edges=frozenset(edges), name=f"K{t}-" if minus else f"K{t}")


def _check_pattern(F: object) -> None:
    """ValueError naming F unless it is a ``Pattern``; a name is not resolved."""
    if not isinstance(F, Pattern):
        raise ValueError(f"pattern must be a Pattern, got {F!r}")


def clique_profile(F: Pattern) -> Optional[tuple[int, int]]:
    """(t, threshold) when F is K_t or K_t^-: a t-set hosts a copy of F iff it
    spans at least ``threshold`` edges.  None for other shapes."""
    _check_pattern(F)
    full = comb(F.t, 3)
    if F.edge_count == full:
        return F.t, full
    if F.edge_count == full - 1:
        return F.t, full - 1
    return None


# ---------------------------------------------------------------------------
# Embedder over codegree neighbourhoods: existence and lex-min witness
# ---------------------------------------------------------------------------

Neighbourhoods = Sequence[Sequence[int]]
# per free position: (position, placed pairs closing an edge, the placed
# class-mate its image must exceed, the anchor when its image must stay
# below v), -1 for an absent constraint
_Step = tuple[int, tuple[tuple[int, ...], ...], int, int]
# per anchor: (class members before it, class members after it, the steps
# that fill every other position in index order)
_Plan = tuple[int, int, tuple[_Step, ...]]


def _symmetry_classes(F: Pattern) -> tuple[int, ...]:
    """Entry q is the least p for which swapping positions p and q is an
    automorphism of F, or q itself when there is none.

    Swappability is an equivalence (conjugating one swap by another gives
    the third), so the least member of q's class swaps with q directly and
    q is only tested against class leaders: O(t^2 |E|) work for any t.  An
    edge is a bitmask of its vertices; the swap moves it only when it holds
    exactly one of p and q, and then flips both bits."""
    masks = {(1 << a) | (1 << b) | (1 << c) for a, b, c in F.edges}
    classes = list(range(F.t))
    for q in range(F.t):
        for p in range(q):
            swap = (1 << p) | (1 << q)
            if classes[p] == p and all(
                (m ^ swap) in masks for m in masks if (m >> p ^ m >> q) & 1
            ):
                classes[q] = p
                break
    return tuple(classes)


def _edges_through(F: Pattern) -> list[list[tuple[int, tuple[int, int]]]]:
    """Per position q: (edge mask, the edge's other two vertices) for each
    edge through q, in sorted edge order."""
    through: list[list[tuple[int, tuple[int, int]]]] = [[] for _ in range(F.t)]
    for a, b, c in sorted(F.edges):
        m = (1 << a) | (1 << b) | (1 << c)
        through[a].append((m, (b, c)))
        through[b].append((m, (a, c)))
        through[c].append((m, (a, b)))
    return through


@lru_cache(maxsize=None)
def _anchor_plans(F: Pattern) -> tuple[_Plan, ...]:
    """The witness search's plan for each anchor, the position that v takes.

    Images increase along each symmetry class: swapping two members maps an
    embedding to one with the same image, so the lex-min embedding has the
    smaller image at the earlier member.  A step's candidates therefore lie
    above the image of the previous member of its class, and below v when
    the anchor is a later member.  A step for position q closes the edges
    through q whose vertices are all placed, which are the positions up to
    q and the anchor."""
    t = F.t
    classes = _symmetry_classes(F)
    members = [[p for p in range(t) if classes[p] == classes[q]] for q in range(t)]
    prev = [max((p for p in members[q] if p < q), default=-1) for q in range(t)]
    through = _edges_through(F)
    plans = []
    for anchor in range(t):
        steps = []
        for q in range(t):
            if q == anchor:
                continue
            unplaced = ~((2 << q) - 1 | 1 << anchor)
            pairs = tuple([pair for m, pair in through[q] if not m & unplaced])
            cap = anchor if classes[q] == classes[anchor] and q < anchor else -1
            steps.append((q, pairs, prev[q], cap))
        before = members[anchor].index(anchor)
        plans.append((before, len(members[anchor]) - 1 - before, tuple(steps)))
    return tuple(plans)


@lru_cache(maxsize=None)
def _class_plans(F: Pattern) -> tuple[tuple[int, tuple[_Step, ...]], ...]:
    """The existence search's plan for each class leader, the position that
    v takes: (the leader, the steps that fill every other position).

    Any copy through v has a labelling with v at a class leader, since a
    swap within a class is an automorphism, and with images increasing
    along every class apart from v itself.  Steps go most constrained
    first: the position closing the most edges with the placed ones, then
    one with a placed class-mate, then one outside the leader's class, then
    the lowest.  Two unplaced class-mates always tie, because their swap is
    an automorphism fixing every placed position, so a class is placed in
    index order and a step's candidates lie above the image of the class
    member placed last, the leader not counted."""
    t = F.t
    classes = _symmetry_classes(F)
    through = _edges_through(F)
    # per position: the mask of its class
    mates = [sum(1 << p for p in range(t) if classes[p] == classes[q]) for q in range(t)]
    plans = []
    for leader in sorted(set(classes)):
        # the placed positions other than the leader, which bound their
        # class-mates' images
        placed = 0
        steps = []
        rest = [q for q in range(t) if q != leader]
        while rest:
            done = placed | 1 << leader
            q = min(rest, key=lambda q: (
                -sum(1 for m, _ in through[q] if not m & ~(done | 1 << q)),
                not placed & mates[q],
                mates[q] >> leader & 1,
                q,
            ))
            rest.remove(q)
            pairs = tuple([pair for m, pair in through[q] if not m & ~(done | 1 << q)])
            steps.append((q, pairs, (placed & mates[q]).bit_length() - 1, -1))
            placed |= 1 << q
        plans.append((leader, tuple(steps)))
    return tuple(plans)


def _complete(
    bits: Neighbourhoods,
    steps: tuple[_Step, ...],
    i: int,
    phi: list[int],
    free: int,
    bound: Optional[tuple[int, ...]],
) -> Optional[tuple[int, ...]]:
    """The first completion of ``phi`` from ``steps[i]`` on, trying each
    position's candidates lowest first, or None; when the steps go in index
    order, it is the lex-min completion.  ``free`` is the mask of vertices
    not in phi.  A position's candidates are the free vertices in the
    codegree neighbourhood of every placed pair closing an edge through it,
    within the limits its step sets: above the image of a placed
    class-mate, below the image of the anchor.
    ``bound``, when given, is an embedding that phi matches on every placed
    position: only completions up to it are wanted, so larger candidates
    are cut, and the bound is dropped once a candidate falls below it."""
    q, pairs, prev, cap = steps[i]
    cands = free
    if prev >= 0:
        cands &= -(2 << phi[prev])
    if cap >= 0:
        cands &= (1 << phi[cap]) - 1
    top = -1
    if bound is not None:
        top = bound[q]
        cands &= (2 << top) - 1
    for a, b in pairs:
        cands &= bits[phi[a]][phi[b]]
        if not cands:
            return None
    i += 1
    if i == len(steps):
        if not cands:
            return None
        phi[q] = (cands & -cands).bit_length() - 1
        return tuple(phi)
    while cands:
        low = cands & -cands
        c = low.bit_length() - 1
        phi[q] = c
        res = _complete(bits, steps, i, phi, free ^ low, bound if c == top else None)
        if res is not None:
            return res
        cands ^= low
    return None


def _exists(bits: Neighbourhoods, n: int, v: int, F: Pattern, dead: int = 0) -> bool:
    """Whether some embedding of F has v in its image.

    ``dead`` is a mask of vertices already shown to lie in no copy of F, v
    not among them; they lie in no embedding, so they are never candidates.
    """
    if F.t > n:
        return False
    free = ((1 << n) - 1) ^ dead ^ (1 << v)
    for leader, steps in _class_plans(F):
        if not steps:
            return True
        phi = [-1] * F.t
        phi[leader] = v
        if _complete(bits, steps, 0, phi, free, None) is not None:
            return True
    return False


def _lexmin_embedding(
    bits: Neighbourhoods, n: int, v: int, F: Pattern, dead: int = 0
) -> tuple[int, ...]:
    """The lex-min embedding of F with v in the image.  Callers run it only
    for a vertex known to be covered, so there is one.

    Anchor p pins v at position p.  Anchors are tried in index order, each
    bounded by the best embedding so far, which holds v at an earlier
    position; so the search for anchor p returns a smaller embedding or
    nothing.  Every search keeps images increasing along each symmetry
    class, which keeps the lex-min embedding and drops the relabellings
    that swaps within a class give; an anchor is skipped when too few free
    vertices lie below or above v for the rest of its class.

    ``dead`` is a mask of vertices already shown to lie in no copy of F, v
    not among them; they lie in no embedding, so they are never candidates.
    """
    free = ((1 << n) - 1) ^ dead ^ (1 << v)
    lower = (free & ((1 << v) - 1)).bit_count()
    upper = (free >> v).bit_count()
    best = None
    for anchor, (before, after, steps) in enumerate(_anchor_plans(F)):
        if before > lower or after > upper:
            continue
        phi = [-1] * F.t
        phi[anchor] = v
        if not steps:
            # a one-vertex pattern: v alone is the embedding
            return tuple(phi)
        best = _complete(bits, steps, 0, phi, free, best) or best
    assert best is not None
    return best


def covered_at(
    H: TriGraph, v: int, F: Pattern, *, bits: Optional[Neighbourhoods] = None
) -> Optional[tuple[int, ...]]:
    """The lexicographically smallest embedding of F into H whose image
    contains v (entry i is the image of pattern vertex i), or None.

    The existence search decides first, so a refutation never runs the
    witness search.  ``F.t > H.n`` yields None, not an error.  ``bits``, when
    given, must be ``codegree_neighbourhoods(H)`` for this very H, built by
    a caller that reads other facts off the same table; it is read, never
    changed.  Omitted, the table is built here.
    """
    _check_trigraph(H)
    _check_vertex(v, H.n)
    _check_pattern(F)
    if bits is None:
        bits = codegree_neighbourhoods(H)
    if not _exists(bits, H.n, v, F):
        return None
    return _lexmin_embedding(bits, H.n, v, F)


def is_covered(H: TriGraph, v: int, F: Pattern) -> bool:
    """Whether some copy of F in H contains v, by the existence search: v
    at each class leader, the other positions most constrained first."""
    _check_trigraph(H)
    _check_vertex(v, H.n)
    _check_pattern(F)
    return _exists(codegree_neighbourhoods(H), H.n, v, F)


def covered_by_count(H: TriGraph, v: int, F: Pattern) -> bool:
    """Counting detector for K_t / K_t^- patterns, independent of the embedder.

    v is covered iff some (t-1)-set T avoiding v satisfies
    ``#link pairs of v inside T + #edges inside T >= threshold``.
    """
    _check_trigraph(H)
    _check_vertex(v, H.n)
    _check_pattern(F)
    profile = clique_profile(F)
    if profile is None:
        raise ValueError(f"pattern {F.name!r} is not a complete or near-complete 3-graph")
    t, threshold = profile
    if t > H.n:
        return False
    edges = H.edge_set
    others = [u for u in range(H.n) if u != v]
    for T in combinations(others, t - 1):
        count = 0
        # a < b, so the link triple is sorted by placing v by comparison
        for a, b in combinations(T, 2):
            if ((v, a, b) if v < a else (a, v, b) if v < b else (a, b, v)) in edges:
                count += 1
        for e in combinations(T, 3):
            if e in edges:
                count += 1
        if count >= threshold:
            return True
    return False


# ---------------------------------------------------------------------------
# Whole-graph reports and the local obstruction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoverReport:
    """Per-vertex covering status for one pattern.

    ``witnesses`` maps each covered vertex to its lexicographically smallest
    embedding; ``uncovered`` lists the rest in increasing order.
    """

    pattern: str
    n: int
    uncovered: tuple[int, ...]
    witnesses: Mapping[int, tuple[int, ...]]

    @property
    def fully_covered(self) -> bool:
        return not self.uncovered

    def to_dict(self) -> dict:
        return {
            "pattern": self.pattern,
            "n": self.n,
            "covered_count": self.n - len(self.uncovered),
            "uncovered": list(self.uncovered),
            "witnesses": {str(v): list(w) for v, w in sorted(self.witnesses.items())},
        }


def covering_report(H: TriGraph, F: Pattern) -> CoverReport:
    """Covering status of every vertex of H for the pattern F.

    One pass over the vertices in increasing order on one shared
    neighbourhood table; the witnesses and the uncovered list are exactly
    those of a :func:`covered_at` call per vertex.  A vertex inside an
    earlier witness is known to be covered and goes straight to the witness
    search; any other runs the existence search first.  A vertex found
    uncovered lies in no copy of F, so it is removed from the candidates of
    every later search, which pays when it comes before the vertices it
    would otherwise be tried for.  The constructions put x at 0: on H4(28)
    and K5- the existence search refutes x in about 1 000 calls of the step
    function, and with x gone a covered vertex's witness takes about 30
    calls of it instead of about 420.
    """
    _check_pattern(F)
    nbhd = codegree_neighbourhoods(H)
    uncovered = []
    witnesses: dict[int, tuple[int, ...]] = {}
    dead = 0
    # the vertices of the witnesses so far, each known to be covered
    seen = 0
    for v in range(H.n):
        if not seen >> v & 1 and not _exists(nbhd, H.n, v, F, dead):
            uncovered.append(v)
            dead |= 1 << v
            continue
        witnesses[v] = emb = _lexmin_embedding(nbhd, H.n, v, F, dead)
        for u in emb:
            seen |= 1 << u
    return CoverReport(pattern=F.name, n=H.n, uncovered=tuple(uncovered), witnesses=witnesses)


class ObstructionCheck(NamedTuple):
    """Result of the local uncoverability test at a vertex.

    ``holds`` is True when (a) the link is triangle-free and (b) every edge
    avoiding the vertex spans at most one link edge; then no K4^- copy can
    contain the vertex.  On failure exactly one witness field is set: a
    triangle of the link (host indices) or an offending edge.
    """

    holds: bool
    link_triangle: Optional[tuple[int, int, int]]
    bad_edge: Optional[tuple[int, int, int]]


def covering_obstruction(
    H: TriGraph, x: int, *, bits: Optional[Neighbourhoods] = None
) -> ObstructionCheck:
    """Check the two local conditions under which x lies in no K4^- copy.

    A K4^- through x on {x, a, b, c} needs three of the four triples; either
    all three link pairs of {a, b, c} appear (a link triangle) or two link
    pairs plus the edge abc do (an edge spanning two link edges).

    Both are read off the codegree masks, where N(v) = ``bits[x][v]`` is v's
    link neighbourhood.  Row x is the link's adjacency masks (x in none of
    them), so the link triangle is ``hypergraphs._first_triangle`` of it:
    the lexicographically smallest triangle.  The bad edge is the
    first pair a < b avoiding x with an edge abc, c > b, that spans a second
    link pair (c in N(a) | N(b)) when ab is a link pair, or two of them
    (c in N(a) & N(b)) when it is not; with c the lowest such vertex, that
    is the first offending edge of ``H.edges``.

    ``bits``, when given, must be ``codegree_neighbourhoods(H)`` for this
    very H, built by a caller that reads other facts off the same table; it
    is read, never changed.  Omitted, the table is built here.
    """
    _check_trigraph(H)
    _check_vertex(x, H.n)
    if bits is None:
        bits = codegree_neighbourhoods(H)
    link = bits[x]
    triangle = _first_triangle(link)
    if triangle is not None:
        return ObstructionCheck(False, triangle, None)
    others = [v for v in range(H.n) if v != x]
    for i, a in enumerate(others):
        row, na = bits[a], link[a]
        for b in others[i + 1:]:
            # the vertices c > b with abc an edge; x is in no link mask, so
            # the edge abx never counts
            above = row[b] >> (b + 1)
            if not above:
                continue
            nb = link[b]
            spans = (na | nb) if na >> b & 1 else (na & nb)
            hit = above & spans >> (b + 1)
            if hit:
                c = b + (hit & -hit).bit_length()
                return ObstructionCheck(False, None, (a, b, c))
    return ObstructionCheck(True, None, None)
