"""Core types for 2-graphs and 3-uniform hypergraphs.

Vertices are the integers 0..n-1 throughout.  Both graph types are immutable
after construction, apart from a ``TriGraph``'s edge-set memo, which is built
on first use from the immutable edge tuple; every operation in this module is
a pure function, so values may be shared freely across threads.

For a 3-graph H, the codegree of a vertex pair {a, b} is the number of
vertices c with {a, b, c} an edge; delta2(H) is the minimum codegree over all
pairs.  The link graph of a vertex x is the 2-graph on V(H) - {x} whose edges
are exactly the pairs completing an edge of H together with x.

Every codegree fact is read off one table, ``codegree_neighbourhoods(H)``,
whose entry for a pair is the bitmask of the vertices completing it to an
edge: delta2 is its least popcount (``_delta2``, which the claim checks and
the oracle's re-verification share), and ``pair_degree_table`` and
``min_codegree`` count its popcounts in ``combinations`` order.  The smallest
triangle of a graph is found by one search over adjacency masks,
``_first_triangle``: ``is_triangle_free`` runs it on a 2-graph, and the K4^-
obstruction on row x of the table, which holds the link of x.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from itertools import combinations, compress, islice
from math import comb
from operator import lt
from typing import Iterable, NamedTuple, Optional, Sequence


def _is_int(v: object) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _check_vertex(v: int, n: int) -> None:
    if not _is_int(v) or not 0 <= v < n:
        raise ValueError(f"vertex {v!r} out of range [0, {n})")


def _check_count(n: int) -> None:
    if not _is_int(n):
        raise ValueError(f"vertex count {n!r} is not an int")
    if n < 0:
        raise ValueError("vertex count must be non-negative")


def _check_graph(G: object) -> None:
    if not isinstance(G, Graph):
        raise ValueError(f"expected a 2-graph (Graph), got {type(G).__name__}")


def _check_trigraph(H: object) -> None:
    if not isinstance(H, TriGraph):
        raise ValueError(f"expected a 3-graph (TriGraph), got {type(H).__name__}")


def _canonical_edge(e: Iterable[int], n: int, k: int) -> tuple[int, ...]:
    """The edge e as a sorted tuple of k distinct int vertices in [0, n)."""
    # materialise once: an iterator edge is consumed by the first pass
    try:
        t = tuple(e)
    except TypeError:
        raise ValueError(f"edge {e!r} is not a {k}-element vertex set") from None
    if len(t) != k or not all(map(_is_int, t)):
        raise ValueError(f"edge {t!r} is not a {k}-element vertex set")
    s = tuple(sorted(t))
    if len(set(s)) != k:
        raise ValueError(f"edge {t!r} is not a {k}-element vertex set")
    for v in s:
        _check_vertex(v, n)
    return s


def _check_labels(class_of: Optional[Mapping[int, str]], n: int) -> Optional[dict[int, str]]:
    """A copy of the vertex labels, every labelled vertex checked against n
    and every label a non-empty str with no whitespace, so that both file
    formats can write it as one token and read it back."""
    if class_of is None:
        return None
    if not isinstance(class_of, Mapping):
        raise ValueError(f"class labels must be a mapping, got {type(class_of).__name__}")
    labels = dict(class_of)
    for v, label in labels.items():
        _check_vertex(v, n)
        # split() cuts at exactly the characters isspace() accepts
        if not (isinstance(label, str) and label.split() == [label]):
            raise ValueError(f"class label {label!r} must be a non-empty string with no whitespace")
    return labels


class Graph:
    """Simple undirected graph with adjacency-set representation.

    ``class_of`` optionally labels vertices with provenance (a blowup class,
    a partite class, or a construction's vertex name).  Labels ride along
    through file round-trips but play no role in adjacency queries.
    """

    __slots__ = ("n", "adj", "class_of")

    def __init__(
        self,
        n: int,
        edges: Iterable[tuple[int, int]] = (),
        class_of: Optional[Mapping[int, str]] = None,
    ):
        _check_count(n)
        adj: list[set[int]] = [set() for _ in range(n)]
        for e in edges:
            # the common case inline: a sorted, in-range tuple of two exact ints
            if type(e) is tuple and len(e) == 2:
                u, v = e
                if type(u) is int and type(v) is int and 0 <= u < v < n:
                    adj[u].add(v)
                    adj[v].add(u)
                    continue
            u, v = _canonical_edge(e, n, 2)
            adj[u].add(v)
            adj[v].add(u)
        self.n = n
        self.adj = tuple(frozenset(s) for s in adj)
        self.class_of = _check_labels(class_of, n)

    def has_edge(self, u: int, v: int) -> bool:
        _check_vertex(u, self.n)
        _check_vertex(v, self.n)
        return v in self.adj[u]

    def edges(self) -> list[tuple[int, int]]:
        """All edges as sorted (u, v) pairs with u < v, in lexicographic order."""
        return sorted((u, v) for u in range(self.n) for v in self.adj[u] if u < v)

    @property
    def edge_count(self) -> int:
        return sum(len(s) for s in self.adj) // 2

    def max_degree(self) -> int:
        return max((len(s) for s in self.adj), default=0)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.n == other.n
            and self.adj == other.adj
            and self.class_of == other.class_of
        )

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edge_count})"


_DIGIT_BITS = bytes.maketrans(b"01", b"\x00\x01")


class TriGraph:
    """Simple 3-uniform hypergraph.

    Edges are stored as a lexicographically sorted tuple of canonical
    triples, which fixes iteration order and, being duplicate-free, serves
    equality and hashing.  ``edge_set``, the frozenset behind O(1)
    membership, is built from that tuple on first use and kept.  Two threads
    that first read it at once each build an equal frozenset and either may
    be kept, so the memo is benign for graphs shared across threads.
    ``distinguished`` optionally marks one vertex; the extremal constructions
    use it for the vertex certified to be uncoverable.  ``from_mask`` builds
    one from a triple mask, the form the constructions and the spot-check
    compute.
    """

    __slots__ = ("n", "edges", "distinguished", "class_of", "_edge_set")

    def __init__(
        self,
        n: int,
        edges: Iterable[Iterable[int]] = (),
        distinguished: Optional[int] = None,
        class_of: Optional[Mapping[int, str]] = None,
    ):
        _check_count(n)
        canon = []
        add = canon.append
        for e in edges:
            # the common case inline: a sorted, in-range tuple of three exact ints
            if type(e) is tuple and len(e) == 3:
                a, b, c = e
                if type(a) is int and type(b) is int and type(c) is int and 0 <= a < b < c < n:
                    add(e)
                    continue
            add(_canonical_edge(e, n, 3))
        # strictly increasing input (every canonical file, most constructions)
        # is already sorted and duplicate-free
        if not all(map(lt, canon, islice(canon, 1, None))):
            canon = sorted(set(canon))
        self.n = n
        self.edges = tuple(canon)
        self._edge_set: Optional[frozenset[tuple[int, int, int]]] = None
        if distinguished is not None:
            _check_vertex(distinguished, n)
        self.distinguished = distinguished
        self.class_of = _check_labels(class_of, n)

    @classmethod
    def from_mask(
        cls,
        n: int,
        mask: int,
        *,
        distinguished: Optional[int] = None,
        class_of: Optional[Mapping[int, str]] = None,
    ) -> TriGraph:
        """The 3-graph whose edges are the triples whose bits are set in
        ``mask``, bit i for the i-th triple of ``combinations(range(n), 3)``.

        The mask is checked in O(1): an int (not a bool) with
        0 <= mask < 2 ** C(n, 3); ``distinguished`` and ``class_of`` are
        checked as ``__init__`` checks them.  Triples in ``combinations``
        order are canonical and sorted, so the edges are read off the mask
        by one ``compress`` and skip ``__init__``'s per-edge checks.
        """
        _check_count(n)
        if not _is_int(mask):
            raise ValueError(f"triple mask {mask!r} is not an int")
        if mask < 0 or mask.bit_length() > comb(n, 3):
            raise ValueError(f"triple mask is not a set of the {comb(n, 3)} triples on {n} vertices")
        if distinguished is not None:
            _check_vertex(distinguished, n)
        labels = _check_labels(class_of, n)
        H = cls.__new__(cls)
        # the binary digits from bit 0 up, as bytes 0 and 1 for compress
        keep = bin(mask)[:1:-1].encode().translate(_DIGIT_BITS)
        H.n = n
        H.edges = tuple(compress(combinations(range(n), 3), keep))
        H._edge_set = None
        H.distinguished = distinguished
        H.class_of = labels
        return H

    def has_edge(self, a: int, b: int, c: int) -> bool:
        """Whether {a, b, c} is an edge; a repeated vertex gives False and a
        vertex that is not an int in [0, n) raises ValueError."""
        _check_vertex(a, self.n)
        _check_vertex(b, self.n)
        _check_vertex(c, self.n)
        return tuple(sorted((a, b, c))) in self.edge_set

    @property
    def edge_set(self) -> frozenset[tuple[int, int, int]]:
        """The edges as a frozenset, built on first use and kept (a benign
        memo across threads: every build is equal to every other)."""
        if self._edge_set is None:
            self._edge_set = frozenset(self.edges)
        return self._edge_set

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TriGraph):
            return NotImplemented
        return (
            self.n == other.n
            and self.edges == other.edges
            and self.distinguished == other.distinguished
            and self.class_of == other.class_of
        )

    def __hash__(self) -> int:
        return hash((self.n, self.edges, self.distinguished))

    def __repr__(self) -> str:
        x = f", x={self.distinguished}" if self.distinguished is not None else ""
        return f"TriGraph(n={self.n}, edges={self.edge_count}{x})"


@dataclass(frozen=True)
class PairDegreeProfile:
    """Codegree statistics over all unordered vertex pairs of a 3-graph.

    ``min`` is delta2; ``argmin_pairs`` lists every pair attaining it;
    ``histogram`` maps codegree value -> number of pairs, with counts summing
    to n*(n-1)/2 (pairs of codegree zero included).
    """

    min: int
    argmin_pairs: tuple[tuple[int, int], ...]
    histogram: Mapping[int, int]


def codegree(H: TriGraph, a: int, b: int) -> int:
    """Number of vertices c such that {a, b, c} is an edge of H."""
    _check_trigraph(H)
    _canonical_edge((a, b), H.n, 2)
    return sum(1 for c in range(H.n) if c != a and c != b and H.has_edge(a, b, c))


def pair_degree_table(H: TriGraph) -> dict[tuple[int, int], int]:
    """Codegree of every unordered pair, keyed in ``combinations`` order: the
    popcount of the pair's codegree neighbourhood."""
    bits = codegree_neighbourhoods(H)
    return {(a, b): bits[a][b].bit_count() for a, b in combinations(range(H.n), 2)}


def codegree_neighbourhoods(H: TriGraph) -> list[list[int]]:
    """Codegree neighbourhoods as bitmasks, built in one pass over the edges.

    ``bits[a][b] == bits[b][a]`` has bit c set iff {a, b, c} is an edge of H,
    so it is 0 for a == b and for pairs of codegree zero, and its popcount is
    the codegree of {a, b}.  Anything but a ``TriGraph`` raises ValueError.
    """
    _check_trigraph(H)
    n = H.n
    power = [1 << c for c in range(n)]
    bits = [[0] * n for _ in range(n)]
    # edges are sorted triples, so each sets entries with a < b only
    for a, b, c in H.edges:
        ra = bits[a]
        ra[b] |= power[c]
        ra[c] |= power[b]
        bits[b][c] |= power[a]
    # then each row's lower part takes its column's upper part, so both
    # orders of a pair share one int object
    for b, column in enumerate(list(zip(*bits))):
        bits[b][:b] = column[:b]
    return bits


def _delta2(bits: Sequence[Sequence[int]]) -> int:
    """delta2 read off ``codegree_neighbourhoods``: the least popcount of a
    pair a < b."""
    if len(bits) < 2:
        raise ValueError("minimum codegree needs at least 2 vertices")
    return min(min(map(int.bit_count, row[a + 1:])) for a, row in enumerate(bits[:-1]))


def min_codegree(H: TriGraph) -> PairDegreeProfile:
    """Full pair-degree profile of H; ``min`` is the minimum codegree delta2.
    Pairs are read off ``codegree_neighbourhoods(H)`` in ``combinations``
    order, so the histogram lists values as they first occur."""
    bits = codegree_neighbourhoods(H)
    lo = _delta2(bits)
    histogram: dict[int, int] = {}
    argmin = []
    for a, b in combinations(range(H.n), 2):
        d = bits[a][b].bit_count()
        histogram[d] = histogram.get(d, 0) + 1
        if d == lo:
            argmin.append((a, b))
    return PairDegreeProfile(min=lo, argmin_pairs=tuple(argmin), histogram=histogram)


class LinkGraph(NamedTuple):
    """Link of a vertex, re-indexed to 0..n-2; ``to_host`` maps back."""

    graph: Graph
    to_host: tuple[int, ...]

    def host_to_link(self) -> dict[int, int]:
        return {h: i for i, h in enumerate(self.to_host)}


def link_graph(H: TriGraph, x: int) -> LinkGraph:
    """Link graph of x: the 2-graph {ab : xab in E(H)} on V(H) - {x}.

    The result is compact (vertices 0..n-2); ``to_host[i]`` recovers the
    original index of link vertex i.  Link labels are inherited from H.
    Anything but a ``TriGraph`` raises ValueError.
    """
    _check_trigraph(H)
    _check_vertex(x, H.n)
    to_host = tuple(v for v in range(H.n) if v != x)
    to_link = {h: i for i, h in enumerate(to_host)}
    edges = []
    for a, b, c in H.edges:
        if x == a:
            edges.append((to_link[b], to_link[c]))
        elif x == b:
            edges.append((to_link[a], to_link[c]))
        elif x == c:
            edges.append((to_link[a], to_link[b]))
    class_of = None
    if H.class_of is not None:
        class_of = {to_link[v]: lab for v, lab in H.class_of.items() if v != x}
    return LinkGraph(Graph(len(to_host), edges, class_of=class_of), to_host)


class TriangleCheck(NamedTuple):
    triangle_free: bool
    witness: Optional[tuple[int, int, int]]


def _first_triangle(rows: Sequence[int]) -> Optional[tuple[int, int, int]]:
    """The lexicographically smallest triangle of the graph whose adjacency
    masks are ``rows`` (bit v of ``rows[u]`` set iff uv is an edge), or None.

    It is the first edge u < v, in lexicographic order, whose masks meet,
    closed by their lowest common neighbour w.  Then w > v: were w < v, the
    edge of u and w would come first and its masks would meet at v.
    """
    for u, nu in enumerate(rows):
        later = nu >> (u + 1) << (u + 1)
        while later:
            low = later & -later
            v = low.bit_length() - 1
            common = nu & rows[v]
            if common:
                return (u, v, (common & -common).bit_length() - 1)
            later ^= low
    return None


def is_triangle_free(G: Graph) -> TriangleCheck:
    """Whether G has no three mutually adjacent vertices.

    On failure the lexicographically smallest witness triangle is returned.
    Anything but a ``Graph`` raises ValueError.
    """
    _check_graph(G)
    triangle = _first_triangle([sum(1 << w for w in nbrs) for nbrs in G.adj])
    return TriangleCheck(triangle is None, triangle)


def complete_trigraph(n: int) -> TriGraph:
    """The complete 3-graph on n vertices."""
    _check_count(n)
    return TriGraph.from_mask(n, (1 << comb(n, 3)) - 1)
