"""Partition a bipartite graph's edges into Delta matchings.

Every bipartite graph with maximum degree Delta admits such a partition
(Koenig's edge-coloring theorem); for Delta-regular graphs each class is a
perfect matching.  The general routine finds the bipartition itself, then
inserts edges one at a time, giving each a color free at both endpoints
after at most one alternating-path recolor.  A closed-form round-robin fast
path covers complete bipartite graphs, where bit-reproducible output
matters for the constructions built on top of it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .hypergraphs import Graph, _check_graph, _is_int


@dataclass(frozen=True)
class EdgeColoring:
    """Edge classes M_0, ..., M_{delta-1}: disjoint matchings covering E(G)."""

    classes: tuple[tuple[tuple[int, int], ...], ...]
    delta: int

    @property
    def edge_count(self) -> int:
        return sum(len(c) for c in self.classes)

    def to_dict(self) -> dict:
        return {
            "delta": self.delta,
            "class_count": len(self.classes),
            "classes": [[list(e) for e in c] for c in self.classes],
        }


def _first_free(used: dict[int, int], delta: int) -> int:
    for c in range(delta):
        if c not in used:
            return c
    raise AssertionError("no free color at a vertex of degree < delta")


def bipartite_edge_coloring(G: Graph) -> EdgeColoring:
    """Color E(G) with exactly Delta(G) colors, each class a matching.

    ``G`` must be bipartite.  Each component is 2-colored by the parity of
    the distance from its least vertex, and the first edge of ``G.edges()``
    with both ends in one color, which closes an odd cycle, is reported in
    the error.  Anything but a ``Graph`` raises ValueError.
    """
    _check_graph(G)
    side = [-1] * G.n
    for root in range(G.n):
        if side[root] < 0:
            side[root] = 0
            queue = [root]
            for u in queue:  # breadth-first: the loop reads what it appends
                for w in G.adj[u]:
                    if side[w] < 0:
                        side[w] = side[u] ^ 1
                        queue.append(w)
    edges = G.edges()
    for u, w in edges:
        if side[u] == side[w]:
            raise ValueError(f"edge ({u}, {w}) closes an odd cycle: the graph is not bipartite")

    delta = G.max_degree()
    if delta == 0:
        return EdgeColoring(classes=(), delta=0)

    used: list[dict[int, int]] = [dict() for _ in range(G.n)]  # vertex -> {color: partner}
    for u, w in edges:
        a = _first_free(used[u], delta)
        b = a if a not in used[w] else _first_free(used[w], delta)
        # b is free at w.  Swap colors along the maximal (a, b)-alternating
        # path from u, which is empty when b is free at u too; when it is
        # not, a is free at u but used at w, and bipartite parity keeps the
        # path away from w.  Afterwards b is free at both.
        cur, col = u, b
        path: list[tuple[int, int, int]] = []
        while col in used[cur]:
            nxt = used[cur][col]
            path.append((cur, nxt, col))
            cur, col = nxt, (a if col == b else b)
        for x, y, c in path:
            del used[x][c]
            del used[y][c]
        for x, y, c in path:
            swapped = a if c == b else b
            used[x][swapped] = y
            used[y][swapped] = x
        assert b not in used[u] and b not in used[w]
        used[u][b] = w
        used[w][b] = u

    classes: list[list[tuple[int, int]]] = [[] for _ in range(delta)]
    for u, colors in enumerate(used):
        for c, w in colors.items():
            if u < w:
                classes[c].append((u, w))
    return EdgeColoring(
        classes=tuple(tuple(sorted(c)) for c in classes),
        delta=delta,
    )


def complete_bipartite_matchings(a: int, b: int) -> EdgeColoring:
    """Round-robin partition of K(a, b) into b matchings, a <= b.

    Vertices 0..a-1 form the small side, a..a+b-1 the large side; class i
    pairs small vertex j with large vertex a + (j + i) mod b.  Deterministic,
    so constructions built from it are bit-reproducible.
    """
    if not (_is_int(a) and _is_int(b)):
        raise ValueError(f"side sizes must be ints, got ({a!r}, {b!r})")
    if a < 0 or b < 0:
        raise ValueError("side sizes must be non-negative")
    if a > b:
        raise ValueError(f"small side first: need a <= b, got ({a}, {b})")
    if a == 0 or b == 0:
        return EdgeColoring(classes=(), delta=0)
    classes = []
    for i in range(b):
        classes.append(tuple(sorted((j, a + (j + i) % b) for j in range(a))))
    return EdgeColoring(classes=tuple(classes), delta=b)


def coloring_is_valid(G: Graph, coloring: EdgeColoring) -> bool:
    """Disjoint matchings, union exactly E(G), class count = Delta(G).

    Anything but a ``Graph`` for ``G`` raises ValueError.
    """
    _check_graph(G)
    seen: set[tuple[int, int]] = set()
    for cls in coloring.classes:
        endpoints: set[int] = set()
        for u, v in cls:
            if not G.has_edge(u, v):
                return False
            key = (u, v) if u < v else (v, u)
            if key in seen:
                return False
            seen.add(key)
            if u in endpoints or v in endpoints:
                return False
            endpoints.update((u, v))
    if len(seen) != G.edge_count:
        return False
    return len(coloring.classes) == coloring.delta == G.max_degree()
