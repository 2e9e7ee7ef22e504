"""Vertex blowups of graphs, with the class bookkeeping the link constructions need.

The k-blowup of a graph G replaces each vertex v by k(v) fresh copies; a copy
of u is adjacent to a copy of v exactly when uv is an edge of G.  Copies of
one vertex form a class (an independent set).  Vertex order in the result is
deterministic: all copies of base vertex 0 first, then base vertex 1, and so
on, copies in increasing copy index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .hypergraphs import Graph, _canonical_edge, _check_graph, _is_int


@dataclass(frozen=True)
class BlowupSpec:
    """A base graph with a non-negative multiplicity (0: an empty class) per
    vertex; a base that is not a ``Graph`` raises ValueError."""

    base: Graph
    multiplicity: Mapping[int, int]

    def __post_init__(self):
        _check_graph(self.base)
        for v in range(self.base.n):
            k = self.multiplicity.get(v)
            if k is None:
                raise ValueError(f"no multiplicity given for base vertex {v}")
            if not _is_int(k) or k < 0:
                raise ValueError(f"multiplicity of base vertex {v} must be a non-negative integer")


@dataclass
class BlowupResult:
    """Blowup graph plus the partition of its vertices into base-vertex classes."""

    graph: Graph
    class_members: dict[int, list[int]]


def blowup(spec: BlowupSpec) -> BlowupResult:
    """Construct the blowup of ``spec.base`` with the given multiplicities.

    Copies inherit the base vertex's class label when the base carries one,
    else the stringified base index.  Anything but a ``BlowupSpec`` raises
    ValueError.
    """
    if not isinstance(spec, BlowupSpec):
        raise ValueError(f"expected a BlowupSpec, got {type(spec).__name__}")
    base = spec.base
    class_members: dict[int, list[int]] = {}
    class_of: dict[int, str] = {}
    nxt = 0
    for v in range(base.n):
        k = spec.multiplicity[v]
        class_members[v] = list(range(nxt, nxt + k))
        label = base.class_of.get(v, str(v)) if base.class_of else str(v)
        for i in range(nxt, nxt + k):
            class_of[i] = label
        nxt += k
    edges = []
    for u, v in base.edges():
        for cu in class_members[u]:
            for cv in class_members[v]:
                edges.append((cu, cv))
    return BlowupResult(Graph(nxt, edges, class_of=class_of), class_members)


def add_matching_between(result: BlowupResult, class_a: int, class_b: int) -> Graph:
    """New graph with the identity matching inserted between two equal-size classes.

    The i-th member of class_a is joined to the i-th member of class_b.  The
    classes must currently be non-adjacent (their base vertices were not
    adjacent), so the insertion is a genuine matching between independent sets.
    Empty classes yield the graph unchanged.  Anything but a ``BlowupResult``
    raises ValueError.
    """
    if not isinstance(result, BlowupResult):
        raise ValueError(f"expected a BlowupResult, got {type(result).__name__}")
    members_a = result.class_members.get(class_a)
    members_b = result.class_members.get(class_b)
    if members_a is None or members_b is None:
        raise ValueError("unknown blowup class")
    if len(members_a) != len(members_b):
        raise ValueError(
            f"classes have different sizes ({len(members_a)} vs {len(members_b)})"
        )
    g = result.graph
    for u in members_a:
        for v in members_b:
            if g.has_edge(u, v):
                raise ValueError(f"classes already adjacent (edge {u}-{v} present)")
    return add_edge_list(g, zip(members_a, members_b))


def add_edge_list(g: Graph, pairs: Iterable[tuple[int, int]]) -> Graph:
    """New graph with exactly the given non-edges added.

    Duplicate pairs and already-present edges are rejected; this guards the
    hand-transcribed matchings of the extremal constructions.  Anything but
    a ``Graph`` for ``g`` raises ValueError.
    """
    _check_graph(g)
    new_edges = g.edges()
    seen = set(new_edges)
    for e in pairs:
        key = _canonical_edge(e, g.n, 2)
        if key in seen:
            raise ValueError(f"edge {key} already present or listed twice")
        seen.add(key)
        new_edges.append(key)
    return Graph(g.n, new_edges, class_of=g.class_of)
