"""Extremal covering-free constructions and their mechanical verification.

Three families certify lower bounds on the K4^- covering threshold and one on
the K5^- threshold:

* ``H1`` (n = 6m), ``H2`` (n = 6m+3), ``H3`` (n = 6m+4): a distinguished
  vertex x whose link is a blowup of a fixed triangle-free base graph (plus
  one or two matchings), with every triple avoiding x an edge exactly when it
  spans at most one link edge.  The link obstruction then keeps x out of
  every K4^- copy while delta2 reaches floor(n/3).
* ``H4`` (any n >= 5): x joined to all cross-pairs of a near-balanced
  3-partition, all non-transversal triples present, and transversal triples
  given by round-robin matchings attached to the third part.  x avoids every
  K5^- copy while delta2 reaches floor((2n-2)/3).

Every family (these, the base graphs G1-G3 and the helper T) is one row of
``_FAMILY``: its parameter, builder and checker.  ``construct``
and ``check_construction`` dispatch through it, ``verify_claim`` builds and
then checks, and ``lower_bound_certificate`` picks a family and parameter for
(n, pattern) and does the same.  A check re-measures every quantity the
certificate depends on, producing a structured ClaimReport.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable, NamedTuple, Optional, Union

from .blowup import BlowupSpec, add_edge_list, add_matching_between, blowup
from .hypergraphs import (
    Graph,
    TriGraph,
    _cone,
    _delta2,
    _is_int,
    _sparse,
    _triple_mask,
    codegree_neighbourhoods,
    is_triangle_free,
)
from .koenig import complete_bipartite_matchings
from .patterns import Pattern, builtin_pattern, clique_profile, covered_at, covering_obstruction


class UnsupportedResidueError(ValueError):
    """No construction is provided for this (n, pattern) combination."""


# Base graphs: a hexagon v1..v6, an outer cycle on numbered vertices, and a
# fixed set of cross edges.  Outer vertices take indices 0..r-1 (label i at
# index i-1), hexagon vertices r..r+5; "counts" is (vertices, edges).
_HEX = [("v1", "v2"), ("v2", "v3"), ("v3", "v4"), ("v4", "v5"), ("v5", "v6"), ("v6", "v1")]

_BASE_SPECS: dict[str, dict] = {
    "G1": {
        "counts": (11, 21), "outer": 5,
        "outer_edges": [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)],
        "cross": [
            (1, "v1"), (1, "v3"), (2, "v2"), (2, "v5"), (3, "v4"),
            (3, "v6"), (4, "v3"), (4, "v5"), (5, "v2"), (5, "v6"),
        ],
    },
    "G2": {
        "counts": (14, 30), "outer": 8,
        "outer_edges": [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (8, 1)],
        "cross": [
            (1, "v1"), (1, "v3"), (2, "v2"), (2, "v6"), (3, "v1"), (3, "v5"),
            (4, "v3"), (4, "v6"), (5, "v2"), (5, "v4"), (6, "v3"), (6, "v5"),
            (7, "v4"), (7, "v6"), (8, "v2"), (8, "v5"),
        ],
    },
    "G3": {
        "counts": (15, 35), "outer": 9,
        "outer_edges": [
            (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (8, 1),
            (1, 9), (3, 9), (7, 9),
        ],
        "cross": [
            (1, "v1"), (1, "v3"), (2, "v2"), (2, "v6"), (3, "v1"), (3, "v4"),
            (4, "v3"), (4, "v5"), (5, "v4"), (5, "v6"), (6, "v1"), (6, "v5"),
            (7, "v3"), (7, "v6"), (8, "v2"), (8, "v4"), (9, "v2"), (9, "v5"),
        ],
    },
}

# Which base each link family blows up, its vertex offset (the family with
# parameter m has 6m + offset vertices), and which matchings get inserted:
# a perfect matching between the blowup classes of v1 and v4, and/or a fixed
# matching on outer vertices (given as label pairs).
_H_SPECS: dict[str, dict] = {
    "H1": {"base": "G1", "offset": 0, "v_matching": True, "outer_matching": []},
    "H2": {"base": "G2", "offset": 3, "v_matching": True,
           "outer_matching": [(1, 5), (2, 6), (3, 7), (4, 8)]},
    "H3": {"base": "G3", "offset": 4, "v_matching": False,
           "outer_matching": [(1, 5), (2, 6), (4, 8)]},
}


def _base_spec(name: str) -> dict:
    spec = _BASE_SPECS.get(name) if isinstance(name, str) else None
    if spec is None:
        raise ValueError(f"unknown base graph {name!r} (expected G1, G2 or G3)")
    return spec


def base_graph(name: str) -> Graph:
    """One of the three fixed triangle-free base graphs G1, G2, G3."""
    spec = _base_spec(name)
    r = spec["outer"]

    def idx(label: Union[int, str]) -> int:
        if isinstance(label, int):
            return label - 1
        return r + int(label[1:]) - 1

    edges = [(idx(a), idx(b)) for a, b in _HEX]
    edges += [(idx(a), idx(b)) for a, b in spec["outer_edges"]]
    edges += [(idx(a), idx(b)) for a, b in spec["cross"]]
    class_of = {i: str(i + 1) for i in range(r)}
    class_of.update({r + j: f"v{j + 1}" for j in range(6)})
    return Graph(r + 6, edges, class_of=class_of)


def _check_m(m: int) -> None:
    if not _is_int(m) or m < 1:
        raise ValueError("m must be a positive integer")


def link_graph_for(family: str, m: int) -> Graph:
    """The link that defines H1/H2/H3: a blowup of the base graph (hexagon
    classes of size m-1, outer vertices kept single) plus the family's
    matchings.  For m = 1 the hexagon classes are empty and only the outer
    part survives."""
    spec = _H_SPECS.get(family) if isinstance(family, str) else None
    if spec is None:
        raise ValueError(f"unknown construction family {family!r}")
    _check_m(m)
    base = base_graph(spec["base"])
    r = _BASE_SPECS[spec["base"]]["outer"]
    mult = {v: 1 for v in range(r)}
    mult.update({r + j: m - 1 for j in range(6)})
    res = blowup(BlowupSpec(base, mult))
    g = res.graph
    if spec["v_matching"]:
        g = add_matching_between(res, r, r + 3)  # classes of v1 and v4
    pairs = [(a - 1, b - 1) for a, b in spec["outer_matching"]]
    if pairs:
        g = add_edge_list(g, pairs)
    return g


def construct_h(family: str, m: int) -> TriGraph:
    """Build H1, H2 or H3 with parameter m >= 1.

    Vertex 0 is the distinguished vertex x; its link is
    :func:`link_graph_for` shifted by one.  Every triple avoiding x is an
    edge exactly when it spans at most one link edge: H is the K4^-
    closed-form completion of its link, as ``exact_c2`` builds it.
    """
    link = link_graph_for(family, m)
    N = [sum(1 << w for w in ws) for ws in link.adj]
    class_of = {0: "x", **{v + 1: link.class_of[v] for v in range(link.n)}}
    return TriGraph.from_mask(link.n + 1, _cone(N, _sparse(N, 1)),
                              distinguished=0, class_of=class_of)


def construct_t(sizes: tuple[int, int, int]) -> TriGraph:
    """3-partite 3-graph whose edges join each round-robin matching of
    K(V1, V2) to one vertex of the third part.

    ``sizes`` is (|V1|, |V2|, |V3|) with 1 <= |V1| <= |V2| <= |V3|.  Third-part
    vertex i (0-based, i < |V2|) picks up matching class i; any extra
    third-part vertices lie in no edge.  Every pair has codegree at most 1,
    and V1 x V2 pairs exactly 1.
    """
    a, m, ell = _check_sizes(sizes)
    edges = [(u, w, z) for (u, w), z in _t_thirds(a, m).items()]
    class_of = {v: f"V{_part(v, a, m) + 1}" for v in range(a + m + ell)}
    return TriGraph(a + m + ell, edges, class_of=class_of)


def _t_thirds(a: int, m: int) -> dict[tuple[int, int], int]:
    """The third-part vertex of T joined to each V1 x V2 pair (u, w), for
    |V1| = a and |V2| = m: matching class i of K(V1, V2) picks vertex a + m + i."""
    coloring = complete_bipartite_matchings(a, m)
    return {pair: a + m + i for i in range(m) for pair in coloring.classes[i]}


def _check_sizes(sizes: tuple[int, int, int]) -> tuple[int, int, int]:
    """The part sizes of T as a tuple of three ints with 1 <= |V1| <= |V2| <= |V3|."""
    t = tuple(sizes) if isinstance(sizes, (tuple, list)) else ()
    if len(t) != 3 or not all(map(_is_int, t)):
        raise ValueError(f"sizes must be three ints, got {sizes!r}")
    if not 1 <= t[0] <= t[1] <= t[2]:
        raise ValueError(f"sizes must satisfy 1 <= |V1| <= |V2| <= |V3|, got {sizes}")
    return t


def _part(i: int, a: int, m: int) -> int:
    """The part (0, 1 or 2) of index i when V1, V2, V3 lie in index order from
    0 with |V1| = a and |V2| = m."""
    return 0 if i < a else (1 if i < a + m else 2)


def h4_part_sizes(n: int) -> tuple[int, int, int]:
    """The unique near-balanced part sizes (|V1|, |V2|, |V3|) summing to n-1
    with |V2|-1 <= |V1| <= |V2| <= |V3| <= |V2|+1 and |V3| - |V1| <= 1."""
    if not _is_int(n):
        raise ValueError(f"n must be an int, got {n!r}")
    if n < 5:
        raise ValueError("the three-part construction needs n >= 5")
    s = n - 1
    return (s // 3, (s + 1) // 3, (s + 2) // 3)


def construct_h4(n: int) -> TriGraph:
    """Build the K5^- certificate on n >= 5 vertices.

    Vertex 0 is x; parts V1, V2, V3 occupy indices 1..n-1 in order.  H4 is
    a cone: x's link is the complete 3-partite graph on the parts, and the
    body holds every non-transversal triple and the transversal triples of
    :func:`construct_t` on the parts.
    """
    a, m, ell = h4_part_sizes(n)
    # body vertex v is H's vertex v + 1 and T's vertex v
    parts = [(1 << a) - 1, ((1 << m) - 1) << a, ((1 << ell) - 1) << (a + m)]
    N = [((1 << (n - 1)) - 1) ^ parts[_part(v, a, m)] for v in range(n - 1)]
    third = _t_thirds(a, m)

    def thirds(u: int, w: int) -> int:
        # of the transversal triples, only T's
        return parts[1] | 1 << third[u, w] if u < a <= w < a + m else -1

    class_of = {0: "x", **{v + 1: f"V{_part(v, a, m) + 1}" for v in range(n - 1)}}
    return TriGraph.from_mask(n, _cone(N, _triple_mask(n - 1, thirds)),
                              distinguished=0, class_of=class_of)


class _Family(NamedTuple):
    parameter: Optional[str]  # its keyword; None: the family takes none
    build: Callable  # value -> the object
    check: Callable  # (object, value) -> ClaimReport


# One row per family.  Builders and checkers get the parameter's value, or
# None when it is omitted, and reach their functions through the module
# globals at call time, so a wrapper bound to those names is the one called.
_FAMILY: dict[str, _Family] = {
    **{g: _Family(None, lambda _, g=g: base_graph(g), lambda G, _, g=g: check_base_graph(G, g))
       for g in _BASE_SPECS},
    **{h: _Family("m", lambda m, h=h: construct_h(h, m),
                  lambda H, m, h=h: check_h_construction(H, h, m=m)) for h in _H_SPECS},
    "T": _Family("sizes", lambda s: construct_t(s), lambda H, s: check_t_construction(H, s)),
    "H4": _Family("n", lambda n: construct_h4(n), lambda H, n: check_h4_construction(H, n=n)),
}
FAMILIES = tuple(_FAMILY)


def _resolve(family: str, given: dict[str, object]) -> tuple[_Family, object]:
    """The family's row and its parameter's value in ``given``; ValueError
    for an unknown family and for a parameter the family does not take."""
    row = _FAMILY.get(family) if isinstance(family, str) else None
    if row is None:
        raise ValueError(f"unknown construction family {family!r}")
    for name, value in given.items():
        if value is not None and name != row.parameter:
            raise ValueError(f"{family} takes no parameter {name}")
    return row, given.get(row.parameter)


def construct(
    family: str,
    *,
    m: Optional[int] = None,
    n: Optional[int] = None,
    sizes: Optional[tuple[int, int, int]] = None,
) -> Union[Graph, TriGraph]:
    """Build the named family's object from its one parameter, if it takes one."""
    row, value = _resolve(family, {"m": m, "n": n, "sizes": sizes})
    if row.parameter is not None and value is None:
        raise ValueError(f"{family} needs the parameter {row.parameter}")
    return row.build(value)


# ---------------------------------------------------------------------------
# Claim verification
# ---------------------------------------------------------------------------

@dataclass
class ClaimReport:
    """Re-measured certificate data for one construction.

    ``checks`` holds the named pass/fail sub-checks whose conjunction is
    ``passed``; the remaining fields carry the measured quantities and the
    grouped paper-label table (label -> vertex indices).
    """

    family: str
    parameter: dict
    n: int
    edge_count: int
    checks: dict[str, bool]
    labels: dict[str, list[int]]
    expected_delta2: Optional[int] = None
    measured_delta2: Optional[int] = None
    pattern: Optional[str] = None
    link_degree_profile: Optional[dict[int, int]] = None
    notes: tuple[str, ...] = ()
    passed: bool = field(init=False)

    def __post_init__(self):
        self.passed = all(self.checks.values()) if self.checks else False

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "parameter": self.parameter,
            "n": self.n,
            "edge_count": self.edge_count,
            "expected_delta2": self.expected_delta2,
            "measured_delta2": self.measured_delta2,
            "pattern": self.pattern,
            "link_degree_profile": (
                {str(d): c for d, c in sorted(self.link_degree_profile.items())}
                if self.link_degree_profile is not None
                else None
            ),
            "checks": dict(sorted(self.checks.items())),
            "labels": {lab: list(vs) for lab, vs in sorted(self.labels.items())},
            "notes": list(self.notes),
            "passed": self.passed,
        }


def _label_table(obj: Union[Graph, TriGraph]) -> dict[str, list[int]]:
    table: dict[str, list[int]] = {}
    for v, lab in (obj.class_of or {}).items():
        table.setdefault(lab, []).append(v)
    for vs in table.values():
        vs.sort()
    return table


def _report(
    obj: Union[Graph, TriGraph], family: str, parameter: dict, checks: dict[str, bool], **measured
) -> ClaimReport:
    """A report on ``obj``: its size and labels, the checks, and the measured
    fields passed by keyword."""
    return ClaimReport(family=family, parameter=parameter, n=obj.n, edge_count=obj.edge_count,
                       checks=checks, labels=_label_table(obj), **measured)


def _unmarked_report(
    H: TriGraph, family: str, parameter: dict, expected_delta2: int, pattern: str
) -> ClaimReport:
    """The failed report for a certificate whose distinguished vertex is not marked."""
    return _report(H, family, parameter, {"has_distinguished_vertex": False},
                   expected_delta2=expected_delta2, pattern=pattern,
                   notes=("no distinguished vertex marked; cannot verify the certificate",))


def _infer_m(family: str, n: int) -> int:
    offset = _H_SPECS[family]["offset"]
    if n < 6 + offset or (n - offset) % 6 != 0:
        raise ValueError(f"no parameter m gives an {family} on {n} vertices")
    return (n - offset) // 6


def _check_kind(obj: object, family: str, kind: type) -> None:
    """ValueError unless ``obj`` is the family's object type, Graph or
    TriGraph; every checker runs it before reading the object."""
    if not isinstance(obj, kind):
        raise ValueError(f"{family} is a {2 if kind is Graph else 3}-graph family")


def check_base_graph(G: Graph, name: str) -> ClaimReport:
    _check_kind(G, name, Graph)
    exp_n, exp_edges = _base_spec(name)["counts"]
    checks = {
        "vertex_count": G.n == exp_n,
        "edge_count": G.edge_count == exp_edges,
        "triangle_free": is_triangle_free(G).triangle_free,
    }
    return _report(G, name, {}, checks)


def check_h_construction(H: TriGraph, family: str, m: Optional[int] = None) -> ClaimReport:
    """Verify the K4^- certificate claims against a given 3-graph.

    Checks the vertex count, delta2, link triangle-freeness, the link degree
    profile, the local obstruction at x, and that x lies in no K4^- copy.
    Every claim is read off one ``codegree_neighbourhoods(H)`` table: delta2
    and the link degrees (row x) as popcounts, and the obstruction and the
    embedder's refutation of x from the same masks.  A ``Graph`` raises
    ValueError.
    """
    if not isinstance(family, str) or family not in _H_SPECS:
        raise ValueError(f"{family!r} is not one of the blowup-link families")
    _check_kind(H, family, TriGraph)
    if m is None:
        m = _infer_m(family, H.n)
    _check_m(m)
    expected_n = 6 * m + _H_SPECS[family]["offset"]
    expected_delta = expected_n // 3
    if H.distinguished is None:
        return _unmarked_report(H, family, {"m": m}, expected_delta, "K4-")
    x = H.distinguished
    bits = codegree_neighbourhoods(H)
    delta2 = _delta2(bits)
    # the link degree of v is the codegree of xv
    link_degree = {v: bits[x][v].bit_count() for v in range(H.n) if v != x}
    measured_profile = Counter(link_degree.values())
    if family == "H3":
        expected_profile = {2 * m + 2: 1, 2 * m + 1: expected_n - 2}
    else:
        expected_profile = {expected_delta: expected_n - 1}
    obstruction = covering_obstruction(H, x, bits=bits)
    checks = {
        "vertex_count": H.n == expected_n,
        "delta2": delta2 == expected_delta,
        "link_triangle_free": obstruction.link_triangle is None,
        "link_degree_profile": measured_profile == expected_profile,
        "obstruction": obstruction.holds,
        "x_uncovered": covered_at(H, x, builtin_pattern("K4-"), bits=bits) is None,
    }
    if family == "H3" and H.class_of:
        heavy = [v for v, lab in H.class_of.items() if lab == "1"]
        if len(heavy) == 1:
            checks["heavy_vertex_degree"] = link_degree.get(heavy[0]) == 2 * m + 2
    return _report(H, family, {"m": m}, checks, expected_delta2=expected_delta,
                   measured_delta2=delta2, pattern="K4-",
                   link_degree_profile=measured_profile)


def check_t_construction(H: TriGraph, sizes: Optional[tuple[int, int, int]]) -> ClaimReport:
    _check_kind(H, "T", TriGraph)
    if sizes is None:
        raise ValueError("T needs the parameter sizes")
    a, m, ell = sizes = _check_sizes(sizes)
    n = a + m + ell
    bits = codegree_neighbourhoods(H)
    transversal = all(len({_part(v, a, m) for v in e}) == 3 for e in H.edges)
    # a graph without all of V1 and V2 misses some V1 x V2 pair
    cross_pairs_ok = H.n >= a + m and all(
        bits[u][w].bit_count() == 1 for u in range(a) for w in range(a, a + m)
    )
    checks = {
        "vertex_count": H.n == n,
        "edge_count": H.edge_count == a * m,
        "all_edges_transversal": transversal,
        "max_codegree_le_1": all(d.bit_count() <= 1 for row in bits for d in row),
        "v1_v2_codegree_1": cross_pairs_ok,
    }
    return _report(H, "T", {"sizes": list(sizes)}, checks)


def check_h4_construction(H: TriGraph, n: Optional[int] = None) -> ClaimReport:
    """Verify the K5^- certificate claims against a given 3-graph.

    Besides delta2 and x being uncovered, every pair codegree is checked
    against its closed form: same-part pairs give n-3, pairs through x give
    n-1-|V_i|, and cross-part pairs give |V_i|+|V_j|-1+d_T, with T's
    codegree d_T read off the round-robin rule of
    :func:`~tricover.koenig.complete_bipartite_matchings`, so the check
    shares no code with ``construct_h4``.  Every claim is read off one
    ``codegree_neighbourhoods(H)`` table, which the embedder's refutation of
    x shares.  A ``Graph`` raises ValueError.
    """
    _check_kind(H, "H4", TriGraph)
    if n is None:
        n = H.n
    a, m, ell = h4_part_sizes(n)
    expected_delta = (2 * n - 2) // 3
    if H.distinguished is None:
        return _unmarked_report(H, "H4", {"n": n}, expected_delta, "K5-")
    x = H.distinguished
    sizes = (a, m, ell)
    # canonical layout: x then V1, V2, V3 in index order, so vertex v is
    # vertex body[v] of T; body preserves order away from x
    body = [v if v < x else v - 1 for v in range(H.n)]
    part = [_part(b, a, m) for b in body]
    bits = codegree_neighbourhoods(H)
    delta2 = _delta2(bits)
    same_ok = x_ok = cross_ok = True
    for u, w in combinations(range(H.n), 2):
        d = bits[u][w].bit_count()
        if u == x or w == x:
            other = w if u == x else u
            if d != n - 1 - sizes[part[other]]:
                x_ok = False
        elif part[u] == part[w]:
            if d != n - 3:
                same_ok = False
        else:
            # T's matching class i pairs V1 vertex j with V2 vertex
            # a + (j + i) mod m and takes V3 vertex a + m + i: d_T is 1 on
            # V1 x V2, and with V3 vertex a + m + i it is [i < m] from V1 and
            # [i < m and (r - i) mod m < a] from V2 vertex a + r
            i = body[w] - a - m
            d_t = part[w] == 1 or i < m and (part[u] == 0 or (body[u] - a - i) % m < a)
            if d != sizes[part[u]] + sizes[part[w]] - 1 + d_t:
                cross_ok = False
    checks = {
        "vertex_count": H.n == n,
        "delta2": delta2 == expected_delta,
        "x_uncovered": covered_at(H, x, builtin_pattern("K5-"), bits=bits) is None,
        "codegree_same_part": same_ok,
        "codegree_x_pairs": x_ok,
        "codegree_cross_part": cross_ok,
    }
    notes = (
        f"delta2 target is floor((2n-2)/3) = {expected_delta}; "
        "the looser reading floor((3n-2)/3) is rejected as inconsistent "
        "with the per-pair codegree forms",
    )
    return _report(H, "H4", {"n": n, "sizes": list(sizes)}, checks, expected_delta2=expected_delta,
                   measured_delta2=delta2, pattern="K5-", notes=notes)


def check_construction(
    H: Union[Graph, TriGraph],
    family: str,
    *,
    m: Optional[int] = None,
    n: Optional[int] = None,
    sizes: Optional[tuple[int, int, int]] = None,
) -> ClaimReport:
    """Verify a given object against the named family's claims."""
    row, value = _resolve(family, {"m": m, "n": n, "sizes": sizes})
    return row.check(H, value)


def verify_claim(
    family: str,
    *,
    m: Optional[int] = None,
    n: Optional[int] = None,
    sizes: Optional[tuple[int, int, int]] = None,
) -> ClaimReport:
    """Construct the named object and verify every claim made about it."""
    obj = construct(family, m=m, n=n, sizes=sizes)
    return check_construction(obj, family, m=m, n=n, sizes=sizes)


def lower_bound_certificate(n: int, pattern: Union[str, Pattern]) -> tuple[TriGraph, ClaimReport]:
    """An n-vertex witness certifying the covering threshold lower bound.

    The returned 3-graph has delta2 equal to the threshold and a vertex in no
    copy of the pattern; the report carries the verified measurements.  For
    K4^- only n congruent to 0, 3 or 4 mod 6 (n >= 6) is constructible here;
    other residues raise :class:`UnsupportedResidueError`.

    The family follows the pattern's structure, as ``clique_profile`` reads
    it, not its name: K4^- (profile (4, 3)) takes H1-H3 and K5^- (profile
    (5, 9)) takes H4.  A str is resolved by ``builtin_pattern``; a name it
    refuses, any other pattern and any other value raise ValueError.
    """
    F = pattern
    if isinstance(F, str):
        try:
            F = builtin_pattern(F)
        except ValueError:
            pass
    profile = clique_profile(F) if isinstance(F, Pattern) else None
    if profile not in ((4, 3), (5, 9)):
        raise ValueError(f"no certificate family for pattern {getattr(pattern, 'name', pattern)!r}")
    if not _is_int(n):
        raise ValueError(f"n must be an int, got {n!r}")
    if profile == (5, 9):
        family, parameter = "H4", {"n": n}
    else:
        family = next((f for f, spec in _H_SPECS.items() if spec["offset"] == n % 6), None)
        if n < 6 or family is None:
            raise UnsupportedResidueError(f"no K4- certificate for n = {n}: "
                                          "need n >= 6 with n mod 6 in {0, 3, 4}")
        parameter = {"m": n // 6}  # n = 6m + offset with offset < 6
    H = construct(family, **parameter)
    return H, check_construction(H, family, **parameter)
