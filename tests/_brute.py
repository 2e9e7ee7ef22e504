"""Independent brute-force oracles used by the tests.

Everything here is deliberately naive (full enumeration, no pruning, no
shared code paths with the library's algorithms) so test expectations are
computed by a second route.
"""

from __future__ import annotations

from itertools import combinations, permutations
from math import comb
from random import Random
from typing import Optional

from tricover import Graph, Pattern, TriGraph, link_graph_for


def bf_covered(H: TriGraph, v: int, F: Pattern) -> Optional[tuple[int, ...]]:
    """First embedding found by enumerating every injective map with v in the
    image, or None."""
    if F.t > H.n:
        return None
    for subset in combinations(range(H.n), F.t):
        if v not in subset:
            continue
        for perm in permutations(subset):
            if all(
                tuple(sorted((perm[a], perm[b], perm[c]))) in H.edge_set
                for a, b, c in F.edges
            ):
                return perm
    return None


_BF_IMAGES: dict[Pattern, frozenset[int]] = {}


def bf_is_covered(H: TriGraph, v: int, F: Pattern) -> bool:
    """Whether some t-set through v spans a relabelled copy of F.  A set's
    edges form a mask over its C(t, 3) triples, and every relabelling of F
    is one such mask, so each set takes one subset test per relabelling.
    Fast enough for every 3-graph on 6 vertices."""
    if F.t > H.n:
        return False
    spots = list(combinations(range(F.t), 3))
    if F not in _BF_IMAGES:
        index = {e: i for i, e in enumerate(spots)}
        _BF_IMAGES[F] = frozenset(
            sum(1 << index[tuple(sorted((perm[a], perm[b], perm[c])))] for a, b, c in F.edges)
            for perm in permutations(range(F.t))
        )
    images = _BF_IMAGES[F]
    for S in combinations(range(H.n), F.t):
        if v in S:
            inside = sum(1 << i for i, (a, b, c) in enumerate(spots) if (S[a], S[b], S[c]) in H.edge_set)
            if any(not image & ~inside for image in images):
                return True
    return False


def bf_lexmin_embedding(H: TriGraph, v: int, F: Pattern) -> Optional[tuple[int, ...]]:
    """Lexicographically smallest embedding with v in the image, by full
    enumeration (small inputs only)."""
    best = None
    if F.t > H.n:
        return None
    for perm in permutations(range(H.n), F.t):
        if v not in perm:
            continue
        if best is not None and perm >= best:
            continue
        if all(
            tuple(sorted((perm[a], perm[b], perm[c]))) in H.edge_set
            for a, b, c in F.edges
        ):
            best = perm
    return best


def bf_symmetry_classes(F: Pattern) -> tuple[int, ...]:
    """The embedder's symmetry classes as first written: entry q is the least
    class leader p whose swap with q maps every edge, moved as a sorted
    tuple, onto an edge of F; q itself when there is none."""
    classes = list(range(F.t))
    for q in range(F.t):
        for p in range(q):
            swap = {p: q, q: p}
            if classes[p] == p and all(
                tuple(sorted(swap.get(w, w) for w in e)) in F.edges for e in F.edges
            ):
                classes[q] = p
                break
    return tuple(classes)


def bf_anchor_steps(F: Pattern, anchor: int):
    """One anchor's embedder plan as first written, rebuilt from scratch on
    every call: (class members before the anchor, class members after it,
    one (position, placed pairs closing an edge, previous class member or
    -1, the anchor or -1) step per other position in index order)."""
    classes = bf_symmetry_classes(F)
    steps = []
    placed = {anchor}
    for q in range(F.t):
        if q == anchor:
            continue
        placed.add(q)
        edges = [e for e in sorted(F.edges) if q in e and placed.issuperset(e)]
        pairs = tuple(tuple(w for w in e if w != q) for e in edges)
        prev = max((p for p in range(q) if classes[p] == classes[q]), default=-1)
        cap = anchor if classes[q] == classes[anchor] and q < anchor else -1
        steps.append((q, pairs, prev, cap))
    members = [p for p in range(F.t) if classes[p] == classes[anchor]]
    before = members.index(anchor)
    return before, len(members) - 1 - before, tuple(steps)


def bf_class_plans(F: Pattern):
    """The existence search's plans rebuilt from scratch with sets of
    positions: per class leader, (the leader, one (position, placed pairs
    closing an edge, nearest placed class-mate below other than the leader
    or -1) step per other position).  The next position closes the most
    edges with the placed ones, then has a placed class-mate other than the
    leader, then lies outside the leader's class, then is the lowest."""
    classes = bf_symmetry_classes(F)
    plans = []
    for leader in range(F.t):
        if classes[leader] != leader:
            continue
        placed = {leader}
        steps = []
        while len(placed) < F.t:
            def closing(q):
                return [e for e in sorted(F.edges) if q in e and placed | {q} >= set(e)]

            def mates(q):
                return [p for p in placed if p != leader and classes[p] == classes[q]]

            q = min(
                (q for q in range(F.t) if q not in placed),
                key=lambda q: (-len(closing(q)), not mates(q), classes[q] == leader, q),
            )
            pairs = tuple(tuple(w for w in e if w != q) for e in closing(q))
            steps.append((q, pairs, max((p for p in mates(q) if p < q), default=-1)))
            placed.add(q)
        plans.append((leader, tuple(steps)))
    return tuple(plans)


def bf_codegree(H: TriGraph, a: int, b: int) -> int:
    return sum(1 for c in range(H.n) if c not in (a, b) and tuple(sorted((a, b, c))) in H.edge_set)


def bf_min_codegree(H: TriGraph) -> int:
    return min(bf_codegree(H, a, b) for a, b in combinations(range(H.n), 2))


def bf_triangle_free(G: Graph) -> bool:
    return not any(
        G.has_edge(a, b) and G.has_edge(a, c) and G.has_edge(b, c)
        for a, b, c in combinations(range(G.n), 3)
    )


def bf_covering_obstruction(H: TriGraph, x: int) -> tuple:
    """(holds, link triangle, bad edge) at x, from ``H.edge_set`` alone: the
    lexicographically first triple of other vertices whose three pairs are
    all link pairs, else the first edge avoiding x, in sorted order, that
    contains two or more link pairs."""
    edges = H.edge_set

    def linked(a: int, b: int) -> bool:
        return tuple(sorted((x, a, b))) in edges

    others = [v for v in range(H.n) if v != x]
    for a, b, c in combinations(others, 3):
        if linked(a, b) and linked(a, c) and linked(b, c):
            return False, (a, b, c), None
    for e in sorted(edges):
        if x not in e and sum(linked(a, b) for a, b in combinations(e, 2)) >= 2:
            return False, None, e
    return True, None, None


def bf_construct_h(family: str, m: int) -> TriGraph:
    """H1, H2 or H3 triple by triple from its link: x = 0 with every link
    edge, and each triple avoiding x that spans at most one link edge."""
    link = link_graph_for(family, m)
    adj = link.adj
    edges = [(0, a + 1, b + 1) for a, b in link.edges()]
    for a, b, c in combinations(range(link.n), 3):
        if (b in adj[a]) + (c in adj[a]) + (c in adj[b]) <= 1:
            edges.append((a + 1, b + 1, c + 1))
    class_of = {0: "x", **{v + 1: link.class_of[v] for v in range(link.n)}}
    return TriGraph(link.n + 1, edges, distinguished=0, class_of=class_of)


def bf_construct_h4(n: int) -> TriGraph:
    """H4 on n vertices triple by triple: x = 0 and the parts V1, V2, V3 of
    sizes floor((n-1)/3), floor(n/3), floor((n+1)/3) in index order; x with
    every cross-part pair, every body triple that is not transversal, and
    the transversal triples of T, which joins the pair of the j-th vertex
    of V1 and the k-th of V2 to the ((k - j) mod |V2|)-th vertex of V3 (the
    round-robin matchings of K(V1, V2))."""
    sizes = ((n - 1) // 3, n // 3, (n + 1) // 3)
    part = {0: None}
    for v in range(1, n):
        part[v] = 0 if v <= sizes[0] else 1 if v <= sizes[0] + sizes[1] else 2
    first = [1, 1 + sizes[0], 1 + sizes[0] + sizes[1]]
    edges = []
    for tri in combinations(range(n), 3):
        if tri[0] == 0:
            if part[tri[1]] != part[tri[2]]:
                edges.append(tri)
        elif sorted(part[v] for v in tri) != [0, 1, 2]:
            edges.append(tri)
        else:
            j, k, ell = (v - first[part[v]] for v in tri)
            if ell == (k - j) % sizes[1]:
                edges.append(tri)
    class_of = {v: "x" if v == 0 else f"V{part[v] + 1}" for v in range(n)}
    return TriGraph(n, edges, distinguished=0, class_of=class_of)


def bf_exact_c2(n: int, F: Pattern) -> int:
    """c2(n, F) by enumerating every 3-graph on n vertices with vertex 0
    uncovered, no pruning: the best delta2, or -1 when every graph covers
    vertex 0.  2^C(n, 3) graphs, so n <= 6, where it takes from half a
    minute to two minutes."""
    triples = list(combinations(range(n), 3))
    if len(triples) > 20:
        raise ValueError("naive enumeration is limited to n <= 6")
    # the triples through each pair, as a mask over the triple indices: a
    # pair's codegree in the graph `mask` is the popcount of their meet
    through = [
        sum(1 << i for i, e in enumerate(triples) if a in e and b in e)
        for a, b in combinations(range(n), 2)
    ]
    best = -1
    for mask in range(1 << len(triples)):
        H = TriGraph(n, [triples[i] for i in range(len(triples)) if (mask >> i) & 1])
        if not bf_is_covered(H, 0, F):
            best = max(best, min((mask & pair).bit_count() for pair in through))
    return best


def bf_greedy_value(
    n: int, F: Pattern, link: list[tuple[int, int]]
) -> Optional[tuple[int, list[tuple[int, int, int]]]]:
    """The K4 / K4- leaf completion as first written: fix the link of vertex
    0 (pairs of host vertices 1..n-1), then add the triples avoiding 0 in
    lexicographic order while every t-set through 0 stays below F's edge
    count.  Returns (delta2, edges) of the result, or None when the link
    alone covers 0.  Only for K_t / K_t^- patterns."""
    theta = F.edge_count
    sets = list(combinations(range(1, n), F.t - 1))
    tot = {T: sum(1 for a, b in link if a in T and b in T) for T in sets}
    if any(c >= theta for c in tot.values()):
        return None
    edges = [(0, a, b) for a, b in link]
    for tri in combinations(range(1, n), 3):
        around = [T for T in sets if set(tri) <= set(T)]
        if all(tot[T] + 1 < theta for T in around):
            for T in around:
                tot[T] += 1
            edges.append(tri)
    return bf_min_codegree(TriGraph(n, edges)), edges


def bf_link_vector(nv: int, link) -> tuple[int, ...]:
    """A link on vertices 0..nv-1 as its 0/1 vector in pair order."""
    return tuple(int(p in link) for p in combinations(range(nv), 2))


def bf_relabel(nv: int, vec: tuple[int, ...], perm) -> tuple[int, ...]:
    """The vector of the link with each pair ab renamed to perm[a] perm[b]."""
    pairs = list(combinations(range(nv), 2))
    moved = {tuple(sorted((perm[a], perm[b]))) for (a, b), bit in zip(pairs, vec) if bit}
    return bf_link_vector(nv, moved)


def bf_lexmin_links(nv: int) -> set[tuple[int, ...]]:
    """The lexicographically least vector of every isomorphism class of
    links on nv vertices, by trying every permutation on every link."""
    perms = list(permutations(range(nv)))
    least = set()
    for bits in range(1 << comb(nv, 2)):
        vec = tuple((bits >> j) & 1 for j in range(comb(nv, 2)))
        least.add(min(bf_relabel(nv, vec, perm) for perm in perms))
    return least


def bf_is_adjacent_leader(nv: int, vec: tuple[int, ...]) -> bool:
    """Whether vec <= s(vec) for every transposition s = (u u+1)."""
    for u in range(nv - 1):
        perm = list(range(nv))
        perm[u], perm[u + 1] = u + 1, u
        if vec > bf_relabel(nv, vec, perm):
            return False
    return True


def bf_decision_search(n: int, F: Pattern, N: list[int], v: int, budget, force: bool = True):
    """The completion search as it was written before its incremental bound:
    every node rescans all pairs for the least ``link1 + in + undecided``
    value and branches on the first undecided triple of the lowest pair of
    least value.  ``N`` holds the link of vertex 0 as adjacency masks over
    local vertices 0..n-2 (host vertex = local + 1); ``budget.spend()`` is
    called once per node.  Returns the completion's edges, or None.  For a
    pattern that is not K_t or K_t^- the covering test is
    ``bf_is_covered``, which decides what the library's ``is_covered`` did
    in that search.

    With ``force`` (K_t and K_t^- only), at the root and after every include
    a rescan of all (t-1)-sets finds those one triple short of the
    threshold and excludes each of their undecided triples, which costs no
    node; they are undecided again when the include is undone.  Without it
    such a triple is excluded only when the search tries to include it."""
    nv = n - 1
    pairs = list(combinations(range(nv), 2))
    P = len(pairs)
    pidx = {p: i for i, p in enumerate(pairs)}
    triples = list(combinations(range(nv), 3))
    tri_pairs = [(pidx[(a, b)], pidx[(a, c)], pidx[(b, c)]) for a, b, c in triples]
    pair_tris: list[list[int]] = [[] for _ in pairs]
    for i, ps in enumerate(tri_pairs):
        for p in ps:
            pair_tris[p].append(i)
    full = comb(F.t, 3)
    theta = F.edge_count if F.edge_count >= full - 1 else None
    set_pairs = []
    set_tris = []
    tri_sets: list[list[int]] = [[] for _ in triples]
    if theta is not None:
        tidx = {tri: i for i, tri in enumerate(triples)}
        for s_i, s in enumerate(combinations(range(nv), F.t - 1)):
            set_pairs.append([pidx[p] for p in combinations(s, 2)])
            set_tris.append([tidx[tri] for tri in combinations(s, 3)])
            for tri in combinations(s, 3):
                tri_sets[tidx[tri]].append(s_i)

    def host_edges(chosen):
        edges = [(0, x + 1, y + 1) for x, y in pairs if (N[x] >> y) & 1]
        edges.extend((a + 1, b + 1, c + 1) for a, b, c in (triples[i] for i in chosen))
        return edges

    if min(m.bit_count() for m in N) < v:
        return None
    link1 = [(N[x] >> y) & 1 for x, y in pairs]
    in_cnt = [0] * P
    und = [nv - 2] * P
    clique = theta is not None
    if clique:
        tot = [sum(link1[p] for p in sp) for sp in set_pairs]
        if any(t >= theta for t in tot):
            return None
    else:
        tot = []
        current: list[int] = []
        if bf_is_covered(TriGraph(n, host_edges(())), 0, F):
            return None
    decided = bytearray(len(triples))  # 0 undecided, 1 in, 2 out

    def force_out():
        forced = []
        if clique and force:
            for s, tris in enumerate(set_tris):
                if tot[s] == theta - 1:
                    for i in tris:
                        if decided[i] == 0:
                            decided[i] = 2
                            for p in tri_pairs[i]:
                                und[p] -= 1
                            forced.append(i)
        return forced

    def rec():
        budget.spend()
        minval = nv
        pick = -1
        pickval = nv + 1
        for p in range(P):
            val = link1[p] + in_cnt[p] + und[p]
            if val < minval:
                minval = val
            if und[p] and val < pickval:
                pickval = val
                pick = p
        if minval < v:
            return None
        if pick < 0:
            return [i for i in range(len(decided)) if decided[i] == 1]
        tri = next(i for i in pair_tris[pick] if decided[i] == 0)
        if clique:
            allowed = all(tot[s] + 1 < theta for s in tri_sets[tri])
        else:
            current.append(tri)
            allowed = not bf_is_covered(TriGraph(n, host_edges(current)), 0, F)
            current.pop()
        if allowed:
            decided[tri] = 1
            for p in tri_pairs[tri]:
                in_cnt[p] += 1
                und[p] -= 1
            if clique:
                for s in tri_sets[tri]:
                    tot[s] += 1
            else:
                current.append(tri)
            forced = force_out()
            res = rec()
            if res is not None:
                return res
            for i in forced:
                decided[i] = 0
                for p in tri_pairs[i]:
                    und[p] += 1
            decided[tri] = 0
            for p in tri_pairs[tri]:
                in_cnt[p] -= 1
                und[p] += 1
            if clique:
                for s in tri_sets[tri]:
                    tot[s] -= 1
            else:
                current.pop()
        decided[tri] = 2
        for p in tri_pairs[tri]:
            und[p] -= 1
        res = rec()
        if res is not None:
            return res
        decided[tri] = 0
        for p in tri_pairs[tri]:
            und[p] += 1
        return None

    force_out()
    chosen = rec()
    return None if chosen is None else host_edges(chosen)


def bf_completion_tables(n: int, F: Pattern):
    """The completion search's tables on the n - 1 link vertices, built
    directly from dictionaries of pair and triple indices and the pairs and
    triples of each (t-1)-set, as the search once built them itself:
    (pairs, triples, tri_pairs, pair_tri_mask, set_pair_mask, set_tri_mask,
    tri_sets, tri_flips), every one a list.  The set tables are filled for
    K_t and K_t^- only, and ``tri_flips`` (the host codegree table updates
    that add or remove a triple) for every other pattern."""
    nv = n - 1
    pairs = list(combinations(range(nv), 2))
    triples = list(combinations(range(nv), 3))
    pidx = {p: i for i, p in enumerate(pairs)}
    tidx = {tri: i for i, tri in enumerate(triples)}
    tri_pairs = [(pidx[(a, b)], pidx[(a, c)], pidx[(b, c)]) for a, b, c in triples]
    pair_tri_mask = [
        sum(1 << i for i, tri in enumerate(triples) if a in tri and b in tri) for a, b in pairs
    ]
    set_pair_mask: list[int] = []
    set_tri_mask: list[int] = []
    tri_sets: list[list[int]] = [[] for _ in triples]
    tri_flips: list[tuple] = [() for _ in triples]
    if F.edge_count >= comb(F.t, 3) - 1:
        for s_i, s in enumerate(combinations(range(nv), F.t - 1)):
            set_pair_mask.append(sum(1 << pidx[p] for p in combinations(s, 2)))
            set_tri_mask.append(sum(1 << tidx[tri] for tri in combinations(s, 3)))
            for tri in combinations(s, 3):
                tri_sets[tidx[tri]].append(s_i)
    else:
        # row x + 1, column y + 1, bit z + 1 for each ordered pair xy of the
        # triple and its third vertex z
        tri_flips = [
            tuple((x + 1, y + 1, 2 << z) for x, y, z in
                  ((a, b, c), (b, a, c), (a, c, b), (c, a, b), (b, c, a), (c, b, a)))
            for a, b, c in triples
        ]
    return pairs, triples, tri_pairs, pair_tri_mask, set_pair_mask, set_tri_mask, tri_sets, tri_flips


def bf_blowup_edge_count(base: Graph, multiplicity: dict[int, int]) -> int:
    """Count blowup edges by enumerating every copy pair directly."""
    copies = []
    for v in range(base.n):
        copies.extend([v] * multiplicity[v])
    return sum(
        1
        for i, j in combinations(range(len(copies)), 2)
        if base.has_edge(copies[i], copies[j])
    )


def random_trigraph(rng: Random, n: int, p: float) -> TriGraph:
    edges = [t for t in combinations(range(n), 3) if rng.random() < p]
    return TriGraph(n, edges)


def random_bipartite(rng: Random, n: int, max_degree: int) -> Graph:
    """Random bipartite graph with maximum degree at most ``max_degree``."""
    split = rng.randint(1, n - 1)
    edges = []
    deg = [0] * n
    candidates = [(u, w) for u in range(split) for w in range(split, n)]
    rng.shuffle(candidates)
    target = rng.randint(0, len(candidates))
    for u, w in candidates[:target]:
        if deg[u] < max_degree and deg[w] < max_degree:
            edges.append((u, w))
            deg[u] += 1
            deg[w] += 1
    return Graph(n, edges)


def random_regular_bipartite(rng: Random, s: int, d: int) -> Graph:
    """d-regular bipartite graph on sides of size s (d <= s): the union of d
    cyclic shifts of one random permutation matching."""
    pi = list(range(s))
    rng.shuffle(pi)
    edges = []
    for i in range(d):
        for j in range(s):
            edges.append((j, s + pi[(j + i) % s]))
    return Graph(2 * s, edges)


def bf_sample_above_threshold(n: int, threshold: int, rng: Random) -> TriGraph:
    """The spot-check sampler as it was first written (a min() over a pair
    dict at every repair step); the library's sampler must draw the same
    graph from the same random stream."""
    triples = list(combinations(range(n), 3))
    present = {t for t in triples if rng.random() < 0.5}
    counts = {p: 0 for p in combinations(range(n), 2)}
    for a, b, c in present:
        counts[(a, b)] += 1
        counts[(a, c)] += 1
        counts[(b, c)] += 1
    while True:
        lo_pair = min(counts, key=lambda p: (counts[p], p))
        if counts[lo_pair] > threshold:
            break
        a, b = lo_pair
        absent = [
            c for c in range(n)
            if c not in lo_pair and tuple(sorted((a, b, c))) not in present
        ]
        c = rng.choice(absent)
        tri = tuple(sorted((a, b, c)))
        present.add(tri)
        for p in combinations(tri, 2):
            counts[p] += 1
    return TriGraph(n, present)


def bf_certify_upper_behavior(
    n: int, F: Pattern, threshold: int, samples: int, seed: int
) -> list[TriGraph]:
    """The spot-check by the reference sampler and the enumerating embedder:
    every sample of ``Random(seed)`` with a vertex in no copy of F, in the
    order drawn."""
    rng = Random(seed)
    found = []
    for _ in range(samples):
        H = bf_sample_above_threshold(n, threshold, rng)
        if any(bf_covered(H, v, F) is None for v in range(n)):
            found.append(H)
    return found
