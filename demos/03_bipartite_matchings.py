#!/usr/bin/env python3
"""Partitioning bipartite edge sets into Delta matchings.

Demonstrates the general alternating-path edge coloring and the round-robin
fast path for complete bipartite graphs, including the Delta-regular case
where every class is a perfect matching.
"""

from random import Random

from tricover import (
    Graph,
    bipartite_edge_coloring,
    coloring_is_valid,
    complete_bipartite_matchings,
)


def banner(title):
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)


def show(coloring):
    for i, cls in enumerate(coloring.classes):
        print(f"  M {i}: {list(cls)}")


def main():
    banner("K(3,3): three perfect matchings")
    g = Graph(6, [(u, 3 + w) for u in range(3) for w in range(3)])
    coloring = bipartite_edge_coloring(g)
    show(coloring)
    print("  valid:", coloring_is_valid(g, coloring))

    banner("Round-robin classes for K(2,3) (deterministic fast path)")
    show(complete_bipartite_matchings(2, 3))

    banner("An irregular instance")
    g = Graph(7, [(0, 4), (0, 5), (1, 4), (1, 6), (2, 5), (2, 6), (3, 4), (0, 6)])
    coloring = bipartite_edge_coloring(g)
    print(f"  max degree {coloring.delta} -> {len(coloring.classes)} classes")
    show(coloring)
    print("  valid:", coloring_is_valid(g, coloring))

    banner("Random 6-regular bipartite graph on 12+12 vertices")
    rng = Random(7)
    s, d = 12, 6
    pi = list(range(s))
    rng.shuffle(pi)
    edges = [(j, s + pi[(j + i) % s]) for i in range(d) for j in range(s)]
    g = Graph(2 * s, edges)
    coloring = bipartite_edge_coloring(g)
    sizes = [len(c) for c in coloring.classes]
    print(f"  class sizes: {sizes} (all {s} -> perfect matchings)")
    print("  valid:", coloring_is_valid(g, coloring))


if __name__ == "__main__":
    main()
