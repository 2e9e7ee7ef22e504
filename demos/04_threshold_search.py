#!/usr/bin/env python3
"""Independent confirmation of the covering thresholds at small n.

The exhaustive search knows nothing about the constructions: it pins vertex
0 as uncovered, enumerates its labelled link graphs sparsest first, and
completes them by branch and bound.  It starts at the paper's lower bound,
finds a witness there and refutes the level above; a refuted start would
send it climbing from level 0, so its values do not rest on the formulas.
They match floor(n/3) for K4^- and floor((2n-2)/3) for K5^-.  A randomized
spot-check then samples dense 3-graphs just above the threshold and
confirms that none is covering-free.
"""

import time

from tricover import (
    builtin_pattern,
    certify_upper_behavior,
    covering_report,
    exact_c2,
    min_codegree,
    write_edge_list,
)


def banner(title):
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)


def main():
    K4m = builtin_pattern("K4-")
    K5m = builtin_pattern("K5-")

    banner("Exhaustive thresholds (with the formula values for comparison)")
    print(f"  {'n':>3} {'pattern':<8}{'value':>6}{'formula':>9}{'nodes':>8}{'time':>9}")
    for n, F in ((6, K4m), (7, K4m), (8, K4m), (7, K5m), (8, K5m)):
        t0 = time.monotonic()
        res = exact_c2(n, F)
        formula = n // 3 if F is K4m else (2 * n - 2) // 3
        print(f"  {n:>3} {F.name:<8}{res.value:>6}{formula:>9}"
              f"{res.nodes_explored:>8}{time.monotonic() - t0:>8.2f}s")
        assert res.exhaustive and res.value == formula

    banner("An optimal witness found by the search (n=7, K5^-)")
    res = exact_c2(7, K5m)
    for line in write_edge_list(res.witness).splitlines():
        print("   ", line)
    print("  delta2 =", res.value, "with vertex 0 uncovered")

    banner("Spot-check: dense samples above the threshold are always covered")
    for n, F, t in ((9, K4m, 3), (12, K4m, 4), (7, K5m, 4)):
        t0 = time.monotonic()
        rep = certify_upper_behavior(n, F, t, 2000)
        print(f"  n={n} {F.name} threshold={t}: {rep.counterexample_count} "
              f"covering-free samples out of {rep.samples} "
              f"({time.monotonic() - t0:.1f}s)")
        assert rep.counterexample_count == 0

    banner("Below the threshold, covering-free witnesses do exist")
    rep = certify_upper_behavior(6, K4m, 1, 3000)
    print(f"  n=6 K4- threshold=1: {rep.counterexample_count} covering-free samples")
    assert rep.counterexamples
    for H in rep.counterexamples:
        assert min_codegree(H).min > 1 and covering_report(H, K4m).uncovered
    print("  one of them:", sorted(rep.counterexamples[0].edges))


if __name__ == "__main__":
    main()
