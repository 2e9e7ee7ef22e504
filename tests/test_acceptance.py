"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest verdicts.  Every expectation is an exact integer
check; the only tolerances are the stated wall-clock limits.
"""

import time
from random import Random

from tricover import (
    TriGraph,
    bipartite_edge_coloring,
    builtin_pattern,
    certify_upper_behavior,
    coloring_is_valid,
    construct,
    construct_h,
    covered_at,
    exact_c2,
    parse_edge_list,
    save,
    verify_claim,
    write_edge_list,
)
from tricover.cli import main as cli_main

from _brute import (
    bf_covered,
    bf_exact_c2,
    random_bipartite,
    random_regular_bipartite,
    random_trigraph,
)

K4M = builtin_pattern("K4-")
K5M = builtin_pattern("K5-")


def _report(idx, ok, detail):
    print(f"ACCEPTANCE {idx}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_k4m_construction_sweep():
    """H1/H2/H3 verify for m = 1..5 with exact delta2, link structure,
    obstruction, and an uncovered distinguished vertex; under 60 s."""
    start = time.monotonic()
    failures = []
    for family, expected in (("H1", lambda m: 2 * m), ("H2", lambda m: 2 * m + 1), ("H3", lambda m: 2 * m + 1)):
        for m in range(1, 6):
            report = verify_claim(family, m=m)
            if not (report.passed and report.measured_delta2 == expected(m)):
                failures.append((family, m, report.checks))
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 60
    _report(1, ok, f"15/15 claims verified in {elapsed:.1f}s (limit 60s); failures={failures}")


def test_criterion_2_k5m_construction_sweep():
    """H4 verifies for n = 5..30 with delta2 = floor((2n-2)/3), the uncovered
    vertex, and every per-pair codegree formula; under 120 s."""
    start = time.monotonic()
    failures = []
    for n in range(5, 31):
        report = verify_claim("H4", n=n)
        formulas = all(
            report.checks[k]
            for k in ("codegree_same_part", "codegree_x_pairs", "codegree_cross_part")
        )
        if not (report.passed and formulas and report.measured_delta2 == (2 * n - 2) // 3):
            failures.append((n, report.checks))
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 120
    _report(2, ok, f"26/26 claims verified in {elapsed:.1f}s (limit 120s); failures={failures}")


def test_criterion_3_oracle_matches_theorems():
    """Exhaustive search returns 2, 2 and 4 on the three reference instances,
    each within a 30-minute budget."""
    results = {}
    ok = True
    for n, pattern, expected in ((6, K4M, 2), (7, K4M, 2), (7, K5M, 4)):
        res = exact_c2(n, pattern, time_budget=1800.0)
        results[(n, pattern.name)] = (res.value, res.exhaustive, round(res.elapsed, 3))
        ok = ok and res.exhaustive and res.value == expected
    _report(3, ok, f"exact thresholds {results}")


def test_criterion_4_oracle_self_consistency():
    """Branch-and-bound equals naive enumeration on every pattern at n <= 5."""
    mismatches = []
    for n in (4, 5):
        for name in ("K4", "K4-", "K5", "K5-"):
            pattern = builtin_pattern(name)
            if n < pattern.t:
                continue
            pruned = exact_c2(n, pattern).value
            naive = bf_exact_c2(n, pattern)
            if pruned != naive:
                mismatches.append((n, name, pruned, naive))
    _report(4, not mismatches, f"pruned == naive on all small instances; mismatches={mismatches}")


def test_criterion_5_koenig_properties():
    """500 random bipartite graphs (n <= 60, max degree <= 8): exactly Delta
    disjoint matchings covering E; perfect matchings on regular instances;
    under 10 s."""
    rng = Random(60601)
    start = time.monotonic()
    bad = 0
    for i in range(450):
        g = random_bipartite(rng, rng.randint(4, 60), rng.randint(1, 8))
        if not coloring_is_valid(g, bipartite_edge_coloring(g)):
            bad += 1
    for i in range(50):
        s = rng.randint(2, 30)
        d = rng.randint(1, min(8, s))
        g = random_regular_bipartite(rng, s, d)
        col = bipartite_edge_coloring(g)
        if not coloring_is_valid(g, col) or any(len(c) != s for c in col.classes):
            bad += 1
    elapsed = time.monotonic() - start
    ok = bad == 0 and elapsed < 10
    _report(5, ok, f"500 instances colored in {elapsed:.1f}s (limit 10s); invalid={bad}")


def test_criterion_6_covering_detector_equivalence():
    """On 200 random 3-graphs with n <= 9, the embedder agrees with brute
    force over all injective embeddings for K4- and K5-, at every vertex."""
    rng = Random(424242)
    disagreements = 0
    for i in range(200):
        n = rng.randint(5, 9)
        H = random_trigraph(rng, n, rng.choice((0.35, 0.5, 0.7)))
        for v in range(n):
            for F in (K4M, K5M):
                if F.t > n:
                    continue
                mine = covered_at(H, v, F) is not None
                brute = bf_covered(H, v, F) is not None
                if mine != brute:
                    disagreements += 1
    _report(6, disagreements == 0, f"200 graphs, both patterns, disagreements={disagreements}")


def test_criterion_7_randomized_upper_spot_check():
    """10^4 samples per configuration with delta2 above the threshold: no
    covering-free graph may appear."""
    found = {}
    for n in (9, 10, 12):
        rep = certify_upper_behavior(n, K4M, n // 3, 10_000)
        found[(n, "K4-")] = rep.counterexample_count
    for n in (7, 8):
        rep = certify_upper_behavior(n, K5M, (2 * n - 2) // 3, 10_000)
        found[(n, "K5-")] = rep.counterexample_count
    ok = all(c == 0 for c in found.values())
    _report(7, ok, f"counterexamples per configuration: {found}")


def test_criterion_8_round_trip_and_negative_control(tmp_path, capsys):
    """Every construction survives the file format bit-exactly; a mutated H1
    fails verification with a delta2 mismatch and a nonzero exit code."""
    round_trip_ok = True
    for family, kwargs in (
        ("G1", {}), ("G2", {}), ("G3", {}),
        ("H1", {"m": 1}), ("H1", {"m": 3}), ("H2", {"m": 2}), ("H3", {"m": 2}),
        ("T", {"sizes": (2, 2, 3)}), ("H4", {"n": 7}), ("H4", {"n": 12}),
    ):
        obj = construct(family, **kwargs)
        text = write_edge_list(obj)
        if parse_edge_list(text) != obj or write_edge_list(parse_edge_list(text)) != text:
            round_trip_ok = False

    H = construct_h("H1", 2)
    x_edge = next(e for e in H.edges if 0 in e)
    mutated = TriGraph(H.n, [e for e in H.edges if e != x_edge], distinguished=0, class_of=H.class_of)
    path = tmp_path / "mutated.hg"
    save(mutated, path)
    exit_code = cli_main(["verify", "--family", "H1", "--m", "2", "--in", str(path)])
    out = capsys.readouterr().out
    control_ok = exit_code != 0 and '"delta2": false' in out

    ok = round_trip_ok and control_ok
    _report(8, ok, f"round-trip ok={round_trip_ok}, mutated H1 exit={exit_code} with delta2 mismatch={control_ok}")
