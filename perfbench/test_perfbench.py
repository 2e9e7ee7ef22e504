"""Tests of the benchmark itself: every workload at a tiny size passes its
gates, a gate fed a wrong expectation fails its op without crashing, the
tracer's accounting adds up, and BENCHMARK.json names exactly the metrics the
benchmark prints.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

LIB = workloads.load_library()

TINY = {
    "GRID_N": (6,),
    "LARGE_N": 7,
    "LARGE_BUDGET_S": 0.05,
    "LARGE_LOWER": {"K4-": 2, "K4": 2, "K5-": 4, "K5": 4},  # c2(7, F) from the grid
    "CERTIFY_H_M": range(1, 3),
    "CERTIFY_H4_N": range(5, 8),
    "COVER_H4_N": (9,),
    "COVER_H_PARAMS": (("H1", 1),),
    "COVER_RANDOM": ((8, 0.5),),
    "SPOT_SAMPLES": 5,
}


@pytest.fixture
def tiny(monkeypatch):
    for name, value in TINY.items():
        monkeypatch.setattr(workloads, name, value)


def _run_plan(plan, tracer=None):
    failures: list[str] = []
    failed = attempted = 0
    for ops in (plan.once, plan.ops):
        workloads.reset_caches(LIB)
        if tracer is not None:
            tracer.install()
        try:
            _, _, results = run.run_ops(ops, run.Speed())
        finally:
            if tracer is not None:
                tracer.uninstall()
        attempted += len(ops)
        failed += run.judge(ops, results, failures)
    return attempted, failed, failures


@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
def test_tiny_workload_passes_its_gates(tiny, name):
    plan = workloads.build(name, LIB, seed=7)
    attempted, failed, failures = _run_plan(plan)
    assert attempted >= 1
    assert failed == 0, failures


def test_same_seed_same_inputs():
    a = workloads.build("cover", LIB, seed=11)
    b = workloads.build("cover", LIB, seed=11)
    assert [op.label for op in a.ops] == [op.label for op in b.ops]
    assert [op.items for op in a.ops] == [op.items for op in b.ops]


def test_wrong_expected_value_fails_the_op_without_crashing():
    F = LIB["patterns"].builtin_pattern("K4-")
    good = workloads.Op("exact_c2(6, K4-)", lambda: LIB["oracle"].exact_c2(6, F),
                        lambda res: workloads.check_search(LIB, F, res, 2, None), 1)
    wrong = workloads.Op("exact_c2(6, K4-) wrong", good.call,
                         lambda res: workloads.check_search(LIB, F, res, 3, None), 1)
    _, _, results = run.run_ops([good, wrong], run.Speed())
    failures: list[str] = []
    assert run.judge([good, wrong], results, failures) == 1
    assert "expected 3" in failures[0]


def test_raising_call_or_gate_counts_as_failed():
    def boom():
        raise ValueError("boom")

    ops = [workloads.Op("call raises", boom, lambda res: None, 1),
           workloads.Op("gate raises", lambda: 1, lambda res: boom(), 1)]
    _, _, results = run.run_ops(ops, run.Speed())
    failures: list[str] = []
    assert run.judge(ops, results, failures) == 2
    assert len(failures) == 2


def test_cover_digest_mismatch_is_a_failure():
    H = LIB["constructions"].construct_h4(9)
    F = LIB["patterns"].builtin_pattern("K5-")
    report = LIB["patterns"].covering_report(H, F)
    assert workloads.check_cover(LIB, H, F, report, workloads.report_digest(report)) is None
    assert workloads.check_cover(LIB, H, F, report, "0" * 64) is not None


def test_tracer_wraps_every_binding_and_restores_it(tiny):
    originals = {(m, a): getattr(LIB[m], a) for m, a, _ in spans.TARGETS}
    constructions_covered_at = LIB["constructions"].covered_at
    tracer = spans.Tracer(LIB)
    plan = workloads.build("certify", LIB, seed=3)
    _, failed, failures = _run_plan(plan, tracer)
    assert failed == 0, failures
    for (m, a), fn in originals.items():
        assert getattr(LIB[m], a) is fn
    assert LIB["constructions"].covered_at is constructions_covered_at
    assert LIB["hypergraphs"].TriGraph.__init__.__name__ == "__init__"
    assert "__wrapped__" not in vars(LIB["hypergraphs"].TriGraph.__init__)

    names = {s[0] for s in tracer.spans}
    # reached only through module bindings other than the defining module's
    assert {"patterns.covered_at", "blowup.add_edge_list", "hypergraphs.TriGraph"} <= names
    wall = sum(s[2] - s[1] for s in tracer.spans if s[3] < 0) + 0.5
    metrics, acc = spans.layer_metrics(tracer.spans, passes=1, traced_wall=wall)
    assert acc["self_s_sum"] + acc["unattributed_s"] == pytest.approx(wall)
    assert metrics["patterns.covered_at.refuted"][0] == metrics["patterns.covered_at.calls"][0] > 0
    assert metrics["fileio.write_edge_list.bytes"][0] > 0


def test_benchmark_json_lists_every_printed_metric():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.E2E_UNITS
    printed = {name: (unit, better) for name, unit, better in spans.LAYER_METRICS}
    printed.update({name: (unit, better) for name, unit, better in run.EXTRA_LAYER_METRICS})
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} == printed
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(workloads.BUILDERS)


def test_short_run_prints_a_correct_result(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "spotcheck", "--seed", "5",
         "--seconds", "0.5", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in bench["per_layer"]}


def test_without_sources_the_run_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "search", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_speed_correction_skips_calibrations_and_scales_each_piece():
    speed = run.Speed()
    ref = run.CAL_REF_S
    # calibrations (start, end): ref long, 2 * ref long, ref long
    speed.events = [(0.0, ref), (1.0, 1.0 + 2 * ref), (2.0, 2.0 + ref)]
    speed.ends = [end for _, end in speed.events]
    wall, total = speed.corrected(0.5, 1.5)
    assert wall == pytest.approx(1.0 - 2 * ref)
    # [0.5, 1.0] sits between calibrations of ref and 2 ref, [1.0 + 2 ref, 1.5] between 2 ref and ref
    assert total == pytest.approx(0.5 * 2 / 3 + (0.5 - 2 * ref) * 2 / 3)
