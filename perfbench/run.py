"""Benchmark runner for tricover.

    python3 perfbench/run.py --workload {search,certify,cover,spotcheck} \\
        --seed N --seconds S --trace {0,1}

Run it from the root of a source checkout: the library is imported from
``./src``.  One run is one interpreter with one thread; operations run in a
closed loop (each starts when the previous one returns).  The run repeats
passes over the workload's fixed input set for ``--seconds`` seconds,
checks every result outside the timed region, and prints as its last stdout
line ``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` untraced and traced
passes alternate and the metrics are the per-layer ones.  The line before it
is the run record (environment, quartiles, sample counts, failures).

The machine this was written on is shared, and its speed drifts by up to
half within seconds, for wall and CPU time alike.  So timed work is scaled
by the machine's current speed, measured with a fixed pure-Python
calibration loop run every CAL_EVERY_S seconds (its own time excluded): a
corrected time is ``wall * CAL_REF_S / calibration time``.  The end-to-end
metrics use corrected times; the run record also keeps the raw wall figures.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from bisect import bisect_right  # noqa: E402
from itertools import combinations, permutations  # noqa: E402
from pathlib import Path  # noqa: E402

# One thread: numpy's BLAS would otherwise start a thread pool on import.
# Set before the library (and numpy) is imported; set-up children inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_REPS = 7
MIN_PASSES = 3
MIN_TRACED_PAIRS = 2

# Sets the scale only: corrected times equal wall times when the loop takes
# this long, as it does on a quiet core of the 2-vCPU Xeon this was written on.
CAL_REF_S = 0.006
CAL_EVERY_S = 0.15

# Set-up as a fresh command-line process pays it: interpreter start, imports,
# inputs built.  Run in a child so each repetition starts cold.
SETUP_CHILD = (
    "import sys\n"
    "sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
    "import workloads\n"
    "workloads.build(sys.argv[3], workloads.load_library(), int(sys.argv[4]))\n"
)

E2E_UNITS = {"setup_s": "s", "items_per_s": "1/s", "peak_rss_mb": "MB"}
EXTRA_LAYER_METRICS = (
    ("trace.wall_s", "s", "lower"),
    ("trace.unattributed_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("search.large_s", "s", "lower"),
    ("search.large_exhaustive", "count", "higher"),
    ("search.large_value_sum", "count", "higher"),
    ("search.large_nodes", "count", "higher"),
)


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        v = values[0] if values else 0.0
        return {"median": v, "q1": v, "q3": v, "n": len(values)}
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


_ADJ = [frozenset(j for j in range(22) if j != i and (i * j + i + j) % 3 == 0) for i in range(22)]


def calibration_loop() -> int:
    """Fixed work in three of the library's idioms, about equal in time:
    tuple/set/dict counting, tuple generation, and recursive search over
    small lists and sets.  No change to the library can alter it, and the
    mix follows the machine's speed more closely than any one part does."""
    edges = set()
    for t in combinations(range(26), 3):
        if (t[0] * 7 + t[1] * 3 + t[2]) % 3:
            edges.add(t)
    count: dict = {}
    for a, b, c in edges:
        for p in ((a, b), (a, c), (b, c)):
            count[p] = count.get(p, 0) + 1
    total = sum(1 for t in combinations(range(26), 3) if tuple(sorted(t)) in edges)
    total += sum(1 for p in permutations(range(9), 5) if (p[0] * p[1] + p[2]) % 5 == p[3] % 5)

    def independent_sets(cands: list, depth: int) -> int:
        if depth == 4 or not cands:
            return 1
        return sum(independent_sets([u for u in cands if u > v and u not in _ADJ[v]], depth + 1)
                   for v in cands)

    return total + independent_sets(list(range(22)), 0)


class Speed:
    """The calibration loops run so far, as (start, end) times in order, and
    the correction of wall time that they give."""

    def __init__(self):
        self.events: list[tuple[float, float]] = []
        self.ends: list[float] = []
        self._busy = False

    def calibrate(self, *_signal_args) -> None:
        if self._busy:  # a timer signal that arrives during a calibration
            return
        self._busy = True
        start = time.perf_counter()
        calibration_loop()
        end = time.perf_counter()
        self.events.append((start, end))
        self.ends.append(end)
        self._busy = False

    @property
    def samples(self) -> list[float]:
        return [end - start for start, end in self.events]

    def corrected(self, t0: float, t1: float) -> tuple[float, float]:
        """(wall, corrected) time of [t0, t1] outside calibrations.  Each
        piece between two calibrations is scaled by CAL_REF_S over their
        mean time.  A calibration must have ended by t0 and one start after t1."""
        k = bisect_right(self.ends, t0) - 1
        wall = total = 0.0
        pos = t0
        while pos < t1:
            start, end = self.events[k + 1]
            piece = min(t1, start) - pos
            if piece > 0:
                before = self.events[k][1] - self.events[k][0]
                wall += piece
                total += piece * 2 * CAL_REF_S / (before + end - start)
            pos = end
            k += 1
        return wall, total


def run_ops(ops: list, speed: Speed, interrupt: bool = True) -> tuple[float, list[float], list]:
    """Call every op in order; returns (wall, corrected time of each op,
    results).  An exception is kept as the op's result.  A calibration runs
    before the first op, after the last, and every ``CAL_EVERY_S`` seconds in
    between: from a timer signal, so also inside long ops, or, when
    ``interrupt`` is false (traced passes, whose spans must not contain
    calibrations, and time-budgeted searches), between ops only."""
    results = []
    intervals = []
    speed.calibrate()
    if interrupt:
        previous = signal.signal(signal.SIGALRM, speed.calibrate)
        signal.setitimer(signal.ITIMER_REAL, CAL_EVERY_S, CAL_EVERY_S)
    try:
        for op in ops:
            start = time.perf_counter()
            try:
                results.append(op.call())
            except Exception as exc:  # a failed op is counted, the run goes on
                results.append(exc)
            intervals.append((start, time.perf_counter()))
            if not interrupt and time.perf_counter() - speed.ends[-1] >= CAL_EVERY_S:
                speed.calibrate()
    finally:
        if interrupt:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
    speed.calibrate()
    measured = [speed.corrected(t0, t1) for t0, t1 in intervals]
    return sum(w for w, _ in measured), [c for _, c in measured], results


def typical_pass(op_times: list[list[float]]) -> float:
    """Sum over ops of each op's median corrected time across passes: a
    pass that a change of machine speed mid-way spoils costs one sample per
    op, not a whole pass."""
    return sum(statistics.median(ts) for ts in zip(*op_times))


def judge(ops: list, results: list, failures: list) -> int:
    """Run each op's gate; returns the number of failed ops."""
    failed = 0
    for op, res in zip(ops, results):
        if isinstance(res, Exception):
            problem = f"raised {type(res).__name__}: {res}"
        else:
            try:
                problem = op.check(res)
            except Exception as exc:  # a gate that crashes fails its op
                problem = f"gate raised {type(exc).__name__}: {exc}"
        if problem is not None:
            failed += 1
            if len(failures) < 20:
                failures.append(f"{op.label}: {problem}")
    return failed


def measure_setup(root: Path, workload: str, seed: int, speed: Speed) -> tuple[list, list]:
    """(wall, corrected) set-up times of SETUP_REPS fresh child processes."""
    intervals = []
    speed.calibrate()
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        # no timeout: with one, the wait polls with sleeps of up to 50 ms
        subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(root / "src"), str(HERE), workload, str(seed)],
            cwd=root, check=True,
        )
        intervals.append((start, time.perf_counter()))
        speed.calibrate()
    measured = [speed.corrected(t0, t1) for t0, t1 in intervals]
    return [w for w, _ in measured], [c for _, c in measured]


def environment(root: Path) -> dict:
    rev = "unknown (not a git checkout)"
    if (root / ".git").exists():
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=30)
        rev = out.stdout.strip() or rev
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy
    return {
        "git_rev": rev,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "load": "one process, one thread, closed loop: each operation starts when the previous returns",
        "machine_tuning": "none; CPU governor, cache drops and cgroups are out of bounds, "
                          "only this process is measured",
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "tricover" / "__init__.py").is_file():
        print(f"no tricover sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    speed = Speed()
    try:
        setup_walls, setup_times = measure_setup(root, args.workload, args.seed, speed)
    except (subprocess.SubprocessError, OSError) as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(root / "src"))
    lib = workloads.load_library()
    plan = workloads.build(args.workload, lib, args.seed)

    attempted = failed = 0
    failures: list[str] = []
    record: dict = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                    "trace": args.trace, **environment(root)}
    start = time.perf_counter()

    large = {}
    if plan.once:
        workloads.reset_caches(lib)
        wall, _, results = run_ops(plan.once, speed, interrupt=False)
        attempted += len(plan.once)
        failed += judge(plan.once, results, failures)
        ok = [r for r in results if not isinstance(r, Exception)]
        large = {
            "search.large_s": wall,
            "search.large_exhaustive": sum(r.exhaustive for r in ok),
            "search.large_value_sum": sum(r.value for r in ok),
            "search.large_nodes": sum(r.nodes_explored for r in ok),
        }
        record["search_large"] = {
            **large, "values": {op.label: (r.value, r.exhaustive) if not isinstance(r, Exception)
                                else None for op, r in zip(plan.once, results)},
        }

    items = sum(op.items for op in plan.ops)
    walls: list[float] = []
    op_times: list[list[float]] = []
    traced_walls: list[float] = []
    traced_op_times: list[list[float]] = []
    tracer = spans.Tracer(lib) if args.trace else None
    rounds: list[float] = []
    min_rounds = MIN_TRACED_PAIRS if args.trace else MIN_PASSES
    while True:
        round_start = time.perf_counter()
        workloads.reset_caches(lib)
        wall, times, results = run_ops(plan.ops, speed)
        walls.append(wall)
        op_times.append(times)
        attempted += len(plan.ops)
        failed += judge(plan.ops, results, failures)
        if tracer is not None:
            workloads.reset_caches(lib)
            tracer.install()
            try:
                wall, times, results = run_ops(plan.ops, speed, interrupt=False)
            finally:
                tracer.uninstall()
            traced_walls.append(wall)
            traced_op_times.append(times)
            attempted += len(plan.ops)
            failed += judge(plan.ops, results, failures)
        rounds.append(time.perf_counter() - round_start)
        elapsed = time.perf_counter() - start
        if len(rounds) >= min_rounds and elapsed + statistics.median(rounds) > args.seconds:
            break

    passes = [sum(times) for times in op_times]
    record.update({
        "item": plan.item,
        "items_per_pass": items,
        "typical_pass_s": typical_pass(op_times),
        "op_median_s": {op.label: statistics.median(ts) for op, ts in zip(plan.ops, zip(*op_times))},
        "pass_s": quartiles(passes),
        "pass_wall_s": quartiles(walls),
        "wall_items_per_s": quartiles([items / w for w in walls]),
        "setup_s": quartiles(setup_times),
        "setup_wall_s": quartiles(setup_walls),
        "calibration_s": quartiles(speed.samples),
        "pass_walls_s": walls,
        "passes_s": passes,
        "measured_s": time.perf_counter() - start,
        "failed_frac": failed / attempted,
        "failures": failures,
    })
    correct = failed == 0

    if tracer is None:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "items_per_s": items / typical_pass(op_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()}
    else:
        p = len(traced_walls)
        layer, accounting = spans.layer_metrics(tracer.spans, p, sum(traced_walls))
        layer["trace.wall_s"] = (accounting["traced_wall_s"] / p, "s")
        layer["trace.unattributed_s"] = (accounting["unattributed_s"] / p, "s")
        layer["trace.overhead_s"] = (typical_pass(traced_op_times) - typical_pass(op_times), "s")
        for name, unit, _ in EXTRA_LAYER_METRICS:
            if name.startswith("search."):
                layer[name] = (large.get(name, 0), unit)
        # self times partition the top-level spans exactly when spans nest
        residue = accounting["self_s_sum"] - accounting["top_level_s"]
        if abs(residue) > 1e-6 * max(accounting["top_level_s"], 1.0):
            correct = False
            failures.append(f"span self times do not add up ({residue:+.3g} s)")
        record["trace_accounting"] = {**accounting, "traced_passes": p,
                                      "traced_pass_s": quartiles([sum(t) for t in traced_op_times]),
                                      "traced_pass_wall_s": quartiles(traced_walls)}
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}

    print(json.dumps({"run_record": record}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
