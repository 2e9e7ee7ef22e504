"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads search cover --seeds 1 2 3 4 5 \\
        [--seconds 30] [--trace 0] [--out runs.json]

Runs ``perfbench/run.py`` once per (workload, seed), one after another, from
the current directory (a checkout root).  For every metric it prints the
median of the per-run values and the distance between their first and third
quartiles (``statistics.quantiles(values, n=4)``) as a share of that median,
which is how the benchmark's bounds are checked.  ``--out`` saves that
summary with the per-run values, result lines and run records as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

RUN = Path(__file__).with_name("run.py")


def spread(values: list[float]) -> tuple[float, float]:
    """(median, interquartile distance / median) of the per-run values."""
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / abs(med)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", nargs="+", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)

    runs = []
    for workload in args.workloads:
        for seed in args.seeds:
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                capture_output=True, text=True, timeout=600,
            )
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1])
            record = json.loads(lines[-2])["run_record"]
            wall = time.perf_counter() - start
            runs.append({"workload": workload, "seed": seed, "wall_s": wall,
                         "result": result, "record": record})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} in {wall:.1f} s", file=sys.stderr)

    summary: dict = {}
    print(f"{'workload':10} {'metric':45} {'median':>14} {'iqr/median':>10} {'correct':>8}")
    for workload in args.workloads:
        mine = [r for r in runs if r["workload"] == workload]
        correct = all(r["result"]["correct"] for r in mine)
        summary[workload] = {}
        for name, first in mine[0]["result"]["metrics"].items():
            values = [r["result"]["metrics"][name]["value"] for r in mine]
            med, rel = spread(values)
            summary[workload][name] = {"median": med, "iqr_over_median": rel, "n": len(values),
                                       "unit": first["unit"], "values": values}
            print(f"{workload:10} {name:45} {med:14.6g} {rel:10.4f} {str(correct):>8}")
    if args.out:
        env_keys = ("git_rev", "python", "numpy", "nproc", "cpu_model", "load", "machine_tuning")
        doc = {
            "environment": {k: runs[0]["record"][k] for k in env_keys},
            "seconds": args.seconds,
            "trace": args.trace,
            "seeds": args.seeds,
            "all_correct": all(r["result"]["correct"] for r in runs),
            "summary": summary,
            "runs": runs,
        }
        args.out.write_text(json.dumps(doc, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
