"""Steadiness check: every workload, several seeds, two interleaved sets.

    python3 bench/steady.py [--runs 10] [--sets 2] [--seconds S] [--first-seed 1]
                            [--workloads corpus-sweep,...] [--trace]

Runs bench/run.py once per (workload, set, seed), one run at a time.  Set k
uses seeds first_seed + k*runs ... first_seed + (k+1)*runs - 1, and the sets
take turns seed by seed, so that a drift of the host's speed falls on every
set alike.  For each set and metric it prints the median, the first and
third quartile (as ``statistics.quantiles(values, n=4)`` gives them) and the
spread (q3 - q1) / median.  A spread at or above a third of the metric's
bound in BENCHMARK.json is flagged, and so is a set whose median is worse
than the first set's by more than the bound.  It also prints each run's
sample counts and wall-clock time, and each workload's error rate over all
its runs.  The last line is all of it as one JSON object.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def quartiles(xs: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0],) * 3
    median = statistics.median(xs)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(median) if median else float("inf"), "runs": len(xs)}


def worse_by(first: float, other: float, better: str) -> float:
    """How much worse ``other`` is than ``first``, as a share of ``first``."""
    return (other - first) / first if better == "lower" else (first - other) / first


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10, help="seeds per set")
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace", action="store_true", help="traced runs: per-layer metrics")
    args = parser.parse_args()
    listed = {m["name"]: m for m in spec["per_layer" if args.trace else "end_to_end"]}

    report: dict = {}
    for workload in args.workloads.split(","):
        values = [{name: [] for name in listed} for _ in range(args.sets)]
        attempted = failed = 0
        correct = True
        elapsed = []
        for i in range(args.runs):
            for k in range(args.sets):
                seed = args.first_seed + k * args.runs + i
                start = time.perf_counter()
                proc = subprocess.run(
                    [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
                     "--seconds", str(args.seconds), "--trace", str(int(args.trace))],
                    capture_output=True, text=True)
                elapsed.append(time.perf_counter() - start)
                if proc.returncode != 0:
                    print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
                    return 1
                result = json.loads(proc.stdout.splitlines()[-1])
                correct &= result["correct"]
                attempted += result["attempted"]
                failed += result["failed"]
                for name, metric in result["metrics"].items():
                    values[k][name].append(metric["value"])
                counts = proc.stdout.splitlines()[1]  # run.py's sample counts and error rate
                print(f"set {k} seed {seed} ({elapsed[-1]:.1f} s): {counts}\n    " + " ".join(
                    f"{n}={m['value']:.5g}" for n, m in result["metrics"].items()
                    if listed[n].get("bound") is not None), flush=True)

        sets = [{name: quartiles(xs) for name, xs in per_set.items()} for per_set in values]
        report[workload] = {"correct": correct, "attempted": attempted, "failed": failed,
                            "error_rate": failed / attempted, "run_s_median": statistics.median(elapsed),
                            "run_s_max": max(elapsed), "sets": sets}
        print(f"\n{workload}: {args.sets} x {args.runs} runs, correct={correct}, "
              f"error_rate={failed}/{attempted}={failed / attempted:.4f}, "
              f"run time median {statistics.median(elapsed):.1f} s, max {max(elapsed):.1f} s")
        print(f"  {'metric':48s} {'set':>3s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} "
              f"{'worse':>7s} {'bound':>6s}")
        for name, metric in listed.items():
            bound = metric.get("bound")
            first = sets[0][name]["median"]
            for k, rows in enumerate(sets):
                r = rows[name]
                worse = worse_by(first, r["median"], metric["better"]) if first else 0.0
                flags = []
                if bound is not None and r["spread"] >= bound / 3:
                    flags.append("spread above bound/3")
                if bound is not None and worse > bound:
                    flags.append("median worse than set 0 by more than the bound")
                shown = f"{bound:.2f}" if bound is not None else "-"
                print(f"  {name if k == 0 else '':48s} {k:>3d} {r['median']:12.6g} {r['q1']:12.6g} "
                      f"{r['q3']:12.6g} {r['spread']:8.4f} {worse:7.3f} {shown:>6s} {metric['unit']}"
                      + (f"  <- {'; '.join(flags)}" if flags else ""))
        print(flush=True)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
