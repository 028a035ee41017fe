"""Steadiness check: two independent sets of runs of every workload.

    python3 perfbench/steady.py --runs 10

Run from the repository root.  Set A uses seeds 1..N and set B seeds
N+1..2N; within a set the workloads take turns.  For every workload and
end-to-end metric it prints each set's median and quartiles, the spread
(quartile distance over the median), and how much worse set B's median is
than set A's, against the metric's bound in BENCHMARK.json.  It also
compares the share of failed operations.  Every run's result goes to
perfbench/out/steady.json.  The exit code is 0 when every spread except
that of setup_s and every change stays within its bound and the failed
shares agree.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """Median, first and third quartile, and quartile distance over the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / median


def collect(names: list[str], runs: int, seconds: int) -> dict:
    """Set A on seeds 1..runs, then set B on seeds runs+1..2*runs."""
    sets = {"A": range(1, runs + 1), "B": range(runs + 1, 2 * runs + 1)}
    results = {label: {w: [] for w in names} for label in sets}
    for label, seeds in sets.items():
        for seed in seeds:
            for w in names:
                results[label][w].append(run_once(w, seed, seconds))
                print(f"set {label} {w} seed {seed} done", file=sys.stderr, flush=True)
    return results


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per workload and set")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    args = parser.parse_args(argv)
    names = args.workloads.split(",")
    results = collect(names, args.runs, spec["run_seconds"])
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "steady.json"), "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=1)
    sets = list(results)

    ok = True
    failures = []
    print("| workload | metric | set | median | q1 | q3 | spread | B worse than A | bound |")
    print("| --- | --- | --- | --- | --- | --- | --- | --- | --- |")
    for w in names:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            stats = {}
            for label in sets:
                values = [r["metrics"][name]["value"] for r in results[label][w]]
                stats[label] = spread(values)
            a, b = stats["A"][0], stats["B"][0]
            worse = (b - a) / a if metric["better"] == "lower" else (a - b) / a
            for label, (median, q1, q3, sp) in stats.items():
                change = f"{worse:+.3f}" if label == "B" else ""
                print(f"| {w} | {name} | {label} | {median:.6g} | {q1:.6g} | {q3:.6g} | "
                      f"{sp:.3f} | {change} | {bound} |")
                if name != "setup_s" and sp > bound:
                    ok = False
            if worse > bound:
                ok = False
        shares = {
            label: (sum(r["failed"] for r in results[label][w]),
                    sum(r["attempted"] for r in results[label][w]))
            for label in sets
        }
        fa, aa = shares["A"]
        fb, ab = shares["B"]
        failures.append(f"{w}: failed {fa}/{aa} in set A, {fb}/{ab} in set B")
        if fa * ab != fb * aa:
            ok = False
    print("\n" + "\n".join(failures))
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
