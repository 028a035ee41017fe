"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload battery --seed 1 --seconds 30 --trace 0

Run from the repository root.  The workload's rounds repeat until the
next one would end after --seconds (at least one round, two when traced),
and every round's outputs are checked.  With --trace 0 the last line of
standard output holds the end-to-end metrics; with --trace 1 rounds
alternate untraced and traced, and it holds the per-layer metrics from the
traced rounds, whose spans go to perfbench/out/trace-<workload>-seed<n>.jsonl.
The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

# One BLAS thread: a second OpenBLAS thread competes with neighbours on a
# small shared machine and makes timings unsteady.  Set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

import numpy as np  # noqa: E402

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "final_rmse_mbps": "Mbps",
    "arrivals_per_s": "1/s",
    "decision_p50_ms": "ms",
    "decision_tail_ms": "ms",
}


def add_program_to_path() -> None:
    if not os.path.isfile(os.path.join(ROOT, "src", "netactive", "__init__.py")):
        sys.exit(f"error: {ROOT} holds no src/netactive; run from a full checkout")
    sys.path.insert(0, os.path.join(ROOT, "src"))


def peak_rss_mb() -> float:
    """Largest resident set of this process plus that of its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


@dataclass
class Measurement:
    """The timed phases and checked outcomes of one run's rounds."""

    setup_s: list[float] = field(default_factory=list)
    wall_s: list[float] = field(default_factory=list)  # per round
    traced: list[bool] = field(default_factory=list)  # per round
    outcomes: list = field(default_factory=list)  # per round


def measure(workload, seconds: float, workdir: str, tracer=None) -> Measurement:
    """Extra set-ups (each round sets up once more, for at least
    `setup_repeats` samples of set-up time), then whole rounds until the
    next would overrun `seconds`.  With a tracer, odd rounds are traced."""
    m = Measurement()
    start = time.perf_counter()
    for _ in range(workload.setup_repeats - 1):
        t = time.perf_counter()
        workload.setup()
        m.setup_s.append(time.perf_counter() - t)
    while True:
        index = len(m.wall_s)
        traced = tracer is not None and index % 2 == 1
        outdir = os.path.join(workdir, f"round{index}")
        os.makedirs(outdir)
        if traced:
            tracer.round_id = index
            tracer.install()
        try:
            t0 = time.perf_counter()
            state = workload.setup()
            t1 = time.perf_counter()
            done = workload.execute(state, outdir)
            t2 = time.perf_counter()
        finally:
            if traced:
                tracer.close()
        m.setup_s.append(t1 - t0)
        m.wall_s.append(t2 - t1)
        m.traced.append(traced)
        m.outcomes.append(workload.check(state, done, outdir))
        shutil.rmtree(outdir)
        needed = 2 if tracer is not None else 1
        if len(m.wall_s) >= needed and time.perf_counter() - start + (t2 - t0) > seconds:
            return m


def end_to_end(workload, m: Measurement) -> dict[str, float]:
    """End-to-end metrics of the untraced rounds.

    The machine's speed drifts between states that last seconds, so a
    timing is a mean over the run's rounds, which averages those states,
    rather than a median, which picks one of them.  Per-decision
    percentiles are taken within each round and then averaged.  On the pool
    loops a decision is one acquisition cycle, and a round gives one
    sample: its wall time per cycle."""
    plain = [i for i, traced in enumerate(m.traced) if not traced]
    p50, tail, decisions, phase_s = [], [], 0, 0.0
    for i in plain:
        outcome = m.outcomes[i]
        times = outcome.decision_s or [m.wall_s[i] / outcome.decisions]
        p50.append(np.percentile(times, 50))
        tail.append(np.percentile(times, workload.tail_percentile))
        decisions += outcome.decisions
        phase_s += outcome.arrival_phase_s or m.wall_s[i]
    return {
        "setup_s": statistics.median(m.setup_s),
        "wall_s": statistics.fmean(m.wall_s[i] for i in plain),
        "peak_rss_mb": peak_rss_mb(),
        "final_rmse_mbps": statistics.fmean(m.outcomes[i].final_rmse for i in plain),
        "arrivals_per_s": decisions / phase_s,
        "decision_p50_ms": 1e3 * statistics.fmean(p50),
        "decision_tail_ms": 1e3 * statistics.fmean(tail),
    }


def per_layer(tracer, m: Measurement) -> dict[str, float]:
    import tracing

    traced = [i for i, t in enumerate(m.traced) if t]
    plain = [i for i, t in enumerate(m.traced) if not t]
    metrics = tracing.per_layer_metrics(tracer.layer_totals(set(traced)), len(traced))
    metrics["trace.overhead_s"] = statistics.fmean(
        m.wall_s[i] for i in traced
    ) - statistics.fmean(m.wall_s[i] for i in plain)
    return metrics


def blas_threads() -> str:
    """OpenBLAS's own thread count when its library can be asked, else the setting."""
    import ctypes
    import glob

    libs = glob.glob(os.path.join(os.path.dirname(np.__path__[0]), "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                return str(getter())
    return os.environ["OPENBLAS_NUM_THREADS"] + " (requested)"


def main(argv=None, **overrides) -> int:
    """Keyword overrides replace the workload's config keys (tests shrink sizes)."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    add_program_to_path()
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload](args.seed, **overrides)
    print(
        f"python {sys.version.split()[0]}, numpy {np.__version__}, "
        f"BLAS threads {blas_threads()}", file=sys.stderr,
    )
    workdir = os.path.join(OUT, "work", f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
    tracer = tracing.Tracer() if args.trace else None
    try:
        m = measure(workload, args.seconds, workdir, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(o.attempted for o in m.outcomes)
    failed = sum(len(o.problems) for o in m.outcomes)
    for index, outcome in enumerate(m.outcomes):
        for op, problems in sorted(outcome.problems.items())[:5]:
            print(f"round {index} operation {op}: {'; '.join(problems)}", file=sys.stderr)
    if tracer is not None:
        tracer.write(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.jsonl"))
        metrics = {
            name: {"value": value, "unit": tracing.unit(name)}
            for name, value in per_layer(tracer, m).items()
        }
    else:
        metrics = {
            name: {"value": value, "unit": END_TO_END_UNITS[name]}
            for name, value in end_to_end(workload, m).items()
        }
    print(
        f"{args.workload}: {len(m.wall_s)} rounds, setup {m.setup_s}, wall {m.wall_s}",
        file=sys.stderr,
    )
    print(json.dumps(
        {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    ))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
