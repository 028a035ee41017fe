"""The benchmark's workloads: their inputs, one round of work, and the
checks on that round's outputs.

A round is set-up (corpus, split, normaliser), then the loop runs and
artifact writes.  The caller times the two phases.  Every round of a
workload repeats the same operations on the same inputs, which depend on
the benchmark's seed only.  Master seeds are taken from 0-9, the shipped
battery's seeds, so any ten consecutive benchmark seeds give the same ten
inputs.
"""

from __future__ import annotations

import dataclasses
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

import checks
from netactive import dataset, loop, runner, seeding
from netactive.config import ExperimentConfig, parse_config

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@dataclass
class Outcome:
    """What one round's loop phase produced, as the checks and metrics need it."""

    decisions: int  # acquisition cycles (pool loops) or arrivals (stream)
    final_rmse: float  # mean final test RMSE over the round's runs
    decision_s: list[float] = field(default_factory=list)  # per-arrival times (stream)
    arrival_phase_s: float = 0.0  # first pull to last pull (stream)
    attempted: int = 0
    problems: dict[int, list[str]] = field(default_factory=dict)  # operation -> problems


def _truth(corpus) -> np.ndarray:
    labels = np.empty(len(corpus))
    for s in corpus:
        labels[s.id] = s.label
    return labels


def _collect_per_cycle(config: ExperimentConfig) -> int:
    if not config.collect_enabled:
        return 0
    return math.floor(config.batch_size * config.collect_fraction + 1e-9)


def _check_pool_run(config, truth, test_ids, curve_rows, annotation_rows) -> list[str]:
    """The checks every pool-loop run must pass, on its artifacts."""
    annotated = [int(r["sample_id"]) for r in annotation_rows]
    seed_ids = [int(r["sample_id"]) for r in annotation_rows if r["iteration_acquired"] == "0"]
    test = np.array(sorted(test_ids))
    return (
        checks.check_curve(
            curve_rows, config.batch_size, config.annotation_cost,
            config.collection_cost, _collect_per_cycle(config),
        )
        + checks.check_beats_constant(
            float(curve_rows[-1]["test_rmse"]), truth[test], truth[seed_ids]
        )
        + checks.check_no_test_labeled(annotated, test_ids)
    )


class Battery:
    """The shipped synthetic_benchmark.cfg (uncertainty vs random) on two of
    its ten master seeds, through run_experiment with every CSV artifact."""

    name = "battery"
    setup_repeats = 7
    tail_percentile = 100.0  # a round gives one cycle-time sample

    def __init__(self, seed: int, **overrides):
        base = parse_config(os.path.join(ROOT, "configs", "synthetic_benchmark.cfg"))
        shipped = base.seed_list()
        masters = [shipped[seed % len(shipped)], shipped[(seed + 1) % len(shipped)]]
        self.config = dataclasses.replace(
            base, seeds=",".join(map(str, masters)), **overrides
        )

    def setup(self):
        corpus, _ = runner.load_corpus(self.config)
        for master in self.config.seed_list():
            pool = dataset.split_pool(
                corpus, self.config.test_fraction, self.config.seed_labeled_fraction,
                rng_seed=master,
            )
            pool.normalizer = dataset.fit_normalizer(pool)
        return corpus

    def execute(self, corpus, outdir: str):
        return runner.run_experiment(self.config, outdir)

    def check(self, corpus, done, outdir: str) -> Outcome:
        truth = _truth(corpus)
        keys = list(done["results"])
        curves, problems = {}, {}
        for op, (strategy, master) in enumerate(keys):
            curves[(strategy, master)] = checks.read_rows(
                os.path.join(outdir, runner.curve_filename(strategy, master))
            )
            annotations = checks.read_rows(
                os.path.join(outdir, runner.annotations_filename(strategy, master))
            )
            result = done["results"][(strategy, master)]
            found = _check_pool_run(
                self.config, truth, result.pool.test, curves[(strategy, master)], annotations
            ) + checks.check_no_test_labeled(result.pool.labeled, result.pool.test)
            if found:
                problems[op] = found
        summary = checks.check_summary(
            checks.read_rows(os.path.join(outdir, "summary.csv")), curves
        )
        for op in range(len(keys)) if summary else ():
            problems.setdefault(op, []).extend(summary)
        finals = [float(rows[-1]["test_rmse"]) for rows in curves.values()]
        return Outcome(
            decisions=len(keys) * self.config.iterations,
            final_rmse=float(np.mean(finals)),
            attempted=len(keys),
            problems=problems,
        )


class PoolLarge:
    """One hybrid run with collection on a twin-world corpus the size of the
    Lumos5G export: ~54k candidates, a small labeled seed, short training."""

    name = "pool_large"
    setup_repeats = 3  # ~5 s each
    tail_percentile = 100.0

    def __init__(self, seed: int, **overrides):
        settings = dict(
            synthetic_n=68118, world_seed=0, seed_labeled_fraction=0.005,
            strategies="hybrid", batch_size=16, iterations=3, mc_passes=50,
            initial_epochs=30, fine_tune_epochs=10, collect_enabled=True,
            collect_fraction=0.5, seeds=str(seed % 10),
        )
        settings.update(overrides)
        self.config = ExperimentConfig(**settings)
        self.master = seed % 10

    def setup(self):
        corpus, world = runner.load_corpus(self.config)
        pool = dataset.split_pool(
            corpus, self.config.test_fraction, self.config.seed_labeled_fraction,
            rng_seed=self.master,
        )
        pool.normalizer = dataset.fit_normalizer(pool)
        return corpus, world, pool

    def execute(self, state, outdir: str):
        """What run_experiment does for one run, on the set-up pool."""
        corpus, world, pool = state
        strategy = self.config.strategy_list()[0]
        oracle = loop.TwinOracle(
            pool, runner.make_budget(self.config), world,
            seeding.derive_seed(self.master, seeding.STREAM_COLLECT),
        )
        loop_config = runner.make_loop_config(self.config, strategy, pool.n_features)
        curve = loop.run_pool_loop(loop_config, pool, oracle, self.master)
        result = runner.RunResult(strategy=strategy, seed=self.master, curve=curve, pool=pool)
        curve.to_csv(os.path.join(outdir, runner.curve_filename(strategy, self.master)))
        runner.write_annotations(
            result, os.path.join(outdir, runner.annotations_filename(strategy, self.master))
        )
        summary = runner.build_summary({(strategy, self.master): result}, [strategy], [self.master])
        runner.write_summary(summary, os.path.join(outdir, "summary.csv"))
        return result

    def check(self, state, result, outdir: str) -> Outcome:
        corpus, _, pool = state
        key = (result.strategy, result.seed)
        curve_rows = checks.read_rows(os.path.join(outdir, runner.curve_filename(*key)))
        annotations = checks.read_rows(os.path.join(outdir, runner.annotations_filename(*key)))
        collected = [s.features for s in pool.samples.values() if s.origin == "collected"]
        found = (
            _check_pool_run(self.config, _truth(corpus), pool.test, curve_rows, annotations)
            + checks.check_no_test_labeled(pool.labeled, pool.test)
            + checks.check_summary(
                checks.read_rows(os.path.join(outdir, "summary.csv")), {key: curve_rows}
            )
            + checks.check_collected_total(
                curve_rows, len(collected), _collect_per_cycle(self.config)
            )
            + checks.check_collected_schema(np.array(collected))
        )
        return Outcome(
            decisions=len(curve_rows) - 1,
            final_rmse=float(curve_rows[-1]["test_rmse"]),
            attempted=1,
            problems={0: found} if found else {},
        )


def _offer(arrivals, stamps: list[float]):
    """Closed-loop arrival source: the next arrival is offered when the
    loop pulls it, and every pull is time-stamped."""
    for sample in arrivals:
        stamps.append(time.perf_counter())
        yield sample
    stamps.append(time.perf_counter())


class Stream:
    """The shipped synthetic_stream.cfg for one master seed, streaming the
    whole unlabeled pool (1872 arrivals against the shipped 1000)."""

    name = "stream"
    setup_repeats = 5
    tail_percentile = 99.4  # 11 of a round's 1872 arrivals lie beyond it

    def __init__(self, seed: int, **overrides):
        base = parse_config(os.path.join(ROOT, "configs", "synthetic_stream.cfg"))
        self.config = dataclasses.replace(base, seeds=str(seed % 10), **overrides)
        self.master = seed % 10
        self.policy = loop.StreamPolicy(
            uncertainty_threshold_quantile=self.config.stream_quantile,
            window=self.config.stream_window,
            max_queries=self.config.stream_max_queries,
        )

    def setup(self):
        corpus, world = runner.load_corpus(self.config)
        pool = dataset.split_pool(
            corpus, self.config.test_fraction, self.config.seed_labeled_fraction,
            rng_seed=self.master,
        )
        pool.normalizer = dataset.fit_normalizer(pool)
        arrivals = runner.extract_stream_arrivals(
            pool, len(pool.unlabeled),
            seeding.derive_seed(self.master, seeding.STREAM_ARRIVALS),
        )
        return world, pool, arrivals

    def execute(self, state, outdir: str):
        world, pool, arrivals = state
        oracle = loop.TwinOracle(
            pool, runner.make_budget(self.config), world,
            seeding.derive_seed(self.master, seeding.STREAM_COLLECT),
        )
        loop_config = runner.make_loop_config(
            self.config, self.config.strategy_list()[0], pool.n_features
        )
        stamps: list[float] = []
        curve, log = loop.run_stream_loop(
            loop_config, _offer(arrivals, stamps), pool, oracle, self.policy, self.master
        )
        curve.to_csv(os.path.join(outdir, runner.curve_filename("stream", self.master)))
        return curve, log, stamps, oracle.budget

    def check(self, state, done, outdir: str) -> Outcome:
        _, _, arrivals = state
        curve, log, stamps, budget = done
        queried = [d.queried for d in log]
        per_arrival = checks.check_stream_log(
            [d.score for d in log], [d.threshold for d in log], queried,
            self.policy.uncertainty_threshold_quantile, self.policy.window,
            loop.STREAM_MIN_HISTORY, self.policy.max_queries,
        )
        totals = checks.check_stream_totals(
            len(log), len(arrivals), sum(queried), self.policy.max_queries,
            budget.spent, budget.annotation_cost,
        )
        problems = {i: [p] for i, p in per_arrival.items()}
        for i in range(len(arrivals)) if totals else ():
            problems.setdefault(i, []).extend(totals)
        return Outcome(
            decisions=len(stamps) - 1,
            final_rmse=curve.final_rmse(),
            decision_s=list(np.diff(stamps)),
            arrival_phase_s=stamps[-1] - stamps[0],
            attempted=len(arrivals),
            problems=problems,
        )


WORKLOADS = {w.name: w for w in (Battery, PoolLarge, Stream)}
