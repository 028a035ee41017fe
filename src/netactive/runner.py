"""Experiment runner: build pools per master seed, execute strategy
comparisons, write plot-ready CSV artifacts."""

from __future__ import annotations

import os
from dataclasses import dataclass, fields

import numpy as np

from . import seeding
from .acquisition import Budget, CollectPolicy
from .config import ConfigError, ExperimentConfig, format_config, load_categorical_map
from .dataset import DataPool, fit_normalizer, load_csv, split_pool
from .loop import (
    LearningCurve,
    LoopConfig,
    PoolOracle,
    StreamPolicy,
    SynthesisPolicy,
    TrainingDiverged,
    TwinOracle,
    _LoopState,
    run_pool_cycles,
    run_stream_loop,
    run_synthesis_loop,
    start_pool_loop,
)
from .neural import NetworkSpec
from .synth import (
    MODE_DRIVING,
    MODE_WALKING,
    TwinWorld,
    default_blockage_zones,
    generate_synthetic_dataset,
)


class RunsFailed(RuntimeError):
    """Some (strategy, seed) runs diverged; every other run's artifacts and
    the summary were written.  `failures` maps each failed run to its cause."""

    def __init__(self, output_dir: str, failures: dict[tuple[str, int], Exception]):
        self.failures = failures
        named = "; ".join(
            f"{strategy} seed {seed}: {exc}" for (strategy, seed), exc in failures.items()
        )
        super().__init__(
            f"{len(failures)} run(s) failed, the others were written to {output_dir}: {named}"
        )


@dataclass
class RunResult:
    strategy: str
    seed: int
    curve: LearningCurve
    pool: DataPool


def build_world(config: ExperimentConfig) -> TwinWorld:
    return TwinWorld(
        noise_std=config.world_noise_std,
        peak_rate=config.world_peak_rate,
        range_scale=config.world_range_scale,
        orientation_gain=config.world_orientation_gain,
        orientation_lobes=config.world_orientation_lobes,
        walking_fraction=config.world_walking_fraction,
        mode_factors={MODE_WALKING: 1.0, MODE_DRIVING: config.world_driving_factor},
        blockage_zones=default_blockage_zones() if config.world_blockage_enabled else [],
    )


def load_corpus(config: ExperimentConfig) -> tuple[np.recarray, TwinWorld | None]:
    """Materialize the base corpus (see dataset.new_corpus) from CSV or the twin world."""
    if config.data_source == "csv":
        maps = None
        if config.categorical_column:
            maps = {config.categorical_column: load_categorical_map(config.categorical_map_path)}
        columns = config.feature_column_list()
        result = load_csv(config.csv_path, config.target_column,
                          "auto" if columns == ["auto"] else columns, maps)
        if result.rejected_rows:
            print(f"note: dropped {result.rejected_rows} rows with missing values")
        return result.samples, None
    world = build_world(config)
    return generate_synthetic_dataset(world, config.synthetic_n, config.world_seed), world


def make_loop_config(config: ExperimentConfig, strategy: str, n_features: int) -> LoopConfig:
    spec = NetworkSpec(
        layer_sizes=[n_features] + config.hidden_size_list() + [1],
        dropout_rate=config.dropout_rate,
        activation=config.activation,
        weight_init_scale=config.weight_init_scale,
    )
    # every other LoopConfig field is an ExperimentConfig key of the same name
    same_named = {f.name: getattr(config, f.name) for f in fields(LoopConfig)
                  if f.name not in ("spec", "strategy", "collect_policy")}
    return LoopConfig(spec=spec, strategy=strategy, **same_named, collect_policy=CollectPolicy(
        enabled=config.collect_enabled, collect_fraction=config.collect_fraction))


def make_budget(config: ExperimentConfig) -> Budget:
    return Budget(
        total=config.budget_total,
        annotation_cost=config.annotation_cost,
        collection_cost=config.collection_cost,
    )


def make_oracle(
    config: ExperimentConfig, world: TwinWorld | None, pool: DataPool, master_seed: int
) -> PoolOracle:
    """A fresh budget and the oracle that charges it, writing to `pool`."""
    if world is None:
        return PoolOracle(pool, make_budget(config))
    return TwinOracle(pool, make_budget(config), world,
                      seeding.derive_seed(master_seed, seeding.STREAM_COLLECT))


def run_seed(
    config: ExperimentConfig, corpus: np.recarray, world: TwinWorld | None, master_seed: int
) -> dict[str, RunResult | TrainingDiverged]:
    """Every strategy's run on one master seed, by strategy: its result, or
    the TrainingDiverged that ended it.  The runs share one split, each on a
    copy but the last, which takes over the split itself.  Pool-loop runs
    also share one iteration 0: a start that each of them forks."""
    split = split_pool(
        corpus, config.test_fraction, config.seed_labeled_fraction, rng_seed=master_seed
    )
    split.normalizer = fit_normalizer(split)
    strategies = config.strategy_list()
    oracles = [make_oracle(config, world, pool, master_seed)
               for pool in [split.copy() for _ in strategies[1:]] + [split]]
    try:
        start = start_pool_loop(make_loop_config(config, strategies[-1], split.n_features),
                                split, oracles[-1], master_seed) if config.loop == "pool" else None
    except TrainingDiverged as exc:
        return dict.fromkeys(strategies, exc)
    outcomes: dict[str, RunResult | TrainingDiverged] = {}
    for strategy, oracle in zip(strategies, oracles):
        try:
            outcomes[strategy] = run_single(config, world, strategy, oracle, master_seed, start)
        except TrainingDiverged as exc:
            outcomes[strategy] = exc
    return outcomes


def run_single(
    config: ExperimentConfig,
    world: TwinWorld | None,
    strategy: str,
    oracle: PoolOracle,
    master_seed: int,
    start: _LoopState | None,
) -> RunResult:
    """One (strategy, seed) run in the oracle's pool; a pool-loop run forks `start`."""
    pool = oracle.pool
    if config.loop == "pool":
        return RunResult(strategy, master_seed, run_pool_cycles(start, strategy, oracle), pool)
    loop_config = make_loop_config(config, strategy, pool.n_features)
    if config.loop == "stream":
        arrivals = extract_stream_arrivals(
            pool, config.stream_arrivals,
            seeding.derive_seed(master_seed, seeding.STREAM_ARRIVALS),
        )
        policy = StreamPolicy(
            uncertainty_threshold_quantile=config.stream_quantile,
            window=config.stream_window,
            max_queries=config.stream_max_queries,
        )
        curve, _ = run_stream_loop(loop_config, arrivals, pool, oracle, policy, master_seed)
    else:  # synthesis
        policy = SynthesisPolicy(
            gmm_components=config.gmm_components,
            gmm_em_iters=config.gmm_em_iters,
            candidate_multiple=config.candidate_multiple,
            probe_features=_probe_features(config, world, master_seed),
            probe_size=config.probe_size,
        )
        curve = run_synthesis_loop(loop_config, pool, oracle, policy, master_seed)
    return RunResult(strategy=strategy, seed=master_seed, curve=curve, pool=pool)


def extract_stream_arrivals(pool: DataPool, n: int, rng_seed: int) -> list[int]:
    """The ids of n seeded-shuffled unlabeled samples, in arrival order: they
    wait in the pool as arrivals, truth hidden, until the stream loop admits
    each one, and the leftovers drop out of the experiment entirely.  Asking
    for more arrivals than the pool holds raises ConfigError."""
    ids = pool.unlabeled
    if n > len(ids):
        raise ConfigError(f"key 'stream_arrivals': {n} stream arrivals requested; "
                          f"the pool holds only {len(ids)} unlabeled")
    arrivals = ids[np.random.default_rng(rng_seed).permutation(len(ids))[:n]]
    pool.queue_arrivals(arrivals)
    return arrivals.tolist()


def _probe_features(
    config: ExperimentConfig, world: TwinWorld | None, master_seed: int
) -> np.ndarray | None:
    if world is None:
        return None
    seed = seeding.derive_seed(master_seed, seeding.STREAM_PROBE)
    return generate_synthetic_dataset(world, config.probe_size, seed).features


def curve_filename(strategy: str, seed: int) -> str:
    return f"curve_{strategy}_seed{seed}.csv"


def annotations_filename(strategy: str, seed: int) -> str:
    return f"annotations_{strategy}_seed{seed}.csv"


def write_annotations(result: RunResult, path: str) -> None:
    """Dump every labeled sample with its acquisition iteration and features."""
    pool = result.pool
    n_feat = pool.n_features
    header = ["iteration_acquired", "sample_id", "origin"] + [f"f{i}" for i in range(n_feat)]
    ids = pool.labeled  # ascending
    iterations, origins = pool.acquisitions(ids)
    iterations = np.maximum(iterations, 0)  # none counts as the seed's 0
    features = pool.feature_matrix(ids).tolist()
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for i in np.argsort(iterations, kind="stable").tolist():  # by iteration, then by id
            feats = ",".join(f"{v:.9g}" for v in features[i])
            fh.write(f"{iterations[i]},{ids[i]},{origins[i]},{feats}\n")


def run_experiment(config: ExperimentConfig, output_dir: str | None = None) -> dict:
    """Run every (strategy, master seed) pair and write all artifacts.

    Outputs one curve CSV and one annotations CSV per run plus a summary
    CSV holding per-seed final RMSEs, their paired differences against the
    random strategy, and per-strategy mean/std aggregate rows.  A run whose
    training diverges writes no CSVs and a nan summary row; the others
    still run, and RunsFailed names the failed runs after the summary is
    written."""
    out = output_dir or config.output_dir
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "config_resolved.txt"), "w", encoding="utf-8") as fh:
        fh.write(format_config(config))

    corpus, world = load_corpus(config)
    strategies = config.strategy_list()
    seeds = config.seed_list()
    outcomes = {}
    for seed in seeds:
        for strategy, outcome in run_seed(config, corpus, world, seed).items():
            outcomes[(strategy, seed)] = outcome
            if isinstance(outcome, RunResult):
                outcome.curve.to_csv(os.path.join(out, curve_filename(strategy, seed)))
                write_annotations(outcome, os.path.join(out, annotations_filename(strategy, seed)))
    keys = [(strategy, seed) for strategy in strategies for seed in seeds]
    results = {k: outcomes[k] for k in keys if isinstance(outcomes[k], RunResult)}
    failures = {k: outcomes[k] for k in keys if k not in results}
    summary = build_summary(results, strategies, seeds)
    write_summary(summary, os.path.join(out, "summary.csv"))
    if failures:
        raise RunsFailed(out, failures)
    return {"results": results, "summary": summary, "output_dir": out}


def _sig6(value: float) -> float:
    """Round through the curve files' 6-significant-digit format, so the
    summary stays bit-consistent with recomputation from the artifacts."""
    return float(f"{value:.6g}")


def _aggregate(reduce, values: np.ndarray) -> float:
    """np.mean or np.std of the completed runs' values; nan when none completed."""
    return float(reduce(values)) if len(values) else float("nan")


def build_summary(
    results: dict[tuple[str, int], "RunResult"], strategies: list[str], seeds: list[int]
) -> list[dict]:
    """Per-seed rows plus mean/std aggregate rows, paired against random.

    A (strategy, seed) missing from results is a failed run: its row holds
    nan, it is left out of the mean/std rows, and every paired difference
    involving it is empty."""
    nan = float("nan")
    rows = []
    for strategy in strategies:
        finals, initials = [], []
        for seed in seeds:
            row = {"strategy": strategy, "seed": str(seed), "rmse_initial": nan,
                   "rmse_final": nan, "rmse_reduction": nan, "rmse_final_minus_random": ""}
            rows.append(row)
            if (strategy, seed) not in results:
                continue
            curve = results[(strategy, seed)].curve
            initial = _sig6(curve.rows[0].test_rmse)
            final = _sig6(curve.final_rmse())
            initials.append(initial)
            finals.append(final)
            row.update(rmse_initial=initial, rmse_final=final, rmse_reduction=initial - final)
            if ("random" in strategies and strategy != "random"
                    and ("random", seed) in results):
                random_final = _sig6(results[("random", seed)].curve.final_rmse())
                row["rmse_final_minus_random"] = final - random_final
        finals_arr = np.asarray(finals)
        initials_arr = np.asarray(initials)
        for stat, reduce in (("mean", np.mean), ("std", np.std)):
            rows.append(
                {
                    "strategy": strategy,
                    "seed": stat,
                    "rmse_initial": _aggregate(reduce, initials_arr),
                    "rmse_final": _aggregate(reduce, finals_arr),
                    "rmse_reduction": _aggregate(reduce, initials_arr - finals_arr),
                    "rmse_final_minus_random": "",
                }
            )
    return rows


SUMMARY_HEADER = "strategy,seed,rmse_initial,rmse_final,rmse_reduction,rmse_final_minus_random"


def write_summary(rows: list[dict], path: str) -> None:
    def fmt(value) -> str:
        if value == "":
            return ""
        return repr(float(value))  # full precision: recomputation must match

    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(SUMMARY_HEADER + "\n")
        for r in rows:
            fh.write(
                f"{r['strategy']},{r['seed']},{fmt(r['rmse_initial'])},"
                f"{fmt(r['rmse_final'])},{fmt(r['rmse_reduction'])},"
                f"{fmt(r['rmse_final_minus_random'])}\n"
            )


def export_query_geography(
    run_dir: str, lon_index: int, lat_index: int, output_dir: str | None = None
) -> list[str]:
    """Per-iteration scatter CSVs from a run's annotation artifacts.

    For every iteration k the file lists all samples labeled by then, with
    status new_query for those acquired exactly at k >= 1 and
    previously_labeled otherwise (the initial seed is always previous)."""
    out = output_dir or os.path.join(run_dir, "geography")
    files = sorted(
        name
        for name in os.listdir(run_dir)
        if name.startswith("annotations_") and name.endswith(".csv")
    )
    if not files:
        raise ValueError(f"{run_dir}: no annotation artifacts found")
    os.makedirs(out, exist_ok=True)
    written = []
    for name in files:
        run_tag = name[len("annotations_") : -len(".csv")]
        records = []
        source = os.path.join(run_dir, name)
        with open(source, encoding="utf-8") as fh:
            header = fh.readline().strip().split(",")
            n_feat = len(header) - 3
            if not (0 <= lon_index < n_feat and 0 <= lat_index < n_feat):
                raise ValueError(
                    f"feature indices ({lon_index}, {lat_index}) invalid for {n_feat} features"
                )
            for lineno, line in enumerate(fh, start=2):
                cells = line.strip().split(",")
                if len(cells) != len(header):
                    raise ValueError(
                        f"{source}, line {lineno}: expected {len(header)} values, "
                        f"got {len(cells)}"
                    )
                keys = []
                for col in (0, 1):  # iteration_acquired, sample_id
                    try:
                        keys.append(int(cells[col]))
                    except ValueError:
                        raise ValueError(
                            f"{source}, line {lineno}: {header[col]} {cells[col]!r} "
                            "is not an integer"
                        ) from None
                records.append((*keys, cells[3 + lon_index], cells[3 + lat_index]))
        if not records:
            raise ValueError(f"{source}: no annotated samples below the header")
        max_iter = max(r[0] for r in records)
        for k in range(max_iter + 1):
            path = os.path.join(out, f"geo_{run_tag}_iter{k}.csv")
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write("id,lon,lat,status\n")
                for it, sid, lon, lat in records:
                    if it > k:
                        continue
                    status = "new_query" if (it == k and k >= 1) else "previously_labeled"
                    fh.write(f"{sid},{lon},{lat},{status}\n")
            written.append(path)
    return written

