"""Experiment runner: build pools per master seed, execute strategy
comparisons, write plot-ready CSV artifacts."""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from . import seeding
from .acquisition import Budget, CollectPolicy
from .config import ConfigError, ExperimentConfig, format_config, load_categorical_map
from .dataset import DataPool, Sample, fit_normalizer, load_csv, split_pool
from .loop import (
    LearningCurve,
    LoopConfig,
    PoolOracle,
    StreamPolicy,
    SynthesisPolicy,
    TwinOracle,
    run_pool_loop,
    run_stream_loop,
    run_synthesis_loop,
)
from .neural import NetworkSpec, TrainHyper
from .synth import (
    MODE_DRIVING,
    MODE_WALKING,
    TwinWorld,
    default_blockage_zones,
    generate_synthetic_dataset,
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


def load_corpus(config: ExperimentConfig) -> tuple[list[Sample], TwinWorld | None]:
    """Materialize the base sample corpus from CSV or the twin world."""
    if config.data_source == "csv":
        maps = None
        if config.categorical_column:
            maps = {config.categorical_column: load_categorical_map(config.categorical_map_path)}
        columns: str | list[str] = "auto"
        if config.feature_columns != "auto":
            columns = [c.strip() for c in config.feature_columns.split(",") if c.strip()]
        result = load_csv(config.csv_path, config.target_column, columns, maps)
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
    return LoopConfig(
        spec=spec,
        hyper=TrainHyper(learning_rate=config.learning_rate),
        strategy=strategy,
        iterations=config.iterations,
        batch_size=config.batch_size,
        mc_passes=config.mc_passes,
        initial_epochs=config.initial_epochs,
        fine_tune_epochs=config.fine_tune_epochs,
        train_batch_size=config.train_batch_size,
        warm_start=config.warm_start,
        hybrid_beta=config.hybrid_beta,
        qbc_members=config.qbc_members,
        collect_policy=CollectPolicy(
            enabled=config.collect_enabled, collect_fraction=config.collect_fraction
        ),
        aleatoric_val_fraction=config.aleatoric_val_fraction,
        stream_retrain_every=config.stream_retrain_every,
        stream_epochs=config.stream_epochs,
    )


def make_budget(config: ExperimentConfig) -> Budget:
    return Budget(
        total=config.budget_total,
        annotation_cost=config.annotation_cost,
        collection_cost=config.collection_cost,
    )


def run_single(
    config: ExperimentConfig,
    corpus: list[Sample],
    world: TwinWorld | None,
    strategy: str,
    master_seed: int,
) -> RunResult:
    """One (strategy, seed) run; strategies sharing a master seed share the split."""
    pool = split_pool(
        corpus, config.test_fraction, config.seed_labeled_fraction, rng_seed=master_seed
    )
    pool.normalizer = fit_normalizer(pool)
    budget = make_budget(config)
    loop_config = make_loop_config(config, strategy, pool.n_features)
    if world is not None:
        oracle: PoolOracle = TwinOracle(
            pool, budget, world, seeding.derive_seed(master_seed, seeding.STREAM_COLLECT)
        )
    else:
        oracle = PoolOracle(pool, budget)

    if config.loop == "pool":
        curve = run_pool_loop(loop_config, pool, oracle, master_seed)
    elif config.loop == "stream":
        arrivals = _stream_arrivals(config, pool, master_seed)
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


def extract_stream_arrivals(pool: DataPool, n: int, rng_seed: int) -> list[Sample]:
    """Detach the unlabeled partition into a seeded arrival sequence.

    The first n shuffled samples leave the pool carrying their ground
    truth (the stream loop re-registers and re-hides each one on arrival);
    the leftovers drop out of the experiment entirely.  Asking for more
    arrivals than the pool holds raises ValueError."""
    ids = sorted(pool.unlabeled)
    if n > len(ids):
        raise ValueError(
            f"{n} stream arrivals requested but the unlabeled pool holds only {len(ids)}"
        )
    order = np.random.default_rng(rng_seed).permutation(len(ids))
    arrivals = []
    for i in order[:n]:
        sample = pool.samples.pop(ids[i])
        pool.unlabeled.discard(ids[i])
        sample.label = pool.take_hidden_label(ids[i])
        arrivals.append(sample)
    for sid in sorted(pool.unlabeled):
        pool.samples.pop(sid)
        pool.take_hidden_label(sid)
    pool.unlabeled.clear()
    pool.check_invariants()
    return arrivals


def _stream_arrivals(
    config: ExperimentConfig, pool: DataPool, master_seed: int
) -> list[Sample]:
    return extract_stream_arrivals(
        pool,
        config.stream_arrivals,
        seeding.derive_seed(master_seed, seeding.STREAM_ARRIVALS),
    )


def _probe_features(
    config: ExperimentConfig, world: TwinWorld | None, master_seed: int
) -> np.ndarray | None:
    if world is None:
        return None
    probe = generate_synthetic_dataset(
        world, config.probe_size, seeding.derive_seed(master_seed, seeding.STREAM_PROBE)
    )
    return np.stack([s.features for s in probe])


def curve_filename(strategy: str, seed: int) -> str:
    return f"curve_{strategy}_seed{seed}.csv"


def annotations_filename(strategy: str, seed: int) -> str:
    return f"annotations_{strategy}_seed{seed}.csv"


def write_annotations(result: RunResult, path: str) -> None:
    """Dump every labeled sample with its acquisition iteration and features."""
    pool = result.pool
    n_feat = pool.n_features
    header = ["iteration_acquired", "sample_id", "origin"] + [f"f{i}" for i in range(n_feat)]
    rows = sorted(
        (pool.samples[sid] for sid in pool.labeled),
        key=lambda s: (s.iteration_acquired if s.iteration_acquired is not None else 0, s.id),
    )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for s in rows:
            it = s.iteration_acquired if s.iteration_acquired is not None else 0
            feats = ",".join(f"{v:.9g}" for v in s.features)
            fh.write(f"{it},{s.id},{s.origin},{feats}\n")


def run_experiment(config: ExperimentConfig, output_dir: str | None = None) -> dict:
    """Run every (strategy, master seed) pair and write all artifacts.

    Outputs one curve CSV and one annotations CSV per run plus a summary
    CSV holding per-seed final RMSEs, their paired differences against the
    random strategy, and per-strategy mean/std aggregate rows."""
    out = output_dir or config.output_dir
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "config_resolved.txt"), "w", encoding="utf-8") as fh:
        fh.write(format_config(config))

    corpus, world = load_corpus(config)
    strategies = config.strategy_list()
    seeds = config.seed_list()
    results: dict[tuple[str, int], RunResult] = {}
    for strategy in strategies:
        for seed in seeds:
            result = run_single(config, corpus, world, strategy, seed)
            results[(strategy, seed)] = result
            result.curve.to_csv(os.path.join(out, curve_filename(strategy, seed)))
            write_annotations(result, os.path.join(out, annotations_filename(strategy, seed)))

    summary = build_summary(results, strategies, seeds)
    write_summary(summary, os.path.join(out, "summary.csv"))
    return {"results": results, "summary": summary, "output_dir": out}


def _sig6(value: float) -> float:
    """Round through the curve files' 6-significant-digit format, so the
    summary stays bit-consistent with recomputation from the artifacts."""
    return float(f"{value:.6g}")


def build_summary(
    results: dict[tuple[str, int], "RunResult"], strategies: list[str], seeds: list[int]
) -> list[dict]:
    """Per-seed rows plus mean/std aggregate rows, paired against random."""
    rows = []
    for strategy in strategies:
        finals, initials = [], []
        for seed in seeds:
            curve = results[(strategy, seed)].curve
            initial = _sig6(curve.rows[0].test_rmse)
            final = _sig6(curve.final_rmse())
            initials.append(initial)
            finals.append(final)
            diff = ""
            if "random" in strategies and strategy != "random":
                diff = final - _sig6(results[("random", seed)].curve.final_rmse())
            rows.append(
                {
                    "strategy": strategy,
                    "seed": str(seed),
                    "rmse_initial": initial,
                    "rmse_final": final,
                    "rmse_reduction": initial - final,
                    "rmse_final_minus_random": diff,
                }
            )
        finals_arr = np.asarray(finals)
        initials_arr = np.asarray(initials)
        rows.append(
            {
                "strategy": strategy,
                "seed": "mean",
                "rmse_initial": float(initials_arr.mean()),
                "rmse_final": float(finals_arr.mean()),
                "rmse_reduction": float((initials_arr - finals_arr).mean()),
                "rmse_final_minus_random": "",
            }
        )
        rows.append(
            {
                "strategy": strategy,
                "seed": "std",
                "rmse_initial": float(initials_arr.std()),
                "rmse_final": float(finals_arr.std()),
                "rmse_reduction": float((initials_arr - finals_arr).std()),
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
        with open(os.path.join(run_dir, name), encoding="utf-8") as fh:
            header = fh.readline().strip().split(",")
            n_feat = len(header) - 3
            if not (0 <= lon_index < n_feat and 0 <= lat_index < n_feat):
                raise ValueError(
                    f"feature indices ({lon_index}, {lat_index}) invalid for {n_feat} features"
                )
            for line in fh:
                cells = line.strip().split(",")
                records.append(
                    (int(cells[0]), int(cells[1]), cells[3 + lon_index], cells[3 + lat_index])
                )
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


def check_config_for_run(config: ExperimentConfig) -> None:
    """Extra harness-level guards before spending compute."""
    if config.loop in ("stream", "synthesis") and len(config.strategy_list()) > 1:
        raise ConfigError(
            "stream and synthesis loops score by epistemic uncertainty only; "
            "configure a single strategy"
        )
