"""Experiment configuration: flat `key = value` files with strict validation."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields

from .acquisition import STRATEGIES, STRATEGY_INPUTS
from .loop import STREAM_MIN_HISTORY
from .neural import ACTIVATIONS


class ConfigError(ValueError):
    """Malformed or out-of-range configuration; maps to CLI exit code 1."""


@dataclass
class ExperimentConfig:
    # data source
    data_source: str = "synthetic"  # synthetic | csv
    csv_path: str = ""
    target_column: str = "throughput"
    feature_columns: str = "auto"  # "auto" or comma-separated column names
    categorical_column: str = ""
    categorical_map_path: str = ""
    synthetic_n: int = 5000
    world_seed: int = 0
    world_noise_std: float = 50.0
    world_peak_rate: float = 2000.0
    world_range_scale: float = 300.0
    world_orientation_gain: float = 1.0
    world_orientation_lobes: int = 1
    world_walking_fraction: float = 0.8
    world_driving_factor: float = 0.8
    world_blockage_enabled: bool = True
    # split
    test_fraction: float = 0.2
    seed_labeled_fraction: float = 0.2
    # loop
    loop: str = "pool"  # pool | stream | synthesis
    strategies: str = "uncertainty,random"
    batch_size: int = 4
    iterations: int = 10
    budget_total: float = math.inf
    annotation_cost: float = 1.0
    collection_cost: float = 0.25
    collect_enabled: bool = False
    collect_fraction: float = 0.5
    # network
    hidden_sizes: str = "64,64"
    dropout_rate: float = 0.2
    activation: str = "relu"
    weight_init_scale: float = 1.0
    # training
    learning_rate: float = 0.001
    train_batch_size: int = 64
    initial_epochs: int = 300
    fine_tune_epochs: int = 60
    warm_start: bool = True
    # uncertainty
    mc_passes: int = 50
    qbc_members: int = 5
    hybrid_beta: float = 0.5
    aleatoric_val_fraction: float = 0.15
    # stream loop
    stream_quantile: float = 0.9
    stream_window: int = 100
    stream_max_queries: int = 10000
    stream_retrain_every: int = 10
    stream_epochs: int = 5
    stream_arrivals: int = 1000
    # synthesis loop
    gmm_components: int = 4
    gmm_em_iters: int = 50
    candidate_multiple: int = 4
    probe_size: int = 200
    # harness
    seeds: str = "0,1,2"
    output_dir: str = "runs"

    def strategy_list(self) -> list[str]:
        return _entries(self.strategies)

    def seed_list(self) -> list[int]:
        return [int(s) for s in _entries(self.seeds)]

    def feature_column_list(self) -> list[str]:
        return _entries(self.feature_columns)

    def hidden_size_list(self) -> list[int]:
        return [int(s) for s in _entries(self.hidden_sizes)]


def _entries(raw: str) -> list[str]:
    """A list key's stripped entries, or none if all are blank (see validate_config)."""
    entries = [entry.strip() for entry in raw.split(",")]
    return entries if any(entries) else []


_BOOL_VALUES = {"true": True, "false": False, "1": True, "0": False, "yes": True, "no": False}

_CHOICES = {
    "data_source": ("synthetic", "csv"),
    "loop": ("pool", "stream", "synthesis"),
    "activation": ACTIVATIONS,
}

# key -> (low, high, low_inclusive, high_inclusive); None means unbounded
_RANGES = {
    "synthetic_n": (10, None, True, True),
    "world_seed": (0, None, True, True),
    "world_noise_std": (0.0, None, True, True),
    "world_peak_rate": (0.0, None, False, True),
    "world_range_scale": (0.0, None, False, True),
    "world_orientation_gain": (0.0, 1.0, True, True),
    "world_orientation_lobes": (1, None, True, True),
    "world_walking_fraction": (0.0, 1.0, True, True),
    "world_driving_factor": (0.0, None, False, True),
    "test_fraction": (0.0, 1.0, False, False),
    "seed_labeled_fraction": (0.0, 1.0, False, False),
    "batch_size": (1, None, True, True),
    "iterations": (0, None, True, True),
    "budget_total": (0.0, None, False, True),
    "annotation_cost": (0.0, None, False, True),
    "collection_cost": (0.0, None, False, True),
    "collect_fraction": (0.0, 1.0, True, True),
    "dropout_rate": (0.0, 1.0, True, False),
    "weight_init_scale": (0.0, None, False, True),
    "learning_rate": (0.0, None, False, True),
    "train_batch_size": (1, None, True, True),
    "initial_epochs": (0, None, True, True),
    "fine_tune_epochs": (0, None, True, True),
    "mc_passes": (1, None, True, True),
    "qbc_members": (2, None, True, True),
    "hybrid_beta": (0.0, 1.0, True, True),
    "aleatoric_val_fraction": (0.0, 1.0, True, False),
    "stream_quantile": (0.0, 1.0, False, False),
    # the loop trusts a threshold only once the window holds this many scores
    "stream_window": (STREAM_MIN_HISTORY, None, True, True),
    "stream_max_queries": (1, None, True, True),
    "stream_retrain_every": (1, None, True, True),
    "stream_epochs": (0, None, True, True),
    "stream_arrivals": (1, None, True, True),
    "gmm_components": (1, None, True, True),
    "gmm_em_iters": (0, None, True, True),
    "candidate_multiple": (1, None, True, True),
    "probe_size": (1, None, True, True),
}

def _parse_value(key: str, raw: str, kind: type, path: str, line_no: int):
    try:
        if kind is bool:
            lowered = raw.lower()
            if lowered not in _BOOL_VALUES:
                raise ValueError(f"expected true/false, got {raw!r}")
            return _BOOL_VALUES[lowered]
        if kind is int:
            return int(raw)
        if kind is float:
            value = float(raw)
            if math.isnan(value):
                raise ValueError("nan is not allowed")
            return value
        return raw
    except ValueError as exc:
        raise ConfigError(f"{path}: line {line_no}: key {key!r}: {exc}") from None


def _check_ranges(config: ExperimentConfig, source: str) -> None:
    for key, (low, high, low_inc, high_inc) in _RANGES.items():
        value = getattr(config, key)
        # budget_total = inf means no limit (the default); every other float
        # must be finite, whatever its range
        if isinstance(value, float) and key != "budget_total" and not math.isfinite(value):
            raise ConfigError(f"{source}: key {key!r}: value {value!r} must be finite")
        ok = True
        if low is not None:
            ok = ok and (value >= low if low_inc else value > low)
        if high is not None:
            ok = ok and (value <= high if high_inc else value < high)
        if not ok:
            lo = "[" if low_inc else "("
            hi = "]" if high_inc else ")"
            raise ConfigError(
                f"{source}: key {key!r}: value {value!r} outside range {lo}{low}, {high}{hi}"
            )


def validate_config(config: ExperimentConfig, source: str = "<config>") -> None:
    """Range and cross-field checks plus referenced-file existence."""
    _check_ranges(config, source)
    for key in ("strategies", "seeds", "feature_columns", "hidden_sizes"):
        if "" in _entries(getattr(config, key)):
            raise ConfigError(f"{source}: key {key!r}: empty entry in {getattr(config, key)!r}")
    for key, choices in _CHOICES.items():
        if getattr(config, key) not in choices:
            raise ConfigError(f"{source}: key {key!r}: must be one of {choices}, "
                              f"got {getattr(config, key)!r}")
    for strategy in config.strategy_list():
        if strategy not in STRATEGIES:
            raise ConfigError(
                f"{source}: key 'strategies': unknown strategy {strategy!r}; "
                f"expected one of {STRATEGIES}"
            )
    if not config.strategy_list():
        raise ConfigError(f"{source}: key 'strategies': must name at least one strategy")
    if config.loop != "pool" and config.strategy_list() != ["uncertainty"]:
        raise ConfigError(f"{source}: key 'strategies': the {config.loop} loop scores by "
                          "epistemic uncertainty only; set strategies = uncertainty")
    try:
        seeds = config.seed_list()
    except ValueError:
        raise ConfigError(f"{source}: key 'seeds': master seeds must be comma-separated "
                          f"integers, got {config.seeds!r}") from None
    if not seeds:
        raise ConfigError(f"{source}: key 'seeds': must name at least one master seed")
    if any(seed < 0 for seed in seeds):
        raise ConfigError(f"{source}: key 'seeds': master seeds must be non-negative, "
                          f"got {min(seeds)}")
    if not config.feature_column_list():
        raise ConfigError(f"{source}: key 'feature_columns': must be auto or name a column")
    for key, items in (("strategies", config.strategy_list()), ("seeds", seeds),
                       ("feature_columns", config.feature_column_list())):
        repeated = [item for k, item in enumerate(items) if item in items[:k]]
        if repeated:
            raise ConfigError(f"{source}: key {key!r}: names {repeated[0]!r} more than once")
    try:
        sizes = config.hidden_size_list()
    except ValueError:
        raise ConfigError(f"{source}: key 'hidden_sizes': hidden sizes must be comma-separated "
                          f"integers, got {config.hidden_sizes!r}") from None
    if any(s < 1 for s in sizes):
        raise ConfigError(f"{source}: key 'hidden_sizes': hidden sizes must be positive, "
                          f"got {min(sizes)}")
    # MC-dropout std is exactly 0 without a dropped hidden unit or a second
    # pass, and a ranking by it would fall back to ascending sample ids.
    ranked_by_std = [s for s in config.strategy_list() if "epistemic_std" in STRATEGY_INPUTS[s]]
    for key, ok, needs in (("hidden_sizes", sizes, "at least one hidden layer"),
                           ("dropout_rate", config.dropout_rate > 0.0, "dropout_rate > 0"),
                           ("mc_passes", config.mc_passes >= 2, "mc_passes >= 2")):
        if ranked_by_std and not ok:
            raise ConfigError(f"{source}: key {key!r}: {ranked_by_std[0]} ranks candidates "
                              f"by MC-dropout std, which needs {needs}")
    if config.data_source == "csv":
        if not config.csv_path:
            raise ConfigError(f"{source}: key 'csv_path': data_source = csv needs a CSV path")
        if not os.path.exists(config.csv_path):
            raise ConfigError(f"{source}: key 'csv_path': {config.csv_path!r} does not exist")
        if config.collect_enabled:
            raise ConfigError(f"{source}: key 'collect_enabled': collection needs a twin world; "
                              "disable it for csv data")
    if config.categorical_map_path and not os.path.exists(config.categorical_map_path):
        raise ConfigError(f"{source}: key 'categorical_map_path': "
                          f"{config.categorical_map_path!r} does not exist")
    if config.categorical_column and not config.categorical_map_path:
        raise ConfigError(f"{source}: key 'categorical_column': needs categorical_map_path")
    for key in ("target_column", "feature_columns", "categorical_column", "categorical_map_path"):
        if config.data_source != "csv" and getattr(config, key) != getattr(ExperimentConfig, key):
            raise ConfigError(f"{source}: key {key!r}: only csv data reads it; "
                              "data_source = synthetic would ignore it")


def parse_config(path: str) -> ExperimentConfig:
    """Parse a flat key=value file; `#` starts a comment, unknown keys error."""
    types = {f.name: type(getattr(ExperimentConfig(), f.name)) for f in fields(ExperimentConfig)}
    values = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            if "=" not in body:
                raise ConfigError(f"{path}: line {line_no}: expected 'key = value'")
            key, raw = (part.strip() for part in body.split("=", 1))
            if key not in types:
                raise ConfigError(f"{path}: line {line_no}: unknown key {key!r}")
            if key in values:
                raise ConfigError(f"{path}: line {line_no}: duplicate key {key!r}")
            values[key] = _parse_value(key, raw, types[key], path, line_no)
    config = ExperimentConfig(**values)
    validate_config(config, source=path)
    return config


def format_config(config: ExperimentConfig) -> str:
    """Render the fully resolved config; parse_config(format_config(c)) == c."""
    lines = []
    for f in sorted(fields(config), key=lambda f: f.name):
        value = getattr(config, f.name)
        if isinstance(value, bool):
            value = "true" if value else "false"
        elif isinstance(value, float):
            value = repr(value)
        lines.append(f"{f.name} = {value}")
    return "\n".join(lines) + "\n"


def load_categorical_map(path: str) -> dict[str, float]:
    """Read a `name=integer` per-line mapping for one categorical column, each
    name on one line only."""
    mapping: dict[str, float] = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            if "=" not in body:
                raise ConfigError(f"{path}: line {line_no}: expected 'name=integer'")
            name, raw = (part.strip() for part in body.split("=", 1))
            if name in mapping:
                raise ConfigError(f"{path}: line {line_no}: {name!r} is mapped twice")
            try:
                mapping[name] = float(int(raw))
            except ValueError:
                raise ConfigError(
                    f"{path}: line {line_no}: {raw!r} is not an integer"
                ) from None
    if not mapping:
        raise ConfigError(f"{path}: empty categorical mapping")
    return mapping
