import math
import os
import re
from dataclasses import fields

import pytest

from netactive.config import (
    ConfigError,
    ExperimentConfig,
    format_config,
    load_categorical_map,
    parse_config,
    validate_config,
)
from netactive.loop import STREAM_MIN_HISTORY


def write(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestParseConfig:
    def test_empty_file_gives_defaults(self, tmp_path):
        config = parse_config(write(tmp_path, ""))
        assert config == ExperimentConfig()

    def test_batch_size_parse(self, tmp_path):
        config = parse_config(write(tmp_path, "batch_size = 4\n"))
        assert config.batch_size == 4

    def test_comments_and_blank_lines(self, tmp_path):
        text = "# full line comment\n\nbatch_size = 8  # trailing comment\n"
        assert parse_config(write(tmp_path, text)).batch_size == 8

    def test_unknown_key_names_line(self, tmp_path):
        with pytest.raises(ConfigError, match="line 2.*'batchsize'"):
            parse_config(write(tmp_path, "iterations = 3\nbatchsize = 4\n"))

    def test_negative_batch_size_names_line(self, tmp_path):
        with pytest.raises(ConfigError, match="'batch_size': value -1 outside range"):
            parse_config(write(tmp_path, "batch_size = -1\n"))

    def test_malformed_value_names_line(self, tmp_path):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config(write(tmp_path, "iterations = three\n"))

    def test_malformed_value_names_path(self, tmp_path):
        path = write(tmp_path, "iterations = three\n")
        with pytest.raises(ConfigError) as info:
            parse_config(path)
        assert str(info.value).startswith(f"{path}: line 1: key 'iterations': ")

    def test_duplicate_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(write(tmp_path, "batch_size = 4\nbatch_size = 5\n"))

    def test_missing_equals_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config(write(tmp_path, "batch_size 4\n"))

    def test_csv_source_requires_existing_file(self, tmp_path):
        text = "data_source = csv\ncsv_path = /missing.csv\n"
        with pytest.raises(ConfigError, match="does not exist"):
            parse_config(write(tmp_path, text))

    def test_collection_incompatible_with_csv(self, tmp_path):
        csv = tmp_path / "d.csv"
        csv.write_text("a,tput\n1,2\n")
        text = f"data_source = csv\ncsv_path = {csv}\ncollect_enabled = true\n"
        with pytest.raises(ConfigError, match="twin world"):
            parse_config(write(tmp_path, text))

    def test_unknown_strategy_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown strategy"):
            parse_config(write(tmp_path, "strategies = psychic\n"))

    @pytest.mark.parametrize("loop, strategies", [
        ("stream", "random"), ("stream", "uncertainty,random"), ("synthesis", "qbc"),
    ])
    def test_stream_and_synthesis_need_uncertainty_alone(self, tmp_path, loop, strategies):
        text = f"loop = {loop}\nstrategies = {strategies}\n"
        with pytest.raises(ConfigError, match=f"the {loop} loop .* strategies = uncertainty"):
            parse_config(write(tmp_path, text))
        assert parse_config(write(tmp_path, f"loop = {loop}\nstrategies = uncertainty\n"))

    @pytest.mark.parametrize("text, repeat", [
        ("seeds = 0,1,0\n", "seeds names 0 more than once"),
        ("strategies = random,uncertainty,random\n", "strategies names 'random' more than once"),
    ], ids=["seed", "strategy"])
    def test_repeated_seed_or_strategy_rejected(self, tmp_path, text, repeat):
        with pytest.raises(ConfigError, match=repeat):
            parse_config(write(tmp_path, text))

    def test_non_integer_seed_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="seeds must be comma-separated integers"):
            parse_config(write(tmp_path, "seeds = 0,one\n"))

    def test_infinite_budget_allowed(self, tmp_path):
        config = parse_config(write(tmp_path, "budget_total = inf\n"))
        assert math.isinf(config.budget_total)

    def test_fraction_bounds(self, tmp_path):
        with pytest.raises(ConfigError, match="outside range"):
            parse_config(write(tmp_path, "test_fraction = 1.0\n"))


class TestFormatConfig:
    def test_round_trip(self, tmp_path):
        original = ExperimentConfig(batch_size=16, strategies="hybrid", dropout_rate=0.35,
                                    warm_start=False, seeds="3,4")
        path = write(tmp_path, format_config(original), name="echo.cfg")
        assert parse_config(path) == original

    def test_echo_lists_every_key(self):
        text = format_config(ExperimentConfig())
        for f in fields(ExperimentConfig):
            assert f"{f.name} = " in text

    def test_default_round_trip(self, tmp_path):
        path = write(tmp_path, format_config(ExperimentConfig()), name="echo.cfg")
        assert parse_config(path) == ExperimentConfig()


class TestCategoricalMap:
    def test_parse(self, tmp_path):
        path = tmp_path / "modes.map"
        path.write_text("walking=0\ndriving=1\n# comment\n")
        assert load_categorical_map(str(path)) == {"walking": 0.0, "driving": 1.0}

    def test_non_integer_rejected(self, tmp_path):
        path = tmp_path / "modes.map"
        path.write_text("walking=fast\n")
        with pytest.raises(ConfigError, match="not an integer"):
            load_categorical_map(str(path))

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "modes.map"
        path.write_text("\n")
        with pytest.raises(ConfigError, match="empty"):
            load_categorical_map(str(path))


class TestValidateConfig:
    def test_categorical_column_needs_map(self):
        config = ExperimentConfig(categorical_column="mode")
        with pytest.raises(ConfigError, match="categorical_map_path"):
            validate_config(config)

    @pytest.mark.parametrize("key, value", [
        ("iterations", -3), ("batch_size", 0), ("budget_total", 0.0), ("stream_quantile", 1.0),
    ])
    def test_every_range_checked(self, key, value):
        config = ExperimentConfig(**{key: value})
        with pytest.raises(ConfigError, match=f"<config>: key '{key}': .* outside range"):
            validate_config(config)

    @pytest.mark.parametrize("key", [
        f.name for f in fields(ExperimentConfig)
        if isinstance(f.default, float) and f.name != "budget_total"
    ])
    @pytest.mark.parametrize("value", [math.inf, -math.inf])
    def test_non_finite_float_rejected(self, key, value):
        # only budget_total takes inf (no limit); an infinite scale, cost,
        # rate or noise fails deep inside a run instead
        with pytest.raises(ConfigError, match=f"<config>: key '{key}': value {value!r} must be "
                                              "finite"):
            validate_config(ExperimentConfig(**{key: value}))

    def test_stream_window_below_min_history_rejected(self):
        # a shorter window never holds enough scores to trust a threshold,
        # so the stream would run with no query at all
        short = STREAM_MIN_HISTORY - 1
        with pytest.raises(ConfigError,
                           match=f"<config>: key 'stream_window': value {short} outside"):
            validate_config(ExperimentConfig(stream_window=short))
        validate_config(ExperimentConfig(stream_window=STREAM_MIN_HISTORY))

    @pytest.mark.parametrize("seeds", ["-1", "0,-2"])
    def test_negative_master_seed_rejected(self, seeds):
        with pytest.raises(ConfigError, match="<config>: key 'seeds': .*non-negative"):
            validate_config(ExperimentConfig(seeds=seeds))

    def test_negative_world_seed_rejected(self):
        with pytest.raises(ConfigError, match="<config>: key 'world_seed': value -1 outside"):
            validate_config(ExperimentConfig(world_seed=-1))

    @pytest.mark.parametrize("strategies, loop", [
        ("uncertainty", "pool"), ("random,hybrid", "pool"),
        ("uncertainty", "stream"), ("uncertainty", "synthesis"),
    ])
    @pytest.mark.parametrize("key, value", [
        ("hidden_sizes", ""), ("dropout_rate", 0.0), ("mc_passes", 1),
    ])
    def test_std_ranking_needs_dropout(self, strategies, loop, key, value):
        config = ExperimentConfig(strategies=strategies, loop=loop, **{key: value})
        with pytest.raises(ConfigError, match=f"<config>: key '{key}': .*MC-dropout std"):
            validate_config(config)

    @pytest.mark.parametrize("key, value", [
        ("hidden_sizes", ""), ("dropout_rate", 0.0), ("mc_passes", 1),
    ])
    def test_other_strategies_run_without_dropout(self, key, value):
        validate_config(ExperimentConfig(strategies="random,qbc,coreset", **{key: value}))

    @pytest.mark.parametrize("columns", ["", ",", " , "])
    def test_empty_feature_columns_rejected(self, columns):
        with pytest.raises(ConfigError, match="<config>: key 'feature_columns' must be auto"):
            validate_config(ExperimentConfig(feature_columns=columns))

    @pytest.mark.parametrize("columns", ["pos_x,pos_x", "a,b, a", "auto,auto"])
    def test_repeated_feature_column_rejected(self, columns):
        with pytest.raises(ConfigError, match="<config>: feature_columns names '.*' more than"):
            validate_config(ExperimentConfig(feature_columns=columns))

    @pytest.mark.parametrize("name", [
        "synthetic_benchmark.cfg", "synthetic_stream.cfg", "synthetic_synthesis.cfg",
    ])
    def test_shipped_configs_accepted(self, name):
        parse_config(os.path.join(os.path.dirname(__file__), "..", "configs", name))

    @pytest.mark.parametrize("key", [
        "target_column", "feature_columns", "categorical_column", "categorical_map_path",
    ])
    def test_csv_keys_refused_for_synthetic_data(self, key):
        mode_map = os.path.join(os.path.dirname(__file__), "..", "configs", "lumos5g_mode_map.txt")
        csv_keys = dict(target_column="Throughput", feature_columns="pos_x",
                        categorical_column="mode", categorical_map_path=mode_map)
        overrides = {key: csv_keys[key]}
        if key == "categorical_column":  # it needs a map, or its own check fails first
            overrides["categorical_map_path"] = mode_map
        with pytest.raises(ConfigError, match=f"<config>: key '{key}': only csv data reads it"):
            validate_config(ExperimentConfig(**overrides))
        validate_config(ExperimentConfig(data_source="csv", csv_path=mode_map, **overrides))

    @pytest.mark.parametrize("key, value", [
        ("hidden_sizes", "64,,64"), ("hidden_sizes", "64,"), ("seeds", "0,,1"),
        ("strategies", "uncertainty,,random"), ("feature_columns", "pos_x, ,pos_y"),
    ])
    def test_empty_list_entry_rejected(self, key, value):
        csv = dict(data_source="csv", csv_path=__file__) if key == "feature_columns" else {}
        message = f"<config>: key '{key}': empty entry in {value!r}"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            validate_config(ExperimentConfig(**{key: value}, **csv))

    @pytest.mark.parametrize("value", ["", " ", ","])
    def test_blank_hidden_sizes_mean_no_hidden_layer(self, value):
        validate_config(ExperimentConfig(hidden_sizes=value, strategies="random"))
        assert ExperimentConfig(hidden_sizes=value).hidden_size_list() == []

    def test_hidden_sizes_must_be_ints(self):
        config = ExperimentConfig(hidden_sizes="64,potato")
        with pytest.raises(ConfigError, match="comma-separated integers"):
            validate_config(config)
