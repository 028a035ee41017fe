import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest

from netactive import loop, seeding
from netactive.cli import main
from netactive.config import ExperimentConfig, format_config, parse_config
from netactive.loop import read_curve_csv
from netactive.runner import RunsFailed, build_summary, export_query_geography, run_experiment


def fast_config(**overrides):
    """Desk-scale settings so runner tests finish in seconds."""
    defaults = dict(
        synthetic_n=240,
        world_noise_std=25.0,
        strategies="uncertainty,random",
        batch_size=4,
        iterations=2,
        hidden_sizes="16",
        mc_passes=8,
        initial_epochs=8,
        fine_tune_epochs=3,
        seeds="0,1",
        stream_arrivals=60,
        probe_size=30,
        gmm_components=2,
        gmm_em_iters=10,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


@pytest.fixture
def diverge_seed(monkeypatch):
    """Make training return nan parameters for every run of one master seed."""

    def poison(master_seed):
        poisoned = {seeding.derive_seed(master_seed, it, seeding.STREAM_TRAIN) for it in range(10)}
        real_train = loop.train

        def train(params, *args, rng_seed, **kwargs):
            trained, loss = real_train(params, *args, rng_seed=rng_seed, **kwargs)
            if rng_seed in poisoned:
                trained.flat[:] = np.nan
            return trained, loss

        monkeypatch.setattr(loop, "train", train)

    return poison


class TestRunExperiment:
    def test_file_count_contract(self, tmp_path):
        run_experiment(fast_config(seeds="0,1,2"), output_dir=str(tmp_path))
        names = sorted(os.listdir(tmp_path))
        curves = [n for n in names if n.startswith("curve_")]
        assert len(curves) == 6  # 2 strategies x 3 seeds
        assert "summary.csv" in names
        assert "config_resolved.txt" in names

    def test_zero_iterations_gives_baseline_row_only(self, tmp_path):
        run_experiment(fast_config(iterations=0, seeds="0"), output_dir=str(tmp_path))
        curve = read_curve_csv(str(tmp_path / "curve_uncertainty_seed0.csv"))
        assert len(curve.rows) == 1
        assert curve.rows[0].iteration == 0

    def test_summary_recomputable_from_curves(self, tmp_path):
        config = fast_config(seeds="0,1,2")
        run_experiment(config, output_dir=str(tmp_path))
        summary = read(str(tmp_path / "summary.csv")).splitlines()
        rows = [line.split(",") for line in summary[1:]]
        for strategy in ("uncertainty", "random"):
            finals = [
                read_curve_csv(str(tmp_path / f"curve_{strategy}_seed{s}.csv")).final_rmse()
                for s in (0, 1, 2)
            ]
            mean_row = next(r for r in rows if r[0] == strategy and r[1] == "mean")
            std_row = next(r for r in rows if r[0] == strategy and r[1] == "std")
            assert abs(float(mean_row[3]) - np.mean(finals)) < 1e-9
            assert abs(float(std_row[3]) - np.std(finals)) < 1e-9

    def test_paired_differences_reported(self, tmp_path):
        run_experiment(fast_config(seeds="0,1"), output_dir=str(tmp_path))
        lines = read(str(tmp_path / "summary.csv")).splitlines()
        rows = [line.split(",") for line in lines[1:]]
        for seed in ("0", "1"):
            unc = next(r for r in rows if r[0] == "uncertainty" and r[1] == seed)
            rnd = next(r for r in rows if r[0] == "random" and r[1] == seed)
            expected = float(unc[3]) - float(rnd[3])
            assert abs(float(unc[5]) - expected) < 1e-9
            assert rnd[5] == ""  # random has no pairing against itself

    def test_shared_seed_shares_iteration_zero(self, tmp_path):
        # paired runs: same master seed -> same split, init and baseline
        run_experiment(fast_config(seeds="0"), output_dir=str(tmp_path))
        unc = read_curve_csv(str(tmp_path / "curve_uncertainty_seed0.csv"))
        rnd = read_curve_csv(str(tmp_path / "curve_random_seed0.csv"))
        assert unc.rows[0] == rnd.rows[0]

    def test_end_to_end_determinism(self, tmp_path):
        config = fast_config(seeds="0")
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        run_experiment(config, output_dir=str(out_a))
        run_experiment(config, output_dir=str(out_b))
        for name in sorted(os.listdir(out_a)):
            assert read(str(out_a / name)) == read(str(out_b / name)), name

    def test_config_echo_round_trips(self, tmp_path):
        config = fast_config()
        run_experiment(config, output_dir=str(tmp_path))
        assert read(str(tmp_path / "config_resolved.txt")) == format_config(config)

    def test_stream_loop_through_runner(self, tmp_path):
        config = fast_config(loop="stream", strategies="uncertainty", seeds="0",
                             stream_window=20, stream_retrain_every=5)
        run_experiment(config, output_dir=str(tmp_path))
        curve = read_curve_csv(str(tmp_path / "curve_uncertainty_seed0.csv"))
        assert curve.rows[0].iteration == 0

    def test_stream_arrivals_beyond_pool_rejected(self, tmp_path):
        # the shipped stream config leaves 1872 unlabeled samples per seed
        shipped = os.path.join(os.path.dirname(__file__), "..", "configs", "synthetic_stream.cfg")
        config = dataclasses.replace(parse_config(shipped), stream_arrivals=5000, seeds="0")
        with pytest.raises(ValueError, match="5000 stream arrivals .* only 1872"):
            run_experiment(config, output_dir=str(tmp_path))

    def test_diverged_run_recorded_and_others_complete(self, tmp_path, diverge_seed):
        diverge_seed(1)
        with pytest.raises(RunsFailed) as info:
            run_experiment(fast_config(seeds="0,1,2"), output_dir=str(tmp_path))
        assert set(info.value.failures) == {("uncertainty", 1), ("random", 1)}
        assert ("uncertainty seed 1: training produced non-finite parameters at iteration 0"
                in str(info.value))
        names = set(os.listdir(tmp_path))
        for strategy in ("uncertainty", "random"):
            for prefix in ("curve", "annotations"):
                assert {f"{prefix}_{strategy}_seed{s}.csv" for s in (0, 2)} <= names
                assert f"{prefix}_{strategy}_seed1.csv" not in names
        lines = read(str(tmp_path / "summary.csv")).splitlines()
        assert lines[0] == (
            "strategy,seed,rmse_initial,rmse_final,rmse_reduction,rmse_final_minus_random"
        )
        rows = {(r[0], r[1]): r[2:] for r in (line.split(",") for line in lines[1:])}
        assert len(rows) == 10  # 2 strategies x (3 seeds + mean + std)
        assert rows[("uncertainty", "1")] == ["nan", "nan", "nan", ""]
        assert rows[("random", "1")] == ["nan", "nan", "nan", ""]
        finals = {
            strategy: [read_curve_csv(str(tmp_path / f"curve_{strategy}_seed{s}.csv")).final_rmse()
                       for s in (0, 2)]
            for strategy in ("uncertainty", "random")
        }
        for strategy, values in finals.items():
            assert abs(float(rows[(strategy, "mean")][1]) - np.mean(values)) < 1e-9
            assert abs(float(rows[(strategy, "std")][1]) - np.std(values)) < 1e-9
        expected = finals["uncertainty"][0] - finals["random"][0]
        assert abs(float(rows[("uncertainty", "0")][3]) - expected) < 1e-9

    def test_diverged_committee_recorded(self, tmp_path, monkeypatch):
        first_member = seeding.derive_seed(0, 0, seeding.STREAM_QBC)
        real_train = loop.train

        def train(params, *args, rng_seed, **kwargs):
            trained, loss = real_train(params, *args, rng_seed=rng_seed, **kwargs)
            if rng_seed == first_member:
                trained.flat[:] = np.inf
            return trained, loss

        monkeypatch.setattr(loop, "train", train)
        with pytest.raises(RunsFailed, match="qbc seed 0: committee training produced non-finite"):
            run_experiment(fast_config(strategies="qbc", seeds="0"), output_dir=str(tmp_path))
        lines = read(str(tmp_path / "summary.csv")).splitlines()
        assert lines[1] == "qbc,0,nan,nan,nan,"

    def test_diverged_committee_fails_qbc_alone(self, tmp_path, monkeypatch):
        # the committee trains after the fork: the other strategies on the seed complete
        first_member = seeding.derive_seed(0, 0, seeding.STREAM_QBC)
        real_train = loop.train

        def train(params, *args, rng_seed, **kwargs):
            trained, loss = real_train(params, *args, rng_seed=rng_seed, **kwargs)
            if rng_seed == first_member:
                trained.flat[:] = np.inf
            return trained, loss

        monkeypatch.setattr(loop, "train", train)
        with pytest.raises(RunsFailed) as info:
            run_experiment(fast_config(strategies="uncertainty,qbc,random", seeds="0",
                                       qbc_members=2), output_dir=str(tmp_path))
        assert list(info.value.failures) == [("qbc", 0)]
        names = set(os.listdir(tmp_path))
        for strategy in ("uncertainty", "random"):
            assert {f"curve_{strategy}_seed0.csv", f"annotations_{strategy}_seed0.csv"} <= names
        assert not any("qbc" in name for name in names)
        summary = read(str(tmp_path / "summary.csv")).splitlines()
        assert "qbc,0,nan,nan,nan," in summary
        assert not any(line.startswith(("uncertainty,0,nan", "random,0,nan")) for line in summary)

    def test_failures_named_strategy_major(self, tmp_path, diverge_seed):
        # runs execute seed by seed, but failures and results read strategy by strategy
        diverge_seed(0)
        diverge_seed(2)
        with pytest.raises(RunsFailed) as info:
            run_experiment(fast_config(seeds="0,1,2"), output_dir=str(tmp_path))
        order = [("uncertainty", 0), ("uncertainty", 2), ("random", 0), ("random", 2)]
        assert list(info.value.failures) == order
        cause = "training produced non-finite parameters at iteration 0"
        named = "; ".join(f"{strategy} seed {seed}: {cause}" for strategy, seed in order)
        assert str(info.value) == (
            f"4 run(s) failed, the others were written to {tmp_path}: {named}"
        )

    def test_results_read_strategy_major(self, tmp_path):
        done = run_experiment(fast_config(seeds="0,1,2", iterations=0), output_dir=str(tmp_path))
        assert list(done["results"]) == [
            (strategy, seed) for strategy in ("uncertainty", "random") for seed in (0, 1, 2)
        ]

    def test_failed_run_leaves_its_pairings_empty(self, tmp_path):
        # a failed run is one missing from the results
        outcome = run_experiment(fast_config(seeds="0,1"), output_dir=str(tmp_path))
        strategies = ["uncertainty", "random"]
        results = dict(outcome["results"])
        del results[("random", 1)]
        rows = {(r["strategy"], r["seed"]): r for r in build_summary(results, strategies, [0, 1])}
        assert rows[("uncertainty", "1")]["rmse_final_minus_random"] == ""
        assert rows[("uncertainty", "0")]["rmse_final_minus_random"] != ""
        assert np.isnan(rows[("random", "1")]["rmse_final"])
        assert rows[("random", "mean")]["rmse_final"] == rows[("random", "0")]["rmse_final"]
        assert rows[("random", "std")]["rmse_final"] == 0.0
        del results[("random", 0)]
        rows = {(r["strategy"], r["seed"]): r for r in build_summary(results, strategies, [0, 1])}
        assert np.isnan(rows[("random", "mean")]["rmse_final"])
        assert np.isnan(rows[("random", "std")]["rmse_reduction"])

    def test_synthesis_loop_through_runner(self, tmp_path):
        config = fast_config(loop="synthesis", strategies="uncertainty", seeds="0",
                             iterations=2)
        run_experiment(config, output_dir=str(tmp_path))
        curve = read_curve_csv(str(tmp_path / "curve_uncertainty_seed0.csv"))
        assert curve.rows[-1].labeled_count > curve.rows[0].labeled_count


class TestGeographyExport:
    def test_per_iteration_files(self, tmp_path):
        run_dir = tmp_path / "run"
        run_experiment(fast_config(seeds="0", strategies="uncertainty"),
                       output_dir=str(run_dir))
        written = export_query_geography(str(run_dir), lon_index=0, lat_index=1)
        assert len(written) == 3  # iterations 0..2
        iter0 = read(written[0]).splitlines()
        assert iter0[0] == "id,lon,lat,status"
        assert all(line.endswith("previously_labeled") for line in iter0[1:])

    def test_batch_contract_at_iteration_one(self, tmp_path):
        run_dir = tmp_path / "run"
        run_experiment(fast_config(seeds="0", strategies="uncertainty", batch_size=4),
                       output_dir=str(run_dir))
        written = export_query_geography(str(run_dir), lon_index=0, lat_index=1)
        iter1 = [line for line in read(written[1]).splitlines()[1:] if line]
        new = [line for line in iter1 if line.endswith("new_query")]
        assert len(new) == 4

    def test_no_duplicate_new_queries_across_iterations(self, tmp_path):
        run_dir = tmp_path / "run"
        run_experiment(fast_config(seeds="0", strategies="uncertainty", iterations=3),
                       output_dir=str(run_dir))
        written = export_query_geography(str(run_dir), lon_index=0, lat_index=1)
        seen = []
        for path in written:
            for line in read(path).splitlines()[1:]:
                if line.endswith("new_query"):
                    seen.append(line.split(",")[0])
        assert len(seen) == len(set(seen))

    def test_invalid_feature_indices(self, tmp_path):
        run_dir = tmp_path / "run"
        run_experiment(fast_config(seeds="0", strategies="uncertainty"),
                       output_dir=str(run_dir))
        with pytest.raises(ValueError, match="indices"):
            export_query_geography(str(run_dir), lon_index=0, lat_index=99)

    def _annotations(self, tmp_path, body):
        header = "iteration_acquired,sample_id,origin,f0,f1\n"
        (tmp_path / "annotations_uncertainty_seed0.csv").write_text(header + body)

    def test_header_only_annotations_named(self, tmp_path):
        self._annotations(tmp_path, "")
        with pytest.raises(ValueError,
                           match=r"annotations_uncertainty_seed0\.csv: no annotated samples"):
            export_query_geography(str(tmp_path), lon_index=0, lat_index=1)

    def test_short_row_names_file_and_line(self, tmp_path):
        self._annotations(tmp_path, "0,1,labeled,0.5,0.25\n1,2,labeled\n")
        with pytest.raises(ValueError, match=r"annotations_uncertainty_seed0\.csv, line 3: "
                                             r"expected 5 values, got 3"):
            export_query_geography(str(tmp_path), lon_index=0, lat_index=1)

    @pytest.mark.parametrize("body, line, column, cell", [
        ("x,1,labeled,0.5,0.25\n", 2, "iteration_acquired", "x"),
        ("0,1,labeled,0.5,0.25\n1,2.5,labeled,0.5,0.25\n", 3, "sample_id", "2.5"),
    ], ids=["iteration_acquired", "sample_id"])
    def test_non_integer_cell_names_file_and_line(self, tmp_path, body, line, column, cell):
        self._annotations(tmp_path, body)
        with pytest.raises(ValueError, match=rf"annotations_uncertainty_seed0\.csv, line {line}: "
                                             rf"{column} '{cell}' is not an integer"):
            export_query_geography(str(tmp_path), lon_index=0, lat_index=1)


class TestSharedStart:
    """Every strategy on a master seed forks one iteration 0: the bytes of a
    run do not depend on which other strategies share its start, or in
    what order."""

    ALL = "uncertainty,random,qbc,coreset,hybrid"

    def _config(self, tmp_path, strategies):
        path = tmp_path / f"{strategies.replace(',', '_')}.cfg"
        path.write_text(format_config(fast_config(
            strategies=strategies, seeds="0,1", collect_enabled=True, qbc_members=2,
        )))
        return str(path)

    def test_fork_bytes_equal_lone_and_reversed_runs(self, tmp_path):
        together, reverse = tmp_path / "together", tmp_path / "reversed"
        assert main(["run", "--config", self._config(tmp_path, self.ALL),
                     "--output", str(together)]) == 0
        backwards = ",".join(reversed(self.ALL.split(",")))
        assert main(["run", "--config", self._config(tmp_path, backwards),
                     "--output", str(reverse)]) == 0
        runs = sorted(n for n in os.listdir(together) if n.startswith(("curve_", "annotations_")))
        assert len(runs) == 20  # 5 strategies x 2 seeds x (curve, annotations)
        assert sorted(n for n in os.listdir(reverse) if n.endswith(".csv")) == sorted(
            runs + ["summary.csv"])
        for name in runs:
            assert read(str(together / name)) == read(str(reverse / name)), name
        assert sorted(read(str(together / "summary.csv")).splitlines()) == sorted(
            read(str(reverse / "summary.csv")).splitlines())
        for strategy in self.ALL.split(","):
            alone = tmp_path / f"alone_{strategy}"
            assert main(["run", "--config", self._config(tmp_path, self.ALL),
                         "--strategy", strategy, "--output", str(alone)]) == 0
            for name in os.listdir(alone):
                if name.startswith(("curve_", "annotations_")):
                    assert read(str(alone / name)) == read(str(together / name)), name


class TestCli:
    def _write_config(self, tmp_path, **overrides):
        path = tmp_path / "exp.cfg"
        path.write_text(format_config(fast_config(**overrides)))
        return str(path)

    def test_run_command(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path, seeds="0", strategies="uncertainty")
        out = tmp_path / "out"
        code = main(["run", "--config", cfg, "--output", str(out)])
        assert code == 0
        assert (out / "summary.csv").exists()

    def test_run_overrides(self, tmp_path):
        cfg = self._write_config(tmp_path)
        out = tmp_path / "out"
        code = main([
            "run", "--config", cfg, "--seed", "5", "--strategy", "random",
            "--iterations", "1", "--batch-size", "2", "--output", str(out),
        ])
        assert code == 0
        assert (out / "curve_random_seed5.csv").exists()
        assert not (out / "curve_uncertainty_seed5.csv").exists()

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("batch_size = -3\n")
        assert main(["run", "--config", str(bad)]) == 1
        assert "config error" in capsys.readouterr().err

    def test_stream_config_with_other_strategy_exit_code(self, tmp_path, capsys):
        shipped = os.path.join(os.path.dirname(__file__), "..", "configs", "synthetic_stream.cfg")
        out = tmp_path / "out"
        assert main(["run", "--config", shipped, "--strategy", "random",
                     "--output", str(out)]) == 1
        assert "set strategies = uncertainty" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value, key", [
        ("--iterations", "-3", "iterations"), ("--batch-size", "0", "batch_size"),
    ])
    def test_out_of_range_override_exit_code(self, tmp_path, capsys, flag, value, key):
        shipped = os.path.join(os.path.dirname(__file__), "..", "configs",
                               "synthetic_benchmark.cfg")
        out = tmp_path / "out"
        assert main(["run", "--config", shipped, "--seed", "0", "--strategy", "random",
                     flag, value, "--output", str(out)]) == 1
        assert f"key '{key}': value {value} outside range" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_override_exit_code(self, tmp_path, capsys):
        shipped = os.path.join(os.path.dirname(__file__), "..", "configs",
                               "synthetic_benchmark.cfg")
        out = tmp_path / "out"
        assert main(["run", "--config", shipped, "--seed", "-1", "--strategy", "random",
                     "--iterations", "0", "--output", str(out)]) == 1
        assert "<cli overrides>: key 'seeds'" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_world_seed_exit_code(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = self._write_config(tmp_path, world_seed=-1, output_dir=str(out))
        assert main(["run", "--config", cfg]) == 1
        assert f"config error: {cfg}: key 'world_seed': value -1 outside range" in (
            capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("key", ["weight_init_scale", "annotation_cost", "world_noise_std",
                                     "learning_rate"])
    def test_infinite_float_exit_code(self, tmp_path, capsys, key):
        out = tmp_path / "out"
        cfg = self._write_config(tmp_path, output_dir=str(out), **{key: float("inf")})
        assert main(["run", "--config", cfg]) == 1
        assert f"config error: {cfg}: key '{key}': value inf must be finite" in (
            capsys.readouterr().err)
        assert not out.exists()

    def test_empty_list_entry_exit_code(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = self._write_config(tmp_path, hidden_sizes="16,,16", output_dir=str(out))
        assert main(["run", "--config", cfg]) == 1
        assert f"config error: {cfg}: key 'hidden_sizes': empty entry in '16,,16'" in (
            capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("key, value, message", [
        ("hidden_sizes", "64,0", "hidden sizes must be positive, got 0"),
        ("strategies", "uncertainty,bogus", "unknown strategy 'bogus'"),
    ])
    def test_bad_list_entry_names_key(self, tmp_path, capsys, key, value, message):
        out = tmp_path / "out"
        cfg = self._write_config(tmp_path, output_dir=str(out), **{key: value})
        assert main(["run", "--config", cfg]) == 1
        assert f"config error: {cfg}: key '{key}': {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key, overrides", [
        ("seeds", dict(seeds="1.5")),
        ("seeds", dict(seeds=",")),
        ("seeds", dict(seeds="0,1,0")),
        ("strategies", dict(strategies=",")),
        ("strategies", dict(strategies="random,random")),
        ("strategies", dict(loop="stream", strategies="random")),
        ("hidden_sizes", dict(hidden_sizes="16,x")),
        ("loop", dict(loop="batch")),
        ("activation", dict(activation="gelu")),
        ("feature_columns", dict(feature_columns=",")),
        ("feature_columns", dict(feature_columns="pos_x,pos_x")),
        ("csv_path", dict(data_source="csv")),
        ("csv_path", dict(data_source="csv", csv_path="{missing}")),
        ("collect_enabled", dict(data_source="csv", csv_path=__file__, collect_enabled=True)),
        ("categorical_map_path", dict(categorical_map_path="{missing}")),
        ("categorical_column", dict(categorical_column="mode")),
    ], ids=["seeds-float", "seeds-none", "seeds-repeated", "strategies-none",
            "strategies-repeated", "strategies-stream", "hidden_sizes-word", "loop-choice",
            "activation-choice", "feature_columns-none", "feature_columns-repeated",
            "csv_path-unset", "csv_path-missing", "collect_enabled-csv",
            "categorical_map_path-missing", "categorical_column-no_map"])
    def test_config_error_names_key(self, tmp_path, capsys, key, overrides):
        missing = str(tmp_path / "missing")
        out = tmp_path / "out"
        overrides = {k: v.format(missing=missing) if isinstance(v, str) else v
                     for k, v in overrides.items()}
        cfg = self._write_config(tmp_path, output_dir=str(out), **overrides)
        assert main(["run", "--config", cfg]) == 1
        assert capsys.readouterr().err.startswith(f"config error: {cfg}: key '{key}': ")
        assert not out.exists()

    def test_stream_arrivals_beyond_pool_names_key(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path, loop="stream", strategies="uncertainty", seeds="0",
                                 stream_window=20, stream_arrivals=100000,
                                 output_dir=str(tmp_path / "out"))
        assert main(["run", "--config", cfg]) == 1
        assert capsys.readouterr().err == (
            "config error: key 'stream_arrivals': 100000 stream arrivals requested; "
            "the pool holds only 154 unlabeled\n")

    def test_short_stream_window_exit_code(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = self._write_config(tmp_path, loop="stream", strategies="uncertainty",
                                 stream_window=5, output_dir=str(out))
        assert main(["run", "--config", cfg]) == 1
        assert f"config error: {cfg}: key 'stream_window': value 5 outside range" in (
            capsys.readouterr().err)
        assert not out.exists()

    def test_zero_dropout_uncertainty_exit_code(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = self._write_config(tmp_path, dropout_rate=0.0, output_dir=str(out))
        assert main(["run", "--config", cfg]) == 1
        assert f"config error: {cfg}: key 'dropout_rate': " in capsys.readouterr().err
        assert not out.exists()

    def test_single_pass_uncertainty_exit_code(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = self._write_config(tmp_path, mc_passes=1, output_dir=str(out))
        assert main(["run", "--config", cfg]) == 1
        assert f"config error: {cfg}: key 'mc_passes': " in capsys.readouterr().err
        assert not out.exists()

    def _synth_csv(self, tmp_path):
        data = tmp_path / "data.csv"
        assert main(["synth", "--config", self._write_config(tmp_path), "--n", "40",
                     "--out", str(data)]) == 0
        return str(data)

    @pytest.mark.parametrize("columns", [",", "pos_x,pos_x"])
    def test_bad_feature_columns_exit_code(self, tmp_path, capsys, columns):
        data, out = self._synth_csv(tmp_path), tmp_path / "out"
        cfg = self._write_config(tmp_path, data_source="csv", csv_path=data,
                                 feature_columns=columns, output_dir=str(out))
        assert main(["run", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {cfg}: ") and "feature_columns" in err
        assert not out.exists()

    def test_csv_key_on_synthetic_data_exit_code(self, tmp_path, capsys):
        modes, out = tmp_path / "modes.map", tmp_path / "out"
        modes.write_text("walking=0\ndriving=1\n")
        cfg = self._write_config(tmp_path, categorical_column="nosuch",
                                 categorical_map_path=str(modes), output_dir=str(out))
        assert main(["run", "--config", cfg]) == 1
        assert f"config error: {cfg}: key 'categorical_column': " in capsys.readouterr().err
        assert not out.exists()

    def test_categorical_map_for_missing_column_exit_code(self, tmp_path, capsys):
        data, modes = self._synth_csv(tmp_path), tmp_path / "modes.map"
        modes.write_text("walking=0\ndriving=1\n")
        cfg = self._write_config(tmp_path, data_source="csv", csv_path=data, seeds="0",
                                 categorical_column="nosuch", categorical_map_path=str(modes),
                                 output_dir=str(tmp_path / "out"))
        capsys.readouterr()
        assert main(["run", "--config", cfg]) == 2
        assert f"error: {data}: categorical column 'nosuch' not in header" in (
            capsys.readouterr().err)

    @pytest.mark.parametrize("fault", ["repeated_header", "long_row"])
    def test_malformed_csv_exit_code(self, tmp_path, capsys, fault):
        data = self._synth_csv(tmp_path)
        with open(data) as fh:
            lines = fh.read().splitlines()
        if fault == "repeated_header":
            lines[0] = lines[0].replace("pos_y", "pos_x")
            expected = f"error: {data}: header repeats column 'pos_x'"
        else:
            lines[4] += ",99"
            expected = f"error: {data}: line 5 has 21 cells, the header 20"
        with open(data, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        cfg = self._write_config(tmp_path, data_source="csv", csv_path=data, seeds="0",
                                 output_dir=str(tmp_path / "out"))
        capsys.readouterr()
        assert main(["run", "--config", cfg]) == 2
        assert expected in capsys.readouterr().err

    def test_repeated_categorical_name_exit_code(self, tmp_path, capsys):
        data, modes = self._synth_csv(tmp_path), tmp_path / "modes.map"
        modes.write_text("walking=0\nwalking=1\ndriving=1\n")
        cfg = self._write_config(tmp_path, data_source="csv", csv_path=data, seeds="0",
                                 categorical_column="mode", categorical_map_path=str(modes),
                                 output_dir=str(tmp_path / "out"))
        capsys.readouterr()
        assert main(["run", "--config", cfg]) == 1
        assert f"config error: {modes}: line 2: 'walking' is mapped twice" in (
            capsys.readouterr().err)

    def test_charge_past_the_tolerance_is_never_planned(self, tmp_path):
        # the old floor rule planned one annotation here that charge refused,
        # and the run exited 2 without a summary
        cfg = self._write_config(tmp_path, seeds="0", strategies="uncertainty",
                                 annotation_cost=1000.0, budget_total=999.9999995)
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--output", str(out)]) == 0
        assert (out / "summary.csv").exists()
        assert len(read_curve_csv(str(out / "curve_uncertainty_seed0.csv")).rows) == 1

    @pytest.mark.parametrize("preset, expected", [(None, "1"), ("2", "2")])
    def test_cli_defaults_blas_threads(self, preset, expected):
        # a fresh interpreter: in this one numpy is loaded and its threads are set
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
        env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), "..", "src")
        if preset is not None:
            env["OPENBLAS_NUM_THREADS"] = preset
        shown = subprocess.run(
            [sys.executable, "-c",
             "import netactive.cli, os; print(os.environ['OPENBLAS_NUM_THREADS'])"],
            env=env, capture_output=True, text=True, check=True,
        ).stdout.strip()
        assert shown == expected

    def test_missing_config_exit_code(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "none.cfg")]) == 1

    def test_synth_command_round_trips(self, tmp_path):
        cfg = self._write_config(tmp_path)
        out_csv = tmp_path / "synthetic.csv"
        assert main(["synth", "--config", cfg, "--n", "40", "--out", str(out_csv)]) == 0
        text = read(str(out_csv)).splitlines()
        assert len(text) == 41
        assert text[0].startswith("pos_x,pos_y,")

    def test_geo_command(self, tmp_path):
        cfg = self._write_config(tmp_path, seeds="0", strategies="uncertainty")
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--output", str(out)]) == 0
        code = main(["geo", "--run", str(out), "--lon-col", "0", "--lat-col", "1"])
        assert code == 0
        assert (out / "geography").is_dir()

    def test_diverged_run_exit_code(self, tmp_path, capsys, diverge_seed):
        diverge_seed(0)
        cfg = self._write_config(tmp_path, seeds="0,1", strategies="uncertainty")
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--output", str(out)]) == 2
        assert "uncertainty seed 0: training produced non-finite" in capsys.readouterr().err
        assert (out / "summary.csv").exists() and (out / "curve_uncertainty_seed1.csv").exists()

    def test_geo_runtime_error_exit_code(self, tmp_path):
        assert main(["geo", "--run", str(tmp_path), "--lon-col", "0", "--lat-col", "1"]) == 2
