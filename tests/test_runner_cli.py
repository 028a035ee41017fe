import dataclasses
import os

import numpy as np
import pytest

from netactive.cli import main
from netactive.config import ExperimentConfig, format_config, parse_config
from netactive.loop import read_curve_csv
from netactive.runner import export_query_geography, run_experiment


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

    def test_geo_runtime_error_exit_code(self, tmp_path):
        assert main(["geo", "--run", str(tmp_path), "--lon-col", "0", "--lat-col", "1"]) == 2
