"""The benchmark's own tests, at tiny sizes.

    python3 -m pytest perfbench -q

They check that the printed workload and metric names match
BENCHMARK.json, and that each output check rejects a corrupted output.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np
import pytest

import run

run.add_program_to_path()

import checks  # noqa: E402
import workloads  # noqa: E402
from netactive import runner  # noqa: E402

TINY = {
    "battery": dict(synthetic_n=400, initial_epochs=60, fine_tune_epochs=10, iterations=2,
                    mc_passes=5),
    "pool_large": dict(synthetic_n=600, seed_labeled_fraction=0.1, initial_epochs=30,
                       mc_passes=5),
    "stream": dict(synthetic_n=400, initial_epochs=30, mc_passes=5),
}



@pytest.fixture(scope="module")
def spec() -> dict:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def tiny_round(name, outdir):
    workload = workloads.WORKLOADS[name](3, **TINY[name])
    state = workload.setup()
    return workload, state, workload.execute(state, str(outdir))


def last_json_line(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_workload_names_match_benchmark_json(spec):
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(TINY))
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(capsys, spec, name, trace, section):
    code = run.main(
        ["--workload", name, "--seed", "3", "--seconds", "0", "--trace", str(trace)], **TINY[name]
    )
    result = last_json_line(capsys)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in spec[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    if section == "end_to_end":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_corrupted_summary_fails_the_run(capsys, monkeypatch):
    build = runner.build_summary

    def tampered(*args, **kwargs):
        rows = build(*args, **kwargs)
        rows[0]["rmse_final"] += 1.0
        return rows

    monkeypatch.setattr(runner, "build_summary", tampered)
    code = run.main(
        ["--workload", "battery", "--seed", "3", "--seconds", "0"], **TINY["battery"]
    )
    result = last_json_line(capsys)
    assert code == 1
    assert not result["correct"] and result["failed"] == result["attempted"]


@pytest.fixture(scope="module")
def rounds(tmp_path_factory):
    """One finished tiny round per workload: (workload, state, done, outdir)."""
    out = {}
    for name in TINY:
        outdir = tmp_path_factory.mktemp(name)
        out[name] = tiny_round(name, outdir) + (str(outdir),)
    return out


@pytest.fixture
def battery_round(rounds):
    return rounds["battery"]


@pytest.fixture
def pool_round(rounds):
    return rounds["pool_large"]


@pytest.fixture
def stream_round(rounds):
    return rounds["stream"]


def test_untouched_outputs_pass(rounds):
    for workload, state, done, outdir in rounds.values():
        assert workload.check(state, done, outdir).problems == {}


def _battery_curve(battery_round):
    workload, corpus, done, outdir = battery_round
    strategy, master = next(iter(done["results"]))
    path = os.path.join(outdir, runner.curve_filename(strategy, master))
    return workload.config, checks.read_rows(path)


@pytest.mark.parametrize("column, delta", [("labeled_count", 1), ("budget_spent", 0.5)])
def test_tampered_curve_row_is_rejected(battery_round, column, delta):
    config, rows = _battery_curve(battery_round)
    args = (config.batch_size, config.annotation_cost, config.collection_cost, 0)
    assert checks.check_curve(rows, *args) == []
    rows[1][column] = str(float(rows[1][column]) + delta).removesuffix(".0")
    assert checks.check_curve(rows, *args)


def test_final_rmse_above_constant_predictor_is_rejected():
    y_test = np.array([10.0, 20.0, 30.0])
    assert checks.check_beats_constant(1.0, y_test, np.array([20.0])) == []
    assert checks.check_beats_constant(9.0, y_test, np.array([20.0]))


def test_tampered_summary_value_is_rejected(battery_round):
    workload, corpus, done, outdir = battery_round
    curves = {
        key: checks.read_rows(os.path.join(outdir, runner.curve_filename(*key)))
        for key in done["results"]
    }
    summary = checks.read_rows(os.path.join(outdir, "summary.csv"))
    assert checks.check_summary(summary, curves) == []
    for row_index, column in ((0, "rmse_final_minus_random"), (-1, "rmse_reduction")):
        tampered = [dict(r) for r in summary]
        tampered[row_index][column] = repr(float(tampered[row_index][column]) * 1.001 + 1e-6)
        assert checks.check_summary(tampered, curves)


def test_labeled_test_id_is_rejected(battery_round):
    _, _, done, _ = battery_round
    pool = next(iter(done["results"].values())).pool
    assert checks.check_no_test_labeled(pool.labeled, pool.test) == []
    assert checks.check_no_test_labeled(set(pool.labeled) | {min(pool.test)}, pool.test)


def test_tampered_decision_log_threshold_is_rejected(stream_round):
    workload, state, (curve, log, stamps, budget), _ = stream_round
    args = (workload.policy.uncertainty_threshold_quantile, workload.policy.window, 10,
            workload.policy.max_queries)
    scores = [d.score for d in log]
    thresholds = [d.threshold for d in log]
    queried = [d.queried for d in log]
    assert checks.check_stream_log(scores, thresholds, queried, *args) == {}
    assert sum(queried) > 0
    for index in (5, 50):
        tampered = list(thresholds)
        tampered[index] = tampered[index] * 0.999 if math.isfinite(tampered[index]) else 1.0
        assert index in checks.check_stream_log(scores, tampered, queried, *args)


def test_stream_totals_are_checked(stream_round):
    workload, state, (curve, log, stamps, budget), _ = stream_round
    queries = sum(d.queried for d in log)
    n = len(state[2])
    cost = budget.annotation_cost
    cap = workload.policy.max_queries
    assert checks.check_stream_totals(len(log), n, queries, cap, budget.spent, cost) == []
    assert checks.check_stream_totals(len(log) - 1, n, queries, cap, budget.spent, cost)
    assert checks.check_stream_totals(len(log), n, queries, cap, budget.spent + cost, cost)
    assert checks.check_stream_totals(len(log), n, queries, queries - 1, budget.spent, cost)


@pytest.mark.parametrize("column, value", [(3, 0.5), (2, -1.0), (14, None), (16, None)])
def test_collected_sample_off_schema_is_rejected(pool_round, column, value):
    workload, state, result, _ = pool_round
    collected = np.array(
        [s.features for s in result.pool.samples.values() if s.origin == "collected"]
    )
    assert len(collected) > 0
    assert checks.check_collected_schema(collected) == []
    moved = collected.copy()
    moved[0, column] = moved[0, column] + 0.01 if value is None else value
    assert checks.check_collected_schema(moved)
