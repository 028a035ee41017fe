import dataclasses

import numpy as np
import pytest

from netactive.acquisition import Budget, CollectPolicy
from netactive.dataset import ORIGIN_COLLECTED, ORIGIN_SYNTHESIZED, fit_normalizer, split_pool
from netactive.loop import (
    CurveRow,
    LearningCurve,
    LoopConfig,
    OracleError,
    PoolOracle,
    StreamPolicy,
    SynthesisPolicy,
    TwinOracle,
    read_curve_csv,
    run_pool_loop,
    run_stream_loop,
    run_synthesis_loop,
)
from netactive.neural import NetworkParams, NetworkSpec, TrainHyper
from netactive.synth import N_FEATURES, TwinWorld, generate_synthetic_dataset


def small_world():
    return TwinWorld(noise_std=25.0)


def small_pool(n=240, seed=0, world=None):
    world = world or small_world()
    samples = generate_synthetic_dataset(world, n, rng_seed=seed)
    pool = split_pool(samples, test_fraction=0.2, seed_labeled_fraction=0.2, rng_seed=seed)
    pool.normalizer = fit_normalizer(pool)
    return pool


def small_config(**overrides):
    defaults = dict(
        spec=NetworkSpec([N_FEATURES, 16, 1], dropout_rate=0.2),
        hyper=TrainHyper(learning_rate=3e-3),
        strategy="uncertainty",
        iterations=3,
        batch_size=4,
        mc_passes=10,
        initial_epochs=10,
        fine_tune_epochs=4,
        train_batch_size=32,
        aleatoric_val_fraction=0.2,
    )
    defaults.update(overrides)
    return LoopConfig(**defaults)


class TestEvaluateRmse:
    """RMSE of the loop state's deterministic predictions on the test set."""

    def _state(self, build, value, labels):
        spec = NetworkSpec([2, 2, 1])
        params = NetworkParams(
            spec=spec,
            weights=[np.zeros((2, 2)), np.zeros((1, 2))],
            biases=[np.zeros(2), np.array([float(value)])],
        )
        return build(params, (np.zeros((1, 2)), [0.0]), (np.zeros((len(labels), 2)), labels))

    def test_perfect_predictions(self, fixed_model_state):
        assert self._state(fixed_model_state, 5.0, np.full(3, 5.0)).rmse() == 0.0

    def test_hand_arithmetic(self, fixed_model_state):
        got = self._state(fixed_model_state, 0.0, np.array([3.0, 4.0])).rmse()
        np.testing.assert_allclose(got, np.sqrt(12.5), rtol=1e-12)

    def test_mean_predictor_gives_population_std(self, fixed_model_state):
        rng = np.random.default_rng(0)
        labels = rng.uniform(0, 10, size=200)
        got = self._state(fixed_model_state, labels.mean(), labels).rmse()
        np.testing.assert_allclose(got, labels.std(), rtol=1e-12)

    def test_empty_test_set(self, fixed_model_state):
        with pytest.raises(ValueError, match="non-empty"):
            self._state(fixed_model_state, 0.0, np.zeros(0))


class TestOracles:
    def test_annotate_reveals_and_charges(self):
        pool = small_pool()
        budget = Budget(total=10.0)
        oracle = PoolOracle(pool, budget)
        sid = sorted(pool.unlabeled)[0]
        label = oracle.annotate(sid)
        assert label >= 0.0
        assert budget.spent == budget.annotation_cost

    def test_annotate_labeled_id_rejected(self):
        pool = small_pool()
        oracle = PoolOracle(pool, Budget(total=10.0))
        sid = sorted(pool.labeled)[0]
        with pytest.raises(OracleError, match="not unlabeled"):
            oracle.annotate(sid)

    def test_annotate_test_id_rejected(self):
        pool = small_pool()
        oracle = PoolOracle(pool, Budget(total=10.0))
        sid = sorted(pool.test)[0]
        with pytest.raises(OracleError):
            oracle.annotate(sid)

    def test_double_annotate_rejected(self):
        pool = small_pool()
        oracle = PoolOracle(pool, Budget(total=10.0))
        sid = sorted(pool.unlabeled)[0]
        label = oracle.annotate(sid)
        pool.mark_labeled(sid, label, iteration=1)
        with pytest.raises(OracleError):
            oracle.annotate(sid)

    def test_pool_oracle_cannot_collect(self):
        from netactive.acquisition import CollectRegion

        pool = small_pool()
        oracle = PoolOracle(pool, Budget(total=10.0))
        with pytest.raises(OracleError, match="twin"):
            oracle.collect(CollectRegion(np.zeros(N_FEATURES), 1.0), 2, iteration=1)

    def test_twin_collect_adds_hidden_samples(self):
        from netactive.acquisition import CollectRegion

        world = small_world()
        pool = small_pool(world=world)
        budget = Budget(total=10.0, collection_cost=0.25)
        oracle = TwinOracle(pool, budget, world, rng_seed=5)
        before = len(pool.unlabeled)
        centroid = pool.normalized_features(sorted(pool.labeled)[:1])[0]
        collected = oracle.collect(CollectRegion(centroid, 0.5), 3, iteration=2)
        assert len(collected) == 3
        assert len(pool.unlabeled) == before + 3
        assert budget.spent == 3 * 0.25
        for s in collected:
            assert pool.samples[s.id].label is None  # hidden again
            assert pool.has_hidden_label(s.id)
            assert pool.samples[s.id].origin == ORIGIN_COLLECTED
        pool.check_invariants()

    def test_twin_synthesize_charges_both_costs(self):
        world = small_world()
        pool = small_pool(world=world)
        budget = Budget(total=10.0, annotation_cost=1.0, collection_cost=0.25)
        oracle = TwinOracle(pool, budget, world, rng_seed=5)
        sample = oracle.synthesize(pool.samples[0].features, iteration=1)
        assert budget.spent == 1.25
        assert sample.origin == ORIGIN_SYNTHESIZED
        assert sample.label is not None


class TestLearningCurve:
    def test_round_trip(self, tmp_path):
        curve = LearningCurve()
        curve.append(CurveRow(0, 10, 0.0, 5.0, 0.4, 1.0))
        curve.append(CurveRow(1, 14, 4.0, 4.5, 0.3, 0.9))
        path = tmp_path / "curve.csv"
        curve.to_csv(str(path))
        loaded = read_curve_csv(str(path))
        assert len(loaded.rows) == 2
        assert loaded.rows[1].labeled_count == 14

    def test_monotonicity_enforced(self):
        curve = LearningCurve()
        curve.append(CurveRow(0, 10, 0.0, 5.0, 0.4, 1.0))
        with pytest.raises(ValueError, match="strictly increasing"):
            curve.append(CurveRow(0, 11, 1.0, 5.0, 0.4, 1.0))
        with pytest.raises(ValueError, match="labeled_count"):
            curve.append(CurveRow(1, 9, 1.0, 5.0, 0.4, 1.0))


class TestPoolLoop:
    def test_iteration_zero_is_seed_only(self):
        pool = small_pool()
        seed_size = len(pool.labeled)
        oracle = PoolOracle(pool, Budget(total=1000.0))
        curve = run_pool_loop(small_config(iterations=0), pool, oracle, rng_seed=0)
        assert len(curve.rows) == 1
        assert curve.rows[0].labeled_count == seed_size
        assert curve.rows[0].budget_spent == 0.0

    def test_labeled_grows_by_batch_each_iteration(self):
        pool = small_pool()
        seed_size = len(pool.labeled)
        oracle = PoolOracle(pool, Budget(total=1000.0))
        config = small_config(iterations=10, batch_size=4)
        curve = run_pool_loop(config, pool, oracle, rng_seed=0)
        assert curve.rows[-1].labeled_count == seed_size + 40
        counts = [r.labeled_count for r in curve.rows]
        assert counts == [seed_size + 4 * k for k in range(11)]

    def test_budget_exhaustion_truncates_then_stops(self):
        pool = small_pool()
        seed_size = len(pool.labeled)
        oracle = PoolOracle(pool, Budget(total=2.0, annotation_cost=1.0))
        config = small_config(iterations=5, batch_size=4)
        curve = run_pool_loop(config, pool, oracle, rng_seed=0)
        # one truncated round of 2 labels, then the loop stops
        assert curve.rows[-1].labeled_count == seed_size + 2
        assert len(curve.rows) == 2
        assert oracle.budget.spent == 2.0

    def test_reproducible_bit_identical(self, tmp_path):
        curves = []
        for run in range(2):
            pool = small_pool()
            oracle = PoolOracle(pool, Budget(total=1000.0))
            curve = run_pool_loop(small_config(), pool, oracle, rng_seed=11)
            path = tmp_path / f"run{run}.csv"
            curve.to_csv(str(path))
            curves.append(path.read_bytes())
        assert curves[0] == curves[1]

    def test_budget_charge_exactness(self):
        pool = small_pool()
        seed_size = len(pool.labeled)
        budget = Budget(total=1000.0, annotation_cost=1.0)
        oracle = PoolOracle(pool, budget)
        curve = run_pool_loop(small_config(iterations=4), pool, oracle, rng_seed=3)
        granted = curve.rows[-1].labeled_count - seed_size
        assert budget.spent == granted * budget.annotation_cost

    def test_test_set_hygiene(self):
        pool = small_pool()
        test_before = set(pool.test)
        oracle = PoolOracle(pool, Budget(total=1000.0))
        run_pool_loop(small_config(iterations=4), pool, oracle, rng_seed=0)
        assert set(pool.test) == test_before
        assert not (pool.labeled & test_before)
        for sid in test_before:
            assert pool.samples[sid].iteration_acquired is None

    def test_annotated_ids_never_requeried(self):
        pool = small_pool()
        oracle = PoolOracle(pool, Budget(total=1000.0))
        run_pool_loop(small_config(iterations=5), pool, oracle, rng_seed=0)
        acquired = [
            s.iteration_acquired
            for s in pool.samples.values()
            if s.id in pool.labeled and s.iteration_acquired
        ]
        assert len(acquired) == 5 * 4  # every annotation is a distinct sample

    def test_collection_enabled_grows_unlabeled(self):
        world = small_world()
        pool = small_pool(world=world)
        unlabeled_before = len(pool.unlabeled)
        budget = Budget(total=1000.0)
        oracle = TwinOracle(pool, budget, world, rng_seed=9)
        config = small_config(
            iterations=2, collect_policy=CollectPolicy(enabled=True, collect_fraction=0.5)
        )
        run_pool_loop(config, pool, oracle, rng_seed=0)
        # each iteration: -4 annotated, +2 collected
        assert len(pool.unlabeled) == unlabeled_before - 8 + 4
        assert budget.spent == 8 * 1.0 + 4 * 0.25

    def test_collection_requires_twin(self):
        pool = small_pool()
        oracle = PoolOracle(pool, Budget(total=1000.0))
        config = small_config(collect_policy=CollectPolicy(enabled=True))
        with pytest.raises(ValueError, match="cannot collect"):
            run_pool_loop(config, pool, oracle, rng_seed=0)

    def test_random_strategy_runs(self):
        pool = small_pool()
        oracle = PoolOracle(pool, Budget(total=1000.0))
        curve = run_pool_loop(small_config(strategy="random"), pool, oracle, rng_seed=0)
        assert len(curve.rows) == 4

    def test_qbc_strategy_runs(self):
        pool = small_pool()
        oracle = PoolOracle(pool, Budget(total=1000.0))
        config = small_config(strategy="qbc", iterations=2, qbc_members=2)
        curve = run_pool_loop(config, pool, oracle, rng_seed=0)
        assert len(curve.rows) == 3

    def test_coreset_and_hybrid_run(self):
        for strategy in ("coreset", "hybrid"):
            pool = small_pool()
            oracle = PoolOracle(pool, Budget(total=1000.0))
            curve = run_pool_loop(small_config(strategy=strategy, iterations=2),
                                  pool, oracle, rng_seed=0)
            assert curve.rows[-1].labeled_count > curve.rows[0].labeled_count

    def test_cold_restart_mode(self):
        curves = []
        for _ in range(2):
            pool = small_pool()
            oracle = PoolOracle(pool, Budget(total=1000.0))
            config = small_config(warm_start=False, iterations=2)
            curves.append(run_pool_loop(config, pool, oracle, rng_seed=4))
        assert curves[0] == curves[1]
        assert curves[0].rows[-1].labeled_count == curves[0].rows[0].labeled_count + 8


class TestStreamLoop:
    def _run(self, policy, budget_total=1000.0, n_arrivals=120, seed=0, **config_overrides):
        world = small_world()
        pool = small_pool(world=world, seed=seed)
        arrivals = generate_synthetic_dataset(world, n_arrivals, rng_seed=seed + 1)
        base = max(pool.samples) + 1
        arrivals = [dataclasses.replace(s, id=base + i) for i, s in enumerate(arrivals)]
        oracle = PoolOracle(pool, Budget(total=budget_total))
        config = small_config(mc_passes=8, stream_retrain_every=5, **config_overrides)
        curve, log = run_stream_loop(config, arrivals, pool, oracle, policy, rng_seed=seed)
        return curve, log, pool, oracle

    def test_extreme_quantile_yields_no_queries(self):
        policy = StreamPolicy(uncertainty_threshold_quantile=0.999, window=10_000, max_queries=50)
        curve, log, _, _ = self._run(policy)
        queried = sum(d.queried for d in log)
        assert queried <= 1  # the 0.999 quantile of a short window is its max
        assert queried <= policy.max_queries

    def test_zero_budget_means_zero_queries(self):
        policy = StreamPolicy(uncertainty_threshold_quantile=0.5, window=20, max_queries=100)
        curve, log, pool, oracle = self._run(policy, budget_total=0.0)
        assert sum(d.queried for d in log) == 0
        assert oracle.budget.spent == 0.0
        assert len(curve.rows) == 1  # model never retrained past the seed row

    def test_max_queries_respected(self):
        policy = StreamPolicy(uncertainty_threshold_quantile=0.2, window=20, max_queries=7)
        _, log, _, _ = self._run(policy)
        assert sum(d.queried for d in log) <= 7

    def test_decision_log_covers_every_arrival(self):
        policy = StreamPolicy(uncertainty_threshold_quantile=0.9, window=30, max_queries=50)
        _, log, _, _ = self._run(policy, n_arrivals=80)
        assert [d.arrival_index for d in log] == list(range(80))
        assert all(d.score >= 0.0 for d in log)

    def test_query_rate_tracks_quantile(self):
        # quantile 0.9 over a steady stream: roughly 10% of arrivals queried
        policy = StreamPolicy(uncertainty_threshold_quantile=0.9, window=50, max_queries=1000)
        _, log, _, _ = self._run(policy, n_arrivals=300)
        queried = sum(d.queried for d in log)
        assert 10 <= queried <= 90

    def test_budget_exactness(self):
        policy = StreamPolicy(uncertainty_threshold_quantile=0.8, window=30, max_queries=1000)
        _, log, _, oracle = self._run(policy)
        queried = sum(d.queried for d in log)
        assert oracle.budget.spent == queried * oracle.budget.annotation_cost


class TestSynthesisLoop:
    def _run(self, seed=0, oracle_kind="twin", **policy_overrides):
        world = small_world()
        pool = small_pool(world=world, seed=seed)
        budget = Budget(total=1000.0)
        if oracle_kind == "twin":
            oracle = TwinOracle(pool, budget, world, rng_seed=3)
        else:
            oracle = PoolOracle(pool, budget)
        probe = np.stack(
            [s.features for s in generate_synthetic_dataset(world, 50, rng_seed=777)]
        )
        defaults = dict(gmm_components=3, gmm_em_iters=20, candidate_multiple=3,
                        probe_features=probe)
        defaults.update(policy_overrides)
        policy = SynthesisPolicy(**defaults)
        config = small_config(iterations=3, batch_size=4, mc_passes=8)
        curve = run_synthesis_loop(config, pool, oracle, policy, rng_seed=seed)
        return curve, pool, oracle

    def test_all_proposals_accepted_when_multiple_is_one(self):
        curve, pool, oracle = self._run(candidate_multiple=1)
        assert curve.rows[-1].labeled_count == curve.rows[0].labeled_count + 3 * 4

    def test_twin_oracle_charges_annotation_plus_collection(self):
        curve, pool, oracle = self._run()
        realized = curve.rows[-1].labeled_count - curve.rows[0].labeled_count
        expected = realized * (oracle.budget.annotation_cost + oracle.budget.collection_cost)
        assert oracle.budget.spent == expected
        synthesized = [s for s in pool.samples.values() if s.origin == ORIGIN_SYNTHESIZED]
        assert len(synthesized) == realized

    def test_snap_to_pool_fallback(self):
        curve, pool, oracle = self._run(oracle_kind="pool")
        realized = curve.rows[-1].labeled_count - curve.rows[0].labeled_count
        assert realized == 3 * 4
        assert oracle.budget.spent == realized * oracle.budget.annotation_cost
        assert all(s.origin != ORIGIN_SYNTHESIZED for s in pool.samples.values())

    def test_zero_dropout_still_terminates(self):
        world = small_world()
        pool = small_pool(world=world)
        oracle = TwinOracle(pool, Budget(total=1000.0), world, rng_seed=3)
        config = small_config(
            iterations=2, spec=NetworkSpec([N_FEATURES, 16, 1], dropout_rate=0.0)
        )
        policy = SynthesisPolicy(gmm_components=2, gmm_em_iters=10, candidate_multiple=2,
                                 probe_features=pool.feature_matrix(sorted(pool.labeled)[:20]))
        curve = run_synthesis_loop(config, pool, oracle, policy, rng_seed=0)
        assert len(curve.rows) == 3
        assert all(r.mean_epistemic_std == 0.0 for r in curve.rows)

    def test_deterministic(self):
        a, _, _ = self._run(seed=5)
        b, _, _ = self._run(seed=5)
        assert a == b
