import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netactive.acquisition import STRATEGIES, STRATEGY_INPUTS, Budget, CollectPolicy
from netactive.dataset import (
    ORIGIN_COLLECTED,
    ORIGIN_INGESTED,
    ORIGIN_SYNTHESIZED,
    fit_normalizer,
    split_pool,
)
from netactive.loop import (
    STREAM_MIN_HISTORY,
    CurveRow,
    LearningCurve,
    LoopConfig,
    OracleError,
    PoolOracle,
    StreamPolicy,
    SynthesisPolicy,
    TwinOracle,
    read_curve_csv,
    run_pool_cycles,
    run_pool_loop,
    run_stream_loop,
    run_synthesis_loop,
    start_pool_loop,
    _SortedWindow,
)
from netactive.neural import NetworkParams, NetworkSpec
from netactive.synth import N_FEATURES, TwinWorld, generate_synthetic_dataset


def reading(name):
    """The strategies whose STRATEGY_INPUTS entry names `name`."""
    return [s for s in STRATEGIES if name in STRATEGY_INPUTS[s]]


def record_training(monkeypatch):
    """The epochs of every `train` call the loops make, in call order."""
    from netactive import loop

    epochs = []
    real = loop.train

    def recorded(*args, **kwargs):
        epochs.append(kwargs["epochs"])
        return real(*args, **kwargs)

    monkeypatch.setattr(loop, "train", recorded)
    return epochs


def small_world():
    return TwinWorld(noise_std=25.0)


def small_pool(n=240, seed=0, world=None):
    world = world or small_world()
    samples = generate_synthetic_dataset(world, n, rng_seed=seed)
    pool = split_pool(samples, test_fraction=0.2, seed_labeled_fraction=0.2, rng_seed=seed)
    pool.normalizer = fit_normalizer(pool)
    return pool


def pool_columns(pool):
    """Every column of the pool's store, copied."""
    return {name: np.copy(value) for name, value in vars(pool).items()
            if isinstance(value, np.ndarray)}


def small_config(**overrides):
    defaults = dict(
        spec=NetworkSpec([N_FEATURES, 16, 1], dropout_rate=0.2),
        learning_rate=3e-3,
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
        label = oracle.annotate(sid, iteration=2)
        assert label >= 0.0
        assert budget.spent == budget.annotation_cost
        record = pool.samples[sid]
        assert (record.label, record.iteration_acquired) == (label, 2)
        assert sid in pool.labeled and not pool.has_hidden_label(sid)

    def test_annotate_labeled_id_rejected(self):
        pool = small_pool()
        oracle = PoolOracle(pool, Budget(total=10.0))
        sid = sorted(pool.labeled)[0]
        with pytest.raises(OracleError, match="not unlabeled"):
            oracle.annotate(sid, iteration=1)

    def test_annotate_test_id_rejected(self):
        pool = small_pool()
        oracle = PoolOracle(pool, Budget(total=10.0))
        sid = sorted(pool.test)[0]
        with pytest.raises(OracleError):
            oracle.annotate(sid, iteration=1)

    def test_double_annotate_rejected(self):
        pool = small_pool()
        oracle = PoolOracle(pool, Budget(total=10.0))
        sid = sorted(pool.unlabeled)[0]
        oracle.annotate(sid, iteration=1)
        with pytest.raises(OracleError):
            oracle.annotate(sid, iteration=2)

    @pytest.mark.parametrize("partition", ["labeled", "test", "unknown"])
    def test_rejected_annotate_charges_nothing_and_writes_nothing(self, partition):
        pool = small_pool()
        budget = Budget(total=10.0)
        oracle = PoolOracle(pool, budget)
        sid = pool.next_id + 3 if partition == "unknown" else int(getattr(pool, partition)[0])
        before = pool_columns(pool)
        with pytest.raises(OracleError):
            oracle.annotate(sid, iteration=1)
        assert budget.spent == 0.0
        after = pool_columns(pool)
        assert after.keys() == before.keys()
        assert all(np.array_equal(after[k], before[k], equal_nan=True) for k in before)

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
        for sid in collected:
            assert pool.samples[sid].label is None  # hidden again
            assert pool.has_hidden_label(sid)
            assert pool.samples[sid].origin == ORIGIN_COLLECTED
        pool.check_invariants()

    def test_twin_collect_returns_new_ids_in_order(self):
        from netactive.acquisition import CollectRegion

        world = small_world()
        pool = small_pool(world=world)
        oracle = TwinOracle(pool, Budget(total=10.0), world, rng_seed=5)
        centroid = pool.normalized_features(sorted(pool.labeled)[:1])[0]
        first = pool.next_id
        assert oracle.collect(CollectRegion(centroid, 0.5), 3, iteration=2) == [
            first, first + 1, first + 2]
        assert oracle.collect(CollectRegion(centroid, 0.5), 2, iteration=3) == [
            first + 3, first + 4]
        assert [pool.samples[sid].iteration_acquired for sid in range(first, first + 5)] == [
            2, 2, 2, 3, 3]

    def test_twin_collect_is_atomic(self, monkeypatch):
        from netactive import loop
        from netactive.acquisition import CollectRegion

        world = small_world()
        pool = small_pool(world=world)
        budget = Budget(total=10.0, collection_cost=0.25)
        oracle = TwinOracle(pool, budget, world, rng_seed=5)
        centroid = pool.normalized_features(sorted(pool.labeled)[:1])[0]
        before = pool_columns(pool)
        calls = []
        real_label = loop.twin_label

        def failing_label(*args):
            calls.append(args)
            if len(calls) == 2:
                raise RuntimeError("twin world unreachable")
            return real_label(*args)

        monkeypatch.setattr(loop, "twin_label", failing_label)
        with pytest.raises(RuntimeError, match="unreachable"):
            oracle.collect(CollectRegion(centroid, 0.5), 3, iteration=2)
        assert budget.spent == 0.0
        after = pool_columns(pool)
        assert after.keys() == before.keys()
        assert all(np.array_equal(after[k], before[k], equal_nan=True) for k in before)
        pool.check_invariants()

    def test_twin_collect_over_budget_rejected(self):
        from netactive.acquisition import BudgetError, CollectRegion

        world = small_world()
        pool = small_pool(world=world)
        budget = Budget(total=0.5, collection_cost=0.25)
        oracle = TwinOracle(pool, budget, world, rng_seed=5)
        before = len(pool.samples)
        with pytest.raises(BudgetError, match="exceeds remaining budget"):
            oracle.collect(CollectRegion(np.zeros(N_FEATURES), 0.5), 3, iteration=1)
        assert budget.spent == 0.0 and len(pool.samples) == before

    def test_twin_synthesize_charges_both_costs(self):
        world = small_world()
        pool = small_pool(world=world)
        budget = Budget(total=10.0, annotation_cost=1.0, collection_cost=0.25)
        oracle = TwinOracle(pool, budget, world, rng_seed=5)
        sample = pool.samples[oracle.synthesize(pool.samples[0].features, iteration=1)]
        assert budget.spent == 1.25
        assert sample.origin == ORIGIN_SYNTHESIZED
        assert sample.label is not None

    def test_twin_synthesize_failure_charges_nothing(self, monkeypatch):
        from netactive import loop

        world = small_world()
        pool = small_pool(world=world)
        budget = Budget(total=10.0, annotation_cost=1.0, collection_cost=0.25)
        oracle = TwinOracle(pool, budget, world, rng_seed=5)
        before, next_id = pool_columns(pool), pool.next_id

        def failing_label(*args):
            raise RuntimeError("twin world unreachable")

        monkeypatch.setattr(loop, "twin_label", failing_label)
        with pytest.raises(RuntimeError, match="unreachable"):
            oracle.synthesize(pool.samples[0].features, iteration=1)
        assert budget.spent == 0.0 and pool.next_id == next_id
        after = pool_columns(pool)
        assert after.keys() == before.keys()
        assert all(np.array_equal(after[k], before[k], equal_nan=True) for k in before)

    def test_twin_synthesize_registers_labeled_sample(self, monkeypatch):
        from netactive import loop

        world = small_world()
        pool = small_pool(world=world)
        oracle = TwinOracle(pool, Budget(total=10.0), world, rng_seed=5)
        observed = []  # the scenario the twin world labeled, and its label
        real_label = loop.twin_label

        def observed_label(*args):
            observed.append((args[1].copy(), real_label(*args)))
            return observed[-1][1]

        monkeypatch.setattr(loop, "twin_label", observed_label)
        sid = pool.next_id
        assert oracle.synthesize(pool.samples[0].features, iteration=3) == sid
        assert sid in pool.labeled
        (features, label), = observed
        record = pool.samples[sid]
        assert (record.label, record.origin, record.iteration_acquired) == (
            label, ORIGIN_SYNTHESIZED, 3)
        assert np.array_equal(record.features, features)
        pool.check_invariants()


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

    def test_zero_budget_records_only_iteration_zero(self):
        pool = small_pool()
        oracle = PoolOracle(pool, Budget(total=0.0))
        curve = run_pool_loop(small_config(iterations=3), pool, oracle, rng_seed=0)
        assert len(curve.rows) == 1
        assert oracle.budget.spent == 0.0

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
        assert not (set(pool.labeled) & test_before)
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

    @pytest.mark.parametrize("warm_start", [True, False], ids=["warm", "cold"])
    def test_qbc_retrains_model_and_members_on_one_schedule(self, monkeypatch, warm_start):
        trained = record_training(monkeypatch)
        pool = small_pool()
        config = small_config(strategy="qbc", iterations=2, qbc_members=2,
                              warm_start=warm_start, initial_epochs=10, fine_tune_epochs=4)
        run_pool_loop(config, pool, PoolOracle(pool, Budget(total=1000.0)), rng_seed=0)
        # iteration 0 trains the model and both fresh members for initial_epochs;
        # after each acquisition a cold restart runs that schedule again
        assert trained == [10] * 3 + [4 if warm_start else 10] * 3 * 2

    def test_cold_restart_mode(self):
        curves = []
        for _ in range(2):
            pool = small_pool()
            oracle = PoolOracle(pool, Budget(total=1000.0))
            config = small_config(warm_start=False, iterations=2)
            curves.append(run_pool_loop(config, pool, oracle, rng_seed=4))
        assert curves[0] == curves[1]
        assert curves[0].rows[-1].labeled_count == curves[0].rows[0].labeled_count + 8


class TestPoolStartFork:
    """One iteration 0 per master seed: each strategy's cycles run on a fork
    of the start, and no fork shares a mutable thing with another."""

    def _start(self, world):
        """A start whose forks are named by strategy; iteration 0 reads none."""
        pool = small_pool(world=world)
        oracle = TwinOracle(pool, Budget(total=1000.0), world, rng_seed=9)
        return start_pool_loop(self._config("uncertainty"), pool, oracle, rng_seed=0)

    @staticmethod
    def _config(strategy):
        return small_config(strategy=strategy, iterations=3, qbc_members=2,
                            collect_policy=CollectPolicy(enabled=True, collect_fraction=0.5))

    def test_acquiring_in_one_fork_leaves_the_others(self):
        world = small_world()
        start = self._start(world)
        row0 = dataclasses.replace(start.curve.rows[0])
        pools = {"start": start.pool, "qbc": start.pool.copy(), "coreset": start.pool.copy()}
        oracles = {s: TwinOracle(pools[s], Budget(total=1000.0), world, rng_seed=9)
                   for s in ("qbc", "coreset")}
        before = {name: pool_columns(pool) for name, pool in pools.items()}

        qbc = run_pool_cycles(start, "qbc", oracles["qbc"])
        assert len(pools["qbc"].labeled) > len(pools["start"].labeled)
        for name in ("start", "coreset"):
            for column, values in pool_columns(pools[name]).items():
                np.testing.assert_array_equal(values, before[name][column])
        assert start.curve.rows == [row0] and oracles["coreset"].budget.spent == 0.0
        qbc_columns, qbc_spent = pool_columns(pools["qbc"]), oracles["qbc"].budget.spent

        coreset = run_pool_cycles(start, "coreset", oracles["coreset"])
        assert len(pools["coreset"].labeled) > len(pools["start"].labeled)
        for column, values in pool_columns(pools["qbc"]).items():
            np.testing.assert_array_equal(values, qbc_columns[column])
        assert oracles["qbc"].budget.spent == qbc_spent and len(qbc.rows) == 4
        assert start.curve.rows == [row0]
        assert qbc.rows[0] == coreset.rows[0] == row0

    @pytest.mark.parametrize("strategy", ["qbc", "coreset"])
    def test_fork_equals_a_lone_run(self, strategy):
        world = small_world()
        start = self._start(world)
        run_pool_cycles(start, "random",
                        TwinOracle(start.pool.copy(), Budget(total=1000.0), world, rng_seed=9))
        forked = run_pool_cycles(start, strategy,
                                 TwinOracle(start.pool, Budget(total=1000.0), world, rng_seed=9))
        pool = small_pool(world=world)
        alone = run_pool_loop(self._config(strategy), pool,
                              TwinOracle(pool, Budget(total=1000.0), world, rng_seed=9), 0)
        assert forked == alone
        for column, values in pool_columns(pool).items():
            np.testing.assert_array_equal(values, pool_columns(start.pool)[column])

    def test_lone_run_acquires_into_the_callers_pool(self):
        world = small_world()
        pool = small_pool(world=world)
        seed_size, unlabeled = len(pool.labeled), len(pool.unlabeled)
        oracle = TwinOracle(pool, Budget(total=1000.0), world, rng_seed=9)
        curve = run_pool_loop(self._config("hybrid"), pool, oracle, rng_seed=0)
        # three cycles of 4 annotations and 2 collected samples each
        assert len(pool.labeled) == curve.rows[-1].labeled_count == seed_size + 3 * 4
        assert len(pool.unlabeled) == unlabeled - 3 * 4 + 3 * 2
        assert oracle.budget.spent == curve.rows[-1].budget_spent > 0.0

    def test_unknown_strategy_refused_before_training(self, monkeypatch):
        from netactive import loop

        def no_training(*args, **kwargs):
            raise AssertionError("trained before the strategy was checked")

        world = small_world()
        start = self._start(world)
        monkeypatch.setattr(loop, "train", no_training)
        oracle = TwinOracle(start.pool, Budget(total=1000.0), world, rng_seed=9)
        with pytest.raises(ValueError, match="unknown strategy 'bald'; expected one of"):
            run_pool_cycles(start, "bald", oracle)
        assert start.candidates is not None and oracle.budget.spent == 0.0  # not spent

    def test_owning_fork_spends_the_start(self):
        world = small_world()
        start = self._start(world)
        run_pool_cycles(start, "random",
                        TwinOracle(start.pool, Budget(total=1000.0), world, rng_seed=9))
        oracle = TwinOracle(start.pool.copy(), Budget(total=1000.0), world, rng_seed=9)
        with pytest.raises(ValueError, match="the start is spent"):
            run_pool_cycles(start, "uncertainty", oracle)


class TestOracleBinding:
    """Every loop refuses an oracle that writes to another pool than its own,
    before it trains anything."""

    @pytest.fixture
    def foreign(self, monkeypatch):
        from netactive import loop

        def no_training(*args, **kwargs):
            raise AssertionError("trained before the oracle was checked")

        monkeypatch.setattr(loop, "train", no_training)
        pool, other = small_pool(), small_pool()  # two copies of one split
        return pool, PoolOracle(other, Budget(total=100.0))

    def test_pool_loop(self, foreign):
        pool, oracle = foreign
        with pytest.raises(ValueError, match="another pool"):
            run_pool_loop(small_config(iterations=1), pool, oracle, rng_seed=0)

    def test_stream_loop(self, foreign):
        pool, oracle = foreign
        with pytest.raises(ValueError, match="another pool"):
            run_stream_loop(small_config(), [], pool, oracle, StreamPolicy(), rng_seed=0)

    def test_synthesis_loop(self, foreign):
        pool, oracle = foreign
        with pytest.raises(ValueError, match="another pool"):
            run_synthesis_loop(small_config(iterations=1), pool, oracle, SynthesisPolicy(),
                               rng_seed=0)


class TestUncertaintyOnlyLoops:
    """The stream and synthesis loops rank by MC-dropout alone: they refuse any
    other strategy before they train a model or a committee they never read."""

    @pytest.fixture
    def untrained(self, monkeypatch):
        from netactive import loop

        def no_training(*args, **kwargs):
            raise AssertionError("trained before the strategy was checked")

        monkeypatch.setattr(loop, "train", no_training)
        pool = small_pool()
        return pool, PoolOracle(pool, Budget(total=100.0))

    def test_stream_loop(self, untrained):
        pool, oracle = untrained
        with pytest.raises(ValueError, match="the stream loop .* not strategy 'qbc'"):
            run_stream_loop(small_config(strategy="qbc"), [], pool, oracle, StreamPolicy(),
                            rng_seed=0)

    def test_synthesis_loop(self, untrained):
        pool, oracle = untrained
        with pytest.raises(ValueError, match="the synthesis loop .* not strategy 'random'"):
            run_synthesis_loop(small_config(strategy="random", iterations=1), pool, oracle,
                               SynthesisPolicy(), rng_seed=0)


def capture_decisions(monkeypatch, pool):
    """Record each cycle's AcquisitionInputs with the labeled features at
    that moment, through the loop's own decide_acquisition."""
    from netactive import loop

    seen = []
    real = loop.decide_acquisition

    def capture(strategy, inputs, *args, **kwargs):
        seen.append((inputs, pool.normalized_features(sorted(pool.labeled))))
        return real(strategy, inputs, *args, **kwargs)

    monkeypatch.setattr(loop, "decide_acquisition", capture)
    return seen


class TestNearestLabeledCache:
    @pytest.mark.parametrize("warm_start", [True, False])
    @pytest.mark.parametrize("strategy", reading("nearest_labeled"))
    def test_carried_distances_equal_from_scratch(self, monkeypatch, strategy, warm_start):
        from netactive.acquisition import _min_distances

        world = small_world()
        pool = small_pool(world=world)
        oracle = TwinOracle(pool, Budget(total=1000.0), world, rng_seed=9)
        seen = capture_decisions(monkeypatch, pool)
        config = small_config(
            strategy=strategy, iterations=4, warm_start=warm_start,
            collect_policy=CollectPolicy(enabled=True, collect_fraction=0.5),
        )
        run_pool_loop(config, pool, oracle, rng_seed=0)
        assert len(seen) == 4
        for inputs, labeled in seen:
            expected = _min_distances(inputs.candidate_features, labeled)
            assert np.array_equal(inputs.nearest_labeled, expected)
        # collected samples joined the candidates after the first cycle
        assert seen[-1][0].candidate_ids.max() > seen[0][0].candidate_ids.max()

    @pytest.mark.parametrize(
        "strategy", [s for s in STRATEGIES if s not in reading("nearest_labeled")])
    def test_other_strategies_measure_no_distances(self, monkeypatch, strategy):
        from netactive import acquisition, loop

        kernel = acquisition._min_distances

        def forbidden(points, references):
            # only the collect radius may measure: the chosen batch against its centroid
            if len(references) != 1 or not np.array_equal(references[0], points.mean(axis=0)):
                raise AssertionError("distance kernel called")
            return kernel(points, references)

        monkeypatch.setattr(loop, "_min_distances", forbidden)
        monkeypatch.setattr(acquisition, "_min_distances", forbidden)
        world = small_world()
        pool = small_pool(world=world)
        oracle = TwinOracle(pool, Budget(total=1000.0), world, rng_seed=9)
        seen = capture_decisions(monkeypatch, pool)
        config = small_config(
            strategy=strategy, iterations=3, qbc_members=2,
            collect_policy=CollectPolicy(enabled=True, collect_fraction=0.5),
        )
        run_pool_loop(config, pool, oracle, rng_seed=0)
        assert len(seen) == 3
        assert all(inputs.nearest_labeled is None for inputs, _ in seen)


class TestStrategyInputs:
    """The pool loop computes what a strategy's STRATEGY_INPUTS entry names,
    and nothing else it could skip."""

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_loop_hands_each_strategy_its_inputs(self, monkeypatch, strategy):
        world = small_world()
        pool = small_pool(world=world)
        oracle = TwinOracle(pool, Budget(total=1000.0), world, rng_seed=9)
        seen = capture_decisions(monkeypatch, pool)
        trained = record_training(monkeypatch)
        config = small_config(strategy=strategy, iterations=3, qbc_members=2)
        run_pool_loop(config, pool, oracle, rng_seed=0)
        reads = STRATEGY_INPUTS[strategy]
        assert len(seen) == 3
        for inputs, _ in seen:
            assert inputs.epistemic_std is not None  # the curve reads it for every strategy
            assert (inputs.committee_var is not None) == ("committee_var" in reads)
            assert (inputs.nearest_labeled is not None) == ("nearest_labeled" in reads)
        # the model trains at iteration 0 and after each of the 3 acquisitions;
        # a committee of 2 trains beside it only for a strategy that reads it
        members = 2 if "committee_var" in reads else 0
        assert len(trained) == 4 * (1 + members)
        assert (strategy == "qbc") == (members > 0)


class TestStreamLoop:
    def _run(self, policy, budget_total=1000.0, n_arrivals=120, seed=0, **config_overrides):
        world = small_world()
        pool = small_pool(world=world, seed=seed)
        corpus = generate_synthetic_dataset(world, n_arrivals, rng_seed=seed + 1)
        arrivals = list(range(pool.next_id, pool.next_id + n_arrivals))
        pool.add(arrivals, corpus.features, corpus.label, "arriving", ORIGIN_INGESTED, -1)
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

    def test_every_threshold_is_np_quantile_of_the_previous_window(self):
        policy = StreamPolicy(uncertainty_threshold_quantile=0.9, window=30, max_queries=1000)
        _, log, _, _ = self._run(policy, n_arrivals=300)
        scores = [d.score for d in log]
        assert sum(d.queried for d in log) > 0
        for i, d in enumerate(log):
            previous = scores[max(0, i - policy.window) : i]
            if len(previous) < STREAM_MIN_HISTORY:
                assert d.threshold == float("inf")
            else:
                assert d.threshold == float(np.quantile(previous, 0.9)), i

    @pytest.mark.parametrize("partition", ["labeled", "unlabeled", "test", "absent", "admitted"])
    def test_non_arrival_refused_and_named(self, partition):
        pool = small_pool()
        oracle = PoolOracle(pool, Budget(total=100.0))
        arrival = pool.next_id
        pool.add([arrival], np.zeros((1, N_FEATURES)), [1.0], "arriving", ORIGIN_INGESTED, -1)
        sid = {"absent": arrival + 1, "admitted": arrival}.get(partition)
        sid = int(getattr(pool, partition)[0]) if sid is None else sid
        arrivals = [arrival, sid] if partition == "admitted" else [sid]
        with pytest.raises(ValueError, match=f"^sample {sid} is not arriving$"):
            run_stream_loop(small_config(), arrivals, pool, oracle, StreamPolicy(), rng_seed=0)

    def test_window_shorter_than_min_history_rejected(self):
        with pytest.raises(ValueError, match=f"at least {STREAM_MIN_HISTORY}"):
            StreamPolicy(window=STREAM_MIN_HISTORY - 1)
        StreamPolicy(window=STREAM_MIN_HISTORY)


# Ties, zeros and an infinity, plus at most one NaN: the values on which a
# sorted window could part from np.quantile's partition and interpolation.
_scores = st.lists(
    st.one_of(
        st.sampled_from([0.0, 1.0, 2.5, math.inf]),
        st.floats(0.0, 1e3).map(lambda x: round(x, 1)),
        st.floats(0.0, 1e3),
    ),
    min_size=1,
    max_size=150,
)
_quantiles = st.one_of(
    st.sampled_from([0.25, 0.5, 0.75, 0.9]),  # exact halves between two scores
    st.floats(1e-12, 0.01), st.floats(0.01, 0.99), st.floats(0.99, 1.0 - 1e-12),
)


class TestSortedWindow:
    @settings(max_examples=200, deadline=None)
    @given(scores=_scores, nan_at=st.none() | st.integers(0, 150),
           extra=st.integers(0, 160), q=_quantiles)
    def test_quantile_is_np_quantile_bit_for_bit(self, scores, nan_at, extra, q):
        if nan_at is not None:
            scores = scores[:nan_at] + [math.nan] + scores[nan_at:]
        size = STREAM_MIN_HISTORY + extra  # up to longer than the sequence
        window = _SortedWindow(size)
        for i, score in enumerate(scores):
            window.push(score)
            recent = scores[max(0, i + 1 - size) : i + 1]
            assert [x.hex() for x in window.recent] == [x.hex() for x in recent]
            with np.errstate(invalid="ignore"):  # inf - inf inside the interpolation
                expected = float(np.quantile(recent, q))
            assert window.quantile(q).hex() == expected.hex(), (i, recent, q)


class TestSynthesisLoop:
    def _run(self, seed=0, oracle_kind="twin", budget_total=1000.0, **policy_overrides):
        world = small_world()
        pool = small_pool(world=world, seed=seed)
        budget = Budget(total=budget_total)
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

    @pytest.mark.parametrize("oracle_kind", ["twin", "pool"])
    def test_zero_budget_records_only_iteration_zero(self, oracle_kind):
        curve, _, oracle = self._run(oracle_kind=oracle_kind, budget_total=0.0)
        assert len(curve.rows) == 1
        assert oracle.budget.spent == 0.0

    def test_budget_truncates_then_stops(self):
        # 1.25 per synthesized sample: 4 in iteration 1, then 2 of 4, then stop
        curve, _, oracle = self._run(budget_total=7.5)
        assert [r.labeled_count - curve.rows[0].labeled_count for r in curve.rows] == [0, 4, 6]
        assert oracle.budget.spent == 7.5

    def test_snap_to_pool_stops_when_the_pool_empties(self):
        world = small_world()
        pool = small_pool(world=world)
        oracle = PoolOracle(pool, Budget(total=1000.0))
        for sid in pool.unlabeled[:-5]:  # leave five unlabeled samples
            oracle.annotate(int(sid), iteration=0)
        policy = SynthesisPolicy(gmm_components=2, gmm_em_iters=10, candidate_multiple=2,
                                 probe_features=pool.feature_matrix(pool.labeled[:20]))
        curve = run_synthesis_loop(small_config(iterations=3), pool, oracle, policy, rng_seed=0)
        assert [r.labeled_count - curve.rows[0].labeled_count for r in curve.rows] == [0, 4, 5]
        assert not len(pool.unlabeled)

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
