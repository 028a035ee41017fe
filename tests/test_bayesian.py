import itertools
import re
import sys
import threading
import time

import numpy as np
import pytest

from netactive import bayesian, seeding
from netactive.acquisition import Budget
from netactive.bayesian import MC_TILE_ROWS, Committee, mc_predict
from netactive.dataset import split_pool
from netactive.loop import LoopConfig, PoolOracle, _LoopState
from netactive.neural import (
    NetworkParams,
    NetworkSpec,
    draw_dropout_masks,
    forward,
    init_params,
    train,
)
from netactive.synth import N_FEATURES, TwinWorld, generate_synthetic_dataset


def two_unit_net():
    """Fixed [2, 2, 1] tanh network with dropout 0.5 used by the
    exhaustive mask-enumeration oracle."""
    spec = NetworkSpec([2, 2, 1], dropout_rate=0.5, activation="tanh")
    params = NetworkParams(
        spec=spec,
        weights=[np.array([[1.0, -0.5], [0.5, 1.0]]), np.array([[1.2, 0.8]])],
        biases=[np.array([0.1, -0.2]), np.array([0.3])],
    )
    return spec, params


def enumerate_mask_distribution(params, x):
    """Exact mask-average mean/variance: every {0,1}^2 mask has mass 1/4."""
    outs = []
    for mask_bits in itertools.product([0.0, 1.0], repeat=2):
        outs.append(forward(params, x[None, :], [np.array([mask_bits])]).activations[-1][0, 0])
    outs = np.array(outs)
    return outs.mean(), outs.var()  # population variance: masks equiprobable


def mc_row(params, x, n_passes, rng_seed):
    """mc_predict on one feature vector: (mean, epistemic variance)."""
    means, variances = mc_predict(params, x[None, :], n_passes, rng_seed)
    return means[0], variances[0]


def reference_mc(params, x, n_passes, rng_seed):
    """Pass-by-pass MC-dropout through forward(): the same seeded masks
    (one row per pass, drawn layer by layer) applied to every row."""
    spec = params.spec
    rng = np.random.default_rng(rng_seed)
    masks = [(rng.random((n_passes, h)) < spec.keep_prob).astype(float)
             for h in spec.hidden_sizes]
    outs = np.array([
        forward(params, x, [np.tile(m[t], (len(x), 1)) for m in masks]).activations[-1][:, 0]
        for t in range(n_passes)
    ])
    return outs.mean(axis=0), outs.var(axis=0, ddof=1) if n_passes > 1 else np.zeros(len(x))


def stacked_reference_mc(params, x, n_passes, rng_seed):
    """One-row MC-dropout through forward(): the first layer once for the
    row, then every pass stacked as one row of the remaining network."""
    spec = params.spec
    masks = draw_dropout_masks(spec, np.random.default_rng(rng_seed), n_passes)
    z = forward(params, x).pre_activations[0]
    first = np.maximum(z, 0.0) if spec.activation == "relu" else np.tanh(z)
    rest = NetworkParams(
        NetworkSpec(spec.layer_sizes[1:], spec.dropout_rate, spec.activation),
        params.weights[1:], params.biases[1:],
    )
    outs = forward(rest, first * masks[0] / spec.keep_prob, masks[1:]).activations[-1]
    return outs.mean(axis=0), outs.var(axis=0, ddof=1)


# row counts around the tile boundaries of mc_predict, one and three hidden
# layers, one pass (zero variance) and fifty
TILED_CASES = [
    pytest.param(rows, hidden, passes, id=f"{rows}-h{len(hidden)}-p{passes}")
    for rows in (2 * MC_TILE_ROWS - 1, 2 * MC_TILE_ROWS, 2 * MC_TILE_ROWS + 1,
                 3 * MC_TILE_ROWS + 1, 3800)
    for hidden in ([16], [16, 8, 8])
    for passes in (1, 50)
]


class TestMcPredict:
    def test_no_dropout_variance_exactly_zero(self):
        params = init_params(NetworkSpec([3, 4, 1], dropout_rate=0.0), 0)
        x = np.array([[0.3, -0.2, 1.1], [0.0, 0.5, -0.7]])
        means, variances = mc_predict(params, x, n_passes=64, rng_seed=5)
        assert variances.tolist() == [0.0, 0.0]
        np.testing.assert_array_equal(means, forward(params, x).activations[-1][:, 0])

    def test_matches_enumeration_oracle(self):
        _, params = two_unit_net()
        x = np.array([0.7, -0.4])
        exact_mean, exact_var = enumerate_mask_distribution(params, x)
        assert abs(exact_mean) > 0.1  # oracle sanity: relative error well defined
        mean, var = mc_row(params, x, n_passes=100_000, rng_seed=123)
        assert abs(mean - exact_mean) / abs(exact_mean) < 0.01
        assert abs(var - exact_var) / exact_var < 0.05

    def test_deterministic(self):
        _, params = two_unit_net()
        x = np.array([0.7, -0.4])
        a = mc_row(params, x, n_passes=500, rng_seed=7)
        b = mc_row(params, x, n_passes=500, rng_seed=7)
        assert a == b

    def test_large_matrix_holds_no_passes_by_rows_matrix(self):
        # a large pool is reduced one tile at a time: the scoring peak stays
        # well below one float64 (n_passes, n) matrix
        import tracemalloc

        params = init_params(NetworkSpec([3, 8, 1], dropout_rate=0.3), 4)
        n, passes = 16 * MC_TILE_ROWS, 50
        x = np.random.default_rng(0).normal(size=(n, 3))
        tracemalloc.start()
        try:
            mc_predict(params, x, n_passes=passes, rng_seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < passes * n * 8 / 2

    def test_single_pass_zero_variance(self):
        _, params = two_unit_net()
        _, var = mc_row(params, np.array([0.1, 0.2]), n_passes=1, rng_seed=0)
        assert var == 0.0

    def test_variance_estimate_error_shrinks_with_passes(self):
        # averaged over 3 seeds, the absolute error of the variance
        # estimate falls as the pass count doubles 1e3 -> ~1e5
        _, params = two_unit_net()
        x = np.array([0.7, -0.4])
        _, exact_var = enumerate_mask_distribution(params, x)
        pass_counts = [1000 * 2**k for k in range(8)]  # 1e3 .. 1.28e5
        errors = []
        for t in pass_counts:
            errs = [
                abs(mc_row(params, x, n_passes=t, rng_seed=seed)[1] - exact_var)
                for seed in (0, 3, 4)
            ]
            errors.append(np.mean(errs))
        assert all(b < a for a, b in zip(errors, errors[1:]))

    def test_matrix_matches_per_row_and_reference(self):
        params = init_params(NetworkSpec([2, 5, 4, 1], dropout_rate=0.3, activation="tanh"), 6)
        x = np.array([[0.7, -0.4], [0.2, 0.9], [-1.0, 0.5]])
        means, variances = mc_predict(params, x, n_passes=400, rng_seed=3)
        ref_means, ref_vars = reference_mc(params, x, n_passes=400, rng_seed=3)
        np.testing.assert_allclose(means, ref_means, rtol=1e-9)
        np.testing.assert_allclose(variances, ref_vars, rtol=1e-9)
        for i, row in enumerate(x):
            mean, var = mc_row(params, row, n_passes=400, rng_seed=3)
            np.testing.assert_allclose(means[i], mean, rtol=1e-9)
            np.testing.assert_allclose(variances[i], var, rtol=1e-9)

    def test_batch_row_order_invariant(self):
        # per-pass masks are shared across rows, so scores only depend on
        # the feature vector, never on which other candidates are scored
        params = init_params(NetworkSpec([3, 8, 1], dropout_rate=0.3), 4)
        rng = np.random.default_rng(0)
        x = rng.normal(size=(10, 3))
        perm = rng.permutation(10)
        _, var_full = mc_predict(params, x, n_passes=200, rng_seed=9)
        _, var_perm = mc_predict(params, x[perm], n_passes=200, rng_seed=9)
        np.testing.assert_array_equal(var_full[perm], var_perm)

    def test_epistemic_std(self, fixed_model_state):
        # the loop's epistemic score is the MC standard deviation in label units
        _, params = two_unit_net()
        x = np.array([[0.7, -0.4], [0.1, 0.2]])
        state = fixed_model_state(params, (x, [1.0, 2.0]), (x, [1.0, 2.0]))
        state.label_std = 3.0
        _, variances = mc_predict(params, x, n_passes=state.config.mc_passes, rng_seed=4)
        np.testing.assert_array_equal(
            state.epistemic_std_mbps(x, seed=4), np.sqrt(variances) * 3.0
        )

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    @pytest.mark.parametrize("rows, hidden, passes", [
        pytest.param(1, [16, 8], 50, id="1"),
        pytest.param(300, [16, 8], 50, id="300"),
        *TILED_CASES,
    ])
    def test_matches_reference_exactly(self, activation, rows, hidden, passes):
        # 300 rows run one pass at a time, exactly a per-pass loop through
        # forward(); from 2 * MC_TILE_ROWS rows on, every pass runs tile by
        # tile, and aligned tiles keep each row's bits as in the whole-matrix
        # product; one row stacks all passes into one matrix, so its
        # reference stacks them too (a 1-row product can differ in the last
        # bit from the same row inside a stacked product)
        params = init_params(
            NetworkSpec([3, *hidden, 1], dropout_rate=0.2, activation=activation), 5
        )
        x = np.random.default_rng(rows).normal(size=(rows, 3))
        reference = stacked_reference_mc if rows == 1 else reference_mc
        means, variances = mc_predict(params, x, n_passes=passes, rng_seed=8)
        ref_means, ref_vars = reference(params, x, n_passes=passes, rng_seed=8)
        np.testing.assert_array_equal(means, ref_means)
        np.testing.assert_array_equal(variances, ref_vars)

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    @pytest.mark.parametrize("hidden, dropout", [
        pytest.param([2, 2], 0.9, id="h2x2-d0.9"),
        pytest.param([16, 8, 8], 0.5, id="h3-d0.5"),
    ])
    @pytest.mark.parametrize("rows", [100, 2 * MC_TILE_ROWS, 3800])
    def test_edges_match_reference_bytes(self, activation, hidden, dropout, rows):
        # 100 rows stack two passes per product and mask the activations;
        # from 2 * MC_TILE_ROWS rows on, a product serves one pass and takes
        # its masks in the weights.  Both keep the reference's bytes with
        # exact and negative zeros in the input, and with passes that drop a
        # whole layer (two units kept with probability 0.1 each)
        params = init_params(
            NetworkSpec([3, *hidden, 1], dropout_rate=dropout, activation=activation), 5
        )
        x = np.random.default_rng(rows).normal(size=(rows, 3))
        x[::3, 0] = 0.0
        x[1::3, 1] = -0.0
        x[::7] = -0.0
        masks = draw_dropout_masks(params.spec, np.random.default_rng(8), 50)
        if dropout == 0.9:
            assert any((m.sum(axis=1) == 0).any() for m in masks)
        means, variances = mc_predict(params, x, n_passes=50, rng_seed=8)
        ref_means, ref_vars = reference_mc(params, x, n_passes=50, rng_seed=8)
        assert means.tobytes() == ref_means.tobytes()
        assert variances.tobytes() == ref_vars.tobytes()

    @pytest.mark.parametrize("workers", [1, 2, 3, 8])
    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    @pytest.mark.parametrize("rows, hidden, passes", TILED_CASES)
    def test_bytes_do_not_depend_on_worker_count(self, monkeypatch, workers, activation, rows,
                                                 hidden, passes):
        # whichever worker scores a tile, its rows keep the bits of the
        # pass-by-pass reference
        monkeypatch.setattr(bayesian, "WORKERS", workers)
        params = init_params(
            NetworkSpec([3, *hidden, 1], dropout_rate=0.2, activation=activation), 5
        )
        x = np.random.default_rng(rows).normal(size=(rows, 3))
        means, variances = mc_predict(params, x, n_passes=passes, rng_seed=8)
        ref_means, ref_vars = reference_mc(params, x, n_passes=passes, rng_seed=8)
        assert means.tobytes() == ref_means.tobytes()
        assert variances.tobytes() == ref_vars.tobytes()

    def test_one_tile_starts_no_thread(self, monkeypatch):
        # a matrix below 2 * MC_TILE_ROWS rows, such as a stream arrival, is
        # scored in the calling thread; the patched start shows that a
        # two-tile matrix would start one
        def no_thread(self):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(bayesian, "WORKERS", 3)
        monkeypatch.setattr(threading.Thread, "start", no_thread)
        params = init_params(NetworkSpec([3, 8, 1], dropout_rate=0.3), 4)
        for rows in (1, 300, 2 * MC_TILE_ROWS - 1):
            x = np.random.default_rng(rows).normal(size=(rows, 3))
            assert mc_predict(params, x, n_passes=5, rng_seed=1)[1].shape == (rows,)
        with pytest.raises(AssertionError, match="a thread was started"):
            mc_predict(params, np.zeros((2 * MC_TILE_ROWS, 3)), n_passes=5, rng_seed=1)

    def test_failing_worker_fails_the_call(self, monkeypatch):
        # a part scored off the calling thread raises; the call re-raises it
        # instead of returning a partly filled result
        def act(a, kind, out=None):
            if threading.current_thread() is not threading.main_thread():
                raise FloatingPointError("worker failed")
            return real_act(a, kind, out=out)

        real_act = bayesian._act
        monkeypatch.setattr(bayesian, "WORKERS", 3)
        monkeypatch.setattr(bayesian, "_act", act)
        params = init_params(NetworkSpec([3, 8, 1], dropout_rate=0.3), 4)
        x = np.random.default_rng(0).normal(size=(3 * MC_TILE_ROWS, 3))
        with pytest.raises(FloatingPointError, match="worker failed"):
            mc_predict(params, x, n_passes=5, rng_seed=1)

    @pytest.mark.parametrize("rows", [1, 5, 300, 2 * MC_TILE_ROWS + 7])
    def test_generator_scores_as_its_seed(self, rows):
        # one tile up to 2 * MC_TILE_ROWS - 1 rows, several from there on;
        # the generator is used as it stands and left after the masks' draw
        params = init_params(NetworkSpec([19, 16, 8, 1], dropout_rate=0.2), 2)
        x = np.random.default_rng(rows).normal(size=(rows, 19))
        rng = np.random.default_rng(41)
        means, variances = mc_predict(params, x, 25, rng)
        ref_means, ref_vars = mc_predict(params, x, 25, 41)
        assert means.tobytes() == ref_means.tobytes()
        assert variances.tobytes() == ref_vars.tobytes()
        after_masks = np.random.default_rng(41)
        draw_dropout_masks(params.spec, after_masks, 25)
        assert rng.random() == after_masks.random()

    def test_empty_matrix_gives_empty_arrays(self):
        _, params = two_unit_net()
        means, variances = mc_predict(params, np.zeros((0, 2)), n_passes=10, rng_seed=0)
        assert means.shape == (0,) and variances.shape == (0,)

    def test_wrong_width_names_shape(self):
        _, params = two_unit_net()
        with pytest.raises(ValueError, match=re.escape("input of shape (4, 3)")):
            mc_predict(params, np.zeros((4, 3)), n_passes=10, rng_seed=0)

    def test_validates_pass_count(self):
        _, params = two_unit_net()
        with pytest.raises(ValueError):
            mc_predict(params, np.array([[0.0, 0.0]]), n_passes=0, rng_seed=0)


def spy_tiles(monkeypatch, on_tile):
    """Call on_tile(lo) in the thread that scores mc_predict's tile of rows
    lo:..., before it scores the tile."""
    class Rows(np.ndarray):
        def __getitem__(self, key):
            on_tile(key.start)
            return self.view(np.ndarray)[key]

    feature_matrix = bayesian._feature_matrix
    monkeypatch.setattr(bayesian, "_feature_matrix",
                        lambda spec, x: feature_matrix(spec, x).view(Rows))


class TestMcParts:
    @pytest.mark.parametrize("bounds, workers, expected", [
        # mc_predict's tiles of a 3750-row matrix: cut by rows, not by tiles
        ([0, 1024, 2048, 3750], 2, [(0, 2048), (2048, 3750)]),
        ([0, 1024, 2048, 3750], 3, [(0, 1024), (1024, 2048), (2048, 3750)]),
        ([0, 1024, 2048, 3750], 4, [(0, 1024), (1024, 2048), (2048, 3750)]),
        (range(5001), 3, [(0, 1667), (1667, 3333), (3333, 5000)]),
        (range(4), 3, [(0, 1), (1, 2), (2, 3)]),
        (range(3), 3, [(0, 1), (1, 2)]),
        (range(2), 3, [(0, 1)]),
        (range(5001), 1, [(0, 5000)]),
        # the battery's unlabeled pool: a tile-count cut would give 1024/2776
        ([0, 1024, 2048, 3800], 2, [(0, 2048), (2048, 3800)]),
        ([0, 1024, 2048, 3800], 1, [(0, 3800)]),
        # pool_large's 54,000 rows in 53 tiles
        ([*range(0, 52 * 1024 + 1, 1024), 54000], 2, [(0, 26624), (26624, 54000)]),
        ([*range(0, 52 * 1024 + 1, 1024), 54000], 3,
         [(0, 18432), (18432, 35840), (35840, 54000)]),
    ])
    def test_parts_cover_the_rows_in_balanced_runs(self, bounds, workers, expected):
        cuts = bayesian._part_cuts(list(bounds), workers)
        assert list(zip(cuts, cuts[1:])) == expected

    def test_battery_pool_is_cut_by_rows(self, monkeypatch):
        # the 3800-row pool on two workers: the calling thread scores the
        # tiles at 0 and 1024, another thread the widest, 2048:3800
        threads = {}
        spy_tiles(monkeypatch, lambda lo: threads.setdefault(lo, threading.get_ident()))
        monkeypatch.setattr(bayesian, "WORKERS", 2)
        params = init_params(NetworkSpec([3, 8, 1], dropout_rate=0.3), 4)
        mc_predict(params, np.zeros((3800, 3)), n_passes=2, rng_seed=1)
        assert sorted(threads) == [0, 1024, 2048]
        assert threads[0] == threads[1024] == threading.get_ident() != threads[2048]

    @pytest.mark.parametrize("failing", [1, 2, 0])
    def test_failing_part_is_reraised_after_every_part_ends(self, monkeypatch, failing):
        # three tiles on three workers: one part per tile, part 0 in the
        # calling thread; the failing part fails at once, the others later
        ended = []

        def on_tile(lo):
            if lo // MC_TILE_ROWS == failing:
                raise ValueError(f"part {failing} failed")
            time.sleep(0.05)
            ended.append(lo // MC_TILE_ROWS)

        monkeypatch.setattr(bayesian, "WORKERS", 3)
        spy_tiles(monkeypatch, on_tile)
        params = init_params(NetworkSpec([3, 8, 1], dropout_rate=0.3), 4)
        with pytest.raises(ValueError, match=f"part {failing} failed"):
            mc_predict(params, np.zeros((3 * MC_TILE_ROWS, 3)), n_passes=2, rng_seed=1)
        assert sorted(ended) == sorted({0, 1, 2} - {failing})

    def test_first_failure_in_row_order_wins(self, monkeypatch):
        # the later a part's rows, the sooner it fails
        def on_tile(lo):
            part = lo // MC_TILE_ROWS
            if part in failing:
                time.sleep(0.02 * (2 - part))
                raise ValueError(f"part {part} failed")

        monkeypatch.setattr(bayesian, "WORKERS", 3)
        spy_tiles(monkeypatch, on_tile)
        params = init_params(NetworkSpec([3, 8, 1], dropout_rate=0.3), 4)
        x = np.zeros((3 * MC_TILE_ROWS, 3))
        for failing, first in (({0, 1, 2}, 0), ({1, 2}, 1)):
            with pytest.raises(ValueError, match=f"part {first} failed"):
                mc_predict(params, x, n_passes=2, rng_seed=1)

    def test_more_threads_than_cores_keep_every_row(self, monkeypatch):
        # eight workers on a short switch interval write disjoint slices of
        # one output: any lost or misplaced write changes the bytes
        rng = np.random.default_rng(3)
        params = init_params(NetworkSpec([19, 16, 8, 1], dropout_rate=0.2), 2)
        x = rng.normal(size=(9 * MC_TILE_ROWS + 5, 19))
        monkeypatch.setattr(bayesian, "WORKERS", 1)
        expected = mc_predict(params, x, 20, 7)
        monkeypatch.setattr(bayesian, "WORKERS", 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                means, variances = mc_predict(params, x, 20, 7)
                assert means.tobytes() == expected[0].tobytes()
                assert variances.tobytes() == expected[1].tobytes()
        finally:
            sys.setswitchinterval(interval)


class TestEstimateAleatoric:
    def test_perfect_predictor(self, fixed_model_state):
        spec = NetworkSpec([1, 1])
        params = NetworkParams(spec=spec, weights=[np.array([[2.0]])], biases=[np.array([0.0])])
        x = np.array([[1.0], [2.0], [3.0]])
        state = fixed_model_state(params, (x, 2.0 * x[:, 0]), (x[:1], [0.0]))
        assert state.aleatoric() == 0.0

    def test_constant_predictor_off_by_one(self, fixed_model_state):
        # predictions constant c on targets {c-1, c+1} -> MSE 1
        spec = NetworkSpec([1, 1])
        params = NetworkParams(spec=spec, weights=[np.array([[0.0]])], biases=[np.array([5.0])])
        x = np.array([[0.4], [-1.2]])
        state = fixed_model_state(params, (x, [4.0, 6.0]), (x[:1], [0.0]))
        assert state.aleatoric() == 1.0

    def test_recovers_known_noise_variance(self, fixed_model_state):
        # exact model w=2, b=20; targets 2x + 20 + N(0, 3^2) -> estimate ~ 9
        sigma = 3.0
        rng = np.random.default_rng(17)
        x = rng.uniform(-2, 2, size=(1000, 1))
        y = 2.0 * x[:, 0] + 20.0 + rng.normal(0.0, sigma, size=1000)
        spec = NetworkSpec([1, 1])
        params = NetworkParams(spec=spec, weights=[np.array([[2.0]])], biases=[np.array([20.0])])
        estimate = fixed_model_state(params, (x, y), (x[:1], [0.0])).aleatoric()
        assert abs(estimate - sigma**2) / sigma**2 < 0.2

    def test_empty_validation_set(self, fixed_model_state):
        params = init_params(NetworkSpec([2, 2, 1]), 0)
        with pytest.raises(ValueError, match="non-empty"):
            fixed_model_state(params, (np.zeros((0, 2)), []), (np.zeros((1, 2)), [0.0]))


def qbc_state(warm_start=True, qbc_members=3):
    """A pool-loop state on a small twin-world pool whose fit() also trains
    a qbc committee."""
    samples = generate_synthetic_dataset(TwinWorld(noise_std=25.0), 120, rng_seed=0)
    pool = split_pool(samples, test_fraction=0.2, seed_labeled_fraction=0.3, rng_seed=0)
    config = LoopConfig(
        spec=NetworkSpec([N_FEATURES, 4, 1], dropout_rate=0.2),
        learning_rate=3e-3, strategy="qbc", qbc_members=qbc_members,
        initial_epochs=4, train_batch_size=8, warm_start=warm_start,
    )
    return _LoopState(config, pool, PoolOracle(pool, Budget(total=10.0)), master_seed=5)


class TestCommittee:
    def test_deterministic(self):
        a, b = qbc_state(), qbc_state()
        a.fit(0, 3)
        b.fit(0, 3)
        for ma, mb in zip(a.committee.members, b.committee.members, strict=True):
            np.testing.assert_array_equal(ma.flat, mb.flat)

    def test_members_differ(self):
        state = qbc_state()
        state.fit(0, 3)
        members = state.committee.members
        assert not np.array_equal(members[0].weights[0], members[1].weights[0])

    @pytest.mark.parametrize("warm_start", [True, False], ids=["warm", "cold"])
    def test_members_match_reference_training(self, warm_start):
        # member k trains with seed base + k from the member it replaces on a
        # warm start, and from init_params(spec, base + k) on the first fit
        # and on every cold restart, which trains for initial_epochs
        state = qbc_state(warm_start=warm_start)
        config, oracle = state.config, PoolOracle(state.pool, state.budget)
        previous = None
        for iteration, epochs in ((0, 4), (1, 2)):
            if iteration:
                for sid in state.pool.unlabeled[:3]:
                    oracle.annotate(int(sid), iteration)
            x, y = state.training_data()
            state.fit(iteration, epochs)
            base = seeding.derive_seed(5, iteration, seeding.STREAM_QBC)
            for k, member in enumerate(state.committee.members):
                start = previous[k] if previous else init_params(config.spec, base + k)
                cold = iteration and not warm_start
                expected, _ = train(start, x, y, config.initial_epochs if cold else epochs,
                                    config.train_batch_size,
                                    rng_seed=base + k, learning_rate=config.learning_rate)
                assert np.array_equal(member.flat, expected.flat)
            previous = state.committee.members if warm_start else None

    def test_members_own_their_memory(self):
        state = qbc_state()
        state.fit(0, 2)
        state.fit(1, 2)  # warm: every member continues from its own parameters
        flats = [m.flat for m in state.committee.members] + [state.params.flat]
        for i, a in enumerate(flats):
            for b in flats[i + 1 :]:
                assert not np.shares_memory(a, b)

    def test_single_member_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            qbc_state(qbc_members=1).fit(0, 1)
        with pytest.raises(ValueError, match="at least 2"):
            Committee(members=[init_params(NetworkSpec([2, 2, 1]), 0)])


class TestCommitteeDisagreement:
    def _committee_with_outputs(self, values):
        # zero-weight nets whose output bias pins the prediction
        spec = NetworkSpec([2, 2, 1])
        members = []
        for v in values:
            members.append(
                NetworkParams(
                    spec=spec,
                    weights=[np.zeros((2, 2)), np.zeros((1, 2))],
                    biases=[np.zeros(2), np.array([float(v)])],
                )
            )
        return Committee(members=members)

    def test_identical_members_zero(self):
        committee = self._committee_with_outputs([2.5, 2.5, 2.5])
        assert committee.disagreement(np.zeros((1, 2))).tolist() == [0.0]

    def test_two_point_variance(self):
        committee = self._committee_with_outputs([1.0, 3.0])
        assert committee.disagreement(np.zeros((3, 2))).tolist() == [2.0, 2.0, 2.0]

    def test_three_point_variance(self):
        committee = self._committee_with_outputs([0.0, 1.0, 2.0])
        assert committee.disagreement(np.zeros((1, 2))).tolist() == [1.0]

    def test_member_permutation_invariant(self):
        committee = self._committee_with_outputs([0.3, 1.7, 4.0])
        swapped = Committee(members=list(reversed(committee.members)))
        x = np.ones((2, 2))
        np.testing.assert_array_equal(committee.disagreement(x), swapped.disagreement(x))
