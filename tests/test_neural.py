import re

import numpy as np
import pytest

from netactive.neural import (
    AdamState,
    NetworkParams,
    NetworkSpec,
    TrainHyper,
    adam_step,
    backward,
    draw_dropout_masks,
    forward,
    init_params,
    load_params,
    predict,
    save_params,
    train,
)


def linear_params(w, b):
    """Single linear layer [1, 1] with explicit scalar weight and bias."""
    spec = NetworkSpec([1, 1])
    return NetworkParams(
        spec=spec, weights=[np.array([[float(w)]])], biases=[np.array([float(b)])]
    )


def outputs(params, x, masks=None):
    return forward(params, x, masks).activations[-1][:, 0]


def finite_difference_grads(params, x, targets, masks, step=1e-5):
    """Central-difference gradient of the batch mean of (output - target)^2,
    the independent oracle for backward()."""

    def loss(p):
        return np.mean((outputs(p, x, masks) - targets) ** 2)

    grads_w, grads_b = [], []
    for layer in range(len(params.weights)):
        gw = np.zeros_like(params.weights[layer])
        for idx in np.ndindex(*params.weights[layer].shape):
            plus = params.copy()
            plus.weights[layer][idx] += step
            minus = params.copy()
            minus.weights[layer][idx] -= step
            gw[idx] = (loss(plus) - loss(minus)) / (2 * step)
        grads_w.append(gw)
        gb = np.zeros_like(params.biases[layer])
        for idx in np.ndindex(*params.biases[layer].shape):
            plus = params.copy()
            plus.biases[layer][idx] += step
            minus = params.copy()
            minus.biases[layer][idx] -= step
            gb[idx] = (loss(plus) - loss(minus)) / (2 * step)
        grads_b.append(gb)
    return grads_w, grads_b


def max_relative_error(analytic, numeric):
    worst = 0.0
    for a, n in zip(analytic, numeric):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-6)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


class TestSpecValidation:
    def test_output_must_be_scalar(self):
        with pytest.raises(ValueError, match="output layer"):
            NetworkSpec([4, 3, 2])

    def test_dropout_below_one(self):
        with pytest.raises(ValueError, match="dropout"):
            NetworkSpec([4, 3, 1], dropout_rate=1.0)


class TestInitParams:
    def test_deterministic(self):
        spec = NetworkSpec([2, 3, 1])
        a, b = init_params(spec, 7), init_params(spec, 7)
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)

    def test_biases_zero(self):
        params = init_params(NetworkSpec([5, 4, 3, 1]), 0)
        for b in params.biases:
            np.testing.assert_array_equal(b, np.zeros_like(b))

    def test_shapes(self):
        params = init_params(NetworkSpec([2, 3, 1]), 0)
        assert [w.shape for w in params.weights] == [(3, 2), (1, 3)]

    def test_weight_range(self):
        spec = NetworkSpec([4, 8, 1], weight_init_scale=2.0)
        params = init_params(spec, 1)
        bound = 2.0 * np.sqrt(1.0 / 4)
        assert np.all(np.abs(params.weights[0]) <= bound)


class TestForward:
    def test_zero_weights_output_bias(self):
        spec = NetworkSpec([3, 2, 1])
        params = NetworkParams(
            spec=spec,
            weights=[np.zeros((2, 3)), np.zeros((1, 2))],
            biases=[np.zeros(2), np.array([3.0])],
        )
        assert outputs(params, np.array([[9.0, -4.0, 2.0]])).tolist() == [3.0]

    def test_single_linear_layer(self):
        assert outputs(linear_params(2.0, 1.0), np.array([[3.0], [0.5]])).tolist() == [7.0, 2.0]

    def test_all_ones_mask_matches_hand_computation(self):
        # two hidden units, fixed weights, dropout 0.5: mask of ones keeps
        # everything but the inverted scaling doubles each activation
        spec = NetworkSpec([1, 2, 1], dropout_rate=0.5, activation="tanh")
        params = NetworkParams(
            spec=spec,
            weights=[np.array([[1.0], [-0.5]]), np.array([[0.8, 0.6]])],
            biases=[np.array([0.2, -0.1]), np.array([0.3])],
        )
        x = np.array([[0.7]])
        h = np.tanh(np.array([1.0 * 0.7 + 0.2, -0.5 * 0.7 - 0.1]))
        expected = 0.8 * (h[0] / 0.5) + 0.6 * (h[1] / 0.5) + 0.3
        got = outputs(params, x, [np.ones((1, 2))])
        np.testing.assert_allclose(got, [expected], rtol=1e-12)
        maskless = outputs(params, x)
        np.testing.assert_allclose(maskless, [0.8 * h[0] + 0.6 * h[1] + 0.3], rtol=1e-12)

    def test_shape_mismatch(self):
        params = init_params(NetworkSpec([3, 2, 1]), 0)
        with pytest.raises(ValueError, match="features"):
            forward(params, np.array([[1.0, 2.0]]))
        with pytest.raises(ValueError, match="features"):
            forward(params, np.array([1.0, 2.0, 3.0]))

    def test_maskless_pure(self):
        params = init_params(NetworkSpec([3, 4, 1], dropout_rate=0.0), 5)
        x = np.array([[0.1, 0.2, 0.3]])
        np.testing.assert_array_equal(outputs(params, x), outputs(params, x))


class TestBackward:
    def test_zero_loss_zero_gradient(self):
        params = linear_params(2.0, 1.0)
        cache = forward(params, np.array([[3.0], [-1.0]]))
        grads = backward(params, cache, np.array([7.0, -1.0]))
        np.testing.assert_array_equal(grads.weights[0], [[0.0]])
        np.testing.assert_array_equal(grads.biases[0], [0.0])

    def test_hand_differentiated_linear(self):
        # w=1, b=0, target 0: per example dL/dw = 2*pred*x = 2x^2, dL/db = 2x;
        # over x = 2 and x = 1 the batch means are (8 + 2)/2 = 5 and (4 + 2)/2 = 3
        params = linear_params(1.0, 0.0)
        grads = backward(params, forward(params, np.array([[2.0], [1.0]])), np.zeros(2))
        np.testing.assert_allclose(grads.weights[0], [[5.0]])
        np.testing.assert_allclose(grads.biases[0], [3.0])

    def test_matches_finite_differences_341(self):
        rng = np.random.default_rng(11)
        spec = NetworkSpec([3, 4, 1], activation="tanh")
        params = init_params(spec, 11)
        for batch in (1, 3):
            x = rng.normal(size=(batch, 3))
            targets = rng.normal(size=batch)
            grads = backward(params, forward(params, x), targets)
            fd_w, fd_b = finite_difference_grads(params, x, targets, masks=None)
            assert max_relative_error(grads.weights + grads.biases, fd_w + fd_b) < 1e-4

    def test_matches_finite_differences_with_mask(self):
        rng = np.random.default_rng(13)
        spec = NetworkSpec([3, 4, 1], dropout_rate=0.4, activation="tanh")
        params = init_params(spec, 13)
        for batch in (1, 3):
            masks = draw_dropout_masks(spec, np.random.default_rng(2), batch)
            x = rng.normal(size=(batch, 3))
            targets = np.full(batch, 1.5)
            grads = backward(params, forward(params, x, masks), targets)
            fd_w, fd_b = finite_difference_grads(params, x, targets, masks=masks)
            assert max_relative_error(grads.weights + grads.biases, fd_w + fd_b) < 1e-4

    def test_gradient_battery_20_random_nets(self):
        spec = NetworkSpec([3, 4, 1], dropout_rate=0.3, activation="tanh")
        rng = np.random.default_rng(99)
        for trial in range(20):
            params = init_params(spec, 1000 + trial)
            for batch in (1, 3):
                x = rng.normal(size=(batch, 3))
                targets = rng.normal(size=batch)
                for masks in (None, draw_dropout_masks(spec, rng, batch)):
                    grads = backward(params, forward(params, x, masks), targets)
                    fd_w, fd_b = finite_difference_grads(params, x, targets, masks=masks)
                    assert max_relative_error(grads.weights + grads.biases, fd_w + fd_b) < 1e-4


class TestAdam:
    def test_zero_gradient_no_change(self):
        params = init_params(NetworkSpec([2, 2, 1]), 0)
        grads = NetworkParams(
            spec=params.spec,
            weights=[np.zeros_like(w) for w in params.weights],
            biases=[np.zeros_like(b) for b in params.biases],
        )
        updated, state = adam_step(params, grads, AdamState.zeros_like(params), TrainHyper())
        for w0, w1 in zip(params.weights, updated.weights):
            np.testing.assert_array_equal(w0, w1)
        assert state.t == 1

    def test_first_step_closed_form(self):
        # scalar Adam, g=1: m_hat=1, v_hat=1, delta = -lr/(1 + eps) ~ -lr
        params = linear_params(0.5, 0.0)
        grads = NetworkParams(
            spec=params.spec, weights=[np.array([[1.0]])], biases=[np.array([0.0])]
        )
        hyper = TrainHyper(learning_rate=0.01, beta1=0.9, beta2=0.999, eps=1e-8)
        updated, _ = adam_step(params, grads, AdamState.zeros_like(params), hyper)
        expected_delta = -0.01 * 1.0 / (1.0 + 1e-8)
        np.testing.assert_allclose(updated.weights[0][0, 0] - 0.5, expected_delta, rtol=1e-12)

    def test_deterministic(self):
        params = init_params(NetworkSpec([2, 3, 1]), 3)
        grads = init_params(NetworkSpec([2, 3, 1]), 4)
        out1, st1 = adam_step(params, grads, AdamState.zeros_like(params), TrainHyper())
        out2, st2 = adam_step(params, grads, AdamState.zeros_like(params), TrainHyper())
        for a, b in zip(out1.weights, out2.weights):
            np.testing.assert_array_equal(a, b)
        assert st1.t == st2.t


class TestTrain:
    def test_converges_on_linear_target(self):
        # y = 2x is exactly realizable: 2x = 2*relu(x) - 2*relu(-x)
        rng = np.random.default_rng(0)
        x = rng.uniform(-1, 1, size=(50, 1))
        y = 2.0 * x[:, 0]
        spec = NetworkSpec([1, 16, 1], dropout_rate=0.0, activation="relu")
        params = init_params(spec, 0)
        trained, mse = train(params, x, y, epochs=200, batch_size=8, rng_seed=1,
                             hyper=TrainHyper(learning_rate=0.01))
        assert mse < 1e-3

    def test_zero_epochs_unchanged(self):
        params = init_params(NetworkSpec([2, 3, 1]), 0)
        x = np.zeros((4, 2))
        y = np.zeros(4)
        trained, _ = train(params, x, y, epochs=0, batch_size=2, rng_seed=0)
        for a, b in zip(params.weights, trained.weights):
            np.testing.assert_array_equal(a, b)

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(30, 3))
        y = rng.normal(size=30) ** 2
        spec = NetworkSpec([3, 6, 1], dropout_rate=0.3)
        a, _ = train(init_params(spec, 2), x, y, epochs=5, batch_size=8, rng_seed=9)
        b, _ = train(init_params(spec, 2), x, y, epochs=5, batch_size=8, rng_seed=9)
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)

    def test_input_params_not_mutated(self):
        params = init_params(NetworkSpec([2, 3, 1]), 0)
        snapshot = [w.copy() for w in params.weights]
        x = np.random.default_rng(0).normal(size=(10, 2))
        train(params, x, np.ones(10), epochs=3, batch_size=4, rng_seed=0)
        for w0, w1 in zip(snapshot, params.weights):
            np.testing.assert_array_equal(w0, w1)

    def test_params_stay_finite_per_step(self):
        # normalized data, lr <= 0.01: every intermediate step must be finite
        rng = np.random.default_rng(5)
        x = rng.normal(size=(40, 3))
        y = np.abs(rng.normal(size=40))
        spec = NetworkSpec([3, 8, 1], dropout_rate=0.2)
        params = init_params(spec, 5)
        for step in range(30):
            params, _ = train(params, x, y, epochs=1, batch_size=8, rng_seed=step,
                              hyper=TrainHyper(learning_rate=0.01))
            assert params.all_finite(), f"non-finite parameters after step {step}"

    def test_empty_labeled_set_rejected(self):
        params = init_params(NetworkSpec([2, 3, 1]), 0)
        with pytest.raises(ValueError, match="non-empty"):
            train(params, np.zeros((0, 2)), np.zeros(0), epochs=1, batch_size=4, rng_seed=0)


class TestCheckpoint:
    def _saved(self, tmp_path):
        spec = NetworkSpec([3, 5, 1], dropout_rate=0.25, activation="tanh",
                           weight_init_scale=1.5)
        params = init_params(spec, 21)
        path = tmp_path / "params.txt"
        save_params(params, str(path))
        return params, path

    def test_roundtrip_exact(self, tmp_path):
        params, path = self._saved(tmp_path)
        loaded = load_params(str(path))
        assert loaded.spec == params.spec
        for a, b in zip(params.weights, loaded.weights):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(params.biases, loaded.biases):
            np.testing.assert_array_equal(a, b)
        assert [p.name for p in tmp_path.iterdir()] == ["params.txt"]  # no temp file left

    # Lines 6-9 hold the [3, 5, 1] net's W1 (15 values), b1 (5), W2 (5), b2 (1).
    @pytest.mark.parametrize("edit, message", [
        (lambda lines: lines[:7], "line 8: missing"),
        (lambda lines: lines[:5] + [" ".join(lines[5].split()[1:])] + lines[6:],
         "line 6: expected 15 values, found 14"),
        (lambda lines: lines[:7] + [" ".join(["nan"] + lines[7].split()[1:])] + lines[8:],
         "line 8: non-finite"),
    ], ids=["truncated", "short_weight_line", "nan_weight"])
    def test_malformed_checkpoint_names_line(self, tmp_path, edit, message):
        _, path = self._saved(tmp_path)
        path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
            load_params(str(path))

    def test_predict_batch_matches_forward(self):
        params = init_params(NetworkSpec([4, 6, 1], activation="tanh"), 8)
        x = np.random.default_rng(3).normal(size=(7, 4))
        batched = predict(params, x)
        single = [outputs(params, row[None, :])[0] for row in x]
        np.testing.assert_allclose(batched, single, rtol=1e-12)
