import numpy as np
import pytest

from netactive.neural import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    AdamState,
    NetworkParams,
    NetworkSpec,
    adam_step,
    backward,
    draw_dropout_masks,
    forward,
    init_params,
    predict,
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


def reference_backward(params, cache, targets):
    """backward() spelled out on fresh arrays: the batch-mean gradient with
    the mask, the keep probability and the activation derivative applied
    one after another."""
    spec = params.spec
    delta = 2.0 * (cache.activations[-1] - np.reshape(targets, (-1, 1)))
    grads_w, grads_b = [None] * len(params.weights), [None] * len(params.weights)
    for layer in reversed(range(len(params.weights))):
        grads_w[layer] = delta.T @ cache.activations[layer] / len(delta)
        grads_b[layer] = delta.mean(axis=0)
        if layer > 0:
            da = delta @ params.weights[layer]
            if cache.masks is not None:
                da = da * cache.masks[layer - 1] / spec.keep_prob
            z = cache.pre_activations[layer - 1]
            if spec.activation == "relu":
                delta = da * (z > 0.0).astype(float)
            else:
                t = np.tanh(z)
                delta = da * (1.0 - t * t)
    return grads_w, grads_b


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


class TestNetworkParams:
    def test_layers_view_one_flat_vector(self):
        w0, b0 = np.arange(6.0).reshape(3, 2), np.array([6.0, 7.0, 8.0])
        w1, b1 = np.array([[9.0, 10.0, 11.0]]), np.array([12.0])
        params = NetworkParams(NetworkSpec([2, 3, 1]), [w0, w1], [b0, b1])
        np.testing.assert_array_equal(params.flat, np.arange(13.0))
        params.flat += 1.0  # the views follow the vector
        np.testing.assert_array_equal(params.weights[1], w1 + 1.0)
        assert not np.shares_memory(params.weights[0], w0)  # the constructor copies

    def test_copy_is_independent(self):
        params = init_params(NetworkSpec([2, 3, 1]), 0)
        clone = params.copy()
        clone.weights[0][0, 0] += 1.0
        assert params.weights[0][0, 0] != clone.weights[0][0, 0]


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

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    @pytest.mark.parametrize("dropout", [0.0, 0.3])
    def test_matches_reference_exactly(self, activation, dropout):
        spec = NetworkSpec([3, 16, 8, 1], dropout_rate=dropout, activation=activation)
        params = init_params(spec, 7)
        rng = np.random.default_rng(7)
        for batch in (1, 64):
            x = rng.normal(size=(batch, 3))
            masks = draw_dropout_masks(spec, rng, batch) if dropout else None
            cache = forward(params, x, masks)
            targets = rng.normal(size=batch)
            grads = backward(params, cache, targets)
            want_w, want_b = reference_backward(params, cache, targets)
            for got, want in zip(grads.weights + grads.biases, want_w + want_b):
                np.testing.assert_array_equal(got, want)

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
        before = params.copy()
        grads = NetworkParams(
            spec=params.spec,
            weights=[np.zeros_like(w) for w in params.weights],
            biases=[np.zeros_like(b) for b in params.biases],
        )
        state = AdamState.zeros_like(params)
        adam_step(params, grads, state, 1e-3)
        for w0, w1 in zip(before.weights, params.weights):
            np.testing.assert_array_equal(w0, w1)
        assert state.t == 1

    def test_first_step_closed_form(self):
        # scalar Adam, g=1: m_hat=1, v_hat=1, delta = -lr/(1 + eps) ~ -lr
        params = linear_params(0.5, 0.0)
        grads = NetworkParams(
            spec=params.spec, weights=[np.array([[1.0]])], biases=[np.array([0.0])]
        )
        adam_step(params, grads, AdamState.zeros_like(params), 0.01)
        expected_delta = -0.01 * 1.0 / (1.0 + 1e-8)
        np.testing.assert_allclose(params.weights[0][0, 0] - 0.5, expected_delta, rtol=1e-12)

    def test_deterministic(self):
        params = init_params(NetworkSpec([2, 3, 1]), 3)
        grads = init_params(NetworkSpec([2, 3, 1]), 4)
        out1, out2 = params.copy(), params.copy()
        st1, st2 = AdamState.zeros_like(params), AdamState.zeros_like(params)
        adam_step(out1, grads, st1, 1e-3)
        adam_step(out2, grads, st2, 1e-3)
        for a, b in zip(out1.weights, out2.weights):
            np.testing.assert_array_equal(a, b)
        assert st1.t == st2.t


def reference_train(params, x, y, epochs, batch_size, rng_seed, lr):
    """train() spelled out on per-layer arrays: one draw_dropout_masks call
    per batch, forward/backward, and the closed-form Adam update."""
    spec = params.spec
    n_layers = len(params.weights)
    arrays = [a.copy() for a in params.weights + params.biases]
    m = [np.zeros_like(a) for a in arrays]
    v = [np.zeros_like(a) for a in arrays]
    b1, b2, eps = ADAM_BETA1, ADAM_BETA2, ADAM_EPS
    rng = np.random.default_rng(rng_seed)
    t = 0
    for _ in range(epochs):
        order = rng.permutation(len(x))
        for start in range(0, len(x), batch_size):
            idx = order[start : start + batch_size]
            masks = draw_dropout_masks(spec, rng, len(idx)) if spec.dropout_rate > 0 else None
            current = NetworkParams(spec, arrays[:n_layers], arrays[n_layers:])
            grads = backward(current, forward(current, x[idx], masks), y[idx])
            t += 1
            for i, g in enumerate(grads.weights + grads.biases):
                m[i] = b1 * m[i] + (1.0 - b1) * g
                v[i] = b2 * v[i] + (1.0 - b2) * g * g
                m_hat = m[i] / (1.0 - b1**t)
                v_hat = v[i] / (1.0 - b2**t)
                arrays[i] = arrays[i] - lr * m_hat / (np.sqrt(v_hat) + eps)
    result = NetworkParams(spec, arrays[:n_layers], arrays[n_layers:])
    residuals = predict(result, x) - y
    return result, float(np.mean(residuals * residuals))


class TestTrain:
    def test_converges_on_linear_target(self):
        # y = 2x is exactly realizable: 2x = 2*relu(x) - 2*relu(-x)
        rng = np.random.default_rng(0)
        x = rng.uniform(-1, 1, size=(50, 1))
        y = 2.0 * x[:, 0]
        spec = NetworkSpec([1, 16, 1], dropout_rate=0.0, activation="relu")
        params = init_params(spec, 0)
        trained, mse = train(params, x, y, epochs=200, batch_size=8, rng_seed=1,
                             learning_rate=0.01)
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
                              learning_rate=0.01)
            assert params.all_finite(), f"non-finite parameters after step {step}"

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    @pytest.mark.parametrize("dropout", [0.0, 0.2])
    def test_matches_reference_loop_exactly(self, activation, dropout):
        # 37 rows in batches of 8 and then 16 end in ragged batches; the
        # second call starts from the first call's result (warm start)
        rng = np.random.default_rng(4)
        x = rng.normal(size=(37, 3))
        y = rng.normal(size=37)
        spec = NetworkSpec([3, 8, 6, 1], dropout_rate=dropout, activation=activation)
        lr = 0.01
        params = init_params(spec, 4)
        for batch_size, seed in ((8, 1), (16, 2)):
            got, got_mse = train(params, x, y, epochs=4, batch_size=batch_size,
                                 rng_seed=seed, learning_rate=lr)
            want, want_mse = reference_train(params, x, y, epochs=4, batch_size=batch_size,
                                             rng_seed=seed, lr=lr)
            for a, b in zip(got.weights + got.biases, want.weights + want.biases):
                np.testing.assert_array_equal(a, b)
            assert got_mse == want_mse
            params = got

    def test_result_owns_its_memory(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(20, 3))
        y = rng.normal(size=20)
        spec = NetworkSpec([3, 5, 1], dropout_rate=0.2)
        base, _ = train(init_params(spec, 0), x, y, epochs=2, batch_size=8, rng_seed=1)
        snapshot = base.copy()
        first, _ = train(base, x, y, epochs=2, batch_size=8, rng_seed=2)
        second, _ = train(base, x, y, epochs=2, batch_size=8, rng_seed=2)
        results = [base, first, second]
        for i, p in enumerate(results):
            assert all(np.shares_memory(a, p.flat) for a in p.weights + p.biases)
            for q in results[i + 1 :]:
                assert not np.shares_memory(p.flat, q.flat)
        np.testing.assert_array_equal(base.flat, snapshot.flat)
        np.testing.assert_array_equal(first.flat, second.flat)

    def test_empty_labeled_set_rejected(self):
        params = init_params(NetworkSpec([2, 3, 1]), 0)
        with pytest.raises(ValueError, match="non-empty"):
            train(params, np.zeros((0, 2)), np.zeros(0), epochs=1, batch_size=4, rng_seed=0)


class TestPredict:
    def test_predict_batch_matches_forward(self):
        params = init_params(NetworkSpec([4, 6, 1], activation="tanh"), 8)
        x = np.random.default_rng(3).normal(size=(7, 4))
        batched = predict(params, x)
        single = [outputs(params, row[None, :])[0] for row in x]
        np.testing.assert_allclose(batched, single, rtol=1e-12)
