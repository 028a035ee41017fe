import itertools

import numpy as np
import pytest

from netactive.bayesian import Committee, committee_train, mc_predict
from netactive.neural import (
    NetworkParams,
    NetworkSpec,
    TrainHyper,
    forward,
    init_params,
    predict,
)


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
    return outs.mean(axis=0), outs.var(axis=0, ddof=1)


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

    def test_validates_pass_count(self):
        _, params = two_unit_net()
        with pytest.raises(ValueError):
            mc_predict(params, np.array([[0.0, 0.0]]), n_passes=0, rng_seed=0)


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


class TestCommittee:
    def test_deterministic(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(30, 2))
        y = np.abs(x[:, 0])
        spec = NetworkSpec([2, 4, 1])
        a = committee_train(spec, x, y, n_members=2, base_seed=5, epochs=3, batch_size=8)
        b = committee_train(spec, x, y, n_members=2, base_seed=5, epochs=3, batch_size=8)
        for ma, mb in zip(a.members, b.members):
            for wa, wb in zip(ma.weights, mb.weights):
                np.testing.assert_array_equal(wa, wb)

    def test_members_differ(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(30, 2))
        y = np.abs(x[:, 0])
        committee = committee_train(
            NetworkSpec([2, 4, 1]), x, y, n_members=3, base_seed=5, epochs=3, batch_size=8
        )
        assert not np.array_equal(
            committee.members[0].weights[0], committee.members[1].weights[0]
        )

    def test_every_member_learns_realizable_target(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(-1, 1, size=(50, 1))
        y = 2.0 * x[:, 0]
        spec = NetworkSpec([1, 16, 1], activation="relu")
        committee = committee_train(
            spec, x, y, n_members=3, base_seed=0, epochs=200, batch_size=8,
            hyper=TrainHyper(learning_rate=0.01),
        )
        for member in committee.members:
            residuals = predict(member, x) - y
            assert float(np.mean(residuals**2)) < 1e-2

    def test_single_member_rejected(self):
        with pytest.raises(ValueError, match=">= 2"):
            committee_train(NetworkSpec([2, 2, 1]), np.zeros((5, 2)), np.zeros(5),
                            n_members=1, base_seed=0, epochs=1, batch_size=4)
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
