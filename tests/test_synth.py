import hashlib
import math

import numpy as np
import pytest

from netactive import synth
from netactive.dataset import load_csv, split_pool
from netactive.neural import NetworkSpec, init_params, predict, train
from netactive.synth import (
    MODE_DRIVING,
    MODE_MAPPING,
    MODE_WALKING,
    N_FEATURES,
    GaussianMixture,
    TwinWorld,
    fit_gmm,
    generate_synthetic_dataset,
    gmm_log_likelihood,
    project_to_schema,
    realize_scenario,
    sample_gmm,
    twin_label,
    write_synthetic_csv,
)


class TestFitGmm:
    def test_single_component_closed_form(self):
        rng = np.random.default_rng(0)
        x = rng.normal(3.0, 2.0, size=(200, 4))
        gmm = fit_gmm(x, k=1, em_iters=10, rng_seed=0)
        np.testing.assert_allclose(gmm.means[0], x.mean(axis=0), atol=1e-9)
        np.testing.assert_allclose(gmm.variances[0], x.var(axis=0), atol=1e-9)
        np.testing.assert_allclose(gmm.weights, [1.0])

    def test_zero_iterations_returns_initialization(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(50, 2))
        gmm = fit_gmm(x, k=2, em_iters=0, rng_seed=3)
        assert gmm.log_likelihood_trace == []
        assert gmm.n_components == 2

    def test_two_cluster_recovery(self):
        # generate-and-recover: centers 100 apart, unit variance
        for seed in range(10):
            rng = np.random.default_rng(seed)
            a = rng.normal(0.0, 1.0, size=(150, 2))
            b = rng.normal(100.0, 1.0, size=(150, 2))
            x = np.vstack([a, b])
            gmm = fit_gmm(x, k=2, em_iters=100, rng_seed=seed)
            means = gmm.means[np.argsort(gmm.means[:, 0])]
            assert np.all(np.abs(means[0] - 0.0) < 0.5), f"seed {seed}"
            assert np.all(np.abs(means[1] - 100.0) < 0.5), f"seed {seed}"

    def test_log_likelihood_non_decreasing(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            k = int(rng.integers(1, 5))
            x = rng.normal(size=(100, 3)) + rng.integers(0, 3, size=(100, 1)) * 4.0
            gmm = fit_gmm(x, k=k, em_iters=60, rng_seed=seed)
            trace = gmm.log_likelihood_trace
            assert len(trace) >= 1
            diffs = np.diff(trace)
            assert np.all(diffs >= -1e-9), f"seed {seed}: decreasing ll {diffs.min()}"

    def test_fewer_points_than_components(self):
        with pytest.raises(ValueError, match="at least"):
            fit_gmm(np.zeros((2, 3)), k=5, em_iters=1, rng_seed=0)

    def test_weights_validated(self):
        with pytest.raises(ValueError, match="sum to 1"):
            GaussianMixture(
                weights=[0.5, 0.6], means=np.zeros((2, 2)), variances=np.ones((2, 2))
            )


class TestSampleGmm:
    def test_zero_draws(self):
        gmm = GaussianMixture(weights=[1.0], means=np.zeros((1, 3)), variances=np.ones((1, 3)))
        assert sample_gmm(gmm, 0, rng_seed=0).shape == (0, 3)

    def test_floor_variance_stays_near_mean(self):
        gmm = GaussianMixture(
            weights=[1.0], means=np.full((1, 2), 7.0), variances=np.full((1, 2), 1e-6)
        )
        draws = sample_gmm(gmm, 200, rng_seed=1)
        assert np.all(np.abs(draws - 7.0) <= 5 * math.sqrt(1e-6))

    def test_component_frequencies(self):
        # 10,000 draws from weights (0.7, 0.3): binomial 3-sigma bounds
        gmm = GaussianMixture(
            weights=[0.7, 0.3],
            means=np.array([[0.0], [1000.0]]),
            variances=np.ones((2, 1)),
        )
        draws = sample_gmm(gmm, 10_000, rng_seed=5)
        near_first = int(np.sum(draws[:, 0] < 500.0))
        assert abs(near_first - 7000) <= 150
        assert abs((10_000 - near_first) - 3000) <= 150

    def test_deterministic(self):
        gmm = GaussianMixture(
            weights=[0.4, 0.6], means=np.zeros((2, 2)), variances=np.ones((2, 2))
        )
        np.testing.assert_array_equal(sample_gmm(gmm, 50, 9), sample_gmm(gmm, 50, 9))


class TestTwinLabel:
    def test_at_base_station_walking(self):
        world = TwinWorld(noise_std=0.0)
        f = np.zeros(N_FEATURES)
        f[0], f[1] = world.base_stations[0]
        f[3] = MODE_WALKING
        assert twin_label(world, f, noise_seed=0) == 2000.0

    def test_at_base_station_driving(self):
        world = TwinWorld(noise_std=0.0)
        f = np.zeros(N_FEATURES)
        f[0], f[1] = world.base_stations[0]
        f[3] = MODE_DRIVING
        assert twin_label(world, f, noise_seed=0) == 1600.0

    def test_one_range_scale_away(self):
        # d = range_scale with the compass aligned toward the station
        world = TwinWorld(
            base_stations=np.array([[0.0, 0.0], [5000.0, 5000.0], [-5000.0, 5000.0]]),
            blockage_zones=[],
            noise_std=0.0,
        )
        f = np.zeros(N_FEATURES)
        f[0], f[1] = -300.0, 0.0  # 300 m west of the station, facing east
        f[3] = MODE_WALKING
        f[4] = 0.0
        expected = 2000.0 * math.exp(-1.0)
        np.testing.assert_allclose(twin_label(world, f, noise_seed=0), expected, rtol=1e-12)
        assert round(expected, 2) == 735.76

    def test_blockage_attenuation(self):
        world = TwinWorld(noise_std=0.0)
        zone = world.blockage_zones[0]
        inside = np.zeros(N_FEATURES)
        inside[0] = (zone.x_min + zone.x_max) / 2
        inside[1] = (zone.y_min + zone.y_max) / 2
        inside[3] = MODE_WALKING
        outside = inside.copy()
        outside[1] = zone.y_max + 50.0
        assert twin_label(world, inside, 0) < twin_label(world, outside, 0)

    def test_unknown_mode_code(self):
        world = TwinWorld(noise_std=0.0)
        f = np.zeros(N_FEATURES)
        f[3] = 2.5
        with pytest.raises(ValueError, match="mode code"):
            twin_label(world, f, 0)

    def test_noise_free_is_pure(self):
        world = TwinWorld(noise_std=0.0)
        f = np.zeros(N_FEATURES)
        f[0], f[1], f[3] = 10.0, 20.0, MODE_WALKING
        assert twin_label(world, f, 1) == twin_label(world, f, 2)

    def test_noisy_is_deterministic_per_seed(self):
        world = TwinWorld(noise_std=50.0)
        f = np.zeros(N_FEATURES)
        f[3] = MODE_WALKING
        assert twin_label(world, f, 7) == twin_label(world, f, 7)
        assert twin_label(world, f, 7) != twin_label(world, f, 8)

    def test_clamped_at_zero(self):
        world = TwinWorld(noise_std=0.0, peak_rate=1.0)
        f = np.zeros(N_FEATURES)
        f[0], f[1], f[3] = 1e6, 1e6, MODE_WALKING  # effectively out of range
        assert twin_label(world, f, 0) == 0.0


class TestLabelNoise:
    def test_batch_equals_one_generator_per_seed(self):
        world = TwinWorld(noise_std=50.0)
        seeds = [0, 7, 2**31 - 1, 12345]
        expected = [np.random.default_rng(s).normal(0.0, 50.0) for s in seeds]
        assert synth._label_noise(world, seeds).tolist() == expected

    def test_noise_free_world_draws_nothing(self, monkeypatch):
        def no_generator(*args, **kwargs):
            raise AssertionError("a noise-free world built a generator")

        for name in ("default_rng", "PCG64", "Generator", "SeedSequence"):
            monkeypatch.setattr(np.random, name, no_generator)
        noise = synth._label_noise(TwinWorld(noise_std=0.0), [3, 1, 4])
        assert noise.tolist() == [0.0, 0.0, 0.0]

    def test_negative_seed_raises(self):
        with pytest.raises(ValueError, match="non-negative"):
            twin_label(TwinWorld(noise_std=50.0), np.zeros(N_FEATURES), -1)

    def test_corpus_builds_one_generator(self, monkeypatch):
        # the corpus stream is the only default_rng: a per-sample label-noise
        # generator would make 301 calls here
        calls = []
        real = np.random.default_rng

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(np.random, "default_rng", counting)
        corpus = generate_synthetic_dataset(TwinWorld(), 300, rng_seed=5)
        assert calls == [(5,)]
        assert np.isfinite(corpus.label).all()


class TestGenerateSyntheticDataset:
    def test_schema_contract(self):
        world = TwinWorld()
        samples = generate_synthetic_dataset(world, 5000, rng_seed=0)
        assert len(samples) == 5000
        assert all(len(s.features) == N_FEATURES for s in samples)
        assert all(s.label is not None and s.label >= 0.0 for s in samples)

    def test_deterministic(self):
        world = TwinWorld()
        a = generate_synthetic_dataset(world, 100, rng_seed=4)
        b = generate_synthetic_dataset(world, 100, rng_seed=4)
        for sa, sb in zip(a, b):
            np.testing.assert_array_equal(sa.features, sb.features)
            assert sa.label == sb.label

    def test_label_variance_law_of_total_variance(self):
        # Var(label) ~ Var_x(noise-free label) + noise_std^2, within 30%
        world = TwinWorld(noise_std=50.0)
        quiet = TwinWorld(noise_std=0.0)
        samples = generate_synthetic_dataset(world, 4000, rng_seed=11)
        labels = np.array([s.label for s in samples])
        noise_free = np.array([twin_label(quiet, s.features, 0) for s in samples])
        predicted_var = noise_free.var() + world.noise_std**2
        ratio = labels.var() / predicted_var
        assert 0.7 < ratio < 1.3

    def test_learnable_by_default_network(self):
        # a trained network must beat the mean predictor on held-out data
        world = TwinWorld()
        samples = generate_synthetic_dataset(world, 5000, rng_seed=2)
        pool = split_pool(samples, test_fraction=0.2, seed_labeled_fraction=0.999, rng_seed=0)
        from netactive.dataset import fit_normalizer

        pool.normalizer = fit_normalizer(pool)
        train_ids = sorted(pool.labeled)
        x = pool.normalized_features(train_ids)
        y = pool.labels_of(train_ids)
        spec = NetworkSpec([N_FEATURES, 64, 64, 1], dropout_rate=0.2)
        params = init_params(spec, 0)
        params, _ = train(params, x, y, epochs=60, batch_size=64, rng_seed=0,
                          learning_rate=1e-3)
        test_ids = sorted(pool.test)
        x_test = pool.normalized_features(test_ids)
        y_test = pool.labels_of(test_ids)
        residuals = predict(params, x_test) - y_test
        rmse = np.sqrt(np.mean(residuals * residuals))
        assert rmse < y_test.std()


def _corpus_digest(samples) -> str:
    h = hashlib.sha256()
    h.update(np.stack([s.features for s in samples]).tobytes())
    h.update(np.array([s.label for s in samples]).tobytes())
    return h.hexdigest()


ALT_WORLD = dict(noise_std=0.0, orientation_lobes=2, blockage_zones=[], walking_fraction=0.3)


class TestCorpusFingerprint:
    """A corpus is a pure function of (world, n, seed): these digests pin its
    features and labels bit for bit across any rewrite of the generator."""

    @pytest.mark.parametrize("world_kwargs, digest", [
        ({}, "04154bd84e18ac4d97e838fa77470819526ffd2e7917395b02ac977be9bff440"),
        (ALT_WORLD, "8f5c6e0145e7bcfdc1c179d19d02fb69d1a03ec850fb6a7c8a50504188412a84"),
    ], ids=["default_world", "alt_world"])
    def test_corpus_digest(self, world_kwargs, digest):
        samples = generate_synthetic_dataset(TwinWorld(**world_kwargs), 5000, rng_seed=0)
        assert _corpus_digest(samples) == digest

    def test_realized_scenario_and_label(self):
        world = TwinWorld()
        proposal = np.array([12.5, -40.25, -1.5, 0.7, 725.0, -30.0] + [3.0] * 13)
        raw = realize_scenario(world, proposal, np.random.default_rng(123))
        assert raw.tolist() == [
            12.5, -40.25, 0.0, 1.0, 5.0, 330.0,
            203.31219622332335, 146.9774384898578, 101.91900889766329,
            -46.025684387593124, -41.67072370309712, -38.53448272922678,
            2.0, -0.06364636463709805, 42.14632249674935,
            0.08715574274765817, 0.9961946980917455, -0.5000000000000004, 0.8660254037844384,
        ]
        assert twin_label(world, raw, 99) == 224.93030329982994

    @pytest.mark.parametrize("world_kwargs", [{}, ALT_WORLD], ids=["default_world", "alt_world"])
    def test_prefix_equals_smaller_corpus(self, world_kwargs):
        world = TwinWorld(**world_kwargs)
        full = generate_synthetic_dataset(world, 1000, rng_seed=3)
        for n in (1, 3, 17):
            small = generate_synthetic_dataset(world, n, rng_seed=3)
            assert _corpus_digest(small) == _corpus_digest(full[:n]), f"n={n}"

    def test_block_size_does_not_change_the_corpus(self, monkeypatch):
        world = TwinWorld()
        whole = generate_synthetic_dataset(world, 300, rng_seed=5)
        monkeypatch.setattr(synth, "GENERATOR_BLOCK_ROWS", 7)
        assert _corpus_digest(generate_synthetic_dataset(world, 300, rng_seed=5)) == (
            _corpus_digest(whole))


class TestProjectToSchema:
    def test_rounds_mode_and_clamps_speed(self):
        world = TwinWorld()
        raw = np.zeros(N_FEATURES)
        raw[2] = -3.0
        raw[3] = 0.8
        fixed = project_to_schema(world, raw)
        assert fixed[3] == 1.0
        assert fixed[2] == 0.0
        # projection never mutates its input
        assert raw[3] == 0.8


class TestCsvRoundTrip:
    def test_roundtrip_through_ingestion(self, tmp_path):
        world = TwinWorld()
        samples = generate_synthetic_dataset(world, 50, rng_seed=6)
        path = tmp_path / "synth.csv"
        write_synthetic_csv(samples, str(path))
        result = load_csv(str(path), "throughput", categorical_maps={"mode": MODE_MAPPING})
        assert len(result.samples) == 50
        assert result.rejected_rows == 0
        for original, loaded in zip(samples, result.samples):
            np.testing.assert_array_equal(original.features, loaded.features)
            assert original.label == loaded.label
