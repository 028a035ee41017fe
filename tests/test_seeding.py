import numpy as np
import pytest

from netactive import seeding

EDGE_SEEDS = [0, 1, 2**31 - 1, 2**32 - 1, 2**32, 2**64 - 1, 2**127]


def random_seeds(n=10_000):
    """Seeds of every bit length from 0 to 128, so every entropy word count occurs."""
    rng = np.random.default_rng(2024)
    return [int.from_bytes(rng.bytes(16), "little") >> int(rng.integers(0, 129))
            for _ in range(n)]


@pytest.fixture(scope="module", params=["edge", "random"])
def seeds(request):
    return EDGE_SEEDS if request.param == "edge" else random_seeds()


def test_pools_match_numpy(seeds):
    expected = np.array([np.random.SeedSequence(s).pool for s in seeds], dtype=np.uint32)
    assert seeding.seed_pools(seeds).tobytes() == expected.tobytes()


def test_states_match_numpy(seeds):
    expected = np.array([np.random.SeedSequence(s).generate_state(4, np.uint64) for s in seeds])
    assert seeding.seed_states(seeds).tobytes() == expected.tobytes()


@pytest.mark.parametrize("scale", [50.0, 0.3])
def test_first_normals_match_numpy(seeds, scale):
    expected = np.array([np.random.default_rng(s).normal(0.0, scale) for s in seeds])
    assert seeding.seeded_normals(seeds, scale).tobytes() == expected.tobytes()


def test_int64_array_of_seeds_matches_numpy():
    # the corpus generator hands its noise seeds over as an int64 array
    seeds = np.random.default_rng(3).integers(0, 2**31, size=500)
    expected = np.array([np.random.default_rng(s).normal(0.0, 50.0) for s in seeds.tolist()])
    assert seeding.seeded_normals(seeds, 50.0).tobytes() == expected.tobytes()


@pytest.mark.parametrize("seeds", [[-1], [0, 5, -2]])
def test_negative_seed_raises_as_numpy_does(seeds):
    with pytest.raises(ValueError):
        np.random.default_rng(min(seeds))
    with pytest.raises(ValueError, match="non-negative"):
        seeding.seeded_normals(seeds, 1.0)


def test_no_seeds_give_no_normals():
    out = seeding.seeded_normals([], 50.0)
    assert out.dtype == np.float64 and out.shape == (0,)
