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


STREAM_TAGS = sorted(getattr(seeding, name) for name in dir(seeding) if name.startswith("STREAM_"))
# one word, two words, and past four words with a two-word master
INDICES = [0, 1, 2, 255, 256, 1000, 2**31, 2**32 - 1, 2**32, 2**40, 2**64 + 3]


@pytest.mark.parametrize("master", [0, 1, 2**32 - 1, 2**32, 2**63])
def test_derived_seeds_match_derive_seed(master):
    for tag in STREAM_TAGS + [0, 2**40]:  # and a zero tag, and a tag of two words
        expected = [seeding.derive_seed(master, i, tag) for i in INDICES]
        assert seeding.derive_seeds(master, INDICES, tag) == expected


def test_derived_seeds_of_no_index():
    assert seeding.derive_seeds(3, [], seeding.STREAM_SCORE) == []


def test_derived_seeds_refuse_negative_parts():
    with pytest.raises(ValueError):
        seeding.derive_seeds(-1, [0], seeding.STREAM_SCORE)
    with pytest.raises(ValueError):
        seeding.derive_seeds(0, [1, -1], seeding.STREAM_SCORE)


def draws(rng):
    """A mix of draws: doubles, normals, 32-bit bounded integers, and bytes."""
    return (rng.random(5).tobytes() + rng.standard_normal(3).tobytes()
            + rng.integers(0, 2**31, size=3).tobytes() + rng.bytes(7))


@pytest.mark.parametrize("seed", EDGE_SEEDS)
def test_reseeded_generator_draws_as_default_rng(seed):
    rng = np.random.default_rng(12)
    rng.integers(0, 2**31)  # leaves half of a 64-bit draw buffered
    seeding.reseed(rng.bit_generator, seeding.seed_states([seed])[0].tolist())
    assert draws(rng) == draws(np.random.default_rng(seed))


@pytest.mark.parametrize("master", [0, 7, 2**32])
def test_derived_generators_draw_as_default_rng(master):
    # across the first two block starts after index 0
    generators = seeding.derived_generators(master, seeding.STREAM_SCORE)
    for i in range(2 * seeding.STATE_BLOCK + 3):
        expected = np.random.default_rng(seeding.derive_seed(master, i, seeding.STREAM_SCORE))
        assert draws(next(generators)) == draws(expected)
