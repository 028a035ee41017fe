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


# numpy's ziggurat draws a standard normal from one 64-bit word r: layer
# r & 0xff, sign bit r >> 8 & 1 and rabs = r >> 9 & (2**52 - 1).  A PCG64
# whose state S0 steps to S1 = r (high half 0) outputs r next, since PCG64
# steps before it outputs rotr64(hi ^ lo, hi >> 58) of the new state.
PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
INC = 0x5851F42D4C957F2D14057B7EF767814F


def crafted_generator(r):
    """A PCG64 whose next output word is r."""
    bit_generator = np.random.PCG64(0)
    state = (r - INC) * pow(PCG_MULT, -1, 2**128) % 2**128
    bit_generator.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": INC},
                           "has_uint32": 0, "uinteger": 0}
    return bit_generator


def crafted_draw(r):
    """The normal numpy draws from first word r, and whether it took one step."""
    bit_generator = crafted_generator(r)
    z = np.random.Generator(bit_generator).standard_normal()
    return z, bit_generator.state["state"]["state"] == r


def word(layer, rabs, sign=0):
    return layer | sign << 8 | rabs << 9


def test_crafted_state_outputs_chosen_word():
    r = word(37, 12345, sign=1)
    assert int(crafted_generator(r).random_raw()) == r


def test_ziggurat_tables_match_numpy():
    wi, ki = seeding._ZIGGURAT_WI, seeding._ZIGGURAT_KI
    assert wi.shape == ki.shape == (256,) and ki[1] == 0  # layer 1 always leaves the fast path
    for layer in range(256):
        # rabs = 1 draws wi itself (layer 1's wedge test accepts so small a normal)
        z, _ = crafted_draw(word(layer, 1))
        assert np.float64(z).tobytes() == wi[layer].tobytes(), layer
        z, _ = crafted_draw(word(layer, 1, sign=1))
        assert np.float64(z).tobytes() == (-wi[layer]).tobytes(), layer
        if layer != 1:
            # the fast path takes rabs < ki and nothing above
            limit = int(ki[layer])
            assert 0 < limit < 2**52
            assert crafted_draw(word(layer, limit - 1))[1], layer
            assert not crafted_draw(word(layer, limit))[1], layer
    assert not crafted_draw(word(1, 0))[1]


@pytest.fixture
def reseed_calls(monkeypatch):
    """A list that gets one entry per seeding.reseed call."""
    calls = []
    real = seeding.reseed
    monkeypatch.setattr(seeding, "reseed", lambda *args: calls.append(1) or real(*args))
    return calls


def test_fast_path_ends_at_ki(monkeypatch, reseed_calls):
    # words with rabs = ki - 1 take the fast path, rabs = ki and layer 1 do not
    ki = seeding._ZIGGURAT_KI
    layers = [layer for layer in range(256) if layer != 1]
    fast = [word(layer, int(ki[layer]) - 1, sign=layer % 2) for layer in layers]
    words = np.array(fast + [word(layer, int(ki[layer])) for layer in layers] + [word(1, 0)],
                     np.uint64)
    monkeypatch.setattr(seeding, "_first_words", lambda states: words)
    z = seeding.seeded_normals(range(len(words)), 1.0)
    assert len(reseed_calls) == len(layers) + 1
    expected = np.array([crafted_draw(r)[0] for r in fast])
    assert z[:len(fast)].tobytes() == expected.tobytes()


def first_draw_steps(seed):
    """How many words default_rng(seed)'s first normal takes, and its first word."""
    rng = np.random.default_rng(seed)
    rng.standard_normal()
    after = rng.bit_generator.state["state"]["state"]
    reference = np.random.default_rng(seed).bit_generator
    first = int(reference.random_raw())
    steps = 1
    while reference.state["state"]["state"] != after:
        reference.random_raw()
        steps += 1
    return steps, first


def slow_branch(seed):
    """The ziggurat branch of default_rng(seed)'s first normal: "fast", "tail"
    (layer 0), "wedge_accept" (two words) or "wedge_reject" (a redraw)."""
    steps, first = first_draw_steps(seed)
    if steps == 1:
        return "fast"
    if first & 0xFF == 0:
        return "tail"
    return "wedge_accept" if steps == 2 else "wedge_reject"


@pytest.mark.parametrize("branch", ["tail", "wedge_accept", "wedge_reject"])
def test_slow_branch_seeds_match_numpy(branch):
    found = [s for s in range(5000) if slow_branch(s) == branch][:5]
    assert found, branch
    for scale in (50.0, 0.3):
        expected = np.array([np.random.default_rng(s).normal(0.0, scale) for s in found])
        assert seeding.seeded_normals(found, scale).tobytes() == expected.tobytes()
        # and among fast-path seeds, in one batch
        mixed = list(range(40)) + found
        expected = np.array([np.random.default_rng(s).normal(0.0, scale) for s in mixed])
        assert seeding.seeded_normals(mixed, scale).tobytes() == expected.tobytes()


def test_only_slow_path_seeds_are_reseeded(reseed_calls):
    seeds = random_seeds()
    slow = sum(first_draw_steps(s)[0] > 1 for s in seeds)
    assert 0 < slow < len(seeds) // 20
    seeding.seeded_normals(seeds, 50.0)
    assert len(reseed_calls) == slow
