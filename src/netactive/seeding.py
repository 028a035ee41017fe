"""Deterministic derivation of independent per-purpose random seeds."""

from __future__ import annotations

import itertools
import operator
from typing import Iterable, Iterator, Sequence

import numpy as np

# Stream tags keep sibling generators (training shuffles, dropout masks,
# candidate selection, ...) independent within one run even though they
# all descend from a single master seed.
STREAM_INIT = 1
STREAM_TRAIN = 2
STREAM_SCORE = 3
STREAM_SELECT = 4
STREAM_COLLECT = 5
STREAM_ALEATORIC = 6
STREAM_PROBE = 7
STREAM_GMM_FIT = 8
STREAM_GMM_SAMPLE = 9
STREAM_QBC = 10
STREAM_ARRIVALS = 11


def derive_seed(master: int, *parts: int) -> int:
    """Mix a master seed with context tags into a fresh 32-bit seed.

    Mixing through SeedSequence keeps derived streams statistically
    independent even when the tags are small consecutive integers, and
    inserting a new tagged stream never shifts the existing ones.
    """
    seq = np.random.SeedSequence([int(master)] + [int(p) for p in parts])
    return int(seq.generate_state(1, np.uint32)[0])


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx) and
# PCG64's LCG multiplier (numpy/random/src/pcg64/pcg64.h).
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK_128 = (1 << 128) - 1


def _hash_constants(const: int, mult: int, calls: int) -> tuple[np.ndarray, np.ndarray]:
    """The (xor, multiply) constants of numpy's first `calls` hashmix calls.

    numpy threads one hash constant through the calls: call k xors with
    c_k and multiplies by c_(k+1) = c_k * mult mod 2**32."""
    chain = [const]
    for _ in range(calls):
        chain.append(chain[-1] * mult & 0xFFFFFFFF)
    return np.array(chain[:-1], np.uint32), np.array(chain[1:], np.uint32)


# mix_entropy hashes the 4 entropy words, then one word per (src, dst) pair
# of distinct pool slots; generate_state(4, uint64) hashes 8 pool words.
_ENTROPY_HASH = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE * _POOL_SIZE)
_STATE_HASH = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL_SIZE)


def _hashmix(value: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    value = (value ^ xor) * mult
    return value ^ value >> _XSHIFT


def seed_pools(seeds) -> np.ndarray:
    """`np.random.SeedSequence(s).pool` of each integer seed, as an (n, 4) uint32 array.

    A seed's entropy is its little-endian 32-bit words, and numpy hashes
    the words a seed below 2**128 lacks as zeros, so every seed mixes in one
    batch.  Negative seeds raise ValueError, as numpy does."""
    seeds = [operator.index(s) for s in seeds]
    if seeds and (min(seeds) < 0 or max(seeds) > _MASK_128):
        raise ValueError("seeds must be non-negative integers below 2**128")
    words = np.frombuffer(b"".join(s.to_bytes(16, "little") for s in seeds), "<u4")
    xor, mult = _ENTROPY_HASH
    pool = _hashmix(words.reshape(-1, _POOL_SIZE), xor[:_POOL_SIZE], mult[:_POOL_SIZE])
    k = _POOL_SIZE
    for src in range(_POOL_SIZE):
        # pool[src] stays put while it mixes into the other slots, in slot order
        dst = [d for d in range(_POOL_SIZE) if d != src]
        hashed = _hashmix(pool[:, src, None], xor[k:k + len(dst)], mult[k:k + len(dst)])
        mixed = _MIX_MULT_L * pool[:, dst] - _MIX_MULT_R * hashed
        pool[:, dst] = mixed ^ mixed >> _XSHIFT
        k += len(dst)
    return pool


def seed_states(seeds) -> np.ndarray:
    """`np.random.SeedSequence(s).generate_state(4, np.uint64)` of each seed, as (n, 4)."""
    pools = seed_pools(seeds)
    words = _hashmix(np.tile(pools, 2), *_STATE_HASH)
    return words.astype("<u4").view("<u8").astype(np.uint64)


def derive_seeds(master: int, indices: Iterable[int], tag: int) -> list[int]:
    """`[derive_seed(master, i, tag) for i in indices]`, bit for bit.

    SeedSequence reads the entropy [master, i, tag] as its parts' 32-bit
    words laid end to end (one word for a 0), so an entropy of at most four
    words is the entropy of the integer those words spell, and every such
    index mixes in one seed_pools batch; the seed is the first
    generate_state word.  An index whose entropy is longer, or a negative
    part, goes through derive_seed."""
    master, tag = operator.index(master), operator.index(tag)
    master_words, tag_words = _words(master), _words(tag)
    packed, scalar = [], {}
    for k, i in enumerate(map(operator.index, indices)):
        i_words = _words(i)
        if min(master, i, tag) < 0 or master_words + i_words + tag_words > _POOL_SIZE:
            scalar[k] = derive_seed(master, i, tag)
            packed.append(0)  # a placeholder row
        else:
            packed.append(master | (i | tag << 32 * i_words) << 32 * master_words)
    xor, mult = _STATE_HASH
    seeds = _hashmix(seed_pools(packed)[:, 0], xor[0], mult[0]).tolist()
    for k, seed in scalar.items():
        seeds[k] = seed
    return seeds


def _words(value: int) -> int:
    """How many 32-bit words SeedSequence reads from a non-negative integer."""
    return max(1, -(-value.bit_length() // 32))


def reseed(bit_generator: np.random.PCG64, state: Sequence[int]) -> None:
    """Set `bit_generator` to the state np.random.default_rng(s) starts in,
    given state = seed_states([s])[0] as Python ints w0..w3.

    default_rng(s) seeds a PCG64 with LCG increment
    inc = (w2 << 64 | w3) << 1 | 1 and state (inc + (w0 << 64 | w1)) * MULT
    + inc, both mod 2**128.  Reusing one generator this way skips the
    SeedSequence and the Generator that default_rng builds per seed: ~1 us
    a seed against ~8 us on a 2-vCPU Linux box.  derived_generators sets
    every state this way, seeded_normals only those whose first normal
    leaves the ziggurat's fast path."""
    w0, w1, w2, w3 = state
    inc = ((w2 << 64 | w3) << 1 | 1) & _MASK_128
    bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": ((inc + (w0 << 64 | w1)) * _PCG_MULT + inc) & _MASK_128, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }


# uint64 operands as 0-d arrays: numpy applies one to a short column ~3x
# faster than a Python int, which it converts on every call.
_U1, _U8, _U9, _U32, _U58, _U63, _U64 = (np.array(k, np.uint64) for k in (1, 8, 9, 32, 58, 63, 64))
_LO8, _LO32, _LO52 = (np.array((1 << k) - 1, np.uint64) for k in (8, 32, 52))
_MULT_HI, _MULT_LO = (np.array(k, np.uint64) for k in divmod(_PCG_MULT, 1 << 64))
_MULT_LO_LIMBS = _MULT_LO >> _U32, _MULT_LO & _LO32


def _mul_hi(a: np.ndarray, b_limbs: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """The high 64 bits of each a * b, for uint64 `a` and b's 32-bit limbs
    (high, low), in 32-bit limb products."""
    (a1, a0), (b1, b0) = (a >> _U32, a & _LO32), b_limbs
    p01, p10 = a0 * b1, a1 * b0
    mid = (a0 * b0 >> _U32) + (p01 & _LO32) + (p10 & _LO32)
    return a1 * b1 + (p01 >> _U32) + (p10 >> _U32) + (mid >> _U32)


def _lcg_step(hi, lo, inc_hi, inc_lo):
    """PCG64's step state * MULT + inc mod 2**128, on (high, low) uint64 halves."""
    out_hi = _mul_hi(lo, _MULT_LO_LIMBS) + hi * _MULT_LO + lo * _MULT_HI
    out_lo = lo * _MULT_LO + inc_lo
    return out_hi + inc_hi + (out_lo < inc_lo), out_lo


def _first_words(states: np.ndarray) -> np.ndarray:
    """The first 64-bit word default_rng(s) draws, for each row of seed_states.

    The seeded state is reseed's, and PCG64 steps before it outputs
    rotr64(hi ^ lo, hi >> 58) of the new state."""
    w0, w1, w2, w3 = states.T
    inc_hi, inc_lo = w2 << _U1 | w3 >> _U63, w3 << _U1 | _U1
    lo = inc_lo + w1
    hi, lo = _lcg_step(inc_hi + w0 + (lo < inc_lo), lo, inc_hi, inc_lo)
    hi, lo = _lcg_step(hi, lo, inc_hi, inc_lo)
    word, rot = hi ^ lo, hi >> _U58
    return word >> rot | word << (_U64 - rot & _U63)


def seeded_normals(seeds, scale: float) -> np.ndarray:
    """`[np.random.default_rng(s).normal(0.0, scale) for s in seeds]`, bit for bit.

    numpy draws a standard normal by the ziggurat method: a 64-bit word r
    gives the layer idx = r & 0xff, a sign bit and a 52-bit rabs, and
    rabs * wi[idx] is the normal when rabs < ki[idx].  That fast path is
    taken here for each seed's first word in batch; a seed that misses it
    (~1.5%: the tail, the wedge test, and layer 1, whose ki is 0) gets its
    state set on one reused generator (see reseed) and draws there.  On a
    2-vCPU Linux box, one BLAS thread, 68,118 seeds take 0.033 s against
    0.21 s when every seed is reseeded and drawn, but one seed ~92 us
    against ~67 us: ~60 more numpy calls on one-element columns cost more
    than one generator (numpy's own default_rng(s).normal takes ~10 us)."""
    states = seed_states(seeds)
    word = _first_words(states)
    layer = (word & _LO8).astype(np.intp)
    rabs = word >> _U9 & _LO52
    z = rabs.astype(float) * _ZIGGURAT_WI[layer]
    np.negative(z, out=z, where=(word >> _U8 & _U1).astype(bool))
    slow = np.flatnonzero(rabs >= _ZIGGURAT_KI[layer])
    if len(slow):
        bit_generator = np.random.PCG64(0)
        standard_normal = np.random.Generator(bit_generator).standard_normal
        for k, state in zip(slow.tolist(), states[slow].tolist()):
            reseed(bit_generator, state)
            z[k] = standard_normal()
    return 0.0 + scale * z  # rng.normal(loc, scale) is loc + scale * z


# Indices whose generator states derived_generators derives in one batch: a
# batch costs ~0.4 ms, paid by the index that starts it.
STATE_BLOCK = 256


def derived_generators(master: int, tag: int) -> Iterator[np.random.Generator]:
    """`np.random.default_rng(derive_seed(master, i, tag))` for i = 0, 1, ...,
    bit for bit in every draw.

    Every item is one reused generator, set to the next index's state: it
    is good until the next item is taken.  The states are derived
    STATE_BLOCK indices at a time (derive_seeds, then seed_states): ~3.5 us
    an index on a 2-vCPU Linux box against ~16 us for derive_seed and
    default_rng."""
    bit_generator = np.random.PCG64(0)
    rng = np.random.Generator(bit_generator)
    for lo in itertools.count(0, STATE_BLOCK):
        block = range(lo, lo + STATE_BLOCK)
        for state in seed_states(derive_seeds(master, block, tag)).tolist():
            reseed(bit_generator, state)
            yield rng


# numpy's ziggurat tables wi_double and ki_double
# (numpy/random/src/distributions/ziggurat_constants.h), little-endian.
_ZIGGURAT_WI = np.frombuffer(bytes.fromhex("""
79d915783b49cf3cc6f6fde30b8d8b3cb45b2c3caf50923c613b4438b97c953c0ca72fe8fc01983cbcd04c2e0c239a3c
f761382f4d009c3c7472745a2fac9d3cc3d54c2d48329f3cadbb8e27324da03c435d023b05f5a03c77364197a692a13c
f51a7a8fa227a23c80d863382eb5a23cf59157c03f3ca33c2fb1a2c19ebda33c559bff8def39a43ca7fe3d36bbb1a43c
74d31a627525a53c96ce07a78095a53cea7ed9cf3102a63c3d7ca361d26ba63c70050092a2d2a63ca6f846d3da36a73c
772ab310ad98a73c43f546ad45f8a73c770a4353cc55a83c9a767b9e64b1a83c98cf4ea92e0ba93cea1e2c824763a93c
46c5388ec9b9a93c2ca7a4dccc0eaa3c59cd776d6762aa3c3016106eadb4aa3c9c6c136db105ab3c297a42878455ab3c
3a9f528e36a4ab3c3282bf2ad6f1ab3cf34e59f9703eac3c613b32a5138aac3c8b2672fec9d4ac3c48b7800e9f1ead3c
101fe4299d67ad3cc3b82300ceafad3c5376f1a93af7ad3cfeedd2b5eb3dae3c006f7a33e983ae3cce82f9bd3ac9ae3c
2662f084e70daf3c88f6d854f651af3caed7879e6d95af3cac2efa7d53d8af3cec3442e0560db03c9a8f39f5402eb03c
fca5169eea4eb03c10a0725b566fb03c0bf47190868fb03c1361bc847dafb03c7fcc4b663dcfb03c6b08164bc8eeb03c
ee159532200eb13cbe0f3107472db13c41918e9f3e4cb13c1e20c4bf086bb13c34da781aa789b13c886dee511ba8b13c
cb2af8f866c6b13c2ed4e0938be4b13c9fa040998a02b23ce9c6c4726520b23c1fc3e97d1d3eb23cfb6ba90cb45bb23c
7fd31d662a79b23c1bd719c78196b23cda2eb862bbb3b23c53b8e162d8d0b23c8ea9cbe8d9edb23cd7486e0dc10ab33c
30b9f4e18e27b33ca15e26704444b33cd552cabae260b33c6a5805be6a7db33c64b2b26fdd99b33c033db8bf3bb6b33c
e01d569886d2b33c835a72debeeeb33c749ee071e50ab43c5d74a62dfb26b43ca4303ce80043b43c5dc7ca73f75eb43c
36c3669edf7ab43c2f8f4832ba96b43c5d4102f687b2b43cdc11b3ac49ceb43c05a6381600eab43c62555eefab05b53c
5a8b0af24d21b53c4f666ad5e63cb53cc8b21b4e7758b53c785f550e0074b53c14850ec6818fb53c591b2423fdaab53c
3d737dd172c6b53cd38c2f7be3e1b53c385e9fc84ffdb53cc31fa360b818b63ca2b0a2e81d34b63c0b26b704814fb63c
7296c957e26ab63c3731b1834286b63cb1b25029a2a1b63cbb43b3e801bdb63c52d3286162d8b63c54f86131c4f3b63c
eb688bf7270fb73cc61469518e2ab73cdcee70dcf745b73c1f73e5356561b73c49f4effad67cb73c93bdbac84d98b73c
09148b3ccab3b73cfb22dbf34ccfb73ce7de738cd6eab73c1fea86a46706b83c7686c8da0022b83c159f89cea23db83c
bdf5d11f4e59b83cc57e7a6f0375b83c2df7475fc390b83c43c005928eacb83c9c0ca1ab65c8b83c276a445149e4b83c
8fb573293a00b93c478328dc381cb93cfc0aef124638b93c8aa203796254b93ceed570bb8e70b93c312a2e89cb8cb93c
bf993f9319a9b93c2cd9d58c79c5b93c11746f2bece1b93c4ad2fa2672feb93c9236f9390c1bba3c5bc8a221bb37ba3c
88bb0b9e7f54ba3ca4a94a725a71ba3c3d31a0644c8eba3c08f19f3e56abba3ccef55acd78c8ba3c36b38be1b4e5ba3c
1aa1c34f0b03bb3c5b989af07c20bb3c000ce0a00a3ebb3c033dce41b55bbb3c27893fb97d79bb3c3cf7e5f16497bb3c
6e2585db6bb5bb3ca2c02e6b93d3bb3c83ae819bdcf1bb3ca016ec6c4810bc3c2d7af0e5d72ebc3c1c0d6e138c4dbc3c
0587ec08666cbc3c17a6ebe0668bbc3caba236bd8faabc3c90d63bc7e1c9bc3c37e068305ee9bc3c6e8f8b320609bd3c
20ef3710db28bd3c47c63315de48bd3c23f1e7961069bd3ca5fbd7f47389bd3c706e209909aabd3c0e49fcf8d2cabd3c
372e5295d1ebbd3c1cd249fb060dbe3cf646eac4742ebe3c88d1c1991c50be3c25fe972f0072be3c0abf2a4b2194be3c
086ff7c081b6be3c3aa7107623d9be3ca9ec016108fcbe3c2153c28a321fbf3c6d4db70fa442bf3c6801c9205f66bf3c
82978904668abf3cbf227118bbaebf3c85e72fd260d3bf3c0bf618c159f8bf3c75a0d347d40ec03c47c98f02a821c03c
ab02a983a934c03cc7f53e4eda47c03c7eb3adf63b5bc03c6826a723d06ec03c172e638f9882c03c54a2e8089796c03c
c4c07175cdaac03c48d4eed13dbfc03c303daa34ead3c03c936511cfd4e8c03cb69fa6effffdc03c417020046e13c13c
355dbb9b2129c13c6d09c4691d3fc13c3b2e60486455c13cf3ee9d3bf96bc13c6112d274df82c13caceb4e561a9ac13c
8e2f7f77adb1c13c94a671a99cc9c13c39aee4fbebe1c13c01d9e2c29ffac13c81cc049dbc13c23ceed36f7a472dc23c
249caca44547c23ce05876c7bc61c23c2e59a8fab27cc23c780e77cd2e98c23c520a2a5337b4c23c97db9631d4d0c23c
f578a9b10deec23ceeae56d2ec0bc33ca3a4685e7b2ac33ca312ae05c449c33c40a8337ad269c33c0a415692b38ac33c
fa88ae7075acc33ca60417b327cfc33c75f460aadbf2c33cdae5b99ca417c43c945e5415983dc43c153aa744ce64c43c
bc439c75628dc43c275a6b9d73b7c43c0289cd0d25e3c43c41ace9539f10c53c427e3a521140c53c1be44aa9b171c53c
d98d718bc0a5c53cfed03a248adcc53c4c1e86cf6916c63cea6a007bce53c63cc3e59fbe4095c63c32e2098d6bdbc63c
347a5ff02827c73c730609569579c73c8cced6f42dd4c73c34f229050339c83c147caabf0fabc83c96446f94e02ec93c
ab574001eecbc93c5a779478dc8fca3cb1fd78381f98cb3c33ad0982b43bcd3c
"""), "<f8")
_ZIGGURAT_KI = np.frombuffer(bytes.fromhex("""
6aef25803df30e000000000000000000a8c6fb98be080c004281bdfa54a30d00eaeec17ef6510e007ef7d3e955b20e00
b9ca7e814bef0e00aa44fa0a47190f0018cbff61ed370f005c256195464f0f0096a31be4a5610f00a49653757a700f00
9a4428ecb27c0f00d357630cf1860f00de258357a68f0f00dad04dc724970f0009f5db07a99d0f0074fa81f560a30f00
f84b5bde6fa80f00dc54d360f1ac0f000fb91867fbb00f00c674538d9fb40f0077fe6623ecb70f000ee5a1e9ecba0f00
ed0b049dabbd0f00576cff6030c00f0048a2371082c20f00d15be27aa6c40f0031ee7a97a2c60f00a49628a97ac80f00
85de4b5e32ca0f001a2302e9cccb0f00c439f8124dcd0f0099ec8f4db5ce0f0030c91dbf07d00f00e6c4d64d46d10f00
50f4e2a872d20f001ec9f04f8ed30f0078b490999ad40f00530f92b898d50f00ec998ec089d60f0032e8c8a96ed70f00
e8087b5448d80f008c2cad8b17d90f00d2ada707ddd90f008c5e107099da0f00202ec05d4ddb0f00d0fc5b5cf9db0f00
7d9ab9eb9ddc0f009d7218813bdd0f00902f3488d2dd0f00649f366463de0f004e518d70eede0f002eb4a60174df0f00
40ed9965f4df0f00f224bce46fe00f0058a225c2e6e00f004cb8283c59e10f00993fbc8cc7e10f00aa1cdbe931e20f00
911bda8598e20f008641b58ffbe20f004a8d55335be30f002a00d099b7e30f007fad9ee910e40f003477d44667e40f00
5c094cd3bae40f002495d2ae0be50f0078bc4ef759e50f001212e4c8a5e50f008986133eefe50f007810d96f36e60f00
78d5c6757be60f00aa111e66bee60f00f2f4e555ffe60f0002a700593ee70f00399e3e827be70f00a27070e3b6e70f00
4342778df0e70f008cf0539028e80f003a1735fb5ee80f00640884dc93e80f00bccef041c7e80f00f64e7d38f9e80f00
1d9b87cc29e90f00ea88d30959e90f00a29a93fb86e90f00664871acb3e90f00d5b69426dfe90f007ce6ab7309ea0f00
a466f19c32ea0f002c9532ab5aea0f001a74d5a681ea0f00f01cde97a7ea0f0020d9f385ccea0f003ce66578f0ea0f00
13ec2f7613eb0f004a2afe8535eb0f00b46231ae56eb0f00fa84e2f476eb0f001420e65f96eb0f007c9dcff4b4eb0f00
d049f4b8d2eb0f003e2e6eb1efeb0f00e8bd1ee30bec0f00155ab15227ec0f00d3af9d0442ec0f0096f129fd5bec0f00
f4ee6c4075ec0f00b40c50d28dec0f00121f91b6a5ec0f00fe27c4f0bcec0f0015fb5484d3ec0f00b3c88874e9ec0f00
b7917fc4feec0f002885357713ed0f000349848f27ed0f004c2f24103bed0f006e58adfb4ded0f00ddc3985460ed0f00
e84f411d72ed0f0082a9e45783ed0f00c82ca40694ed0f0004b7852ba4ed0f00b46a74c8b3ed0f00526641dfc2ed0f00
526ea471d1ed0f00d38a3c81dfed0f008099900feded0f0014d40f1efaed0f00c44b12ae06ee0f00065ad9c012ee0f00
e00690571eee0f0024654b7329ee0f00bce40a1534ee0f003c9bb83d3eee0f00f48229ee47ee0f0086b01d2751ee0f00
417f40e959ee0f002eb4283562ee0f00f197580b6aee0f007a073e6c71ee0f00827b325878ee0f00ba067bcf7eee0f00
b24a48d284ee0f004363b6608aee0f0051c8cc7a8fee0f00da257e2094ee0f00ea29a85198ee0f005c48130e9cee0f00
f47372559fee0f00aecc6227a2ee0f00ac426b83a4ee0f00712dfc68a6ee0f00fad66ed7a7ee0f000afa04cea8ee0f00
3b33e84ba9ee0f0010642950a9ee0f005e07c0d9a8ee0f00547689e7a7ee0f00241d4878a6ee0f00839ea28aa4ee0f00
dae4221da2ee0f002420352e9fee0f002eaf26bc9bee0f00e4f224c597ee0f003a0a3c4793ee0f00167555408eee0f00
7a9c36ae88ee0f00fd3d7f8e82ee0f0088b8a7de7bee0f00ff37ff9b74ee0f005ebda9c36cee0f007e009e5264ee0f00
8828a3455bee0f00b6574e9951ee0f00cf06004a47ee0f00502ce1533cee0f00d82ae0b230ee0f000582ad6224ee0f00
5a3cb85e17ee0f0047142aa209ee0f00cc49e327fbed0f006c2176eaebed0f007e0422e4dbed0f00d339ce0ecbed0f00
f42c0464b9ed0f00c938e9dca6ed0f008de9377293ed0f0036a8381c7fed0f002bc0b9d269ed0f0000ae068d53ed0f00
22a4de413ced0f00d82f6ae723ed0f0044e62f730aed0f0034fe07daefec0f00b8b70e10d4ec0f00b46e9508b7ec0f00
c13012b698ec0f0078a90d0a79ec0f00fe310ff557ec0f0062c9866635ec0f0035b3b44c11ec0f00d06f8e94ebeb0f00
92b6a029c4eb0f00dc0ceef59aeb0f004285c9e16feb0f009e1fadd342eb0f004b2d0bb013eb0f00e9021a59e2ea0f00
572299aeaeea0f0026e38e8d78ea0f00e573fdcf3fea0f00f6d98d4c04ea0f003b562fd6c5e90f00a447a93b84e90f00
28471d473fe90f00d6c576bdf6e80f00e6e8c45daae80f00eab17ae059e80f0040a990f604e80f00c0338248abe70f00
a56a1f754ce70f0002a22a10e8e60f00d8abb6a07de60f007e30389f0ce60f0042f7387394e50f008072977014e50f00
58f436d48be40f00371efdbff9e30f009cb1ee355de30f00fee42f12b5e20f005755990300e20f00148378823ce10f00
b067eec468e00f00aa712bb082df0f00aafe7ec587de0f00fd3bc60975dd0f0013bf29e546dc0f0082022ef8f8da0f00
75bab2e185d90f0004cf48efe6d70f000b65bdad13d60f0012f0e24901d40f00acc7b4a7a1d10f009e1f7604e2ce0f00
b2115ed8a8cb0f00222dcd6ed2c70f00ed221e2f2bc30f003ab8c08165bd0f00345400c406b60f0074282a5840ac0f00
9845011e979e0f00fc1da448fa890f002c30f0f7c5660f004a1c334b5a1a0f00
"""), "<u8")
