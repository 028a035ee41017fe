"""Deterministic derivation of independent per-purpose random seeds."""

from __future__ import annotations

import operator

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


def seeded_normals(seeds, scale: float) -> np.ndarray:
    """`[np.random.default_rng(s).normal(0.0, scale) for s in seeds]`, bit for bit.

    default_rng(s) seeds a PCG64 from w = seed_states([s])[0]: its LCG
    increment is inc = (w2 << 64 | w3) << 1 | 1 and its state
    (inc + (w0 << 64 | w1)) * MULT + inc, both mod 2**128.  Setting each
    seed's state on one reused generator skips a SeedSequence and a
    generator per seed.  On a 2-vCPU Linux box that is 0.25 s against
    0.70 s for 68,118 seeds, but ~80 us against ~11 us for one seed."""
    bit_generator = np.random.PCG64(0)
    full = bit_generator.state
    standard_normal = np.random.Generator(bit_generator).standard_normal
    z = []
    for w0, w1, w2, w3 in seed_states(seeds).tolist():
        inc = ((w2 << 64 | w3) << 1 | 1) & _MASK_128
        full["state"] = {"state": ((inc + (w0 << 64 | w1)) * _PCG_MULT + inc) & _MASK_128,
                         "inc": inc}
        bit_generator.state = full
        z.append(standard_normal())
    return 0.0 + scale * np.array(z)  # rng.normal(loc, scale) is loc + scale * z
