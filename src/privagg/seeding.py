"""Deterministic RNG derivation.

Every random draw in the package flows from a single master seed through
``derive_rng(master_seed, domain, *indices)``, the module's one public
function.  The stream for (seed, *path) is bit for bit the one numpy gives
for

    Generator(PCG64(SeedSequence(seed mod 2^64, spawn_key=path)))

so independent streams never collide, runs are bit-reproducible for a
fixed master seed, and any label can be reproduced with numpy alone.

How the stream is computed.  SeedSequence splits the seed and each path
item into little-endian 32-bit words (0 is the one word 0; a negative item
raises ``ValueError``), pads the seed to four words when a path follows,
and hashes the words one at a time into a four-word pool, advancing a hash
constant by one multiply per hash.  The pool then yields eight 32-bit
words, read as the four uint64 words that seed PCG64.  A batch of queries
changes only the last path item, so ``_prefix`` caches, per
(seed, path[:-1]), the pool numpy's own SeedSequence builds for that prefix
and the hash constant its mixing leaves: INIT_A * MULT_A^(16 + 4w) mod 2^32
for w words of path[:-1] (16 hashes fill and cross-mix the pool; each later
word takes 4).  ``derive_rng`` then mixes in the words of path[-1] and
derives the output words in plain Python integers, using numpy's constants.
``tests/test_seeding.py`` checks the streams against SeedSequence.

``rng.bit_generator.seed_seq`` is therefore a fixed-words sequence that
hands PCG64 its four seed words; unlike a SeedSequence it cannot spawn
children or produce other state sizes.

Domain codes (first path element):
    0  mechanism noise (one stream per query)
    1  synthetic teacher votes (one stream per query)
    2  synthetic true labels
    3  Monte Carlo oracle trials
    4  verification-sweep case generation

Mechanism noise paths; batches are drawn only by ``mechanism.noisy_labels``:
    (0, i)       query i of ``cli.aggregate_votes`` (``aggregate``)
    (0, 0, i)    query i of ``simulation.budget_report`` (``simulate --mode budget``)
    (0, gi, i)   query i at the gi-th gamma of ``simulation.sweep_gamma``
    (0, 0)       a lone ``noisy_argmax`` call given no rng
"""
from __future__ import annotations

import functools
import operator
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

MECHANISM_NOISE = 0
SYNTH_VOTES = 1
TRUE_LABELS = 2
ORACLE_MC = 3
VERIFY_CASES = 4

_U64 = (1 << 64) - 1
_M32 = (1 << 32) - 1

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx).
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43b0d7e5, 0x931e8875
_INIT_B, _MULT_B = 0x8b51f9dd, 0x58f38ded
_MIX_MULT_L, _MIX_MULT_R = 0xca01f9dd, 0x4973f715
_XSHIFT = 16


def _output_keys() -> tuple[tuple[int, int], ...]:
    """(hash constant before, after) for each of the 8 words that seed PCG64."""
    keys, h = [], _INIT_B
    for _ in range(8):
        after = h * _MULT_B & _M32
        keys.append((h, after))
        h = after
    return tuple(keys)


_OUTPUT_KEYS = _output_keys()


def _words(n: int) -> list[int]:
    """Little-endian 32-bit words of ``n`` as SeedSequence splits it; 0 is [0]."""
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _M32]
    while n := n >> 32:
        words.append(n & _M32)
    return words


@functools.lru_cache(maxsize=64)
def _prefix(seed: int, head: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """Pool of SeedSequence(seed, spawn_key=head) and the hash constant after it."""
    import numpy as np
    pool = np.random.SeedSequence(seed, spawn_key=head).pool.tolist()
    hashes = _POOL_SIZE * _POOL_SIZE + _POOL_SIZE * sum(len(_words(x)) for x in head)
    return tuple(pool), _INIT_A * pow(_MULT_A, hashes, 1 << 32) & _M32


@functools.cache
def _fixed_words_type() -> type:
    """ISeedSequence that hands PCG64 its four precomputed uint64 seed words."""
    import numpy as np

    class _FixedWords(np.random.bit_generator.ISeedSequence):
        __qualname__ = "_FixedWords"  # pickle finds it through __getattr__
        __slots__ = ("words",)

        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or dtype is not np.uint64 and np.dtype(dtype) != np.uint64:
                raise ValueError("a fixed-words seed sequence holds exactly 4 uint64 words")
            return self.words

    _FixedWords.__module__ = __name__
    return _FixedWords


def __getattr__(name: str):
    if name == "_FixedWords":
        return _fixed_words_type()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def derive_rng(master_seed: int, *path: int) -> np.random.Generator:
    """PCG64 generator for the stream identified by the integers (master_seed, *path)."""
    import numpy as np
    seed = operator.index(master_seed) & _U64
    if not path:
        pool, _ = _prefix(seed, ())
    else:
        # Convert before the cache lookup: (0.0,) and (0,) are the same key.
        *head, last = map(operator.index, path)
        pool, h = _prefix(seed, tuple(head))
        # SeedSequence's mix of each later entropy word: hash it once per pool
        # slot, advancing h, and mix each hash into its slot.
        for word in _words(last):
            mixed = []
            for p in pool:
                value = word ^ h
                h = h * _MULT_A & _M32
                value = value * h & _M32
                x = _MIX_MULT_L * p - _MIX_MULT_R * (value ^ value >> _XSHIFT) & _M32
                mixed.append(x ^ x >> _XSHIFT)
            pool = mixed
    # generate_state(4, uint64), unrolled: 32-bit word k hashes pool[k % 4]
    # with the k-th output key, and words 2j, 2j + 1 are uint64 j's halves.
    p0, p1, p2, p3 = pool
    (a0, b0), (a1, b1), (a2, b2), (a3, b3), (a4, b4), (a5, b5), (a6, b6), (a7, b7) = _OUTPUT_KEYS
    v0, v1 = (p0 ^ a0) * b0 & _M32, (p1 ^ a1) * b1 & _M32
    v2, v3 = (p2 ^ a2) * b2 & _M32, (p3 ^ a3) * b3 & _M32
    v4, v5 = (p0 ^ a4) * b4 & _M32, (p1 ^ a5) * b5 & _M32
    v6, v7 = (p2 ^ a6) * b6 & _M32, (p3 ^ a7) * b7 & _M32
    words = np.array([
        v0 ^ v0 >> _XSHIFT | (v1 ^ v1 >> _XSHIFT) << 32,
        v2 ^ v2 >> _XSHIFT | (v3 ^ v3 >> _XSHIFT) << 32,
        v4 ^ v4 >> _XSHIFT | (v5 ^ v5 >> _XSHIFT) << 32,
        v6 ^ v6 >> _XSHIFT | (v7 ^ v7 >> _XSHIFT) << 32,
    ], dtype=np.uint64)
    return np.random.Generator(np.random.PCG64(_fixed_words_type()(words)))
