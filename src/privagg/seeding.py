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
changes only the last path item, so the words are derived for a whole
block at once: ``_block`` takes numpy's own SeedSequence pool for
(seed, path[:-1]) and the hash constant its mixing leaves, INIT_A *
MULT_A^(16 + 4w) mod 2^32 for w words of path[:-1] (16 hashes fill and
cross-mix the pool; each later word takes 4).  It then mixes in the words
of every last item base + r, r < 2^12, as uint32 array arithmetic, and
derives the (2^12, 4) seed words, using numpy's constants.  ``base`` is a
multiple of 2^12, so across a block only the lowest word of the last item
changes; its higher words are base's, which is how items of 2^32 and up
take the same path.  ``_block`` keeps the last few blocks, read-only, and
``derive_rng`` seeds PCG64 with its row of one.  A path-less stream runs
the same output stage, ``_seed_words``, on its one pool.  This is the
package's one port of SeedSequence; ``tests/test_seeding.py`` checks the
streams against SeedSequence itself.

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


# Last-path items whose seed words one ``_block`` derives; a power of two
# that divides 2^32, so a block never carries into the item's second word.
_BLOCK = 1 << 12


def _hash_keys(h: int, mult: int, n: int) -> tuple[list[int], list[int]]:
    """The hash constant before and after each of ``n`` hashes starting at ``h``."""
    keys = [h]
    for _ in range(n):
        keys.append(keys[-1] * mult & _M32)
    return keys[:-1], keys[1:]


# (before, after) hash constants of the 8 words that seed PCG64.
_OUTPUT_KEYS = _hash_keys(_INIT_B, _MULT_B, 8)


def _words(n: int) -> list[int]:
    """Little-endian 32-bit words of ``n`` as SeedSequence splits it; 0 is [0]."""
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _M32]
    while n := n >> 32:
        words.append(n & _M32)
    return words


def _prefix(seed: int, head: tuple[int, ...]) -> tuple[list[int], int]:
    """Pool of SeedSequence(seed, spawn_key=head) and the hash constant after it."""
    import numpy as np
    pool = np.random.SeedSequence(seed, spawn_key=head).pool.tolist()
    hashes = _POOL_SIZE * _POOL_SIZE + _POOL_SIZE * sum(len(_words(x)) for x in head)
    return pool, _INIT_A * pow(_MULT_A, hashes, 1 << 32) & _M32


def _seed_words(pool: np.ndarray) -> np.ndarray:
    """The four uint64 PCG64 seed words of each row of an (R, 4) uint32 pool.

    SeedSequence.generate_state(4, uint64): 32-bit word k hashes pool[k % 4]
    with the k-th output key, and words 2j, 2j + 1 are read as uint64 j the
    way numpy reads them on any platform, as little-endian halves.
    """
    import numpy as np
    before, after = _OUTPUT_KEYS
    v = np.concatenate((pool, pool), axis=1)
    v ^= np.array(before, dtype=np.uint32)
    v *= np.array(after, dtype=np.uint32)
    v ^= v >> _XSHIFT
    return v.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


@functools.lru_cache(maxsize=4)
def _block(seed: int, head: tuple[int, ...], base: int) -> np.ndarray:
    """Read-only (_BLOCK, 4) seed words of the paths head + (base + r,), r < _BLOCK.

    ``base`` is a multiple of _BLOCK, so only the lowest word of the last
    item varies across the block; its higher words are base's.
    """
    import numpy as np
    pool, h = _prefix(seed, head)
    low, *high = _words(base)
    pool = np.array(pool, dtype=np.uint32)
    # SeedSequence's mix of each later entropy word: hash it once per pool
    # slot, advancing h, and mix each hash into its slot.
    for word in (np.arange(low, low + _BLOCK, dtype=np.uint32)[:, None], *high):
        before, after = _hash_keys(h, _MULT_A, _POOL_SIZE)
        h = after[-1]
        value = word ^ np.array(before, dtype=np.uint32)
        value *= np.array(after, dtype=np.uint32)
        value ^= value >> _XSHIFT
        value *= _MIX_MULT_R
        pool = _MIX_MULT_L * pool - value
        pool ^= pool >> _XSHIFT
    words = _seed_words(pool)
    # Every stream of the block is seeded from a view of this one array.
    words.flags.writeable = False
    return words


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
    if path:
        # Convert before the cache lookup: (0.0,) and (0,) are the same key.
        *head, last = map(operator.index, path)
        base = last & -_BLOCK
        words = _block(seed, tuple(head), base)[last - base]
    else:
        words = _seed_words(np.array([_prefix(seed, ())[0]], dtype=np.uint32))[0]
    return np.random.Generator(np.random.PCG64(_fixed_words_type()(words)))
