"""Deterministic RNG derivation.

Every random draw in the package flows from a single 64-bit master seed
through ``derive_rng(master_seed, domain, *indices)``.  The derivation is
a ``numpy.random.SeedSequence`` whose spawn key is the (domain, *indices)
path, so independent streams never collide and runs are bit-reproducible
for a fixed master seed.

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

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

MECHANISM_NOISE = 0
SYNTH_VOTES = 1
TRUE_LABELS = 2
ORACLE_MC = 3
VERIFY_CASES = 4

_U64 = (1 << 64) - 1


def mask64(seed: int) -> int:
    """Map an arbitrary Python int onto the unsigned 64-bit seed domain."""
    return int(seed) & _U64


def seed_sequence(master_seed: int, *path: int) -> np.random.SeedSequence:
    import numpy as np
    return np.random.SeedSequence(mask64(master_seed), spawn_key=tuple(map(int, path)))


def derive_rng(master_seed: int, *path: int) -> np.random.Generator:
    """PCG64 generator for the stream identified by (master_seed, *path)."""
    import numpy as np
    return np.random.Generator(np.random.PCG64(seed_sequence(master_seed, *path)))
