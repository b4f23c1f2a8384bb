"""Deterministic RNG derivation.

Every random draw in the package flows from a single master seed through
``derive_rng(master_seed, domain, *indices)``, the module's one function.
It seeds a ``numpy.random.SeedSequence`` with the master seed modulo 2^64
and uses the (domain, *indices) path as its spawn key, so independent
streams never collide and runs are bit-reproducible for a fixed master
seed.

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


def derive_rng(master_seed: int, *path: int) -> np.random.Generator:
    """PCG64 generator for the stream identified by (master_seed, *path)."""
    import numpy as np
    seq = np.random.SeedSequence(int(master_seed) & _U64, spawn_key=tuple(map(int, path)))
    return np.random.Generator(np.random.PCG64(seq))
