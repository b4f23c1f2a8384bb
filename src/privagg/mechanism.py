"""Noisy-max vote aggregation and its deterministic companions.

A query is summarized by a histogram of teacher votes over ``m`` classes.
The released label is the class whose vote count, perturbed with Laplace
noise of scale ``1/gamma``, is largest:

    f = argmax_j { counts[j] + Lap(1/gamma) }

``gamma`` is the inverse noise scale: larger gamma means less noise and a
weaker privacy guarantee.  Each query incurs a pure privacy cost of
``2 * gamma`` (NOT gamma: a one-example change can move two vote counts by
one each, so gamma = 0.05 costs epsilon = 0.1 per query).

All noise is produced by inverse-CDF transform of a seeded uniform stream,
one draw per class consumed in class-index order, so runs are reproducible
bit for bit given a seed.  Each query draws from a stream of its own, so a
batch labelled in chunks, each ``noisy_labels`` call told its chunk's first
index, gets the labels of the whole batch labelled at once.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .seeding import _SEED_BITS, _SEED_ERROR, derive_rng, MECHANISM_NOISE

if TYPE_CHECKING:
    import numpy as np

# Uniform draws below 2^-53 are snapped up to it before the inverse-CDF
# transform; numpy's random() is [0, 1) and the transform needs (0, 1).
_MIN_UNIFORM = 2.0 ** -53

# The largest |log| the transform takes, at the smallest uniform: noise of
# scale b reaches b times this, which must stay finite.
_MAX_NOISE_LOG = -math.log(2.0 * _MIN_UNIFORM)

_INT = {int}

# Counts become float64 before noise is added, and above 2^53 different
# counts round to the same float.
_MAX_VOTES = 2 ** 53


@dataclass(frozen=True, slots=True)
class VoteHistogram:
    """Per-query vector of teacher vote counts over the classes.

    Invariants: at least two classes, every count non-negative, at least
    one vote and at most 2^53 votes in total.
    """

    counts: tuple[int, ...]

    def __post_init__(self):
        counts = self.counts
        # Plain case: a tuple of exact ints (``type`` also rules out bool).
        if (type(counts) is tuple and len(counts) >= 2 and {*map(type, counts)} == _INT
                and min(counts) >= 0 and 1 <= sum(counts) <= _MAX_VOTES):
            return
        coerced = []
        for j, value in enumerate(self.counts):
            if (c := _integer(value)) is None:
                raise ValueError(f"count for class {j} is not an integer: {value!r}")
            if c < 0:
                raise ValueError(f"count for class {j} is negative: {c}")
            coerced.append(c)
        if len(coerced) < 2:
            raise ValueError(f"need at least 2 classes, got {len(coerced)}")
        total = sum(coerced)
        if total < 1:
            raise ValueError("histogram must contain at least one vote")
        if total > _MAX_VOTES:
            raise ValueError("histogram holds more than 2**53 votes, "
                             "beyond what a float count can tell apart")
        object.__setattr__(self, "counts", tuple(coerced))

    @property
    def num_classes(self) -> int:
        return len(self.counts)

    @property
    def total(self) -> int:
        return sum(self.counts)


def _integer(value) -> int | None:
    """``value`` as an int if it is a non-bool integer or a 0-d array of one, else None."""
    if getattr(value, "ndim", None) == 0:  # a 0-d numpy array or a numpy scalar
        value = value[()]
    # int() would take "7", True and 2.9 without complaint.
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        return None
    return int(value)


def _at_least(name: str, value, least: int) -> int:
    """``value`` as an int; ValueError naming ``name`` unless it is an integer >= ``least``."""
    if (k := _integer(value)) is None:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if k < least:
        raise ValueError(f"{name} must be >= {least}, got {k}")
    return k


def _seed(value) -> int:
    """``value`` as an int master seed; ValueError unless it is an integer (``_integer``)
    in ``derive_rng``'s domain [0, 2^64).  The seed rule of every seed argument."""
    if (seed := _integer(value)) is None or seed >> _SEED_BITS:
        raise ValueError(_SEED_ERROR.format(value))
    return seed


def _real(value) -> float | None:
    """``value`` as a float if it is a non-bool real or a 0-d array of one, else None."""
    if getattr(value, "ndim", None) == 0:  # a 0-d numpy array or a numpy scalar
        value = value[()]
    # float() would take "0.5" and True without complaint.
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return None
    try:
        return float(value)
    except OverflowError:  # an int past the float range, such as 10**400
        return math.inf if value > 0 else -math.inf


def _gamma(value) -> float:
    """``value`` as a float gamma, or ValueError unless it is a real (``_real``),
    positive and finite, whose Laplace scale 1/gamma is finite too, and
    whose largest noise draw, (1/gamma)·|log(2^-52)|, is finite as well.

    The one gamma rule, for ``MechanismParams``, ``PrivacyLedger`` and the accountant.
    """
    # A plain float passes here exactly when it passes every check below.
    if type(value) is float and 0.0 < value < math.inf and 1.0 / value * _MAX_NOISE_LOG < math.inf:
        return value
    g = _real(value)
    if g is None or not 0.0 < g < math.inf:
        raise ValueError(f"gamma must be a positive finite real, got {value!r}")
    if not math.isfinite(1.0 / g):
        raise ValueError(f"Laplace scale 1/gamma is not finite for gamma={value!r}")
    if not math.isfinite(1.0 / g * _MAX_NOISE_LOG):
        raise ValueError(f"Laplace noise (1/gamma)*|log(2^-52)| overflows for gamma={value!r}")
    return g


@dataclass(frozen=True, slots=True)
class MechanismParams:
    """Inverse noise scale gamma (> 0) and the RNG master seed.

    The Laplace noise scale is ``1/gamma`` (in votes); it is exposed as
    ``scale`` so reports can show both and avoid unit confusion.
    """

    gamma: float
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "gamma", _gamma(self.gamma))
        object.__setattr__(self, "seed", _seed(self.seed))

    @property
    def scale(self) -> float:
        """Laplace noise scale 1/gamma."""
        return 1.0 / self.gamma


def tally_votes(labels, m: int) -> VoteHistogram:
    """Count label votes into a histogram over ``m`` classes.

    Raises ValueError if any label falls outside [0, m) or the sequence
    is empty (a histogram needs at least one vote).
    """
    if (num_classes := _integer(m)) is None:
        raise ValueError(f"m must be an integer, got {m!r}")
    m = num_classes
    if m < 2:
        raise ValueError(f"need at least 2 classes, got m={m}")
    try:
        counts = [0] * m
    except OverflowError:
        raise ValueError(f"m={m} classes are more than a list can hold") from None
    for i, value in enumerate(labels):
        if (label := _integer(value)) is None:
            raise ValueError(f"label at position {i} is not an integer: {value!r}")
        if not 0 <= label < m:
            raise ValueError(f"label at position {i} out of range [0, {m}): {label}")
        counts[label] += 1
    return VoteHistogram(tuple(counts))


def _laplace_quantile(u, b: float):
    """Laplace(0, b) quantile of each entry of the float array ``u`` in (0, 1).

    The one noise transform in the package; every Laplace draw goes through it.
    """
    # b*log(2u) below 0.5 and -b*log(2(1-u)) from 0.5 up, bit for bit: min()
    # picks the operand each branch uses (1-u is exact there), and the log L
    # is <= 0, so -b * copysign(L, 0.5 - u) is b*L below 0.5 and -b*L above
    # (a product only changes sign with an operand).  At u = 0.5, L and
    # 0.5 - u are +0.0 and the result is -0.0, as -b*log(1.0) is.
    import numpy as np
    x = 1.0 - u
    np.minimum(u, x, out=x)
    x *= 2.0
    np.log(x, out=x)
    np.copysign(x, 0.5 - u, out=x)
    x *= -b
    return x


def _draw_noise(rng: np.random.Generator, b: float, size: int) -> np.ndarray:
    """Vector of Laplace(0, b) draws via the inverse-CDF transform.

    Consumes exactly ``size`` uniforms from ``rng`` in order.  Draws of
    exactly 0.0 (probability 2^-53) are snapped to the smallest positive
    representable uniform instead of rejected, so stream positions never
    depend on draw values.
    """
    import numpy as np
    u = rng.random(size)
    np.maximum(u, _MIN_UNIFORM, out=u)
    return _laplace_quantile(u, b)


def noisy_argmax(hist: VoteHistogram, params: MechanismParams,
                 rng: np.random.Generator) -> int:
    """Release the index of the largest noise-perturbed vote count.

    One fresh Laplace(0, 1/gamma) draw from ``rng`` is added per class, in
    class-index order.  Every released label needs a stream of its own, so
    there is no default: ``noisy_labels`` derives query i's stream from
    ``params.seed``, and ``seeding`` lists the paths.

    Ties after perturbation (possible only through finite precision) break
    toward the smallest class index.
    """
    noise = _draw_noise(rng, params.scale, hist.num_classes)
    # The counts are added as float64 in place; every count is at most 2^53,
    # so each converts exactly.
    noise += hist.counts
    return int(noise.argmax())


def noisy_labels(hists, params: MechanismParams, *stream: int, start: int = 0) -> list[int]:
    """Noisy argmax of each histogram; ``hists[i]`` uses path (MECHANISM_NOISE, *stream, start + i).

    The one loop that draws mechanism noise for a batch.  ``seeding`` lists
    the ``stream`` prefix each caller passes; a chunk of a longer batch, as
    ``aggregate`` labels, passes the index of its first query as ``start``.
    """
    return [noisy_argmax(hist, params,
                         rng=derive_rng(params.seed, MECHANISM_NOISE, *stream, i))
            for i, hist in enumerate(hists, start)]


def plurality(hist: VoteHistogram) -> int:
    """Deterministic argmax of the raw counts; ties break to the smallest index."""
    return hist.counts.index(max(hist.counts))


def gap(hist: VoteHistogram) -> tuple[int, float]:
    """Vote margin between the top and runner-up classes.

    Returns (absolute gap, gap normalized by the total number of votes).
    A normalized gap of 1.0 means the vote was unanimous.
    """
    top, second = sorted(hist.counts, reverse=True)[:2]
    absolute = top - second
    return absolute, absolute / hist.total
