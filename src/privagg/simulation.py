"""Synthetic teacher ensembles and experiment drivers.

Teachers here are not trained models: each votes for the true label with a
configured accuracy and errs according to a simple confusion model,
independently of the others.  Real ensembles trained on disjoint data
partitions are correlated, so sweeps produced from these ensembles are
qualitative shape checks (accuracy versus noise level, gap statistics,
budget reports), not reproductions of any dataset-scale figures.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .accountant import LambdaGrid, PrivacyLedger
from .mechanism import MechanismParams, VoteHistogram, _gamma, _integer, _seed, gap, noisy_labels
from .seeding import derive_rng, SYNTH_VOTES, TRUE_LABELS

if TYPE_CHECKING:
    import numpy as np


class ErrorModel(enum.Enum):
    """How a wrong-voting teacher picks its label."""

    UNIFORM_CONFUSION = "UniformConfusion"
    ADJACENT_CONFUSION = "AdjacentConfusion"


@dataclass(frozen=True, slots=True)
class EnsembleConfig:
    """Synthetic ensemble: n teachers, m classes, per-teacher accuracy.

    Accuracy must beat chance (strictly above 1/m) and queries counts the
    labels drawn per experiment.  The default mirrors the reference setup:
    250 teachers, 10 classes, 83.86% per-teacher accuracy, 100 queries.
    """

    n: int = 250
    m: int = 10
    teacher_accuracy: float = 0.8386
    error_model: ErrorModel = ErrorModel.UNIFORM_CONFUSION
    queries: int = 100
    seed: int = 0

    def __post_init__(self):
        for name in ("n", "m", "queries"):
            value = _integer(getattr(self, name))
            if value is None:
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
            object.__setattr__(self, name, value)
        object.__setattr__(self, "seed", _seed(self.seed))
        if self.n < 1:
            raise ValueError(f"need at least one teacher, got n={self.n}")
        if self.m < 2:
            raise ValueError(f"need at least two classes, got m={self.m}")
        if not 1.0 / self.m < self.teacher_accuracy <= 1.0:
            raise ValueError(
                f"teacher_accuracy must lie in (1/m, 1] = ({1.0 / self.m:.4g}, 1], "
                f"got {self.teacher_accuracy!r}")
        if self.queries < 0:
            raise ValueError(f"queries must be >= 0, got {self.queries}")


@dataclass(frozen=True, slots=True)
class SweepPoint:
    gamma: float
    accuracy: float


@dataclass(frozen=True, slots=True)
class SweepResult:
    """Aggregate accuracy per gamma plus gap statistics of the raw votes.

    Gap statistics do not depend on gamma: noise perturbs the released
    label, never the votes themselves.
    """

    points: tuple[SweepPoint, ...]
    mean_gap: float
    mean_normalized_gap: float

    def __post_init__(self):
        for p in self.points:
            if not 0.0 <= p.accuracy <= 1.0:
                raise ValueError(f"accuracy out of [0, 1] at gamma={p.gamma}: {p.accuracy}")
        if not 0.0 <= self.mean_normalized_gap <= 1.0:
            raise ValueError(f"normalized gap out of [0, 1]: {self.mean_normalized_gap}")


def synth_query_votes(config: EnsembleConfig, true_label: int,
                      rng: np.random.Generator) -> VoteHistogram:
    """Votes of one synthetic ensemble on one query.

    Each teacher independently votes the true label with probability
    ``teacher_accuracy``; otherwise UniformConfusion picks uniformly among
    the other m-1 classes and AdjacentConfusion picks (label +/- 1) mod m
    with equal odds.

    Draws ``rng.random(n)``, then one offset per wrong vote only when some
    vote is wrong; only the wrong votes are tallied.
    """
    # A float label would reach the integer offsets below.
    if (label := _integer(true_label)) is None or not 0 <= label < config.m:
        raise ValueError(f"true_label must be an integer in [0, {config.m}), "
                         f"got {true_label!r}")
    import numpy as np
    num_wrong = int(np.count_nonzero(rng.random(config.n) >= config.teacher_accuracy))
    if num_wrong:
        if config.error_model is ErrorModel.UNIFORM_CONFUSION:
            offsets = rng.integers(1, config.m, size=num_wrong)
        else:
            offsets = rng.integers(0, 2, size=num_wrong) * 2 - 1
        offsets += label
        offsets %= config.m
        counts = np.bincount(offsets, minlength=config.m).tolist()
    else:
        counts = [0] * config.m
    counts[label] += config.n - num_wrong
    return VoteHistogram(tuple(counts))


def _query_stream(config: EnsembleConfig) -> tuple[list[int], list[VoteHistogram]]:
    """True labels and vote histograms for every query, derived from the seed."""
    label_rng = derive_rng(config.seed, TRUE_LABELS)
    labels = label_rng.integers(0, config.m, size=config.queries).tolist()
    hists = [
        synth_query_votes(config, labels[q], derive_rng(config.seed, SYNTH_VOTES, q))
        for q in range(config.queries)
    ]
    return labels, hists


def sweep_gamma(config: EnsembleConfig, gamma_grid) -> SweepResult:
    """Noisy aggregation accuracy across a gamma grid on one query batch.

    The same vote histograms are reused at every gamma (fresh noise each
    time), so the sweep isolates the effect of the noise level.  Identical
    config and seed reproduce the result bit for bit.  Every gamma must
    pass ``MechanismParams``'s rule, checked before any query is drawn.
    """
    grid = [_gamma(g) for g in gamma_grid]
    if not grid:
        raise ValueError("gamma grid must be non-empty")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError(f"gamma grid must be strictly ascending, got {grid}")
    if config.queries < 1:
        raise ValueError("sweep needs at least one query")
    import numpy as np

    labels, hists = _query_stream(config)
    gaps = [gap(h) for h in hists]
    mean_gap = float(np.mean([g_abs for g_abs, _ in gaps]))
    mean_norm = float(np.mean([g_norm for _, g_norm in gaps]))

    points = []
    for gi, gamma in enumerate(grid):
        params = MechanismParams(gamma=gamma, seed=config.seed)
        hits = sum(x == y for x, y in zip(noisy_labels(hists, params, gi), labels))
        points.append(SweepPoint(gamma=gamma, accuracy=hits / config.queries))
    return SweepResult(points=tuple(points), mean_gap=mean_gap,
                       mean_normalized_gap=mean_norm)


def budget_report(config: EnsembleConfig, gamma: float,
                  grid: LambdaGrid | None = None) -> tuple[PrivacyLedger, float]:
    """Run the configured queries end to end: label each one and book it.

    Returns the ledger (query q is booked as ``q{q:05d}``) and the fraction
    of noisy labels matching the true ones, NaN when the run answered zero
    queries.  Noise uses the stream prefix (0,), the same as the first gamma
    of a ``sweep_gamma`` run on this config, so the two agree on accuracy
    there.
    """
    grid = grid or LambdaGrid.default()
    params = MechanismParams(gamma=gamma, seed=config.seed)
    labels, hists = _query_stream(config)
    hits = sum(x == y for x, y in zip(noisy_labels(hists, params, 0), labels))
    ledger = PrivacyLedger(gamma=params.gamma, lambda_grid=grid, seed=params.seed)
    ledger.book(hists, [f"q{q:05d}" for q in range(config.queries)])
    return ledger, hits / config.queries if config.queries else math.nan
