"""Soundness sweeps pitting the analytic bounds against the oracles.

Three families of checks run over randomly generated desk-scale
histograms (classes <= 5, votes <= 50, gamma in [0.01, 1]):

  * miss-probability: quadrature Pr[outcome != plurality winner] never
    exceeds the accountant's q upper bound;
  * moments: the exact privacy-loss moment, maximized over every adjacent
    neighbor, never exceeds the accountant's per-query bound at any order;
  * pure DP: the worst-case log probability ratio against every neighbor
    never exceeds 2 * gamma.

A fourth, optional family cross-validates the quadrature itself against
Monte Carlo sampling.  Quadrature-vs-bound comparisons allow the
quadrature's certified tolerance, since some bounds are exactly tight
(two-class flat histograms); the Monte Carlo comparison uses a four
standard error band widened by 10/trials to stay exact-binomial-safe for
rare outcomes.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .accountant import LambdaGrid, per_query_moment, q_upper_bound
from .mechanism import VoteHistogram, plurality
from .oracle import (
    MAX_CLASSES,
    QUADRATURE_TOLERANCE,
    enumerate_neighbors,
    exact_moment,
    empirical_eps,
    mc_outcome_frequencies,
    outcome_distribution,
)
from .seeding import derive_rng, ORACLE_MC, VERIFY_CASES

if TYPE_CHECKING:
    import numpy as np

PURE_DP_TOLERANCE = 1e-6
GAMMA_RANGE = (0.01, 1.0)
# The q bound needs e^(gamma * deficit) as a float, and a deficit can be
# as large as the vote total, so this is the largest total whose q bound is
# defined at every gamma the sweep draws: floor(709.78 / 1.0) = 709.
SWEEP_MAX_TEACHERS = math.floor(math.log(sys.float_info.max) / GAMMA_RANGE[1])


@dataclass
class CheckStats:
    checks: int = 0
    failures: int = 0
    max_violation: float = -math.inf

    def record(self, value: float, bound: float, tolerance: float) -> None:
        self.checks += 1
        violation = value - bound
        if violation > self.max_violation:
            self.max_violation = violation
        if violation > tolerance:
            self.failures += 1


@dataclass
class VerificationReport:
    """Outcome of a verification run; ``failures == 0`` means all bounds held."""

    cases: int
    mc_cases: int
    stats: dict[str, CheckStats] = field(default_factory=dict)

    @property
    def failures(self) -> int:
        return sum(s.failures for s in self.stats.values())

    @property
    def max_violation(self) -> float:
        worst = max((s.max_violation for s in self.stats.values()), default=-math.inf)
        return worst if worst != -math.inf else 0.0

    def to_dict(self) -> dict:
        return {
            "cases": self.cases,
            "mc_cases": self.mc_cases,
            "failures": self.failures,
            "max_violation": self.max_violation,
            "checks": {
                name: {
                    "checks": s.checks,
                    "failures": s.failures,
                    "max_violation": s.max_violation if s.checks else 0.0,
                }
                for name, s in self.stats.items()
            },
        }


def random_histogram(rng: np.random.Generator, max_classes: int = 5,
                     max_teachers: int = 50) -> VoteHistogram:
    """Random desk-scale histogram, salted with tie and unanimity shapes."""
    m = int(rng.integers(2, max_classes + 1))
    style = rng.random()
    if style < 0.1:
        n = int(rng.integers(1, max_teachers + 1))
        counts = [0] * m
        counts[int(rng.integers(0, m))] = n
    elif style < 0.2:
        c = int(rng.integers(1, max_teachers // m + 1))
        counts = [c] * m
    else:
        n = int(rng.integers(1, max_teachers + 1))
        probs = rng.dirichlet([1.0] * m)
        counts = rng.multinomial(n, probs).tolist()
    return VoteHistogram(tuple(counts))


def _cases(seed: int, stream: int, num_cases: int, max_classes: int, max_teachers: int):
    """The ``num_cases`` random ``(hist, gamma)`` cases of the stream
    (VERIFY_CASES, stream), drawn lazily, histogram first.

    Refuses sizes it cannot draw or check before drawing any case.
    """
    if num_cases < 0:
        raise ValueError(f"num_cases must be >= 0, got {num_cases}")
    if not 2 <= max_classes <= MAX_CLASSES:
        raise ValueError(f"max_classes must lie in [2, {MAX_CLASSES}], got {max_classes}")
    if not max_classes <= max_teachers <= SWEEP_MAX_TEACHERS:
        raise ValueError(f"max_teachers must lie in [{max_classes}, {SWEEP_MAX_TEACHERS}], "
                         f"got {max_teachers}")
    rng = derive_rng(seed, VERIFY_CASES, stream)
    return ((random_histogram(rng, max_classes, max_teachers),
             float(rng.uniform(*GAMMA_RANGE))) for _ in range(num_cases))


def soundness_sweep(num_cases: int, seed: int = 0,
                    grid: LambdaGrid | None = None,
                    max_classes: int = 5, max_teachers: int = 50) -> VerificationReport:
    """Audit the q bound, the per-query moments, and pure DP on random cases."""
    cases = _cases(seed, 0, num_cases, max_classes, max_teachers)
    grid = grid or LambdaGrid.default()
    report = VerificationReport(cases=num_cases, mc_cases=0)
    miss = report.stats.setdefault("miss_probability", CheckStats())
    moments = report.stats.setdefault("moment_bound", CheckStats())
    pure_dp = report.stats.setdefault("pure_dp", CheckStats())

    for hist, gamma in cases:
        dist = outcome_distribution(hist, gamma)
        p_miss = 1.0 - dist.probs[plurality(hist)]
        miss.record(p_miss, q_upper_bound(hist, gamma), QUADRATURE_TOLERANCE)

        _, alphas = per_query_moment(hist, gamma, grid)
        for pair in enumerate_neighbors(hist):
            for order, alpha in zip(grid.values, alphas):
                moments.record(exact_moment(pair, gamma, order), alpha,
                               QUADRATURE_TOLERANCE)
            pure_dp.record(empirical_eps(pair, gamma), 2.0 * gamma, PURE_DP_TOLERANCE)
    return report


def mc_crosscheck(num_cases: int, trials: int, seed: int = 0) -> VerificationReport:
    """Cross-validate quadrature probabilities against Monte Carlo sampling on
    ``num_cases`` histograms of at most 5 classes and 50 votes, stream (VERIFY_CASES, 1).

    Per class, the empirical frequency must land within
    4*sqrt(p(1-p)/trials) + 10/trials of the quadrature probability p; the
    additive term keeps the band honest where trials*p is Poisson-small and
    the normal approximation understates upward fluctuations.
    """
    cases = _cases(seed, 1, num_cases, max_classes=5, max_teachers=50)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    report = VerificationReport(cases=0, mc_cases=num_cases)
    agreement = report.stats.setdefault("mc_agreement", CheckStats())

    for case, (hist, gamma) in enumerate(cases):
        probs = outcome_distribution(hist, gamma).probs
        mc_seed = int(derive_rng(seed, ORACLE_MC, case).integers(0, 2**63))
        freqs = mc_outcome_frequencies(hist, gamma, trials, seed=mc_seed).probs
        for p, f in zip(probs, freqs):
            # A quadrature p can round to just above 1; floor its variance at 0.
            band = 4.0 * math.sqrt(max(0.0, p * (1.0 - p)) / trials) + 10.0 / trials
            agreement.record(abs(f - p), band, 0.0)
    return report


def run_verification(num_cases: int = 1000, trials: int = 100_000,
                     mc_cases: int = 100, seed: int = 0,
                     grid: LambdaGrid | None = None) -> VerificationReport:
    """Full verification: soundness sweep plus (if trials > 0 and
    mc_cases > 0) MC cross-check."""
    for name, value in (("trials", trials), ("mc_cases", mc_cases)):
        if value < 0:
            raise ValueError(f"{name} must be >= 0 (0 skips the Monte Carlo "
                             f"cross-check), got {value}")
    report = soundness_sweep(num_cases, seed=seed, grid=grid)
    if trials > 0 and mc_cases > 0:
        mc_report = mc_crosscheck(mc_cases, trials, seed=seed)
        report.mc_cases = mc_report.mc_cases
        report.stats.update(mc_report.stats)
    return report
