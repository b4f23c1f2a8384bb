"""privagg: noisy-max vote aggregation with moments-based privacy accounting.

The package answers classification queries by adding Laplace noise to
per-class vote counts and releasing the argmax, tracks the privacy cost of
every answered query through moment bounds on the privacy loss, and ships
numerical oracles (exact quadrature, Monte Carlo) that verify each bound
on small instances.

numpy is imported by the functions that draw noise, sample votes or run
quadrature, on their first call: importing the package, accounting a
ledger and reporting on a guarantee do not load it.
"""

from .accountant import (
    Guarantee,
    GuaranteeMethod,
    LambdaGrid,
    PrivacyLedger,
    compose,
    data_dependent_moment,
    data_independent_moment,
    eps_for_delta,
    moments_guarantee,
    per_query_moment,
    q_threshold,
    q_upper_bound,
    strong_composition_eps,
)
from .mechanism import (
    MechanismParams,
    VoteHistogram,
    gap,
    noisy_argmax,
    noisy_labels,
    plurality,
    tally_votes,
)
from .oracle import (
    AdjacentPair,
    OutcomeDistribution,
    UnsupportedSizeError,
    empirical_eps,
    enumerate_neighbors,
    exact_moment,
    mc_outcome_frequencies,
    outcome_distribution,
)
from .simulation import (
    EnsembleConfig,
    ErrorModel,
    SweepResult,
    budget_report,
    sweep_gamma,
    synth_query_votes,
)
from .verification import VerificationReport, run_verification

__version__ = "0.1.0"

__all__ = [
    "AdjacentPair",
    "EnsembleConfig",
    "ErrorModel",
    "Guarantee",
    "GuaranteeMethod",
    "LambdaGrid",
    "MechanismParams",
    "OutcomeDistribution",
    "PrivacyLedger",
    "SweepResult",
    "UnsupportedSizeError",
    "VerificationReport",
    "VoteHistogram",
    "budget_report",
    "compose",
    "data_dependent_moment",
    "data_independent_moment",
    "empirical_eps",
    "enumerate_neighbors",
    "eps_for_delta",
    "exact_moment",
    "gap",
    "mc_outcome_frequencies",
    "moments_guarantee",
    "noisy_argmax",
    "noisy_labels",
    "outcome_distribution",
    "per_query_moment",
    "plurality",
    "q_threshold",
    "q_upper_bound",
    "run_verification",
    "strong_composition_eps",
    "sweep_gamma",
    "synth_query_votes",
    "tally_votes",
]
