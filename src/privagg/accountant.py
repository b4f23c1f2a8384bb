"""Moments-based privacy accounting for the noisy-max mechanism.

For each query the accountant records upper bounds on the log moment
generating function of the privacy loss,

    alpha(l) = log E[ exp(l * C) ],    C = log(P_d(outcome) / P_d'(outcome)),

at integer orders l drawn from a small grid (default 1..8).  Two bounds are
available per query:

  * data-independent:  alpha(l) <= 2 * gamma^2 * l * (l + 1), valid always;
  * data-dependent:    a tighter bound that applies when the plurality
    winner is overwhelmingly likely, i.e. when an upper bound q on
    Pr[outcome != winner] stays below a gamma-dependent threshold.

Each query books the smaller applicable bound per order.  Across queries the
moments add, and the final (epsilon, delta) guarantee comes from the tail
bound  delta = min_l exp(alpha_total(l) - l * epsilon), rearranged for
epsilon at a target delta.

The closed-form alternative kept for comparison is the strong-composition
guarantee  epsilon = 4*T*gamma^2 + 2*gamma*sqrt(2*T*ln(1/delta))  over T
queries; the moments route is never worse on the workloads this package
targets and is usually much tighter.
"""
from __future__ import annotations

import enum
import functools
import math
import numbers
from dataclasses import dataclass, field
from typing import Mapping

from .mechanism import MechanismParams, VoteHistogram, _gamma, plurality

# 1 - e^{2*gamma} * q below this is treated as out of domain for the
# data-dependent bound.  Just below the validity threshold it is about
# 1 / (e^{2*gamma} + 1), so the guard trips there once gamma passes about
# 13.8: at gamma = 20 and q = q_threshold(20) * (1 - 1e-14) it reads 7.1e-15.
_DENOMINATOR_GUARD = 1e-12
_FLOAT = {float}


class GuaranteeMethod(enum.Enum):
    """Which analysis produced an (epsilon, delta) guarantee."""

    MOMENTS = "Moments"
    STRONG_COMPOSITION = "StrongComposition"


@dataclass(frozen=True, slots=True)
class LambdaGrid:
    """Ascending grid of positive integer moment orders."""

    values: tuple[int, ...]

    def __post_init__(self):
        for v in self.values:
            if isinstance(v, bool) or not isinstance(v, numbers.Integral):
                raise ValueError(f"lambda grid values must be integers, got {v!r}")
        vals = tuple(int(v) for v in self.values)
        if not vals:
            raise ValueError("lambda grid must be non-empty")
        if any(v < 1 for v in vals):
            raise ValueError(f"lambda grid values must be >= 1, got {vals}")
        if any(b <= a for a, b in zip(vals, vals[1:])):
            raise ValueError(f"lambda grid must be strictly increasing, got {vals}")
        object.__setattr__(self, "values", vals)

    @classmethod
    def up_to(cls, lambda_max: int) -> "LambdaGrid":
        """Grid of all integers 1..lambda_max."""
        if lambda_max < 1:
            raise ValueError(f"lambda_max must be >= 1, got {lambda_max}")
        return cls(tuple(range(1, lambda_max + 1)))

    @classmethod
    def default(cls) -> "LambdaGrid":
        return cls.up_to(8)


def _finite_nonnegative(name: str, value) -> float:
    """``value`` as a float; ValueError unless it is a finite real number >= 0."""
    if type(value) is not float:
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            held = "a boolean" if isinstance(value, bool) else f"a {type(value).__name__}"
            raise ValueError(f"{name!r} holds {held}, not a number")
        try:
            value = float(value)
        except OverflowError:  # an int past the float range, such as 10**400
            value = math.inf if value > 0 else -math.inf
    if not 0.0 <= value < math.inf:
        raise ValueError(f"{name!r} must be finite and non-negative, got {value!r}")
    return value


@dataclass
class PrivacyLedger:
    """Append-only columnar log of booked queries; the composition source of truth.

    Metadata pins the mechanism configuration: one gamma, one lambda grid,
    one master seed per ledger.  Query i is ``query_ids[i]``, booked with
    the bound ``q_bounds[i]`` on Pr[outcome != plurality winner] and one
    alpha per grid order in ``alphas[i]``.  ``append`` is the only way in;
    it stores ``str`` ids and finite non-negative floats only.
    """

    gamma: float
    lambda_grid: LambdaGrid
    seed: int = 0
    query_ids: list[str] = field(default_factory=list, init=False, repr=False)
    q_bounds: list[float] = field(default_factory=list, init=False, repr=False)
    alphas: list[tuple[float, ...]] = field(default_factory=list, init=False, repr=False)

    def __post_init__(self):
        self.gamma = _gamma(self.gamma)

    def append(self, query_id: str, q_bound: float, alphas) -> None:
        # The plain case, which ``book`` and ``read_ledger`` always give, is
        # checked in one pass.  ``sum`` is NaN or inf unless every alpha is
        # finite (``min`` and ``max`` skip a NaN inside the tuple); any other
        # input takes the per-value checks below and their messages.
        if (type(query_id) is str and type(q_bound) is float and 0.0 <= q_bound <= 1.0
                and type(alphas) is tuple and len(alphas) == len(self.lambda_grid.values)
                and {*map(type, alphas)} == _FLOAT and min(alphas) >= 0.0
                and sum(alphas) < math.inf):
            self.query_ids.append(query_id)
            self.q_bounds.append(q_bound)
            self.alphas.append(alphas)
            return
        if not isinstance(query_id, str):
            raise ValueError(f"query_id must be a string, got {query_id!r}")
        q_bound = _finite_nonnegative("q_bound", q_bound)
        if q_bound > 1.0:
            raise ValueError(f"q_bound must lie in [0, 1], got {q_bound!r}")
        if len(alphas) != len(self.lambda_grid.values):
            raise ValueError(f"ledger grid is {self.lambda_grid.values}, "
                             f"entry has {len(alphas)} alphas")
        alphas = tuple([_finite_nonnegative("alpha", alpha) for alpha in alphas])
        self.query_ids.append(query_id)
        self.q_bounds.append(q_bound)
        self.alphas.append(alphas)

    def __len__(self) -> int:
        return len(self.query_ids)


@dataclass(frozen=True, slots=True)
class Guarantee:
    """An (epsilon, delta) differential-privacy guarantee.

    ``argmin_lambda`` is the grid order achieving the tail-bound minimum
    (None for the strong-composition method and for the zero-query special
    case, where no order is selected).
    """

    epsilon: float
    delta: float
    method: GuaranteeMethod
    argmin_lambda: int | None = None

    def __post_init__(self):
        if not self.epsilon >= 0.0:
            raise ValueError(f"epsilon must be non-negative, got {self.epsilon!r}")
        if self.epsilon == math.inf:
            raise ValueError(f"{self.method.value} epsilon is not finite: {self.epsilon!r}")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must lie strictly inside (0, 1), got {self.delta!r}")


def data_independent_moment(gamma: float, order: int) -> float:
    """Moment bound 2 * gamma^2 * l * (l + 1), valid for every query.

    Defined at order 0 as well (returning 0) for convenience in tests.
    """
    if not gamma > 0.0:
        raise ValueError(f"gamma must be positive, got {gamma!r}")
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    return 2.0 * gamma * gamma * order * (order + 1)


def q_threshold(gamma: float) -> float:
    """Validity boundary (e^{2g} - 1)/(e^{4g} - 1) for the data-dependent bound.

    The data-dependent bound applies only to queries whose q stays strictly
    below this value.  Tends to 1/2 as gamma -> 0 and falls toward 0 for
    large gamma.  Raises ValueError once e^{4g} leaves the float range
    (gamma above about 177).
    """
    return _threshold(gamma)


@functools.lru_cache(maxsize=1, typed=True)
def _threshold(gamma: float) -> float:
    """``q_threshold``, computed once per gamma (see ``_order_free_terms``)."""
    if not gamma > 0.0:
        raise ValueError(f"gamma must be positive, got {gamma!r}")
    try:
        # expm1 raises on a finite argument past 709.78 but returns inf on inf.
        if 4.0 * gamma < math.inf:
            return math.expm1(2.0 * gamma) / math.expm1(4.0 * gamma)
    except OverflowError:
        pass
    raise ValueError(f"q threshold overflows at gamma={gamma!r}: e^(4*gamma) "
                     "is beyond the float range")


def q_upper_bound(hist: VoteHistogram, gamma: float) -> float:
    """Upper bound on Pr[noisy argmax != plurality winner].

    With winner j* and per-class deficits d_j = counts[j*] - counts[j], the
    bound is  sum_{j != j*} (2 + gamma*d_j) / (4 * exp(gamma*d_j)),  clamped
    to 1 (the raw sum exceeds 1 for flat histograms).  Raises ValueError
    when exp(gamma*d_j) leaves the float range, rather than rounding that
    term down to 0.
    """
    if not gamma > 0.0:
        raise ValueError(f"gamma must be positive, got {gamma!r}")
    winner = plurality(hist)
    top = hist.counts[winner]
    raw = 0.0
    for j, c in enumerate(hist.counts):
        if j == winner:
            continue
        d = gamma * (top - c)
        try:
            growth = math.exp(d)
        except OverflowError:
            growth = math.inf
        # exp raises for a large finite d but returns inf for d = inf (gamma *
        # deficit beyond the float range); both leave the term undefined.
        if growth == math.inf:
            raise ValueError(f"q bound overflows at gamma={gamma!r} and deficit "
                             f"{top - c}: e^(gamma*deficit) is beyond the float "
                             "range")
        raw += (2.0 + d) / (4.0 * growth)
        if raw >= 1.0:
            # Every term is >= 0 (or NaN, which the clamp also maps to 1), and
            # adding such terms never lowers a float sum: the clamp gives 1.0.
            return 1.0
    return min(1.0, raw)


def data_dependent_moment(q: float, gamma: float, order: int) -> float:
    """Quorum-sensitive moment bound, valid for q below q_threshold(gamma).

        alpha(l) <= log( (1-q) * ((1-q) / (1 - e^{2g} q))^l + q * e^{2g*l} )

    Evaluated in log space via logaddexp/log1p so small q loses no
    precision.  Non-decreasing in q over its domain.

    Raises ValueError when q >= q_threshold(gamma) (callers must fall back
    to the data-independent bound) or when the denominator 1 - e^{2g} q is
    too close to zero to trust.
    """
    if not gamma > 0.0:
        raise ValueError(f"gamma must be positive, got {gamma!r}")
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must lie in [0, 1], got {q!r}")
    threshold = _threshold(gamma)
    if q >= threshold:
        raise ValueError(
            f"data-dependent bound needs q < {threshold:.6g} at gamma={gamma:.6g}, "
            f"got q={q:.6g}; use the data-independent bound instead")
    if q == 0.0:
        return 0.0
    log_q, log1p_neg_q, log_denom = _order_free_terms(q, gamma)
    log_first = (order + 1) * log1p_neg_q - order * log_denom
    log_second = log_q + 2.0 * gamma * order
    alpha = _log_add(log_first, log_second)
    # The bound is >= 0 exactly; chop float dust from the cancellation at q ~ 0.
    return max(0.0, alpha)


# ``per_query_moment`` calls ``data_dependent_moment`` once per grid order
# with one (q, gamma), so the terms that do not depend on the order are
# computed once per query.  ``typed`` keeps a numpy gamma apart from an equal
# float, so every result is the float the uncached expression gives.  Like
# ``_threshold``, this cache calls no public function: a traced run counts
# the same calls in every round.
@functools.lru_cache(maxsize=1, typed=True)
def _order_free_terms(q: float, gamma: float) -> tuple[float, float, float]:
    """``(log q, log1p(-q), log(1 - e^{2g} q))`` for 0 < q < q_threshold(gamma)."""
    log_q = math.log(q)
    denom = -math.expm1(2.0 * gamma + log_q)  # 1 - e^{2g} * q
    if denom < _DENOMINATOR_GUARD:
        raise ValueError(
            f"1 - e^(2*gamma)*q = {denom:.3g} is below the stability guard; "
            "treat this q as out of domain")
    return log_q, math.log1p(-q), math.log(denom)


def _log_add(logx: float, logy: float) -> float:
    """log(exp(logx) + exp(logy)) without leaving log space."""
    a, b = min(logx, logy), max(logx, logy)
    if a == -math.inf:
        return b
    return b + math.log1p(math.exp(a - b))


def per_query_moment(hist: VoteHistogram, gamma: float,
                     grid: LambdaGrid) -> tuple[float, tuple[float, ...]]:
    """``(q_bound, alphas)``: the best available moment bound at every grid order.

    Computes q from the raw (un-noised) histogram and takes the smaller of
    the data-independent and (when q is below threshold) data-dependent
    bounds at each order.  An alpha equals ``data_independent_moment``
    exactly where that bound won and lies below it where the data-dependent
    bound won.  Because q depends on the actual votes, the resulting bounds
    — and any epsilon derived from them — are themselves data-dependent
    quantities.
    """
    qb = q_upper_bound(hist, gamma)
    usable = qb < _threshold(gamma)
    two_gamma_sq = 2.0 * gamma * gamma  # data_independent_moment, same operation order
    alphas = []
    for order in grid.values:
        alpha = two_gamma_sq * order * (order + 1)
        if usable:
            try:
                alpha = min(alpha, data_dependent_moment(qb, gamma, order))
            except ValueError:
                pass
        alphas.append(alpha)
    return qb, tuple(alphas)


def book(hists, query_ids, params: MechanismParams, grid: LambdaGrid) -> PrivacyLedger:
    """New ledger with one ``per_query_moment`` per (histogram, query_id) pair.

    The one loop that books a batch of queries.
    """
    ledger = PrivacyLedger(gamma=params.gamma, lambda_grid=grid, seed=params.seed)
    for hist, query_id in zip(hists, query_ids, strict=True):
        ledger.append(query_id, *per_query_moment(hist, params.gamma, grid))
    return ledger


def compose(ledger: PrivacyLedger) -> dict[int, float]:
    """Sum the per-query moments order-wise: alpha_total(l) = sum_i alpha_i(l).

    Plain addition is exact composition for adaptive mechanisms; no other
    aggregation is applied.  Each order adds left to right in ledger order,
    whatever the Python version's ``sum`` would do.  An empty ledger
    composes to all zeros.
    """
    orders = ledger.lambda_grid.values
    totals = dict.fromkeys(orders, 0.0)
    for alphas in ledger.alphas:
        for order, alpha in zip(orders, alphas):
            totals[order] += alpha
    return totals


def eps_for_delta(totals: Mapping[int, float], delta: float) -> Guarantee:
    """Smallest epsilon the tail bound certifies at failure probability delta.

        epsilon = min_l ( alpha_total(l) + ln(1/delta) ) / l

    Note this is a bound artifact: it stays positive even for all-zero
    totals (ln(1/delta)/l_max).  Zero-query ledgers should be special-cased
    by the caller (see ``moments_guarantee``).
    """
    if not totals:
        raise ValueError("totals must be non-empty")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie strictly inside (0, 1), got {delta!r}")
    log_inv_delta = -math.log(delta)
    best_eps, best_order = math.inf, None
    for order in sorted(totals):
        alpha = totals[order]
        if alpha < 0.0:
            raise ValueError(f"alpha_total({order}) is negative: {alpha!r}")
        eps = (alpha + log_inv_delta) / order
        if eps < best_eps:
            best_eps, best_order = eps, order
    return Guarantee(epsilon=best_eps, delta=delta,
                     method=GuaranteeMethod.MOMENTS, argmin_lambda=best_order)


def delta_for_eps(totals: Mapping[int, float], epsilon: float) -> float:
    """Tail-bound failure probability at a target epsilon.

        delta = min_l exp( alpha_total(l) - l * epsilon ),  clamped to <= 1.
    """
    if not totals:
        raise ValueError("totals must be non-empty")
    if epsilon < 0.0:
        raise ValueError(f"epsilon must be non-negative, got {epsilon!r}")
    best = min(totals[order] - order * epsilon for order in totals)
    if best >= 0.0:
        return 1.0
    return math.exp(best)


def strong_composition_eps(gamma: float, num_queries: int, delta: float) -> Guarantee:
    """Closed-form strong-composition guarantee over ``num_queries`` queries.

        epsilon = 4*T*gamma^2 + 2*gamma*sqrt(2*T*ln(1/delta))

    Kept as the looser baseline the moments route is compared against.
    """
    if not gamma > 0.0:
        raise ValueError(f"gamma must be positive, got {gamma!r}")
    if num_queries < 0:
        raise ValueError(f"num_queries must be >= 0, got {num_queries}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie strictly inside (0, 1), got {delta!r}")
    t = float(num_queries)
    eps = 4.0 * t * gamma * gamma + 2.0 * gamma * math.sqrt(2.0 * t * math.log(1.0 / delta))
    return Guarantee(epsilon=eps, delta=delta,
                     method=GuaranteeMethod.STRONG_COMPOSITION, argmin_lambda=None)


def moments_guarantee(ledger: PrivacyLedger, delta: float) -> Guarantee:
    """Composed moments guarantee for a ledger.

    A ledger with zero queries reveals nothing, so epsilon is reported as 0
    by special case rather than the tail bound's ln(1/delta)/l_max artifact.
    """
    if len(ledger) == 0:
        return Guarantee(epsilon=0.0, delta=delta,
                         method=GuaranteeMethod.MOMENTS, argmin_lambda=None)
    return eps_for_delta(compose(ledger), delta)
