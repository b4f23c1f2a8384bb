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

Each query books the smaller applicable bound per order.  Both depend on the
query only through q, so a ledger stores each query's q bound and derives
its alphas from it.  Across queries the moments add, and the final
(epsilon, delta) guarantee comes from the tail bound
delta = min_l exp(alpha_total(l) - l * epsilon), rearranged for epsilon at
a target delta.

The closed-form alternative kept for comparison is the strong-composition
guarantee  epsilon = 4*T*gamma^2 + 2*gamma*sqrt(2*T*ln(1/delta))  over T
queries; the moments route is never worse on the workloads this package
targets and is usually much tighter.
"""
from __future__ import annotations

import enum
import functools
import math
import operator
from dataclasses import dataclass, field
from typing import Mapping

from .mechanism import (VoteHistogram, _at_least, _gamma, _integer, _real, _seed,
                        plurality)

# 1 - e^{2*gamma} * q below this is treated as out of domain for the
# data-dependent bound.  Just below the validity threshold it is about
# 1 / (e^{2*gamma} + 1), so the guard trips there once gamma passes about
# 13.8: at gamma = 20 and q = q_threshold(20) * (1 - 1e-14) it reads 7.1e-15.
_DENOMINATOR_GUARD = 1e-12


class GuaranteeMethod(enum.Enum):
    """Which analysis produced an (epsilon, delta) guarantee."""

    MOMENTS = "Moments"
    STRONG_COMPOSITION = "StrongComposition"


@dataclass(frozen=True, slots=True)
class LambdaGrid:
    """Ascending grid of positive integer moment orders."""

    values: tuple[int, ...]

    def __post_init__(self):
        vals = tuple(map(_integer, self.values))
        if None in vals:
            raise ValueError("lambda grid values must be integers, "
                             f"got {self.values[vals.index(None)]!r}")
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
        k = _at_least("lambda_max", lambda_max, 1)
        try:
            return cls(tuple(range(1, k + 1)))
        except OverflowError:  # len() of the range is past sys.maxsize
            raise ValueError(f"lambda_max={k} orders are more than a tuple can hold") from None

    @classmethod
    def default(cls) -> "LambdaGrid":
        return cls.up_to(8)


def _finite_nonnegative(name: str, value) -> float:
    """``value`` as a float; ValueError unless it is a finite real number >= 0."""
    real = value if type(value) is float else _real(value)
    if real is None:
        held = "a boolean" if isinstance(value, bool) else f"a {type(value).__name__}"
        raise ValueError(f"{name!r} holds {held}, not a number")
    if not 0.0 <= real < math.inf:
        raise ValueError(f"{name!r} must be finite and non-negative, got {real!r}")
    return real


def _check_delta(name: str, value: float) -> None:
    """ValueError naming ``name`` unless 0 < ``value`` < 1: the one delta rule."""
    if not 0.0 < value < 1.0:
        raise ValueError(f"{name} must lie strictly inside (0, 1), got {value!r}")


@dataclass
class PrivacyLedger:
    """Append-only columnar log of booked queries; the composition source of truth.

    Metadata pins the mechanism configuration: one gamma, one lambda grid,
    one master seed per ledger.  Query i is ``query_ids[i]``, booked with
    the bound ``q_bounds[i]`` on Pr[outcome != plurality winner].  Its alphas
    are ``row(q_bounds[i])``, derived from the q bound alone and kept once per
    distinct q bound in ``_rows``, which ``book`` fills from ``per_query_moment``.
    ``append`` is the only way in; it stores ``str`` ids and floats in [0, 1].
    """

    gamma: float
    lambda_grid: LambdaGrid
    seed: int = 0
    query_ids: list[str] = field(default_factory=list, init=False, repr=False)
    q_bounds: list[float] = field(default_factory=list, init=False, repr=False)
    _rows: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.gamma = _gamma(self.gamma)
        self.seed = _seed(self.seed)
        # Every alpha is at most its order's bound, so every row is finite.
        if not max(_independent_row(self.gamma, self.lambda_grid.values)) < math.inf:
            raise ValueError(f"moment bounds at gamma={self.gamma!r} overflow the float range")

    def append(self, query_id: str, q_bound: float) -> None:
        if not (type(query_id) is str and type(q_bound) is float and 0.0 <= q_bound <= 1.0):
            if not isinstance(query_id, str):
                raise ValueError(f"query_id must be a string, got {query_id!r}")
            q_bound = _finite_nonnegative("q_bound", q_bound)
            if q_bound > 1.0:
                raise ValueError(f"q_bound must lie in [0, 1], got {q_bound!r}")
        self.query_ids.append(query_id)
        self.q_bounds.append(q_bound)

    def book(self, hists, query_ids) -> None:
        """Append one ``per_query_moment`` per (histogram, query_id) pair.

        The one loop that books a batch of queries; its rows become the ledger's.
        A run books its queries in one call or in consecutive chunks, alike.
        """
        gamma, grid, rows = self.gamma, self.lambda_grid, self._rows
        for hist, query_id in zip(hists, query_ids, strict=True):
            q_bound, alphas = per_query_moment(hist, gamma, grid)
            self.append(query_id, q_bound)
            rows[q_bound] = alphas

    def row(self, q_bound: float) -> tuple[float, ...]:
        """``per_query_moment``'s alphas at ``q_bound``, derived once per distinct q bound."""
        if (alphas := self._rows.get(q_bound)) is None:
            alphas = self._rows[q_bound] = _alphas(q_bound, self.gamma, self.lambda_grid.values)
        return alphas

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
        _check_delta("delta", self.delta)


def data_independent_moment(gamma: float, order: int) -> float:
    """Moment bound 2 * gamma^2 * l * (l + 1), valid for every query.

    Defined at order 0 as well (returning 0) for convenience in tests.
    """
    return _bound(_gamma(gamma), _at_least("order", order, 0))


def _bound(gamma: float, order: int) -> float:
    """2 * gamma^2 * l * (l + 1) of a float gamma; ValueError naming an order past floats."""
    try:
        return 2.0 * gamma * gamma * order * (order + 1)
    except OverflowError:  # an int of 2**1024 or more has no float
        raise ValueError(f"order {order} is beyond the float range") from None


@functools.lru_cache(maxsize=1)
def _independent_row(gamma: float, orders: tuple[int, ...]) -> tuple[float, ...]:
    """``data_independent_moment`` at each order: the one data-independent row object."""
    return tuple([_bound(gamma, order) for order in orders])


def q_threshold(gamma: float) -> float:
    """Validity boundary (e^{2g} - 1)/(e^{4g} - 1) for the data-dependent bound.

    The data-dependent bound applies only to queries whose q stays strictly
    below this value.  Tends to 1/2 as gamma -> 0 and falls toward 0 for
    large gamma.  Raises ValueError once e^{4g} leaves the float range
    (gamma above about 177).
    """
    return _threshold(_gamma(gamma))


@functools.lru_cache(maxsize=1)
def _threshold(gamma: float) -> float:
    """``q_threshold`` of a float gamma that ``_gamma`` accepted, once per gamma."""
    try:
        # expm1 raises past 709.78, but 4 * gamma may be inf, where it returns inf.
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
    gamma = _gamma(gamma)
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

    Evaluated in log space (log-sum-exp, log1p) so small q loses no
    precision; the domain checks and the terms free of the order run once per
    (q, gamma) in ``_order_free_terms``.  Non-decreasing in q over its domain.

    Raises ValueError when q >= q_threshold(gamma) (callers must fall back
    to the data-independent bound) or when the denominator 1 - e^{2g} q is
    too close to zero to trust.
    """
    gamma = _gamma(gamma)
    if type(order) is not int or order < 1:
        order = _at_least("order", order, 1)
    if type(q) is not float:  # a numpy, int or 0-d array q computes as its float
        if (real := _real(q)) is None:
            raise ValueError(f"q must be a real number, got {q!r}")
        q = real
    return _moment(q, gamma, order)


def _moment(q: float, gamma: float, order: int) -> float:
    """``data_dependent_moment`` past its argument checks: a float q and gamma, an int order."""
    terms = _order_free_terms(q, gamma)
    if terms is None:  # q = 0
        return 0.0
    log_q, log1p_neg_q, log_denom = terms
    # log(e^first + e^second) from a = min(first, second) and b = max(first, second).
    a = b = log_first = (order + 1) * log1p_neg_q - order * log_denom
    log_second = log_q + 2.0 * gamma * order
    if log_second < log_first:
        a = log_second
    elif log_second > log_first:
        b = log_second
    if a != -math.inf:
        b = b + math.log1p(math.exp(a - b))
    # The bound is >= 0 exactly; chop float dust from the cancellation at q ~ 0.
    return b if b > 0.0 else 0.0


# ``per_query_moment`` calls ``data_dependent_moment`` once per grid order
# with one (q, gamma), so everything that does not depend on the order, the
# domain checks included, runs once per query.  Its float keys give exactly
# the uncached result, and a miss calls only private code, which no trace counts.
@functools.lru_cache(maxsize=1)
def _order_free_terms(q: float, gamma: float) -> tuple[float, float, float] | None:
    """``(log q, log1p(-q), log(1 - e^{2g} q))``, None at q = 0, or the domain errors."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must lie in [0, 1], got {q!r}")
    threshold = _threshold(gamma)
    if q >= threshold:
        raise ValueError(
            f"data-dependent bound needs q < {threshold:.6g} at gamma={gamma:.6g}, "
            f"got q={q:.6g}; use the data-independent bound instead")
    if q == 0.0:
        return None
    log_q = math.log(q)
    denom = -math.expm1(2.0 * gamma + log_q)  # 1 - e^{2g} * q
    if denom < _DENOMINATOR_GUARD:
        raise ValueError(
            f"1 - e^(2*gamma)*q = {denom:.3g} is below the stability guard; "
            "treat this q as out of domain")
    return log_q, math.log1p(-q), math.log(denom)


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
    gamma = _gamma(gamma)
    qb = q_upper_bound(hist, gamma)
    return qb, _alphas(qb, gamma, grid.values, data_dependent_moment)


def _alphas(q: float, gamma: float, orders: tuple[int, ...], moment=None) -> tuple[float, ...]:
    """The alphas booked at the q bound ``q``: per order, the smaller of the data-independent
    bound and, where q < q_threshold(gamma), the data-dependent bound.

    ``per_query_moment`` passes ``data_dependent_moment`` as ``moment``, one traced call
    per order.  A ledger's row passes none and runs ``_moment``'s formula over the whole
    grid in one loop, with the order-free terms and the guard taken once: a second copy
    of the formula, which ``TestDerivedRows`` holds equal to the first bit for bit.
    """
    row = _independent_row(gamma, orders)
    if not q < _threshold(gamma):  # no data_dependent_moment call, as a traced run pins
        return row
    alphas = []
    if moment is not None:
        for order, alpha in zip(orders, row):
            try:
                dd = moment(q, gamma, order)
            except ValueError:  # the denominator guard
                dd = alpha
            alphas.append(dd if dd < alpha else alpha)  # min(alpha, dd)
        return tuple(alphas)
    try:
        terms = _order_free_terms(q, gamma)
    except ValueError:  # the denominator guard: every order keeps its bound
        return row
    if terms is None:  # q = 0: every moment is 0, and no bound is below 0
        return (0.0,) * len(row)
    log_q, log1p_neg_q, log_denom = terms
    two_gamma, exp, log1p, inf = 2.0 * gamma, math.exp, math.log1p, math.inf
    for order, alpha in zip(orders, row):  # _moment's steps, in its order
        a = b = log_first = (order + 1) * log1p_neg_q - order * log_denom
        log_second = log_q + two_gamma * order
        if log_second < log_first:
            a = log_second
        elif log_second > log_first:
            b = log_second
        if a != -inf:
            b = b + log1p(exp(a - b))
        dd = b if b > 0.0 else 0.0
        alphas.append(dd if dd < alpha else alpha)
    return tuple(alphas)


def compose(ledger: PrivacyLedger) -> dict[int, float]:
    """Sum the per-query moments order-wise: alpha_total(l) = sum_i alpha_i(l).

    Plain addition is exact composition for adaptive mechanisms; no other
    aggregation is applied.  Each order adds left to right in ledger order
    from 0.0, whatever the Python version's ``sum`` would do: each entry's row
    folds into the per-order totals in one ``map(operator.add, ...)`` pass.
    An empty ledger composes to all zeros.
    """
    orders = ledger.lambda_grid.values
    totals = [0.0] * len(orders)
    for alphas in map(ledger.row, ledger.q_bounds):
        totals = list(map(operator.add, totals, alphas))
    return dict(zip(orders, totals))


def eps_for_delta(totals: Mapping[int, float], delta: float) -> Guarantee:
    """Smallest epsilon the tail bound certifies at failure probability delta.

        epsilon = min_l ( alpha_total(l) + ln(1/delta) ) / l

    Note this is a bound artifact: it stays positive even for all-zero
    totals (ln(1/delta)/l_max).  Zero-query ledgers should be special-cased
    by the caller (see ``moments_guarantee``).
    """
    if not totals:
        raise ValueError("totals must be non-empty")
    _check_delta("delta", delta)
    log_inv_delta = -math.log(delta)
    terms = []
    for order, alpha in totals.items():
        k, total = _at_least("totals order", order, 1), _real(alpha)  # numpy adds as float
        if total is None or math.isnan(total):
            raise ValueError(f"alpha_total({order}) is not a number: {alpha!r}")
        terms.append((k, total))
    best_eps, best_order = math.inf, None
    for order, alpha in sorted(terms):
        if alpha < 0.0:
            raise ValueError(f"alpha_total({order}) is negative: {alpha!r}")
        eps = (alpha + log_inv_delta) / order
        if eps < best_eps:
            best_eps, best_order = eps, order
    return Guarantee(epsilon=best_eps, delta=delta,
                     method=GuaranteeMethod.MOMENTS, argmin_lambda=best_order)


def strong_composition_eps(gamma: float, num_queries: int, delta: float) -> Guarantee:
    """Closed-form strong-composition guarantee over ``num_queries`` queries.

        epsilon = 4*T*gamma^2 + 2*gamma*sqrt(2*T*ln(1/delta))

    Kept as the looser baseline the moments route is compared against.
    """
    gamma = _gamma(gamma)
    t = float(_at_least("num_queries", num_queries, 0))
    _check_delta("delta", delta)
    eps = 4.0 * t * gamma * gamma + 2.0 * gamma * math.sqrt(2.0 * t * math.log(1.0 / delta))
    return Guarantee(epsilon=eps, delta=delta,
                     method=GuaranteeMethod.STRONG_COMPOSITION, argmin_lambda=None)


def moments_guarantee(ledger: PrivacyLedger, delta: float,
                      totals: Mapping[int, float] | None = None) -> Guarantee:
    """Composed moments guarantee for a ledger; ``totals``, if given, are ``compose(ledger)``.

    A ledger with zero queries reveals nothing, so epsilon is reported as 0
    by special case rather than the tail bound's ln(1/delta)/l_max artifact.
    """
    if len(ledger) == 0:
        return Guarantee(epsilon=0.0, delta=delta,
                         method=GuaranteeMethod.MOMENTS, argmin_lambda=None)
    return eps_for_delta(compose(ledger) if totals is None else totals, delta)
