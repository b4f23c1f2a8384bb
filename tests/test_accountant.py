import math
import re
import struct
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from privagg import (
    GuaranteeMethod,
    LambdaGrid,
    PrivacyLedger,
    VoteHistogram,
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
from privagg import accountant
from privagg.formats import FileFormatError, read_ledger, write_ledger
from conftest import histograms

GRID = LambdaGrid.default()


def booked(hists, query_ids, gamma=0.05, grid=GRID, seed=0) -> PrivacyLedger:
    ledger = PrivacyLedger(gamma=gamma, lambda_grid=grid, seed=seed)
    ledger.book(hists, query_ids)
    return ledger


class TestLambdaGrid:
    def test_default_is_one_to_eight(self):
        assert GRID.values == (1, 2, 3, 4, 5, 6, 7, 8)

    @pytest.mark.parametrize("values", [(), (0, 1), (2, 2), (3, 1)])
    def test_invalid(self, values):
        with pytest.raises(ValueError):
            LambdaGrid(values)

    @pytest.mark.parametrize("values", [(1.5, 2), ("1", "3"), (True, 2), (1, 2.0)])
    def test_orders_must_be_integers(self, values):
        with pytest.raises(ValueError, match="must be integers"):
            LambdaGrid(values)

    def test_numpy_integers_become_ints(self):
        grid = LambdaGrid((np.int64(1), np.int32(3)))
        assert grid.values == (1, 3) and all(type(v) is int for v in grid.values)

    # Each raised OverflowError before anything was allocated.  A lambda_max
    # such as 10**9 would try to allocate gigabytes, so none is tried here.
    @pytest.mark.parametrize("lambda_max", [10**400, 2**63], ids=["10**400", "2**63"])
    def test_up_to_past_a_tuple_is_refused_by_name(self, lambda_max):
        with pytest.raises(ValueError, match=re.escape(
                f"lambda_max={lambda_max} orders are more than a tuple can hold")):
            LambdaGrid.up_to(lambda_max)

    def test_ledger_order_past_floats_is_refused_by_name(self):
        with pytest.raises(ValueError, match=f"^order {10**400} is beyond the float range$"):
            PrivacyLedger(gamma=0.05, lambda_grid=LambdaGrid((1, 10**400)))


class TestDataIndependentMoment:
    def test_zero_order(self):
        assert data_independent_moment(0.37, 0) == 0.0

    def test_hand_values(self):
        # 2 * 0.05^2 * 8 * 9 = 0.36 ; 2 * 1 * 1 * 2 = 4
        assert data_independent_moment(0.05, 8) == pytest.approx(0.36, abs=1e-15)
        assert data_independent_moment(1.0, 1) == pytest.approx(4.0, abs=1e-15)

    def test_order_past_floats_is_refused_by_name(self):
        with pytest.raises(ValueError, match=f"^order {10**400} is beyond the float range$"):
            data_independent_moment(0.05, 10**400)


class TestQThreshold:
    def test_small_gamma_limit_is_half(self):
        assert q_threshold(1e-9) == pytest.approx(0.5, abs=1e-6)

    @pytest.mark.parametrize("gamma", [0.01, 0.05, 0.2, 1.0, 3.0])
    def test_matches_independent_closed_form(self, gamma):
        # (e^2g - 1)/(e^4g - 1) simplifies to 1/(1 + e^2g)
        assert q_threshold(gamma) == pytest.approx(
            1.0 / (1.0 + math.exp(2 * gamma)), rel=1e-12)

    def test_frozen_values(self):
        assert q_threshold(0.05) == pytest.approx(0.47502081252106, rel=1e-12)
        assert q_threshold(1.0) == pytest.approx(0.11920292202211755, rel=1e-12)

    def test_largest_gamma_keeps_its_float(self):
        # e^(4*177) is still a float; the formula runs unchanged.
        assert q_threshold(177.0) == math.expm1(354.0) / math.expm1(708.0)

    # At 1e308, 4 * gamma is inf itself, and expm1(inf) / expm1(inf) would be
    # NaN.  An infinite gamma is refused by the one gamma rule.
    @pytest.mark.parametrize("gamma", [177.5, 200.0, 1e6, 1e308, math.inf])
    def test_overflow_is_a_value_error_naming_gamma(self, gamma):
        message = (f"gamma must be a positive finite real, got {gamma!r}" if gamma == math.inf
                   else f"overflows at gamma={gamma!r}")
        with pytest.raises(ValueError, match=re.escape(message)):
            q_threshold(gamma)


class TestQUpperBound:
    def test_two_class_hand_value(self):
        # single term (2 + 0.05*100) / (4 * e^5)
        expected = (2 + 5) / (4 * math.exp(5))
        assert q_upper_bound(VoteHistogram((100, 0)), 0.05) == pytest.approx(
            expected, rel=1e-12)

    def test_flat_two_class_is_half(self):
        for gamma in (0.01, 0.5, 2.0):
            assert q_upper_bound(VoteHistogram((10, 10)), gamma) == 0.5

    def test_flat_five_class_clamps_to_one(self):
        assert q_upper_bound(VoteHistogram((10,) * 5), 0.3) == 1.0

    def test_largest_deficit_keeps_its_float(self):
        # gamma * deficit = 704 < 709.78, where math.exp overflows.
        assert q_upper_bound(VoteHistogram((0, 16)), 44.0) == 706.0 / (4.0 * math.exp(704.0))

    @pytest.mark.parametrize("counts, gamma, deficit", [
        ((0, 16), 45.0, 16), ((16, 0, 16), 45.0, 16), ((500, 0, 480), 1.5, 500)])
    def test_overflow_is_a_value_error_naming_gamma_and_deficit(self, counts, gamma,
                                                                deficit):
        # Rounding the term to 0 would under-report the miss probability.
        with pytest.raises(ValueError, match=rf"gamma={gamma!r} and deficit {deficit}\b"):
            q_upper_bound(VoteHistogram(counts), gamma)

    @pytest.mark.parametrize("counts, gamma, deficit", [
        ((5, 3), 1e308, 2), ((3, 5, 0), 1e308, 2), ((1, 0), math.inf, 1)])
    def test_infinite_gamma_times_deficit_is_the_same_overflow(self, counts, gamma,
                                                               deficit):
        # math.exp(inf) returns inf without raising, so the term was NaN and
        # the clamp turned it into 1.0.  An infinite gamma is refused by the
        # one gamma rule.
        message = (f"gamma must be a positive finite real, got {gamma!r}" if gamma == math.inf
                   else f"q bound overflows at gamma={gamma!r} and deficit {deficit}:")
        with pytest.raises(ValueError, match=re.escape(message)):
            q_upper_bound(VoteHistogram(counts), gamma)

    def test_clamp_before_an_overflowing_term_keeps_one(self):
        assert q_upper_bound(VoteHistogram((16, 16, 16, 0)), 45.0) == 1.0

    @given(hist=histograms(), gamma=st.floats(min_value=0.01, max_value=1.0))
    def test_always_in_unit_interval(self, hist, gamma):
        assert 0.0 < q_upper_bound(hist, gamma) <= 1.0

    @staticmethod
    def full_sum_then_clamp(hist, gamma):
        """Every term summed in class order, clamped once at the end."""
        winner = hist.counts.index(max(hist.counts))
        top = hist.counts[winner]
        raw = 0.0
        for j, c in enumerate(hist.counts):
            if j != winner:
                d = gamma * (top - c)
                raw += (2.0 + d) / (4.0 * math.exp(d))
        return min(1.0, raw)

    # Up to 8 classes of at most 25 votes; gamma * deficit stays below 709,
    # where math.exp(d) would overflow.
    small_histograms = st.lists(st.integers(0, 25), min_size=2, max_size=8).filter(
        lambda c: sum(c) > 0).map(lambda c: VoteHistogram(tuple(c)))

    @given(hist=small_histograms, gamma=st.floats(min_value=1e-6, max_value=25.0))
    def test_equals_full_sum_then_clamp(self, hist, gamma):
        assert q_upper_bound(hist, gamma) == self.full_sum_then_clamp(hist, gamma)

    @given(counts=st.lists(st.integers(min_value=0, max_value=20), min_size=100,
                           max_size=100).filter(lambda c: sum(c) > 0),
           gamma=st.floats(min_value=1e-3, max_value=5.0))
    def test_equals_full_sum_on_contested_hundred_classes(self, counts, gamma):
        hist = VoteHistogram(tuple(counts))
        assert q_upper_bound(hist, gamma) == self.full_sum_then_clamp(hist, gamma)

    @given(hist=small_histograms)
    def test_equals_full_sum_where_the_sum_crosses_one(self, hist):
        # The raw sum falls with gamma; bisect to the gamma where it crosses
        # 1 and compare there and at its neighbouring floats.
        top = max(hist.counts)
        raw = lambda g: sum((2.0 + g * (top - c)) / (4.0 * math.exp(g * (top - c)))
                            for c in hist.counts) - 0.5  # less the winner's own term
        lo, hi = 1e-9, 25.0
        if not raw(lo) > 1.0 > raw(hi):
            return
        for _ in range(200):
            mid = (lo + hi) / 2
            if mid in (lo, hi):
                break
            lo, hi = (mid, hi) if raw(mid) > 1.0 else (lo, mid)
        for g in (lo, hi, math.nextafter(lo, 0.0), math.nextafter(hi, math.inf)):
            assert q_upper_bound(hist, g) == self.full_sum_then_clamp(hist, g)


class TestDataDependentMoment:
    def test_q_zero_is_zero(self):
        for gamma, order in [(0.05, 1), (1.0, 8), (0.2, 3)]:
            assert data_dependent_moment(0.0, gamma, order) == 0.0

    def test_against_naive_evaluation(self):
        # oracle: direct unstable evaluation of the closed form
        q, gamma, order = 0.01, 0.05, 1
        naive = math.log((1 - q) * ((1 - q) / (1 - math.exp(2 * gamma) * q)) ** order
                         + q * math.exp(2 * gamma * order))
        value = data_dependent_moment(q, gamma, order)
        assert value == pytest.approx(naive, rel=1e-10)
        assert value == pytest.approx(0.0021023253790841, rel=1e-10)

    @given(q=st.floats(min_value=1e-6, max_value=0.118),
           gamma=st.floats(min_value=0.01, max_value=1.0),
           order=st.integers(min_value=1, max_value=8))
    def test_matches_naive_evaluation_in_domain(self, q, gamma, order):
        if q >= q_threshold(gamma):
            return
        naive = math.log((1 - q) * ((1 - q) / (1 - math.exp(2 * gamma) * q)) ** order
                         + q * math.exp(2 * gamma * order))
        assert data_dependent_moment(q, gamma, order) == pytest.approx(
            naive, rel=1e-9, abs=1e-12)

    def test_at_threshold_is_domain_error(self):
        threshold = q_threshold(0.05)
        with pytest.raises(ValueError, match="data-independent"):
            data_dependent_moment(threshold, 0.05, 1)
        assert data_dependent_moment(threshold * 0.999, 0.05, 1) >= 0.0
        # A NaN threshold would let q = 0 pass the domain check.
        with pytest.raises(ValueError, match="q threshold overflows"):
            data_dependent_moment(0.0, 1e308, 1)

    def test_non_negative(self):
        for q in (1e-300, 1e-12, 1e-4):
            assert data_dependent_moment(q, 0.05, 1) >= 0.0

    @staticmethod
    def uncached(q, gamma, order):
        """The closed form in log space, every term computed at each call."""
        log_q = math.log(q)
        denom = -math.expm1(2.0 * gamma + log_q)
        log_first = (order + 1) * math.log1p(-q) - order * math.log(denom)
        log_second = log_q + 2.0 * gamma * order
        a, b = min(log_first, log_second), max(log_first, log_second)
        return max(0.0, b + math.log1p(math.exp(a - b)))

    @given(fraction=st.floats(min_value=1e-300, max_value=0.99),
           value=st.sampled_from([0.05, 1.0, 3.0]),
           orders=st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=4))
    def test_cached_terms_are_bit_identical(self, fraction, value, orders):
        # One q at a gamma of one value but several types, 0-d arrays included:
        # each call computes at float(q) and float(gamma), so no call may reuse
        # the terms of another whose float differs (float32's does).
        p = fraction * q_threshold(value)
        for q, gamma in [(p, value), (p, np.float32(value)), (p, np.float64(value)),
                         (p, int(value) or value), (p, value), (p, np.array(value)),
                         (np.array(p), value), (np.array(p), np.array(value))]:
            for order in orders:
                result = data_dependent_moment(q, gamma, order)
                assert type(result) is float
                assert repr(result) == repr(self.uncached(float(q), float(gamma), order))
        for gamma in (value, np.float32(value), np.array(value)):
            threshold = q_threshold(gamma)
            assert type(threshold) is float and threshold == reference_threshold(float(gamma))


def reference_threshold(gamma):
    """``q_threshold``'s closed form and overflow error, computed at every call."""
    try:
        if 4.0 * gamma < math.inf:
            return math.expm1(2.0 * gamma) / math.expm1(4.0 * gamma)
    except OverflowError:
        pass
    raise ValueError(f"q threshold overflows at gamma={gamma!r}: e^(4*gamma) "
                     "is beyond the float range")


def reference_log_add(logx, logy):
    """log(exp(logx) + exp(logy)) without leaving log space."""
    a, b = min(logx, logy), max(logx, logy)
    if a == -math.inf:
        return b
    return b + math.log1p(math.exp(a - b))


def reference_data_dependent_moment(q, gamma, order):
    """``data_dependent_moment`` with its domain checks and order-free terms
    computed at every call, uncached, and ``reference_log_add`` as a call."""
    if not gamma > 0.0:
        raise ValueError(f"gamma must be positive, got {gamma!r}")
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must lie in [0, 1], got {q!r}")
    threshold = reference_threshold(gamma)
    if q >= threshold:
        raise ValueError(
            f"data-dependent bound needs q < {threshold:.6g} at gamma={gamma:.6g}, "
            f"got q={q:.6g}; use the data-independent bound instead")
    if q == 0.0:
        return 0.0
    log_q = math.log(q)
    denom = -math.expm1(2.0 * gamma + log_q)
    if denom < 1e-12:
        raise ValueError(
            f"1 - e^(2*gamma)*q = {denom:.3g} is below the stability guard; "
            "treat this q as out of domain")
    log1p_neg_q, log_denom = math.log1p(-q), math.log(denom)
    log_first = (order + 1) * log1p_neg_q - order * log_denom
    log_second = log_q + 2.0 * gamma * order
    alpha = reference_log_add(log_first, log_second)
    return max(0.0, alpha)


def reference_per_query_moment(hist, gamma, grid):
    """``per_query_moment`` with one ``min`` per order, through the references."""
    qb = accountant.q_upper_bound(hist, gamma)
    usable = qb < reference_threshold(gamma)
    two_gamma_sq = 2.0 * gamma * gamma
    alphas = []
    for order in grid.values:
        alpha = two_gamma_sq * order * (order + 1)
        if usable:
            try:
                alpha = min(alpha, reference_data_dependent_moment(qb, gamma, order))
            except ValueError:
                pass
        alphas.append(alpha)
    return qb, tuple(alphas)


def bits(value):
    """The type and ``float.hex`` of a float, or of each in a (q bound, alphas) pair."""
    if isinstance(value, tuple):
        return bits(value[0]), tuple(map(bits, value[1]))
    return type(value), float.hex(float(value))


def outcome(fn, *args):
    """``bits`` of what ``fn(*args)`` returns, or the type and message it raises."""
    try:
        return bits(fn(*args))
    except (ValueError, TypeError, OverflowError) as exc:
        return type(exc), str(exc)


class TestMatchesReference:
    """Every result bit, type and error equals the reference's at float(q) and
    float(gamma): a numpy or 0-d array argument computes as its Python float."""

    types = st.sampled_from([float, np.float32, np.float64, np.array])

    @staticmethod
    def q_points(gamma, fraction, steps):
        """q = 0, -0.0, 5e-324 and NaN, q at and beside q_threshold(gamma),
        ``steps`` ulps below it (the denominator guard trips there from gamma
        about 13.8), a fraction of it, and q in and beyond [0, 1]."""
        try:
            t = q_threshold(gamma)
        except ValueError:  # past gamma 177 every q takes the overflow error
            t = 0.5
        return [0.0, -0.0, 5e-324, math.nan, math.nextafter(t, 0.0), t,
                math.nextafter(t, 1.0), t - steps * math.ulp(t), fraction * t,
                fraction, 1.0 + fraction]

    gammas = st.one_of(st.floats(min_value=1e-6, max_value=177.0),
                       st.sampled_from([1e-6, 0.05, 13.8, 20.0, 50.0, 177.0, 177.5]))

    @settings(max_examples=200)
    @given(gamma=gammas, to_type=types, fraction=st.floats(min_value=0.0, max_value=1.0),
           steps=st.integers(min_value=0, max_value=2**20))
    def test_data_dependent_moment(self, gamma, to_type, fraction, steps):
        x = to_type(gamma)
        gamma = float(x)
        for q in map(to_type, self.q_points(gamma, fraction, steps)):
            for order in range(-1, 33):
                assert outcome(data_dependent_moment, q, x, order) == outcome(
                    reference_data_dependent_moment, float(q), gamma, order), (q, order)

    @settings(max_examples=100)
    @given(hist=st.lists(st.integers(min_value=0, max_value=250), min_size=2, max_size=10)
           .filter(any).map(lambda counts: VoteHistogram(tuple(counts))), gamma=gammas,
           to_type=types, fraction=st.floats(min_value=0.0, max_value=1.0),
           steps=st.integers(min_value=0, max_value=2**20))
    def test_per_query_moment(self, hist, gamma, to_type, fraction, steps):
        x, grid = to_type(gamma), LambdaGrid.up_to(32)
        gamma = float(x)
        assert outcome(per_query_moment, hist, x, grid) == outcome(
            reference_per_query_moment, hist, gamma, grid)
        # Every q point as the query's q bound, the guard region included.
        for q in self.q_points(gamma, fraction, steps):
            with mock.patch.object(accountant, "q_upper_bound", lambda hist, gamma: q):
                assert outcome(per_query_moment, hist, x, grid) == outcome(
                    reference_per_query_moment, hist, gamma, grid), q


def packed(alphas):
    """The type and IEEE bytes of each alpha."""
    return [(type(alpha), struct.pack("<d", alpha)) for alpha in alphas]


class TestDerivedRows:
    """``_alphas``, which derives a ledger's rows from its q bounds, books
    ``per_query_moment``'s alphas bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(counts=st.lists(st.integers(min_value=0, max_value=250), min_size=2, max_size=100)
           .filter(any),
           gamma=st.floats(min_value=1e-300, max_value=20.0)
           | st.sampled_from([1e-300, 0.05, 13.8, 14.0, 20.0]),
           lambda_max=st.integers(min_value=1, max_value=32),
           steps=st.integers(min_value=0, max_value=2**20))
    def test_matches_per_query_moment(self, counts, gamma, lambda_max, steps):
        hist, grid = VoteHistogram(tuple(counts)), LambdaGrid.up_to(lambda_max)
        t = q_threshold(gamma)
        # q = 0, the smallest q, q beside and at q_threshold, and ``steps`` ulps
        # below it, where the denominator guard trips from gamma about 13.8.
        points = [0.0, 5e-324, math.nextafter(t, 0.0), t, max(0.0, t - steps * math.ulp(t))]
        booked = []
        try:
            booked.append(per_query_moment(hist, gamma, grid))
        except ValueError:  # e^(gamma * deficit) overflows the q bound at large gamma
            pass
        for q in points:
            with mock.patch.object(accountant, "q_upper_bound", lambda hist, gamma: q):
                booked.append(per_query_moment(hist, gamma, grid))
        for q_bound, alphas in booked:
            assert packed(accountant._alphas(q_bound, gamma, grid.values)) == packed(alphas)

    # Sparse and large orders, where e^{2 gamma l} q dominates the sum or the
    # other term underflows against it: the two copies of the formula part there.
    @settings(max_examples=200, deadline=None)
    @given(orders=st.sampled_from([(1, 2, 1000), (7, 10**6), (1, 10**12), (3, 2**53 + 1)])
           | st.lists(st.integers(min_value=1, max_value=10**15), min_size=1, max_size=6,
                      unique=True).map(lambda values: tuple(sorted(values))),
           gamma=st.floats(min_value=1e-300, max_value=20.0)
           | st.sampled_from([1e-300, 0.05, 0.3, 13.8, 20.0]),
           fraction=st.floats(min_value=0.0, max_value=1.0))
    def test_sparse_and_large_grids(self, orders, gamma, fraction):
        t = q_threshold(gamma)
        for q in (0.0, 5e-324, 1e-300, fraction * t, math.nextafter(t, 0.0)):
            with mock.patch.object(accountant, "q_upper_bound", lambda hist, gamma: q):
                q_bound, alphas = per_query_moment(VoteHistogram((1, 0)), gamma,
                                                   LambdaGrid(orders))
            assert packed(accountant._alphas(q_bound, gamma, orders)) == packed(alphas), q

    def test_denominator_guard_keeps_the_bounds(self):
        gamma = 20.0
        q = q_threshold(gamma) * (1 - 1e-14)  # 1 - e^(2 gamma) q is 7.1e-15 here
        with pytest.raises(ValueError, match="stability guard"):
            data_dependent_moment(q, gamma, 1)
        row = accountant._alphas(q, gamma, GRID.values)
        assert row == tuple(data_independent_moment(gamma, order) for order in GRID.values)


class TestFloatArithmetic:
    """Every accountant function computes in Python floats, whatever real it is given."""

    def test_float32_gamma_books_the_float_bounds(self):
        hist = VoteHistogram((200, 100, 0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # float32 arithmetic warned of an overflow here
            q_bound = q_upper_bound(hist, np.float32(1.0))
            booked = per_query_moment(hist, np.float32(1.0), GRID)
        # Rounded to float32, the q bound was 0 and every alpha 0.
        assert type(q_bound) is float and q_bound == 9.486193738853132e-43
        assert bits(booked) == bits(per_query_moment(hist, 1.0, GRID))
        gamma = np.float32(0.05)
        assert bits(q_upper_bound(VoteHistogram((210, 25, 15)), gamma)) == bits(
            q_upper_bound(VoteHistogram((210, 25, 15)), float(gamma)))
        assert bits(data_dependent_moment(0.001, gamma, 3)) == bits(
            data_dependent_moment(0.001, float(gamma), 3))

    @pytest.mark.parametrize("call", [
        pytest.param(lambda g: data_independent_moment(g, 1), id="data_independent_moment"),
        pytest.param(q_threshold, id="q_threshold"),
        pytest.param(lambda g: q_upper_bound(VoteHistogram((3, 1)), g), id="q_upper_bound"),
        pytest.param(lambda g: data_dependent_moment(0.01, g, 1), id="data_dependent_moment"),
        pytest.param(lambda g: per_query_moment(VoteHistogram((3, 1)), g, GRID),
                     id="per_query_moment"),
        pytest.param(lambda g: strong_composition_eps(g, 10, 1e-5),
                     id="strong_composition_eps")])
    def test_bool_gamma_is_refused(self, call):
        # data_independent_moment(True, 1) gave 4.0, as if gamma were 1.
        for gamma in (True, np.True_, np.array(True)):
            with pytest.raises(ValueError, match=re.escape(
                    f"gamma must be a positive finite real, got {gamma!r}")):
                call(gamma)

    @pytest.mark.parametrize("call, message", [
        pytest.param(lambda: data_independent_moment(0.05, 2.5),
                     "order must be an integer, got 2.5", id="fractional-order"),
        pytest.param(lambda: strong_composition_eps(0.05, 2.5, 1e-5),
                     "num_queries must be an integer, got 2.5", id="fractional-count"),
        pytest.param(lambda: eps_for_delta({1: True}, 1e-5),
                     "alpha_total(1) is not a number: True", id="bool-total"),
        pytest.param(lambda: eps_for_delta({1: "0.5"}, 1e-5),
                     "alpha_total(1) is not a number: '0.5'", id="str-total"),
        pytest.param(lambda: eps_for_delta({0: 0.5}, 1e-5),
                     "totals order must be >= 1, got 0", id="order-zero"),
        # Order 1 was skipped silently, and a lone NaN read "epsilon is not finite: inf".
        pytest.param(lambda: eps_for_delta({1: math.nan, 2: 1.0}, 1e-5),
                     "alpha_total(1) is not a number: nan", id="nan-total"),
        pytest.param(lambda: eps_for_delta({1: np.float64(math.nan)}, 1e-5),
                     "alpha_total(1) is not a number: np.float64(nan)", id="lone-nan-total"),
        pytest.param(lambda: data_dependent_moment("x", 0.05, 1),
                     "q must be a real number, got 'x'", id="str-q"),
        pytest.param(lambda: data_dependent_moment(True, 0.05, 1),
                     "q must be a real number, got True", id="bool-q")])
    def test_other_arguments_are_refused_by_name(self, call, message):
        # 0.04375, epsilon 0.784, epsilon 12.51, a bare comparison TypeError and a
        # skipped order before.
        with pytest.raises(ValueError, match=re.escape(message)):
            call()

    def test_zero_d_arrays_give_the_float_result(self):
        hist, gamma = VoteHistogram((210, 25, 15)), np.array(0.05)
        q = q_upper_bound(hist, 0.05)
        for result, expect in [
                (data_independent_moment(gamma, 3), data_independent_moment(0.05, 3)),
                (q_threshold(gamma), q_threshold(0.05)),
                (q_upper_bound(hist, gamma), q),
                (data_dependent_moment(np.array(q), 0.05, 3), data_dependent_moment(q, 0.05, 3)),
                (data_dependent_moment(np.array(q), gamma, 3), data_dependent_moment(q, 0.05, 3)),
                (per_query_moment(hist, gamma, GRID), per_query_moment(hist, 0.05, GRID)),
                (strong_composition_eps(gamma, 10, 1e-5).epsilon,
                 strong_composition_eps(0.05, 10, 1e-5).epsilon)]:
            assert bits(result) == bits(expect)

    def test_epsilons_are_floats(self):
        # A float32 total gave the float32 epsilon 12.012925, below the exact one.
        guarantee = eps_for_delta({1: np.float32(0.5)}, 1e-5)
        assert type(guarantee.epsilon) is float and guarantee.epsilon == 12.012925464970229
        strong = strong_composition_eps(np.float32(0.05), 10, 1e-5)
        assert type(strong.epsilon) is float
        assert strong.epsilon == strong_composition_eps(float(np.float32(0.05)), 10, 1e-5).epsilon


class TestThm3Monotonicity:
    """The data-dependent bound is non-decreasing in q over its domain."""

    @pytest.mark.parametrize("gamma", [0.01, 0.05, 0.2, 1.0])
    def test_sampled_pairs(self, gamma):
        import numpy as np
        rng = np.random.default_rng(17)
        threshold = q_threshold(gamma)
        qs = rng.uniform(0.0, threshold, size=(1000, 2))
        violations = 0
        for order in GRID.values:
            for q1, q2 in qs:
                if q1 > q2:
                    q1, q2 = q2, q1
                lo = data_dependent_moment(q1, gamma, order)
                hi = data_dependent_moment(q2, gamma, order)
                violations += hi < lo - 1e-12
        assert violations == 0


class TestPerQueryMoment:
    def test_strong_quorum_uses_data_dependent(self):
        hist = VoteHistogram(tuple([250] + [0] * 9))
        q_bound, alphas = per_query_moment(hist, 0.05, GRID)
        # q bound by hand: 9 * (2 + 12.5) / (4 * e^12.5)
        assert q_bound == pytest.approx(
            9 * (2 + 12.5) / (4 * math.exp(12.5)), rel=1e-12)
        assert alphas[0] == data_dependent_moment(q_bound, 0.05, 1)
        assert alphas[0] < 0.005  # data-independent would be 0.01

    def test_flat_histogram_falls_back(self):
        q_bound, alphas = per_query_moment(VoteHistogram((10, 10)), 0.05, GRID)
        assert q_bound == 0.5
        assert all(alpha == data_independent_moment(0.05, order)
                   for order, alpha in zip(GRID.values, alphas))

    @given(gamma=st.floats(min_value=1e-150, max_value=100.0), lambda_max=st.integers(1, 300))
    def test_fallback_equals_data_independent_moment(self, gamma, lambda_max):
        grid = LambdaGrid.up_to(lambda_max)
        _, alphas = per_query_moment(VoteHistogram((10, 10, 10)), gamma, grid)
        assert alphas == tuple(data_independent_moment(gamma, order) for order in grid.values)

    @given(hist=histograms(), gamma=st.floats(min_value=0.01, max_value=1.0))
    def test_never_exceeds_data_independent_bound(self, hist, gamma):
        _, alphas = per_query_moment(hist, gamma, GRID)
        for order, alpha in zip(GRID.values, alphas):
            assert alpha <= data_independent_moment(gamma, order)
            assert alpha >= 0.0


class TestQueryMoment:
    """The checks ``PrivacyLedger.append`` makes on one booked query, and the row it derives."""

    def make(self, **changes):
        fields = dict(query_id="q", q_bound=0.5, orders=(1, 2))
        fields.update(changes)
        ledger = PrivacyLedger(gamma=0.05, lambda_grid=LambdaGrid(fields.pop("orders")))
        ledger.append(**fields)
        return ledger

    def test_valid(self):
        ledger = self.make()
        assert ledger.q_bounds == [0.5]
        # 0.5 is above q_threshold(0.05): the row is the data-independent bounds.
        assert ledger.row(0.5) == (data_independent_moment(0.05, 1),
                                   data_independent_moment(0.05, 2))

    @pytest.mark.parametrize("changes", [
        dict(orders=(0, 1)),
        dict(q_bound=1.5),
        dict(q_bound=False),
        dict(q_bound="0.5"),
        dict(query_id=1),
        dict(q_bound=math.inf),
        dict(q_bound=-0.5),
        dict(q_bound=math.nan),
        dict(q_bound=-(10**400)),
        dict(q_bound=None),
    ])
    def test_invalid(self, changes):
        with pytest.raises(ValueError):
            self.make(**changes)

    def test_alphas_are_not_taken(self):
        # A ledger once stored a free alpha tuple per entry, next to its q bound.
        with pytest.raises(TypeError):
            PrivacyLedger(gamma=0.05, lambda_grid=GRID).append("q", 0.5, (0.01,) * 8)

    def test_row_is_derived_once_per_q_bound(self):
        ledger = PrivacyLedger(gamma=0.05, lambda_grid=GRID)
        hist = VoteHistogram((40, 3))
        q_bound, alphas = per_query_moment(hist, 0.05, GRID)
        with mock.patch.object(accountant, "_alphas", wraps=accountant._alphas) as derive:
            rows = [ledger.row(q) for q in (q_bound, q_bound, 0.75, 1.0, q_bound)]
        assert derive.call_count == 3
        assert rows[0] == alphas and rows[1] is rows[0] and rows[4] is rows[0]
        assert rows[2] == rows[3] == per_query_moment(VoteHistogram((10, 10)), 0.05, GRID)[1]

    @pytest.mark.parametrize("gamma, grid, message", [
        # 2 gamma^2 l (l + 1) is inf: no row can be a float.
        (1e200, (1, 2), "moment bounds at gamma=1e+200 overflow the float range"),
        (0.05, (1, 10**160), "moment bounds at gamma=0.05 overflow the float range"),
    ])
    def test_ledger_whose_bounds_overflow_is_refused(self, gamma, grid, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            PrivacyLedger(gamma=gamma, lambda_grid=LambdaGrid(grid))

    def test_row_past_the_threshold_overflow_is_refused(self):
        # The bounds are finite at gamma 200, but q_threshold overflows, as it
        # does in per_query_moment.
        ledger = PrivacyLedger(gamma=200.0, lambda_grid=GRID)
        ledger.append("q", 0.0)
        for call in (lambda: ledger.row(0.0), lambda: compose(ledger),
                     lambda: per_query_moment(VoteHistogram((5, 3)), 200.0, GRID)):
            with pytest.raises(ValueError, match="q threshold overflows at gamma=200.0"):
                call()

    def test_numbers_are_stored_as_floats(self):
        ledger = self.make(q_bound=np.float64(0.25))
        assert ledger.q_bounds == [0.25] and type(ledger.q_bounds[0]) is float
        ledger.append("r", 1)
        assert ledger.q_bounds == [0.25, 1.0] and type(ledger.q_bounds[1]) is float

    @pytest.mark.parametrize("gamma", [True, "0.05", math.nan, math.inf, 0.0, -0.05,
                                       5e-324, pytest.param(10**400, id="10**400")])
    def test_invalid_gamma(self, gamma):
        with pytest.raises(ValueError, match="gamma"):
            PrivacyLedger(gamma=gamma, lambda_grid=GRID)

    def test_gamma_stored_as_float(self):
        ledger = PrivacyLedger(gamma=np.float64(0.05), lambda_grid=GRID)
        assert type(ledger.gamma) is float and ledger.gamma == 0.05
        assert type(PrivacyLedger(gamma=1, lambda_grid=GRID).gamma) is float


def _uniform_ledger(num_queries, gamma=0.05, hist=VoteHistogram((10, 10))):
    ledger = PrivacyLedger(gamma=gamma, lambda_grid=GRID)
    q_bound, _ = per_query_moment(hist, gamma, GRID)
    for i in range(num_queries):
        ledger.append(f"q{i}", q_bound)
    return ledger


class TestCompose:
    def test_empty_ledger_composes_to_zero(self):
        totals = compose(PrivacyLedger(gamma=0.05, lambda_grid=GRID))
        assert totals == {order: 0.0 for order in GRID.values}

    def test_hundred_identical_data_independent_queries(self):
        totals = compose(_uniform_ledger(100))
        for order in GRID.values:
            assert totals[order] == pytest.approx(0.5 * order * (order + 1), rel=1e-12)

    def test_additive_over_concatenation(self):
        a = _uniform_ledger(30)
        b = _uniform_ledger(12, hist=VoteHistogram((40, 3)))
        combined = PrivacyLedger(gamma=0.05, lambda_grid=GRID)
        for ledger in (a, b):
            for entry in zip(ledger.query_ids, ledger.q_bounds):
                combined.append(*entry)
        totals_a, totals_b, totals = compose(a), compose(b), compose(combined)
        for order in GRID.values:
            assert totals[order] == pytest.approx(
                totals_a[order] + totals_b[order], rel=1e-12)

    def test_adds_left_to_right(self):
        # fsum, numpy's pairwise sum and the compensated sum() of Python >= 3.12
        # all give 1e16 + 2 here; each += rounds the 1.0 away.  No q bound has
        # these alphas, so the rows are set by hand.
        ledger = PrivacyLedger(gamma=0.05, lambda_grid=LambdaGrid((1,)))
        for i, alpha in enumerate([1e16, 1.0, 1.0]):
            ledger.append(f"q{i}", i / 10)
            ledger._rows[i / 10] = (alpha,)
        assert compose(ledger) == {1: 1e16}

    def test_rows_follow_the_ledger_grid(self):
        hist = VoteHistogram((40, 3))
        for grid in (GRID, LambdaGrid.up_to(4), LambdaGrid((3, 32))):
            ledger = booked([hist], ["q"], grid=grid)
            assert ledger.row(ledger.q_bounds[0]) == per_query_moment(hist, 0.05, grid)[1]
            assert list(compose(ledger)) == list(grid.values)

    def test_mismatched_gamma_rejected(self, tmp_path):
        # Only a ledger file holds a gamma per entry; the reader checks it.
        path = tmp_path / "ledger.jsonl"
        write_ledger(path, _uniform_ledger(3))
        lines = path.read_text().splitlines()
        lines[2] = lines[2].replace('"gamma":0.05', '"gamma":0.1')
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FileFormatError, match=":3: .*ledger gamma is 0.05, entry has "
                                                  "gamma 0.1"):
            read_ledger(path)


class TestBook:
    def test_books_each_histogram_under_its_id(self):
        hists = [VoteHistogram((10, 10)), VoteHistogram((40, 3)), VoteHistogram((0, 7, 1))]
        ledger = booked(hists, ["a", "b", "c"], seed=3)
        assert (ledger.gamma, ledger.lambda_grid, ledger.seed) == (0.05, GRID, 3)
        assert ledger.query_ids == ["a", "b", "c"]
        assert [(q, ledger.row(q)) for q in ledger.q_bounds] == [
            per_query_moment(h, 0.05, GRID) for h in hists]

    def test_chunks_book_what_one_call_books(self):
        hists = [VoteHistogram((10, 10)), VoteHistogram((40, 3)), VoteHistogram((0, 7, 1))]
        chunked = booked(hists[:1], ["a"])
        chunked.book(hists[1:], ["b", "c"])
        assert chunked == booked(hists, ["a", "b", "c"])

    def test_rows_of_book_are_not_derived_again(self):
        hists = [VoteHistogram((40, 3)), VoteHistogram((10, 10)), VoteHistogram((40, 3))]
        with mock.patch.object(accountant, "_alphas", wraps=accountant._alphas) as derive:
            ledger = booked(hists, ["a", "b", "c"])
            compose(ledger)
        # per_query_moment's own three calls: the ledger derived none.
        assert derive.call_count == 3 and len(ledger._rows) == 2

    def test_ids_must_pair_with_histograms(self):
        with pytest.raises(ValueError):
            booked([VoteHistogram((1, 2))], [])


class TestEpsForDelta:
    def test_hundred_query_value_against_exhaustive_oracle(self):
        totals = compose(_uniform_ledger(100))
        candidates = [(100 * 2 * 0.05**2 * l * (l + 1) + math.log(1e5)) / l
                      for l in GRID.values]
        guarantee = eps_for_delta(totals, 1e-5)
        assert guarantee.epsilon == pytest.approx(min(candidates), rel=1e-12)
        assert guarantee.epsilon == pytest.approx(5.302585092994046, rel=1e-10)
        assert guarantee.argmin_lambda == 5
        assert guarantee.method is GuaranteeMethod.MOMENTS

    def test_all_zero_totals_keeps_formula_artifact(self):
        # raw tail bound stays positive even with zero moments: ln(1e5)/8 at
        # the grid maximum; the zero-query special case lives in
        # moments_guarantee, not here
        guarantee = eps_for_delta({order: 0.0 for order in GRID.values}, 1e-5)
        assert guarantee.epsilon == pytest.approx(math.log(1e5) / 8, rel=1e-12)
        assert guarantee.argmin_lambda == 8

    def test_delta_near_one_drives_epsilon_to_zero(self):
        guarantee = eps_for_delta({order: 0.0 for order in GRID.values}, 1 - 1e-12)
        assert 0 <= guarantee.epsilon < 1e-9

    @given(delta1=st.floats(min_value=1e-9, max_value=0.5),
           delta2=st.floats(min_value=1e-9, max_value=0.5))
    def test_non_increasing_in_delta(self, delta1, delta2):
        totals = compose(_uniform_ledger(10))
        if delta1 > delta2:
            delta1, delta2 = delta2, delta1
        assert eps_for_delta(totals, delta2).epsilon <= eps_for_delta(totals, delta1).epsilon

    @given(scale=st.floats(min_value=0.0, max_value=1.0))
    def test_non_increasing_as_totals_shrink(self, scale):
        totals = compose(_uniform_ledger(10))
        shrunk = {order: alpha * scale for order, alpha in totals.items()}
        assert eps_for_delta(shrunk, 1e-5).epsilon <= eps_for_delta(totals, 1e-5).epsilon

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            eps_for_delta({}, 1e-5)
        with pytest.raises(ValueError):
            eps_for_delta({1: 0.0}, 0.0)
        with pytest.raises(ValueError):
            eps_for_delta({1: 0.0}, 1.0)


def delta_for_eps(totals, epsilon):
    """Tail-bound failure probability at a target epsilon, clamped to <= 1:
    delta = min_l exp(alpha_total(l) - l * epsilon), the inverse of
    ``eps_for_delta`` that these tests check it against."""
    if not totals:
        raise ValueError("totals must be non-empty")
    if epsilon < 0.0:
        raise ValueError(f"epsilon must be non-negative, got {epsilon!r}")
    best = min(totals[order] - order * epsilon for order in totals)
    if best >= 0.0:
        return 1.0
    return math.exp(best)


class TestDeltaForEps:
    def test_zero_epsilon_clamps_to_one(self):
        assert delta_for_eps({order: 0.0 for order in GRID.values}, 0.0) == 1.0

    def test_round_trip_consistent(self):
        totals = compose(_uniform_ledger(100))
        guarantee = eps_for_delta(totals, 1e-5)
        # equality holds at the argmin in exact arithmetic; allow an ulp
        assert delta_for_eps(totals, guarantee.epsilon) <= 1e-5 * (1 + 1e-12)

    def test_hundred_query_consistency(self):
        totals = compose(_uniform_ledger(100))
        assert delta_for_eps(totals, 5.302585092994046) <= 1e-5 * (1 + 1e-12)
        assert delta_for_eps(totals, 6.0) < 1e-6


class TestStrongComposition:
    def test_hundred_queries(self):
        guarantee = strong_composition_eps(0.05, 100, 1e-5)
        assert guarantee.epsilon == pytest.approx(5.798525912188081, rel=1e-12)
        assert 5.79 <= guarantee.epsilon <= 5.81
        assert guarantee.method is GuaranteeMethod.STRONG_COMPOSITION
        assert guarantee.argmin_lambda is None

    def test_thousand_queries(self):
        guarantee = strong_composition_eps(0.05, 1000, 1e-6)
        assert guarantee.epsilon == pytest.approx(26.6225813626911, rel=1e-12)
        assert 26.0 <= guarantee.epsilon <= 27.0

    def test_zero_queries(self):
        assert strong_composition_eps(0.05, 0, 1e-5).epsilon == 0.0

    def test_moments_beat_strong_composition(self):
        moments_eps = eps_for_delta(compose(_uniform_ledger(100)), 1e-5).epsilon
        strong_eps = strong_composition_eps(0.05, 100, 1e-5).epsilon
        assert moments_eps < strong_eps


class TestMomentsGuarantee:
    def test_empty_ledger_special_cased_to_zero(self):
        ledger = PrivacyLedger(gamma=0.05, lambda_grid=GRID)
        for guarantee in (moments_guarantee(ledger, 1e-5),
                          moments_guarantee(ledger, 1e-5, compose(ledger))):
            assert guarantee.epsilon == 0.0
            assert guarantee.argmin_lambda is None

    def test_non_empty_matches_eps_for_delta(self):
        ledger = _uniform_ledger(100)
        expect = eps_for_delta(compose(ledger), 1e-5)
        assert moments_guarantee(ledger, 1e-5) == expect
        assert moments_guarantee(ledger, 1e-5, compose(ledger)) == expect
