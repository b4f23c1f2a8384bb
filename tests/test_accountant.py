import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from privagg import (
    GuaranteeMethod,
    MechanismParams,
    LambdaGrid,
    PrivacyLedger,
    VoteHistogram,
    book,
    compose,
    data_dependent_moment,
    data_independent_moment,
    delta_for_eps,
    eps_for_delta,
    moments_guarantee,
    per_query_moment,
    q_threshold,
    q_upper_bound,
    strong_composition_eps,
)
from privagg.formats import FileFormatError, read_ledger, write_ledger
from conftest import histograms

GRID = LambdaGrid.default()


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


class TestDataIndependentMoment:
    def test_zero_order(self):
        assert data_independent_moment(0.37, 0) == 0.0

    def test_hand_values(self):
        # 2 * 0.05^2 * 8 * 9 = 0.36 ; 2 * 1 * 1 * 2 = 4
        assert data_independent_moment(0.05, 8) == pytest.approx(0.36, abs=1e-15)
        assert data_independent_moment(1.0, 1) == pytest.approx(4.0, abs=1e-15)


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

    # At 1e308 and inf, 2 * gamma and 4 * gamma are inf themselves, and
    # expm1(inf) / expm1(inf) would be NaN.
    @pytest.mark.parametrize("gamma", [177.5, 200.0, 1e6, 1e308, math.inf])
    def test_overflow_is_a_value_error_naming_gamma(self, gamma):
        with pytest.raises(ValueError, match=re.escape(f"overflows at gamma={gamma!r}")):
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
        # the clamp turned it into 1.0.
        message = re.escape(f"q bound overflows at gamma={gamma!r} and deficit {deficit}:")
        with pytest.raises(ValueError, match=message):
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
        # One q at a gamma of one value but several types: numpy's float32
        # arithmetic rounds otherwise, so no call may reuse another's terms.
        q = fraction * q_threshold(value)
        for gamma in (value, np.float32(value), np.float64(value), int(value) or value, value):
            for order in orders:
                assert repr(data_dependent_moment(q, gamma, order)) == repr(
                    self.uncached(q, gamma, order))


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
    """The checks ``PrivacyLedger.append`` makes on one booked query."""

    def make(self, **changes):
        fields = dict(query_id="q", q_bound=0.5, orders=(1, 2), alphas=(0.01, 0.03))
        fields.update(changes)
        ledger = PrivacyLedger(gamma=0.05, lambda_grid=LambdaGrid(fields.pop("orders")))
        ledger.append(**fields)
        return ledger

    def test_valid(self):
        assert self.make().alphas == [(0.01, 0.03)]

    def test_alphas_whose_sum_overflows_are_valid(self):
        assert self.make(alphas=(1e308, 1e308)).alphas == [(1e308, 1e308)]

    @pytest.mark.parametrize("changes", [
        dict(orders=(0, 1)),
        dict(alphas=(0.01, -1e-3)),
        dict(alphas=(math.nan, 0.03)),
        dict(q_bound=1.5),
        dict(alphas=()),
        dict(alphas=(0.01,)),
        dict(alphas=(0.01, 0.03, 0.05)),
        dict(alphas=(True, 0.03)),
        dict(q_bound=False),
        dict(alphas=("0.01", 0.03)),
        dict(q_bound="0.5"),
        dict(query_id=1),
        dict(alphas=(0.01, math.inf)),
        dict(alphas=(-math.inf, 0.03)),
        dict(q_bound=math.inf),
        dict(q_bound=-0.5),
        dict(orders=(1, 2, 3), alphas=(0.01, math.nan, 0.05)),  # min and max skip it
        dict(q_bound=math.nan),
        dict(alphas=(0.01, 10**400)),
        dict(q_bound=-(10**400)),
    ])
    def test_invalid(self, changes):
        with pytest.raises(ValueError):
            self.make(**changes)

    def test_numbers_are_stored_as_floats(self):
        ledger = self.make(q_bound=np.float64(0.25), alphas=(0, np.float64(0.5)))
        assert ledger.q_bounds == [0.25] and ledger.alphas == [(0.0, 0.5)]
        assert {type(ledger.q_bounds[0]), *map(type, ledger.alphas[0])} == {float}

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
    q_bound, alphas = per_query_moment(hist, gamma, GRID)
    for i in range(num_queries):
        ledger.append(f"q{i}", q_bound, alphas)
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
            for entry in zip(ledger.query_ids, ledger.q_bounds, ledger.alphas):
                combined.append(*entry)
        totals_a, totals_b, totals = compose(a), compose(b), compose(combined)
        for order in GRID.values:
            assert totals[order] == pytest.approx(
                totals_a[order] + totals_b[order], rel=1e-12)

    def test_adds_left_to_right(self):
        # fsum, numpy's pairwise sum and the compensated sum() of Python >= 3.12
        # all give 1e16 + 2 here; each += rounds the 1.0 away.
        ledger = PrivacyLedger(gamma=0.05, lambda_grid=LambdaGrid((1,)))
        for i, alpha in enumerate([1e16, 1.0, 1.0]):
            ledger.append(f"q{i}", 0.5, (alpha,))
        assert compose(ledger) == {1: 1e16}

    def test_mismatched_grid_rejected(self):
        ledger = PrivacyLedger(gamma=0.05, lambda_grid=GRID)
        q_bound, alphas = per_query_moment(VoteHistogram((10, 10)), 0.05, LambdaGrid.up_to(4))
        with pytest.raises(ValueError, match="grid"):
            ledger.append("q", q_bound, alphas)
        assert len(ledger) == 0

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
        ledger = book(hists, ["a", "b", "c"], MechanismParams(gamma=0.05, seed=3), GRID)
        assert (ledger.gamma, ledger.lambda_grid, ledger.seed) == (0.05, GRID, 3)
        assert ledger.query_ids == ["a", "b", "c"]
        assert list(zip(ledger.q_bounds, ledger.alphas)) == [
            per_query_moment(h, 0.05, GRID) for h in hists]

    def test_ids_must_pair_with_histograms(self):
        with pytest.raises(ValueError):
            book([VoteHistogram((1, 2))], [], MechanismParams(gamma=0.05), GRID)


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
        guarantee = moments_guarantee(ledger, 1e-5)
        assert guarantee.epsilon == 0.0
        assert guarantee.argmin_lambda is None

    def test_non_empty_matches_eps_for_delta(self):
        ledger = _uniform_ledger(100)
        assert moments_guarantee(ledger, 1e-5) == eps_for_delta(compose(ledger), 1e-5)
