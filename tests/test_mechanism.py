import functools
import math
import numbers
import struct

import numpy as np
import pytest
from hypothesis import given, strategies as st

from privagg import (
    LambdaGrid,
    MechanismParams,
    PrivacyLedger,
    VoteHistogram,
    gap,
    noisy_argmax,
    noisy_labels,
    outcome_distribution,
    plurality,
    tally_votes,
)
from privagg.mechanism import _laplace_quantile
from privagg.seeding import MECHANISM_NOISE, derive_rng
from conftest import histograms


@st.composite
def argmax_counts(draw):
    """Counts over 2 to 100 classes: small ones, an exact tie for the top
    count, or exactly 2^53 votes in total."""
    m = draw(st.integers(min_value=2, max_value=100))
    kind = draw(st.sampled_from(("small", "tied", "max_total")))
    if kind == "max_total":
        rest = draw(st.lists(st.integers(0, 2**53 // 100), min_size=m - 1, max_size=m - 1))
        return draw(st.permutations([2**53 - sum(rest)] + rest))
    top = draw(st.integers(1, 300 if kind == "small" else 2**53 // 100))
    counts = draw(st.lists(st.integers(0, top), min_size=m, max_size=m))
    if kind == "tied":
        for j in draw(st.sets(st.integers(0, m - 1), min_size=2)):
            counts[j] = top
    return counts if sum(counts) else [1] + counts[1:]


@functools.cache
def smallest_accepted_gamma() -> float:
    """The least float gamma ``MechanismParams`` accepts, by bisection over
    the bit patterns of the positive floats, which sort as the floats do."""
    def as_float(bits):
        return struct.unpack("<d", struct.pack("<q", bits))[0]

    def accepted(bits):
        try:
            MechanismParams(gamma=as_float(bits))
        except ValueError:
            return False
        return True

    refused, taken = 1, struct.unpack("<q", struct.pack("<d", 1.0))[0]
    assert not accepted(refused) and accepted(taken)
    while taken - refused > 1:
        mid = (refused + taken) // 2
        refused, taken = (refused, mid) if accepted(mid) else (mid, taken)
    return as_float(taken)


class TestVoteHistogram:
    def test_valid(self):
        h = VoteHistogram((2, 1, 0))
        assert h.num_classes == 3
        assert h.total == 3

    @pytest.mark.parametrize("counts", [(5,), (), (1, -1), (0, 0), (True, False)])
    def test_invalid(self, counts):
        with pytest.raises(ValueError):
            VoteHistogram(counts)

    def test_rejects_non_integers(self):
        with pytest.raises(ValueError):
            VoteHistogram((1.5, 2))

    def test_accepts_numpy_integers(self):
        h = VoteHistogram(tuple(np.array([3, 4], dtype=np.int64)))
        assert h.counts == (3, 4)

    @staticmethod
    def reference_counts(counts):
        """The element-by-element check every input went through before the
        plain-tuple fast path: the counts it stores, or its ValueError."""
        coerced = []
        for j, c in enumerate(counts):
            if isinstance(c, bool) or not isinstance(c, numbers.Integral):
                raise ValueError(f"count for class {j} is not an integer: {c!r}")
            c = int(c)
            if c < 0:
                raise ValueError(f"count for class {j} is negative: {c}")
            coerced.append(c)
        if len(coerced) < 2:
            raise ValueError(f"need at least 2 classes, got {len(coerced)}")
        if sum(coerced) < 1:
            raise ValueError("histogram must contain at least one vote")
        if sum(coerced) > 2**53:
            raise ValueError("histogram holds more than 2**53 votes, "
                             "beyond what a float count can tell apart")
        return tuple(coerced)

    @pytest.mark.parametrize("counts", [
        (3, 1), [3, 1], (0, 0, 7), tuple(range(100)), (2**70, 0),
        tuple(np.array([3, 4], dtype=np.int64)), np.array([5, 0, 2]), (np.int32(2), 1),
        (True, 2), (1, False), (True, False), [True, 1],
        (1, -1), (-3, 5), [0, -1, 4],
        (5,), [5], (), [],
        (0, 0), [0, 0, 0], (0,) * 100,
        (1.0, 2), (1, 2.5), ("1", 2), (None, 1),
        (2**53, 0), (2**52, 2**52), (2**53, 1), [2**53, 0, 1], (10**400, 0),
    ])
    def test_accepts_and_rejects_like_the_reference(self, counts):
        try:
            expected = self.reference_counts(counts)
        except ValueError as exc:
            with pytest.raises(ValueError) as raised:
                VoteHistogram(counts)
            assert str(raised.value) == str(exc)
        else:
            stored = VoteHistogram(counts).counts
            assert stored == expected
            assert [type(c) for c in stored] == [int] * len(expected)


class TestMechanismParams:
    def test_scale_is_inverse_gamma(self):
        assert MechanismParams(gamma=0.05).scale == 20.0

    @pytest.mark.parametrize("gamma", [0.0, -1.0, math.inf, math.nan, "0.5", True, None,
                                       5e-324, pytest.param(10**400, id="10**400")])
    def test_invalid_gamma(self, gamma):
        with pytest.raises(ValueError):
            MechanismParams(gamma=gamma)

    def test_gamma_whose_largest_noise_overflows_is_refused(self):
        # Below this gamma, b * log(2^-52) passes the float range, so the
        # transform would turn the smallest uniforms into infinite noise.
        gamma = smallest_accepted_gamma()
        assert 2.0e-307 < gamma < 2.01e-307
        assert MechanismParams(gamma=gamma).gamma == gamma
        assert PrivacyLedger(gamma=gamma, lambda_grid=LambdaGrid((1, 2))).gamma == gamma
        below = math.nextafter(gamma, 0.0)
        for refuse in (lambda: MechanismParams(gamma=below),
                       lambda: PrivacyLedger(gamma=below, lambda_grid=LambdaGrid((1, 2))),
                       lambda: outcome_distribution(VoteHistogram((3, 1)), below)):
            with pytest.raises(ValueError, match=r"overflows for gamma=2\.00"):
                refuse()

    @pytest.mark.parametrize("seed", [2.9, 2.0, "7", True, None])
    def test_non_integer_seed_is_refused(self, seed):
        with pytest.raises(ValueError, match="seed must be an integer"):
            MechanismParams(gamma=0.5, seed=seed)

    def test_numpy_numbers_are_accepted(self):
        params = MechanismParams(gamma=np.float64(0.5), seed=np.uint64(2**63))
        assert (params.gamma, params.seed) == (0.5, 2**63)
        assert type(params.gamma) is float and type(params.seed) is int


class TestTallyVotes:
    def test_direct_count(self):
        assert tally_votes([0, 0, 1], 3).counts == (2, 1, 0)

    def test_empty_is_error(self):
        with pytest.raises(ValueError):
            tally_votes([], 2)

    def test_unanimity(self):
        h = tally_votes([4] * 250, 10)
        assert h.counts[4] == 250
        assert sum(h.counts) == 250

    def test_class_count_beyond_a_list_is_a_value_error(self):
        # 2^70 cannot be a list length; [0] * m raises OverflowError.
        with pytest.raises(ValueError, match="more than a list can hold"):
            tally_votes([0], 2**70)

    def test_out_of_range_label(self):
        with pytest.raises(ValueError, match="position 2"):
            tally_votes([0, 1, 3], 3)
        with pytest.raises(ValueError):
            tally_votes([0, -1], 2)


def laplace_inverse_cdf(u: float, b: float) -> float:
    """Laplace(0, b) quantile of one ``u``: the mechanism's transform on a
    one-element array."""
    return float(_laplace_quantile(np.array([u]), b)[0])


class TestLaplaceInverseCdf:
    def test_median(self):
        assert laplace_inverse_cdf(0.5, 20) == 0

    def test_upper_quartile(self):
        # independent evaluation of -b*ln(2*(1-u))
        assert laplace_inverse_cdf(0.75, 20) == pytest.approx(
            -20 * math.log(2 * 0.25), abs=1e-12)
        assert laplace_inverse_cdf(0.75, 20) == pytest.approx(13.862943611198906)

    def test_lower_quartile_antisymmetric(self):
        assert laplace_inverse_cdf(0.25, 20) == pytest.approx(
            -laplace_inverse_cdf(0.75, 20), abs=1e-12)

    @given(u=st.floats(min_value=1e-9, max_value=1 - 1e-9),
           b=st.floats(min_value=1e-3, max_value=1e3))
    def test_round_trips_through_cdf(self, u, b):
        x = laplace_inverse_cdf(u, b)
        cdf = 0.5 * math.exp(x / b) if x < 0 else 1 - 0.5 * math.exp(-x / b)
        assert cdf == pytest.approx(u, rel=1e-9, abs=1e-12)

    @given(u1=st.floats(min_value=1e-6, max_value=1 - 1e-6),
           u2=st.floats(min_value=1e-6, max_value=1 - 1e-6))
    def test_monotone(self, u1, u2):
        if u1 > u2:
            u1, u2 = u2, u1
        assert laplace_inverse_cdf(u1, 2.0) <= laplace_inverse_cdf(u2, 2.0)


class TestNoisyArgmax:
    def test_unanimous_overwhelms_noise(self):
        # quadrature oracle: winning probability of the unanimous class
        hist = VoteHistogram(tuple([250] + [0] * 9))
        probs = outcome_distribution(hist, 0.05).probs
        assert probs[0] > 0.999
        wins = 0
        trials = 100_000
        params = MechanismParams(gamma=0.05, seed=11)
        rng = np.random.default_rng(11)
        for _ in range(trials):
            wins += noisy_argmax(hist, params, rng=rng) == 0
        assert wins / trials >= 0.99

    def test_large_gamma_recovers_plurality(self):
        # as noise vanishes the outcome locks onto the unique plurality winner
        hist = VoteHistogram((5, 3))
        probs = outcome_distribution(hist, 50.0).probs
        assert probs[plurality(hist)] > 1 - 1e-12

    def test_tied_histogram_is_a_coin_flip(self):
        hist = VoteHistogram((5, 5))
        params = MechanismParams(gamma=0.05, seed=5)
        rng = np.random.default_rng(5)
        wins = sum(noisy_argmax(hist, params, rng=rng) == 0 for _ in range(20_000))
        assert abs(wins / 20_000 - 0.5) < 0.015  # ~4 standard errors

    def test_seed_reproducibility(self):
        hist = VoteHistogram((3, 2, 2, 1))
        for seed in range(20):
            params = MechanismParams(gamma=0.1, seed=seed)
            assert (noisy_argmax(hist, params, derive_rng(seed, MECHANISM_NOISE, 0))
                    == noisy_argmax(hist, params, derive_rng(seed, MECHANISM_NOISE, 0)))

    def test_stream_is_required(self):
        with pytest.raises(TypeError):
            noisy_argmax(VoteHistogram((3, 2)), MechanismParams(gamma=0.1))

    # At the smallest accepted gamma the noise nears the float range; at 1e3
    # it is below the float spacing of large counts, so exact ties survive it.
    @given(counts=argmax_counts(),
           gamma=st.sampled_from([smallest_accepted_gamma(), 0.05, 1e3]),
           seed=st.integers(0, 2**32 - 1), i=st.integers(0, 10**6))
    def test_bit_for_bit_against_the_reference(self, counts, gamma, seed, i):
        u = np.maximum(derive_rng(seed, MECHANISM_NOISE, i).random(len(counts)), 2.0**-53)
        with np.errstate(over="raise"):
            got = noisy_argmax(VoteHistogram(tuple(counts)),
                               MechanismParams(gamma=gamma, seed=seed),
                               rng=derive_rng(seed, MECHANISM_NOISE, i))
            noise = TestLaplaceQuantile.reference(u, 1 / gamma)
        assert got == int(np.argmax(np.asarray(counts, float) + noise))

    def test_distinct_seeds_vary(self):
        hist = VoteHistogram((5, 5))
        outcomes = {noisy_argmax(hist, MechanismParams(gamma=0.05, seed=s),
                                 derive_rng(s, MECHANISM_NOISE, 0))
                    for s in range(50)}
        assert outcomes == {0, 1}


class TestNoisyLabels:
    @pytest.mark.parametrize("stream", [(), (0,), (3,)])
    def test_query_i_uses_stream_prefix_then_i(self, stream):
        hists = [VoteHistogram((5, 5)), VoteHistogram((3, 4, 3)), VoteHistogram((1, 1))]
        params = MechanismParams(gamma=0.05, seed=9)
        expected = [noisy_argmax(h, params, rng=derive_rng(9, MECHANISM_NOISE, *stream, i))
                    for i, h in enumerate(hists)]
        assert noisy_labels(hists, params, *stream) == expected


class TestPlurality:
    @pytest.mark.parametrize("counts,winner", [
        ((2, 1, 0), 0),
        ((3, 3, 1), 0),
        ((0, 0, 7), 2),
    ])
    def test_examples(self, counts, winner):
        assert plurality(VoteHistogram(counts)) == winner

    @given(hist=histograms())
    def test_tie_breaks_to_smallest_index(self, hist):
        winner = plurality(hist)
        top = max(hist.counts)
        assert hist.counts[winner] == top
        assert all(c < top for c in hist.counts[:winner])

    @given(hist=histograms(), data=st.data())
    def test_permutation_equivariance(self, hist, data):
        perm = data.draw(st.permutations(range(hist.num_classes)))
        permuted = [0] * hist.num_classes
        for j, target in enumerate(perm):
            permuted[target] = hist.counts[j]
        winner = plurality(VoteHistogram(tuple(permuted)))
        # the permuted winner must carry the same (maximal) count
        assert permuted[winner] == max(hist.counts)


class TestGap:
    @pytest.mark.parametrize("counts,expected", [
        ((200, 50, 0), (150, 0.6)),
        ((5, 5), (0, 0.0)),
        (tuple([250] + [0] * 9), (250, 1.0)),
    ])
    def test_examples(self, counts, expected):
        assert gap(VoteHistogram(counts)) == expected

    @given(hist=histograms())
    def test_normalized_gap_in_unit_interval(self, hist):
        absolute, normalized = gap(hist)
        assert 0 <= absolute <= hist.total
        assert 0.0 <= normalized <= 1.0
        top_two = sorted(hist.counts, reverse=True)[:2]
        assert (normalized == 1.0) == (top_two[1] == 0 and top_two[0] == hist.total)


class TestSamplerStatistics:
    def test_mean_and_variance(self):
        from privagg.mechanism import _draw_noise
        rng = np.random.default_rng(123)
        draws = _draw_noise(rng, 1.0, 1_000_000)
        assert abs(draws.mean()) < 0.01
        assert abs(draws.var() - 2.0) < 0.04  # 2% of 2*b^2

    def test_matches_scalar_inverse_cdf(self):
        from privagg.mechanism import _draw_noise
        u = np.random.default_rng(9).random(1000)
        rng = np.random.default_rng(9)
        vec = _draw_noise(rng, 3.0, 1000)
        scalar = [laplace_inverse_cdf(max(x, 2.0**-53), 3.0) for x in u]
        np.testing.assert_array_equal(vec, scalar)


class TestLaplaceQuantile:
    """The transform must reproduce the two-branch expression bit for bit,
    on 10^6 uniforms plus the edge values in one call, and in calls of 1, 10
    and 100 entries over a prefix of them."""

    @staticmethod
    def reference(u, b):
        return np.where(u < 0.5, b * np.log(2.0 * u), -b * np.log(2.0 * (1.0 - u)))

    @pytest.mark.parametrize("b", [20.0, 1.0, 3.0, 1.0 / 0.3, 5e-324, 1e300])
    def test_bit_identical_to_two_branch_expression(self, b):
        from privagg.mechanism import _MIN_UNIFORM, _laplace_quantile
        special = [_MIN_UNIFORM, np.nextafter(0.5, 0.0), 0.5, np.nextafter(0.5, 1.0),
                   1.0 - 2.0**-53]
        u = np.concatenate([special, np.maximum(np.random.default_rng(7).random(1_000_000), _MIN_UNIFORM)])
        np.testing.assert_array_equal(_laplace_quantile(u, b).view(np.uint64),
                                      self.reference(u, b).view(np.uint64))
        for length in (1, 10, 100):
            for start in range(0, 1000 * length, length):
                chunk = u[start:start + length]
                assert (_laplace_quantile(chunk, b).view(np.uint64)
                        == self.reference(chunk, b).view(np.uint64)).all()


class TestConvergenceInGamma:
    @pytest.mark.parametrize("counts", [(5, 3), (10, 1, 1), (7, 6, 2, 1)])
    def test_plurality_probability_non_decreasing(self, counts):
        # quadrature oracle over an ascending gamma grid
        hist = VoteHistogram(counts)
        winner = plurality(hist)
        probs = [outcome_distribution(hist, g).probs[winner]
                 for g in (0.01, 0.05, 0.2, 0.5, 1.0)]
        for lo, hi in zip(probs, probs[1:]):
            assert hi >= lo - 1e-9
