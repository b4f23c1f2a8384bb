import itertools
import math
import re
import sys
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.integrate import quad

from privagg import (
    AdjacentPair,
    MechanismParams,
    OutcomeDistribution,
    UnsupportedSizeError,
    VoteHistogram,
    empirical_eps,
    enumerate_neighbors,
    exact_moment,
    mc_outcome_frequencies,
    noisy_labels,
    outcome_distribution,
    q_upper_bound,
)
from privagg import oracle
from privagg.verification import random_histogram, soundness_sweep
from conftest import histograms

# Shapes where small probabilities, wide gaps, narrow margins or many
# classes stress the quadrature.
EXTREME_SHAPES = [
    ((5_000, 4_990, 3), 2.0), ((10_000, 9_990, 3), 2.0), ((40, 38), 50.0),
    ((46, 0, 0, 0, 0), 0.77), ((2, 37, 3), 0.761),
    *((((700, 690, 680) + (610,) * 13), gamma) for gamma in (0.01, 5.0, 50.0)),
]


def quad_probs(counts, gamma):
    """Win probabilities by adaptive quadrature, one ``quad`` per class.

    This was the oracle's own method before it moved to graded
    Gauss–Legendre; it stays here as an independent cross-reference.
    ``epsabs=0`` asks for relative accuracy only: with the oracle's old
    absolute floor of 1e-13, ``quad`` stopped early on small probabilities
    (1.5e-6 relative error on the losers of (46, 0, 0, 0, 0) at gamma 0.77).
    """
    b = 1.0 / gamma
    values = [float(c) for c in counts]
    lo, hi = min(values) - 40.0 * b, max(values) + 40.0 * b
    kinks = sorted(set(values))
    exp = math.exp
    probs = []
    for j, nj in enumerate(values):
        others = values[:j] + values[j + 1:]

        def integrand(t, nj=nj, others=others):
            v = exp(-abs(t - nj) / b) / (2.0 * b)
            for nk in others:
                y = t - nk
                v *= 0.5 * exp(y / b) if y < 0.0 else 1.0 - 0.5 * exp(-y / b)
            return v

        value, _ = quad(integrand, lo, hi, points=kinks, limit=500, epsabs=0.0,
                        epsrel=1e-12)
        probs.append(value)
    return probs


def reference_quadrature(kinks, reps, gamma, order=16):
    """``oracle._graded_quadrature`` as it was before its fixed node table
    and leaner array layout, kept as the bit-for-bit reference.

    It solves for the nodes of any ``order`` with ``leggauss`` and lays
    out all d distinct counts as one (d, N) array over N = order * P nodes.
    """
    from numpy.polynomial.legendre import leggauss
    x, w = leggauss(order)
    nodes, weights = (x + 1.0) / 2.0, w / 2.0
    b = 1.0 / gamma
    tail = oracle._TAIL_SCALE_UNITS * b
    halves = [(hi - lo) / 2.0 for lo, hi in zip(kinks, kinks[1:])]
    anchors, starts, widths = [], [], []
    for side, reaches in ((-1.0, [tail] + halves), (1.0, halves + [tail])):
        for kink, reach in zip(kinks, reaches):
            cut, end = 0.0, b
            while cut < reach:
                end = min(end, reach)
                anchors.append(kink)
                starts.append(side * cut)
                widths.append(side * (end - cut))
                cut, end = end, 2.0 * end
    width = np.array(widths)[:, None]
    offset = (np.array(starts)[:, None] + width * nodes).ravel()
    weight = (gamma * np.abs(width) * weights).ravel()
    anchor = np.array(anchors, dtype=float).repeat(nodes.size)

    z = gamma * ((anchor - np.array(kinks, dtype=float)[:, None]) + offset)
    half = 0.5 * np.exp(-np.abs(z))
    cdf = np.where(z < 0.0, half, 1.0 - half)
    own = [(k, cdf[k] ** (r - 1)) for k, r in enumerate(reps) if r > 1]
    for k, power in own:
        cdf[k] *= power
    others = np.empty_like(cdf)
    others[0] = 1.0
    for k in range(1, len(kinks)):
        np.multiply(others[k - 1], cdf[k - 1], out=others[k])
    suffix = np.ones_like(offset)
    for k in range(len(kinks) - 1, 0, -1):
        suffix *= cdf[k]
        others[k - 1] *= suffix
    for k, power in own:
        others[k] *= power
    others *= half
    probs = others @ weight
    return [max(0.0, p) for p in probs.tolist()]


def reference_probs(counts, gamma):
    """Per-class probabilities from ``reference_quadrature`` over the
    distinct counts themselves, unshifted."""
    kinks = sorted(set(counts))
    values = reference_quadrature(kinks, [counts.count(k) for k in kinks], gamma)
    by_count = dict(zip(kinks, values))
    return tuple(by_count[c] for c in counts)


def gl48_probs(counts, gamma):
    """Win probabilities by the 48-node rule the oracle used before 16.

    Every class is passed as its own kink, so the leave-one-out CDF product
    runs class by class, as it did then: equal counts add no pieces (the
    gap between them is 0) and no multiplicity shortcut applies.
    """
    order = sorted(range(len(counts)), key=counts.__getitem__)
    values = reference_quadrature([counts[j] for j in order], [1] * len(counts),
                                  gamma, order=48)
    probs = [0.0] * len(counts)
    for j, p in zip(order, values):
        probs[j] = p
    return probs


def mp_win_probability(counts, gamma, j):
    """P(class j wins) by 30-digit mpmath quadrature over the same integrand.

    mpmath's quadrature converges to an absolute tolerance, so a first pass
    finds the magnitude and a second integrates the integrand scaled to
    O(1).  The result must certify its own error far below the checks.
    """
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        g = mp.mpf(gamma)
        values = [mp.mpf(c) for c in counts]
        nj, others = values[j], values[:j] + values[j + 1:]

        def integrand(t):
            v = g / 2 * mp.exp(-g * abs(t - nj))
            for nk in others:
                y = g * (t - nk)
                v *= mp.exp(y) / 2 if y < 0 else 1 - mp.exp(-y) / 2
            return v

        kinks = sorted(set(values))
        points = [kinks[0] - 60 / g, *kinks, kinks[-1] + 60 / g]
        scale = mp.quad(integrand, points)
        value, error = mp.quad(lambda t: integrand(t) / scale, points, error=True)
        assert error < mp.mpf("1e-20") * value
        return float(value * scale)


class TestOutcomeDistribution:
    def test_two_way_tie_is_symmetric(self):
        probs = outcome_distribution(VoteHistogram((5, 5)), 0.37).probs
        assert probs[0] == pytest.approx(0.5, abs=1e-10)
        assert probs[1] == pytest.approx(0.5, abs=1e-10)

    def test_three_way_tie_is_uniform(self):
        probs = outcome_distribution(VoteHistogram((7, 7, 7)), 0.2).probs
        for p in probs:
            assert p == pytest.approx(1 / 3, abs=1e-10)

    def test_loss_probability_below_q_bound(self):
        hist = VoteHistogram((100, 0))
        probs = outcome_distribution(hist, 0.05).probs
        assert 0 < probs[1] <= q_upper_bound(hist, 0.05)

    def test_two_class_matches_closed_form(self):
        # for m=2 the miss probability is exactly (2 + g*d) / (4 * e^(g*d))
        for counts, gamma in [((10, 3), 0.3), ((50, 0), 1.0), ((30, 29), 0.01)]:
            d = counts[0] - counts[1]
            expected = (2 + gamma * d) / (4 * math.exp(gamma * d))
            probs = outcome_distribution(VoteHistogram(counts), gamma).probs
            assert probs[1] == pytest.approx(expected, rel=1e-9)

    @given(hist=histograms(), gamma=st.floats(min_value=0.01, max_value=1.0))
    @settings(max_examples=25, deadline=None)
    def test_sums_to_one(self, hist, gamma):
        assert sum(outcome_distribution(hist, gamma).probs) == pytest.approx(
            1.0, abs=1e-9)

    def test_permutation_equivariant(self):
        hist = VoteHistogram((9, 4, 1))
        base = outcome_distribution(hist, 0.3).probs
        for perm in itertools.permutations(range(3)):
            permuted = tuple(hist.counts[perm.index(j)] for j in range(3))
            probs = outcome_distribution(VoteHistogram(permuted), 0.3).probs
            for j in range(3):
                assert probs[perm[j]] == pytest.approx(base[j], abs=1e-9)

    def test_agrees_with_adaptive_quadrature(self):
        """300 sweep-style histograms and all their neighbours, at 1e-9
        relative per class (measured: within 6e-15)."""
        rng = np.random.default_rng(20)
        seen = set()
        for _ in range(300):
            hist = random_histogram(rng)
            gamma = float(rng.uniform(0.01, 1.0))
            for counts in [hist.counts, *(p.d_prime.counts for p in enumerate_neighbors(hist))]:
                if (counts, gamma) in seen:
                    continue
                seen.add((counts, gamma))
                probs = outcome_distribution(VoteHistogram(counts), gamma).probs
                for got, want in zip(probs, quad_probs(counts, gamma)):
                    assert got == pytest.approx(want, rel=1e-9, abs=0.0), (counts, gamma)
        assert len(seen) > 3000

    def test_sixteen_nodes_match_forty_eight(self):
        """300 sweep-style histograms with all their neighbours, and the
        extreme shapes, at 1e-13 relative per class (measured: 5.3e-15)."""
        rng = np.random.default_rng(21)
        cases = set()
        for _ in range(300):
            hist = random_histogram(rng)
            gamma = float(rng.uniform(0.01, 1.0))
            cases.add((hist.counts, gamma))
            cases.update((p.d_prime.counts, gamma) for p in enumerate_neighbors(hist))
        assert len(cases) > 3000
        for counts, gamma in sorted(cases) + EXTREME_SHAPES:
            # n = 19993 is past the size guard, so call the quadrature directly.
            probs = oracle._outcome_probs(counts, gamma)
            for got, want in zip(probs, gl48_probs(counts, gamma)):
                assert got == pytest.approx(want, rel=1e-13, abs=0.0), (counts, gamma)

    @given(counts=st.lists(st.integers(min_value=0, max_value=30), min_size=2,
                           max_size=16).filter(any),
           gamma=st.floats(min_value=0.01, max_value=50.0), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_permuted_counts_give_permuted_probabilities(self, counts, gamma, data):
        perm = data.draw(st.permutations(range(len(counts))))
        base = outcome_distribution(VoteHistogram(tuple(counts)), gamma).probs
        permuted = VoteHistogram(tuple(counts[j] for j in perm))
        assert outcome_distribution(permuted, gamma).probs == tuple(base[j] for j in perm)

    def test_size_guard_holds_when_the_sorted_quadrature_is_cached(self):
        # Direct calls past the guard fill the sorted-key cache; a raw key
        # that misses must still be size-checked.
        oracle._outcome_probs((10_000, 9_990, 3), 2.0)
        with pytest.raises(UnsupportedSizeError):
            outcome_distribution(VoteHistogram((3, 9_990, 10_000)), 2.0)
        oracle._outcome_probs((1,) * 17, 0.1)
        with pytest.raises(UnsupportedSizeError):
            outcome_distribution(VoteHistogram((1,) * 17), 0.1)

    @pytest.mark.parametrize("gamma", [math.inf, math.nan, 1e-320, True])
    def test_gamma_must_be_finite_and_positive(self, monkeypatch, gamma):
        # A quadrature at gamma = inf never ends, so none may start.  At
        # gamma = 1e-320 the scale 1/gamma is inf and every noise draw is ±inf
        # or NaN; True is refused as MechanismParams refuses it.
        def no_quadrature(*args):
            raise AssertionError("quadrature started")

        monkeypatch.setattr(oracle, "_outcome_probs", no_quadrature)
        hist = VoteHistogram((3, 1))
        pair = AdjacentPair(hist, VoteHistogram((2, 2)))
        for call in (lambda: outcome_distribution(hist, gamma),
                     lambda: mc_outcome_frequencies(hist, gamma, 10),
                     lambda: exact_moment(pair, gamma, 2),
                     lambda: empirical_eps(pair, gamma)):
            with pytest.raises(ValueError,
                               match="gamma must be a positive finite real|1/gamma is not finite"):
                call()

    # 40/gamma, the integration range, is inf below 40/sys.float_info.max,
    # and a quadrature there gives NaN probabilities.
    @pytest.mark.parametrize("gamma", [
        2.1e-307, 2.2e-307, math.nextafter(40.0 / sys.float_info.max, 0.0)])
    def test_gamma_whose_range_overflows_is_refused(self, monkeypatch, gamma):
        def no_quadrature(*args):
            raise AssertionError("quadrature started")

        monkeypatch.setattr(oracle, "_outcome_probs", no_quadrature)
        with pytest.raises(UnsupportedSizeError, match=re.escape(f"gamma={gamma!r}")):
            outcome_distribution(VoteHistogram((3, 1)), gamma)

    def test_smallest_gamma_with_a_finite_range(self):
        probs = outcome_distribution(VoteHistogram((3, 1)), 40.0 / sys.float_info.max).probs
        assert sum(probs) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("probs", [
        (math.nan, math.nan), (math.nan, 1.0), (0.5, math.nan, 0.5)])
    def test_nan_probabilities_are_rejected(self, probs):
        with pytest.raises(ValueError):
            OutcomeDistribution(probs)

    def test_log_probs(self):
        dist = OutcomeDistribution((0.25, 0.75, 0.0))
        assert dist.log_probs == (math.log(0.25), math.log(0.75), -math.inf)
        assert dist == OutcomeDistribution((0.25, 0.75, 0.0))
        assert "log_probs" not in repr(dist)

    def test_size_guards(self):
        with pytest.raises(UnsupportedSizeError):
            outcome_distribution(VoteHistogram((1,) * 17), 0.1)
        with pytest.raises(UnsupportedSizeError):
            outcome_distribution(VoteHistogram((10_001, 1)), 0.1)


@st.composite
def wide_histograms(draw):
    """Count vectors with 2 to 16 classes and 1 to 10^4 votes."""
    m = draw(st.integers(min_value=2, max_value=oracle.MAX_CLASSES))
    counts, left = [], oracle.MAX_TEACHERS
    for _ in range(m):
        counts.append(draw(st.integers(min_value=0, max_value=left)))
        left -= counts[-1]
    assume(sum(counts) > 0)
    return tuple(draw(st.permutations(counts)))


class TestQuadratureKernel:
    """The kernel returns the reference kernel's floats, bit for bit."""

    def test_node_table_is_leggauss_16_on_the_unit_interval(self):
        from numpy.polynomial.legendre import leggauss
        x, w = leggauss(16)
        nodes, weights = oracle._gl_arrays()
        assert nodes.tobytes() == ((x + 1.0) / 2.0).tobytes()
        assert weights.tobytes() == (w / 2.0).tobytes()
        assert (nodes.tolist(), weights.tolist()) == (list(oracle._GL_NODES),
                                                      list(oracle._GL_WEIGHTS))

    @staticmethod
    def assert_same_floats(counts, gamma):
        kinks = sorted(set(counts))
        reps = [counts.count(k) for k in kinks]
        assert (oracle._graded_quadrature(kinks, reps, gamma)
                == reference_quadrature(kinks, reps, gamma)), (counts, gamma)
        assert oracle._outcome_probs(counts, gamma) == reference_probs(counts, gamma)

    @given(counts=wide_histograms(), gamma=st.floats(min_value=0.01, max_value=2.0),
           shift=st.integers(min_value=1, max_value=oracle.MAX_TEACHERS))
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_and_ignores_a_common_shift(self, counts, gamma, shift):
        # The shifted histogram shares the cache entry of the first one, and
        # the reference integrates it at its own, unshifted counts.
        self.assert_same_floats(counts, gamma)
        self.assert_same_floats(tuple(c + shift for c in counts), gamma)

    @pytest.mark.parametrize("counts, gamma", EXTREME_SHAPES)
    def test_matches_reference_on_extreme_shapes(self, counts, gamma):
        self.assert_same_floats(counts, gamma)


class TestAgainstMpmath:
    """Exactly tight and extreme shapes against 30-digit integrals, at 1e-12."""

    def assert_matches(self, counts, gamma, classes=None, probs=None):
        if probs is None:
            probs = outcome_distribution(VoteHistogram(counts), gamma).probs
        for j in classes if classes is not None else range(len(counts)):
            want = mp_win_probability(counts, gamma, j)
            assert probs[j] == pytest.approx(want, rel=1e-12, abs=0.0), (counts, gamma, j)

    @pytest.mark.parametrize("counts, gamma", [
        ((5, 5), 0.37), ((1, 1), 0.01), ((30, 30), 1.0), ((200, 200), 20.0)])
    def test_flat_two_class(self, counts, gamma):
        self.assert_matches(counts, gamma)

    def test_three_way_tie(self):
        self.assert_matches((7, 7, 7), 0.2)

    @pytest.mark.parametrize("counts, gamma", [
        ((10, 3), 0.3), ((50, 0), 1.0), ((30, 29), 0.01), ((40, 38), 50.0)])
    def test_two_class_closed_form(self, counts, gamma):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(30):
            gd = mp.mpf(gamma) * (counts[0] - counts[1])
            expected = float((2 + gd) / (4 * mp.exp(gd)))
        probs = outcome_distribution(VoteHistogram(counts), gamma).probs
        assert probs[1] == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_wide_gap_at_large_counts(self):
        # Adaptive quad with the old tolerances gave 1.1079e-8 for class 1
        # of both shapes, 2.3% below the true 1.13363e-8.
        self.assert_matches((5_000, 4_990, 3), 2.0, classes=(0, 1))
        # n = 19993 is past the size guard, so call the quadrature directly.
        counts = (10_000, 9_990, 3)
        self.assert_matches(counts, 2.0, classes=(0, 1),
                            probs=oracle._outcome_probs(counts, 2.0))

    def test_narrow_margin_at_large_gamma(self):
        self.assert_matches((40, 38), 50.0)

    def test_sixteen_classes_near_ten_thousand_votes(self):
        counts = (700, 690, 680) + (610,) * 13
        assert sum(counts) == 10_000
        self.assert_matches(counts, 5.0, classes=(0, 1, 2, 3))

    def test_sixteen_distinct_counts_stay_cheap(self):
        # Pieces grow geometrically away from each kink; uniform pieces of a
        # few noise scales would need ~10^5 of them at gamma 50 and n 10^4.
        counts = (2500, 1800, 1200, 1000, 900, 800, 600, 400, 300, 200, 150, 100,
                  30, 10, 5, 5)
        assert sum(counts) == 10_000
        for gamma in (0.01, 1.0, 50.0):
            started = time.perf_counter()
            probs = outcome_distribution(VoteHistogram(counts), gamma).probs
            assert time.perf_counter() - started < 1.0
            assert sum(probs) == pytest.approx(1.0, abs=1e-12)


class TestMonteCarloFrequencies:
    def test_tie_within_binomial_band(self):
        freqs = mc_outcome_frequencies(VoteHistogram((5, 5)), 0.05, 1_000_000,
                                       seed=21).probs
        assert abs(freqs[0] - 0.5) < 0.002

    def test_single_trial_is_one_hot(self):
        freqs = mc_outcome_frequencies(VoteHistogram((3, 2, 1)), 0.1, 1, seed=4).probs
        assert sorted(freqs) == [0.0, 0.0, 1.0]

    def test_single_trial_replays_mechanism(self):
        # The trial stream is that of aggregate's query 0.
        hist = VoteHistogram((3, 2, 1))
        for seed in range(10):
            freqs = mc_outcome_frequencies(hist, 0.1, 1, seed=seed).probs
            [label] = noisy_labels([hist], MechanismParams(gamma=0.1, seed=seed))
            assert freqs[label] == 1.0

    @pytest.mark.parametrize("trials", [0, -3])
    def test_fewer_than_one_trial_is_refused(self, trials):
        # Bools, fractions and strings: test_interface.py::test_one_integer_rule.
        with pytest.raises(ValueError, match=f"trials must be >= 1, got {trials}"):
            mc_outcome_frequencies(VoteHistogram((3, 1)), 0.1, trials)

    def test_reproducible(self):
        a = mc_outcome_frequencies(VoteHistogram((8, 2)), 0.2, 50_000, seed=5)
        b = mc_outcome_frequencies(VoteHistogram((8, 2)), 0.2, 50_000, seed=5)
        assert a == b

    def test_agrees_with_quadrature(self):
        rng = np.random.default_rng(33)
        trials = 200_000
        for _ in range(10):
            m = int(rng.integers(2, 6))
            counts = rng.multinomial(int(rng.integers(1, 51)), np.ones(m) / m)
            hist = VoteHistogram(tuple(int(c) for c in counts))
            gamma = float(rng.uniform(0.01, 1.0))
            probs = outcome_distribution(hist, gamma).probs
            freqs = mc_outcome_frequencies(hist, gamma, trials,
                                           seed=int(rng.integers(2**32))).probs
            for p, f in zip(probs, freqs):
                band = 4 * math.sqrt(p * (1 - p) / trials) + 10 / trials
                assert abs(f - p) <= band


class TestEnumerateNeighbors:
    def test_small_case_exact_set(self):
        pairs = enumerate_neighbors(VoteHistogram((1, 0)))
        neighbors = {p.d_prime.counts for p in pairs}
        # (0, 0) is excluded: histograms need at least one vote
        assert neighbors == {(0, 1), (2, 0), (1, 1)}

    @given(a=st.integers(min_value=1, max_value=20),
           b=st.integers(min_value=1, max_value=20))
    def test_two_class_count_matches_brute_force(self, a, b):
        hist = VoteHistogram((a, b))
        got = {p.d_prime.counts for p in enumerate_neighbors(hist)}
        # brute force: all valid vectors one example-change away
        expected = set()
        for dj, dk in itertools.product((-1, 0, 1), repeat=2):
            if (dj, dk) == (0, 0) or abs(dj) + abs(dk) > 2:
                continue
            if dj + dk not in (-1, 0, 1) or (dj != 0 and dk != 0 and dj + dk != 0):
                continue
            v = (a + dj, b + dk)
            if min(v) >= 0 and sum(v) >= 1:
                expected.add(v)
        assert got == expected
        assert len(got) == 6

    @given(hist=histograms())
    def test_yields_valid_adjacent_pairs(self, hist):
        pairs = enumerate_neighbors(hist)
        got = {p.d_prime.counts for p in pairs}
        assert len(got) == len(pairs)
        # brute force: every +-1 change in one or two coordinates that moves
        # the total by at most 1 and leaves a valid histogram
        expected = set()
        for delta in itertools.product((-1, 0, 1), repeat=hist.num_classes):
            if 0 < sum(map(abs, delta)) <= 2 and abs(sum(delta)) <= 1:
                v = tuple(c + d for c, d in zip(hist.counts, delta))
                if min(v) >= 0 and sum(v) >= 1:
                    expected.add(v)
        assert got == expected
        for pair in pairs:
            assert pair.d == hist
            diffs = [y - x for x, y in zip(pair.d.counts, pair.d_prime.counts)]
            assert all(abs(d) <= 1 for d in diffs)
            assert sum(1 for d in diffs if d) <= 2
            assert abs(pair.d.total - pair.d_prime.total) <= 1


class TestAdjacentPair:
    def test_rejects_non_adjacent(self):
        with pytest.raises(ValueError):
            AdjacentPair(VoteHistogram((5, 0)), VoteHistogram((3, 2)))
        with pytest.raises(ValueError):
            AdjacentPair(VoteHistogram((5, 0)), VoteHistogram((5, 0, 0)))
        # two classes both gaining a vote means two examples changed
        with pytest.raises(ValueError):
            AdjacentPair(VoteHistogram((5, 5, 5)), VoteHistogram((6, 6, 5)))
        # moving a vote while another appears changes three coordinates
        with pytest.raises(ValueError):
            AdjacentPair(VoteHistogram((5, 5, 5)), VoteHistogram((6, 4, 6)))

    def test_accepts_identical(self):
        AdjacentPair(VoteHistogram((5, 5)), VoteHistogram((5, 5)))


def log_formula_moment(p, q, order):
    """exact_moment as it was, with two math.log calls per outcome."""
    log_terms = []
    for pj, qj in zip(p, q):
        if pj == 0.0:
            continue
        if qj == 0.0:
            return math.inf
        log_terms.append((order + 1) * math.log(pj) - order * math.log(qj))
    peak = max(log_terms)
    return peak + math.log(sum(math.exp(t - peak) for t in log_terms))


def log_formula_eps(p, q):
    """empirical_eps as it was, with two math.log calls per outcome."""
    worst = 0.0
    for pj, qj in zip(p, q):
        if pj == 0.0 and qj == 0.0:
            continue
        if pj == 0.0 or qj == 0.0:
            return math.inf
        worst = max(worst, abs(math.log(pj) - math.log(qj)))
    return worst


def test_cached_logs_give_the_same_floats():
    rng = np.random.default_rng(22)
    cases = [(VoteHistogram((9_999, 0)), 50.0), (VoteHistogram((46, 0, 0, 0, 0)), 0.77)]
    for _ in range(40):
        cases.append((random_histogram(rng), float(rng.uniform(0.01, 1.0))))
    zeros = 0
    for hist, gamma in cases:
        for pair in enumerate_neighbors(hist):
            p = outcome_distribution(pair.d, gamma).probs
            q = outcome_distribution(pair.d_prime, gamma).probs
            zeros += 0.0 in p
            assert empirical_eps(pair, gamma) == log_formula_eps(p, q)
            for order in range(1, 9):
                assert exact_moment(pair, gamma, order) == log_formula_moment(p, q, order)
    assert zeros > 0


class TestExactMoment:
    def test_identical_histograms_give_zero(self):
        pair = AdjacentPair(VoteHistogram((4, 2, 1)), VoteHistogram((4, 2, 1)))
        for order in (1, 4, 8):
            assert exact_moment(pair, 0.3, order) == pytest.approx(0.0, abs=1e-9)

    def test_below_data_independent_bound(self):
        pair = AdjacentPair(VoteHistogram((10, 0)), VoteHistogram((9, 1)))
        assert exact_moment(pair, 0.05, 1) <= 2 * 0.05**2 * 1 * 2

    def test_non_negative_for_true_neighbors(self):
        pair = AdjacentPair(VoteHistogram((6, 3)), VoteHistogram((5, 4)))
        for order in (1, 2, 8):
            assert exact_moment(pair, 0.2, order) >= -1e-9


class TestEmpiricalEps:
    def test_identical_histograms_give_zero(self):
        pair = AdjacentPair(VoteHistogram((4, 4)), VoteHistogram((4, 4)))
        assert empirical_eps(pair, 0.5) == pytest.approx(0.0, abs=1e-9)

    def test_bounded_by_two_gamma(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            m = int(rng.integers(2, 6))
            counts = rng.multinomial(int(rng.integers(1, 51)), np.ones(m) / m)
            hist = VoteHistogram(tuple(int(c) for c in counts))
            gamma = float(rng.uniform(0.01, 1.0))
            for pair in enumerate_neighbors(hist):
                assert empirical_eps(pair, gamma) <= 2 * gamma + 1e-6

    def test_grows_with_gamma(self):
        pair = AdjacentPair(VoteHistogram((10, 2)), VoteHistogram((9, 3)))
        values = [empirical_eps(pair, g) for g in (0.05, 0.1, 0.3, 0.6, 1.0)]
        for lo, hi in zip(values, values[1:]):
            assert hi > lo


class TestSweepSizeGuards:
    """Sweep shapes are checked before any case is drawn."""

    @pytest.mark.parametrize("sizes, message", [
        (dict(max_classes=1), r"max_classes must lie in \[2, 16\], got 1"),
        (dict(max_classes=17), r"max_classes must lie in \[2, 16\], got 17"),
        # Past the top: the n + 1 neighbour of n = 10000 is past the oracle's guard.
        (dict(max_teachers=10_000), r"max_teachers must lie in \[5, {top}\], got 10000"),
        # random_histogram draws flat histograms of max_teachers // m votes a class.
        (dict(max_classes=10, max_teachers=5),
         r"max_teachers must lie in \[10, {top}\], got 5"),
    ])
    # The top is where the q bound is defined at every gamma the sweep draws.
    @pytest.mark.parametrize("sweep, top", [
        (lambda **sizes: soundness_sweep(0, **sizes), 709),
    ], ids=["soundness_sweep"])
    def test_out_of_range_rejected(self, sweep, top, sizes, message):
        with pytest.raises(ValueError, match=message.format(top=top)):
            sweep(**sizes)

    def test_soundness_sweep_stops_where_the_q_bound_is_defined(self):
        # 9999 passes the oracle's guard, but at gamma near 1 a deficit of
        # 710 or more overflows e^(gamma * deficit) in the q bound.
        with pytest.raises(ValueError, match=r"max_teachers must lie in \[16, 709\], "
                                             r"got 9999"):
            soundness_sweep(3, seed=1, max_classes=16, max_teachers=9999)
        assert soundness_sweep(3, seed=1, max_classes=16, max_teachers=709).failures == 0

    @pytest.mark.parametrize("max_classes, max_teachers", [(2, 2), (16, 16), (5, 700)])
    def test_sizes_in_range_run(self, max_classes, max_teachers):
        report = soundness_sweep(5, seed=1, max_classes=max_classes, max_teachers=max_teachers)
        assert report.failures == 0 and report.stats["moment_bound"].checks > 0
