import math

import numpy as np
import pytest
from scipy import stats

from privagg import (
    EnsembleConfig,
    ErrorModel,
    GuaranteeMethod,
    budget_report,
    compose,
    moments_guarantee,
    strong_composition_eps,
    sweep_gamma,
    synth_query_votes,
)
from privagg import simulation
from privagg.seeding import derive_rng


class TestEnsembleConfig:
    def test_default_mirrors_reference_setup(self):
        config = EnsembleConfig()
        assert (config.n, config.m, config.queries) == (250, 10, 100)
        assert config.teacher_accuracy == 0.8386

    @pytest.mark.parametrize("kwargs", [
        {"n": 0},
        {"m": 1},
        {"teacher_accuracy": 0.1},     # exactly 1/m is chance level
        {"teacher_accuracy": 1.01},
        {"queries": -1},
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            EnsembleConfig(**kwargs)

    def test_fractional_queries_are_refused_before_any_draw(self, monkeypatch):
        # budget_report died inside numpy's integers() with a TypeError.
        monkeypatch.setattr(simulation, "derive_rng", lambda *a: pytest.fail("drew"))
        with pytest.raises(ValueError, match=r"^queries must be an integer, got 2\.5$"):
            budget_report(EnsembleConfig(queries=2.5), 0.05)

    def test_fields_are_stored_as_ints(self):
        config = EnsembleConfig(n=np.int64(5), m=np.array(3), queries=np.uint8(2),
                                seed=np.int32(7))
        assert [type(v) for v in (config.n, config.m, config.queries, config.seed)] == [int] * 4


def per_teacher_votes(config, true_label, rng):
    """Reference: one vote per teacher, then a tally of all n votes."""
    votes = np.full(config.n, true_label, dtype=np.int64)
    wrong = rng.random(config.n) >= config.teacher_accuracy
    num_wrong = int(np.count_nonzero(wrong))
    if num_wrong:
        if config.error_model is ErrorModel.UNIFORM_CONFUSION:
            offsets = rng.integers(1, config.m, size=num_wrong)
        else:
            offsets = rng.integers(0, 2, size=num_wrong) * 2 - 1
        votes[wrong] = (true_label + offsets) % config.m
    counts = np.bincount(votes, minlength=config.m)
    return tuple(int(c) for c in counts)


class TestSynthQueryVotes:
    def test_perfect_teachers_vote_unanimously(self):
        config = EnsembleConfig(n=50, m=4, teacher_accuracy=1.0, queries=1)
        hist = synth_query_votes(config, 2, derive_rng(0))
        assert hist.counts == (0, 0, 50, 0)

    def test_chance_level_uniform_confusion_is_uniform(self):
        # at (numerically) chance-level accuracy the vote distribution is
        # indistinguishable from uniform
        m = 4
        config = EnsembleConfig(n=100_000, m=m, teacher_accuracy=1 / m + 1e-12,
                                queries=1)
        hist = synth_query_votes(config, 1, derive_rng(3))
        result = stats.chisquare(hist.counts)
        assert result.pvalue > 0.001

    def test_adjacent_confusion_stays_adjacent(self):
        config = EnsembleConfig(n=10_000, m=10, teacher_accuracy=0.5,
                                error_model=ErrorModel.ADJACENT_CONFUSION, queries=1)
        hist = synth_query_votes(config, 5, derive_rng(1))
        votes_on = {j for j, c in enumerate(hist.counts) if c > 0}
        assert votes_on == {4, 5, 6}

    def test_strong_ensemble_keeps_wide_gap(self):
        # consistency check against the reference shape: with 250 teachers at
        # 83.86% accuracy the margin stays above 60% of the ensemble
        config = EnsembleConfig(queries=1000, seed=9)
        result = sweep_gamma(config, [0.05])
        assert result.mean_normalized_gap > 0.6

    def test_bool_label_is_refused_before_any_draw(self):
        # True voted as class 1 before.
        config, rng = EnsembleConfig(n=5, m=3, teacher_accuracy=0.9, queries=1), derive_rng(0)
        with pytest.raises(ValueError, match=r"^true_label must be an integer in \[0, 3\), "
                                             r"got True$"):
            synth_query_votes(config, True, rng)
        assert rng.random() == derive_rng(0).random()

    def test_label_out_of_range(self):
        config = EnsembleConfig(n=5, m=3, teacher_accuracy=0.9, queries=1)
        for label in (3, -1, 2.0):
            with pytest.raises(ValueError, match="true_label must be an integer in"):
                synth_query_votes(config, label, derive_rng(0))

    @pytest.mark.parametrize("error_model,m,n,accuracy", [
        (error_model, m, n, accuracy)
        for error_model in ErrorModel for m in (2, 3, 10) for n in (1, 7, 250)
        for accuracy in (1.0, 0.5, math.nextafter(1.0 / m, 1.0)) if accuracy > 1.0 / m])
    def test_counts_and_stream_match_per_teacher_votes(self, error_model, m, n, accuracy):
        config = EnsembleConfig(n=n, m=m, teacher_accuracy=accuracy,
                                error_model=error_model, queries=1)
        for seed in range(30):
            true_label = seed % m
            rng, ref_rng = derive_rng(seed, 5), derive_rng(seed, 5)
            hist = synth_query_votes(config, true_label, rng)
            assert type(hist.counts[0]) is int
            assert hist.counts == per_teacher_votes(config, true_label, ref_rng)
            assert rng.random() == ref_rng.random()


class TestSweepGamma:
    def test_perfect_votes_survive_mild_noise(self):
        config = EnsembleConfig(n=250, m=10, teacher_accuracy=1.0,
                                queries=1000, seed=4)
        result = sweep_gamma(config, [1.0])
        assert result.points[0].accuracy >= 0.999
        assert result.mean_normalized_gap == 1.0

    def test_accuracy_non_decreasing_in_gamma(self):
        config = EnsembleConfig(queries=500, seed=6)
        result = sweep_gamma(config, [0.01, 0.02, 0.05, 0.1, 0.2, 1.0])
        q = config.queries
        for lo, hi in zip(result.points, result.points[1:]):
            se = math.sqrt(lo.accuracy * (1 - lo.accuracy) / q
                           + hi.accuracy * (1 - hi.accuracy) / q)
            assert hi.accuracy >= lo.accuracy - 2 * se

    def test_larger_ensemble_wins_under_heavy_noise(self):
        small = EnsembleConfig(n=10, queries=1000, seed=8)
        large = EnsembleConfig(n=250, queries=1000, seed=8)
        acc_small = sweep_gamma(small, [0.01]).points[0].accuracy
        acc_large = sweep_gamma(large, [0.01]).points[0].accuracy
        assert acc_large > acc_small

    def test_gap_statistics_do_not_depend_on_gamma(self):
        config = EnsembleConfig(queries=200, seed=12)
        a = sweep_gamma(config, [0.01])
        b = sweep_gamma(config, [1.0])
        assert a.mean_gap == b.mean_gap
        assert a.mean_normalized_gap == b.mean_normalized_gap

    def test_bit_reproducible(self):
        config = EnsembleConfig(queries=100, seed=13)
        grid = [0.01, 0.1]
        assert sweep_gamma(config, grid) == sweep_gamma(config, grid)

    @pytest.mark.parametrize("grid", [[], [0.1, 0.1], [0.2, 0.1], [-1.0],
                                      ["0.5"], [True], [0.1, math.inf], [math.nan]])
    def test_rejects_bad_grid(self, grid, monkeypatch):
        # Every gamma is checked before any query is synthesized.
        calls = []
        monkeypatch.setattr(simulation, "synth_query_votes",
                            lambda *args: calls.append(args))
        with pytest.raises(ValueError):
            sweep_gamma(EnsembleConfig(queries=1), grid)
        assert calls == []


def _moments(ledger):
    return moments_guarantee(ledger, 1e-5)


def _strong(ledger):
    return strong_composition_eps(ledger.gamma, len(ledger), 1e-5)


class TestBudgetReport:
    def test_unanimous_votes_beat_strong_composition(self):
        config = EnsembleConfig(teacher_accuracy=1.0, queries=100, seed=2)
        ledger, _ = budget_report(config, 0.05)
        strong = strong_composition_eps(0.05, 100, 1e-5).epsilon
        assert _strong(ledger).epsilon == pytest.approx(strong)
        assert _moments(ledger).epsilon < strong
        assert _moments(ledger).method is GuaranteeMethod.MOMENTS

    def test_zero_queries_cost_nothing(self):
        config = EnsembleConfig(queries=0)
        ledger, accuracy = budget_report(config, 0.05)
        assert _moments(ledger).epsilon == 0.0
        assert _strong(ledger).epsilon == 0.0
        assert math.isnan(accuracy)
        assert all(alpha == 0.0 for alpha in compose(ledger).values())

    def test_doubling_queries_doubles_totals(self):
        base = EnsembleConfig(teacher_accuracy=1.0, queries=100, seed=3)
        double = EnsembleConfig(teacher_accuracy=1.0, queries=200, seed=3)
        totals_1 = compose(budget_report(base, 0.05)[0])
        totals_2 = compose(budget_report(double, 0.05)[0])
        for order, alpha in totals_1.items():
            assert totals_2[order] == pytest.approx(2 * alpha, rel=1e-12)

    def test_accuracy_tracked(self):
        config = EnsembleConfig(teacher_accuracy=1.0, queries=50, seed=1)
        ledger, accuracy = budget_report(config, 1.0)
        assert accuracy == 1.0
        assert len(ledger) == 50

    def test_accuracy_matches_first_sweep_gamma(self):
        # Both label with stream prefix (0,), so the same noise hits the same votes.
        config = EnsembleConfig(n=50, teacher_accuracy=0.3, queries=200, seed=4)
        _, accuracy = budget_report(config, 0.1)
        assert 0.0 < accuracy < 1.0
        assert accuracy == sweep_gamma(config, [0.1, 0.5]).points[0].accuracy
