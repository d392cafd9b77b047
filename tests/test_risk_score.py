"""Risk-score analyses: recalibration, ROC, decision curves, strata."""

import math
from fractions import Fraction

import numpy as np
import pytest

from daval.accuracy import likelihood_ratios
from daval.accuracy import Confusion2x2
from daval import riskscore
from daval.riskscore import (
    CalibrationMode,
    PerfectSeparationError,
    auc_ci,
    calibration_plot,
    decision_curve,
    fit_recalibration,
    prevalence_scale,
    risk_strata_analysis,
    roc_curve,
    threshold_grid,
)
from daval.resample import SeededGenerator, simulate_risk_scores


def brute_force_auc(pos, neg):
    """Pair counting with half credit for ties."""
    wins = sum(1.0 if p > q else 0.5 if p == q else 0.0 for p in pos for q in neg)
    return wins / (len(pos) * len(neg))


def random_scored_dataset(gen, max_n=30):
    rng = gen.generator()
    n = int(rng.integers(4, max_n + 1))
    # coarse grid forces ties; resample until both classes appear
    while True:
        outcomes = rng.random(n) < 0.5
        if outcomes.any() and not outcomes.all():
            break
    scores = rng.integers(0, 11, size=n) / 10.0
    scores = np.clip(scores, 0.01, 0.99)
    return scores, outcomes


def test_recalibration_symmetric_outcomes_give_flat_fit():
    res = fit_recalibration([0.3, 0.7, 0.3, 0.7], [False, True, True, False])
    assert res.converged
    assert abs(res.slope) < 1e-8
    assert abs(res.intercept) < 1e-8


def test_recalibration_detects_perfect_separation():
    with pytest.raises(PerfectSeparationError):
        fit_recalibration([0.2, 0.8], [False, True])


def test_recalibration_rejects_constant_outcomes():
    with pytest.raises(ValueError):
        fit_recalibration([0.2, 0.8], [True, True])


def test_recalibration_recovers_known_shift():
    # outcomes generated from a score whose logit is shifted by -0.5
    rng = SeededGenerator(201).generator()
    scores = rng.uniform(0.05, 0.95, size=4000)
    true_p = 1.0 / (1.0 + np.exp(-(np.log(scores / (1 - scores)) - 0.5)))
    outcomes = rng.random(4000) < true_p
    res = fit_recalibration(scores, outcomes)
    assert res.converged
    assert res.intercept == pytest.approx(-0.5, abs=0.12)
    assert res.slope == pytest.approx(1.0, abs=0.08)

    large = fit_recalibration(scores, outcomes, mode=CalibrationMode.INTERCEPT_ONLY)
    assert large.slope == 1.0
    assert large.constrained is CalibrationMode.INTERCEPT_ONLY
    assert large.intercept == pytest.approx(-0.5, abs=0.12)


def test_recalibration_fixed_point():
    # applying the fitted map and refitting gives the identity calibration
    rng = SeededGenerator(202).generator()
    scores = rng.uniform(0.1, 0.9, size=1500)
    eta = 0.8 * np.log(scores / (1 - scores)) + 0.3
    outcomes = rng.random(1500) < 1.0 / (1.0 + np.exp(-eta))
    first = fit_recalibration(scores, outcomes)
    mapped = 1.0 / (
        1.0 + np.exp(-(first.intercept + first.slope * np.log(scores / (1 - scores))))
    )
    second = fit_recalibration(mapped, outcomes)
    assert second.intercept == pytest.approx(0.0, abs=1e-6)
    assert second.slope == pytest.approx(1.0, abs=1e-6)


def test_clipping_is_counted():
    res = fit_recalibration([0.0, 1.0, 0.3, 0.7, 0.6, 0.4], [0, 1, 1, 0, 0, 1])
    assert res.n_clipped == 2


def test_calibration_plot_degenerate_scores():
    bins = calibration_plot([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0], n_bins=2)
    assert len(bins) == 2
    for b in bins:
        assert b.mean_predicted == pytest.approx(0.5)
        assert b.observed_rate == pytest.approx(0.5)


def test_calibration_plot_bin_counts_sum_to_n():
    rng = SeededGenerator(203).generator()
    scores = rng.uniform(0.01, 0.99, size=137)
    outcomes = rng.random(137) < scores
    bins = calibration_plot(scores, outcomes, n_bins=10)
    assert sum(b.n for b in bins) == 137
    assert len(bins) == 10


def test_calibration_plot_close_to_diagonal_for_calibrated_scores():
    rng = SeededGenerator(204).generator()
    scores = rng.uniform(0.05, 0.95, size=5000)
    outcomes = rng.random(5000) < scores
    bins = calibration_plot(scores, outcomes, n_bins=10)
    worst = max(abs(b.mean_predicted - b.observed_rate) for b in bins)
    assert worst < 0.05


def test_calibration_plot_validates_bins():
    with pytest.raises(ValueError):
        calibration_plot([0.5, 0.6], [0, 1], n_bins=1)
    with pytest.raises(ValueError):
        calibration_plot([0.5, 0.6], [0, 1], n_bins=3)


def test_prevalence_scale_identity_and_round_trip():
    for p in (0.1, 0.5, 0.9):
        assert prevalence_scale(p, 0.3, 0.3) == pytest.approx(p, abs=1e-15)
    p = 0.37
    there = prevalence_scale(p, 0.4, 0.05)
    back = prevalence_scale(there, 0.05, 0.4)
    assert back == pytest.approx(p, abs=1e-12)


def test_prevalence_scale_worked_value_is_exact_in_rationals():
    out = prevalence_scale(Fraction(1, 2), Fraction(1, 2), Fraction(1, 10))
    assert out == Fraction(1, 10)


def test_prevalence_scale_monotone_and_validated():
    grid = np.linspace(0.01, 0.99, 99)
    scaled = prevalence_scale(grid, 0.4, 0.1)
    assert np.all(np.diff(scaled) > 0)
    with pytest.raises(ValueError):
        prevalence_scale(0.0, 0.4, 0.1)
    with pytest.raises(ValueError):
        prevalence_scale(0.5, 1.0, 0.1)


def test_roc_perfect_separation():
    roc = roc_curve([0.9, 0.7, 0.3, 0.1], [True, True, False, False])
    assert roc.auc == 1.0
    assert roc.thresholds[0] == np.inf
    assert auc_ci(roc) == (1.0, 1.0)


def test_roc_crossed_pair_worked_example():
    roc = roc_curve([0.8, 0.4, 0.6, 0.2], [True, True, False, False])
    assert roc.auc == pytest.approx(0.75)


def test_roc_all_tied_scores():
    roc = roc_curve([0.5, 0.5, 0.5, 0.5], [True, False, True, False])
    assert roc.auc == pytest.approx(0.5)


def test_roc_requires_both_classes():
    with pytest.raises(ValueError):
        roc_curve([0.2, 0.8], [True, True])


def test_roc_curve_anchors_and_monotonicity():
    scores, outcomes = random_scored_dataset(SeededGenerator(206))
    roc = roc_curve(scores, outcomes)
    assert roc.tpr[0] == 0.0 and roc.fpr[0] == 0.0
    assert roc.tpr[-1] == 1.0 and roc.fpr[-1] == 1.0
    assert np.all(np.diff(roc.tpr) >= 0)
    assert np.all(np.diff(roc.fpr) >= 0)


def test_rank_auc_equals_pair_counting_and_trapezoid():
    for i in range(200):
        scores, outcomes = random_scored_dataset(SeededGenerator(207).substream(i))
        roc = roc_curve(scores, outcomes)
        brute = brute_force_auc(scores[outcomes], scores[~outcomes])
        assert abs(roc.auc - brute) < 1e-12
        assert abs(roc.auc - roc.trapezoid_auc()) < 1e-12


def test_auc_invariant_under_increasing_transform():
    scores, outcomes = random_scored_dataset(SeededGenerator(208))
    roc = roc_curve(scores, outcomes)
    transformed = roc_curve(scores**2, outcomes)  # strictly increasing on [0, 1]
    assert transformed.auc == roc.auc


def test_auc_invariant_under_prevalence_scaling():
    scores, outcomes = random_scored_dataset(SeededGenerator(209))
    scaled = prevalence_scale(scores, 0.4, 0.1)
    assert roc_curve(scaled, outcomes).auc == roc_curve(scores, outcomes).auc


def test_auc_se_matches_direct_component_computation():
    scores, outcomes = random_scored_dataset(SeededGenerator(210))
    roc = roc_curve(scores, outcomes)
    pos, neg = scores[outcomes], scores[~outcomes]
    # placement values computed directly from pair comparisons
    v10 = np.array([brute_force_auc([p], neg) for p in pos])
    v01 = np.array([brute_force_auc(pos, [q]) for q in neg])
    var = np.var(v10, ddof=1) / len(pos) + np.var(v01, ddof=1) / len(neg)
    assert roc.auc_se == pytest.approx(math.sqrt(var), rel=1e-10)


def test_auc_ci_needs_two_per_class():
    roc = roc_curve([0.9, 0.1], [True, False])
    assert math.isnan(roc.auc_se)
    with pytest.raises(ValueError):
        auc_ci(roc)


def test_auc_ci_simulated_scores_cover_target():
    scores, outcomes = simulate_risk_scores(5000, 0.4, 0.9, SeededGenerator(211))
    roc = roc_curve(scores, outcomes)
    assert roc.auc == pytest.approx(0.9, abs=0.02)
    lo, hi = auc_ci(roc)
    assert lo <= 0.9 <= hi


def test_threshold_grid_edges_and_monotonicity():
    scores = np.array([0.3, 0.4, 0.6, 0.7])
    outcomes = np.array([False, True, False, True])
    grid = threshold_grid(scores, outcomes, [0.1, 0.5, 0.9])
    low, mid, high = grid
    assert low.sensitivity.estimate == 1.0  # calls everything positive
    assert high.specificity.estimate == 1.0  # calls nothing positive
    sens = [g.sensitivity.estimate for g in grid]
    spec = [g.specificity.estimate for g in grid]
    assert sens == sorted(sens, reverse=True)
    assert spec == sorted(spec)
    with pytest.raises(ValueError):
        threshold_grid(scores, outcomes, [])
    with pytest.raises(ValueError):
        threshold_grid(scores, outcomes, [0.0])


def test_decision_curve_worked_example():
    # 25 diseased callers, 20 healthy callers, 10 + 45 below threshold
    scores = np.concatenate(
        [np.full(25, 0.5), np.full(10, 0.1), np.full(20, 0.5), np.full(45, 0.1)]
    )
    outcomes = np.concatenate(
        [np.ones(25, bool), np.ones(10, bool), np.zeros(20, bool), np.zeros(45, bool)]
    )
    curve = decision_curve(scores, outcomes, thresholds=[0.2])
    assert curve.nb_model[0] == pytest.approx(0.25 - 0.20 * 0.25, abs=1e-12)
    assert curve.prevalence == pytest.approx(0.35)
    assert curve.snb_model[0] == pytest.approx(curve.nb_model[0] / 0.35, abs=1e-12)


def test_decision_curve_anchors():
    rng = SeededGenerator(212).generator()
    scores = rng.uniform(0.01, 0.99, size=400)
    outcomes = rng.random(400) < scores
    curve = decision_curve(scores, outcomes)
    assert np.all(curve.nb_none == 0.0)
    prev = float(np.mean(outcomes))
    # treat-all crosses zero exactly at the prevalence threshold
    idx = int(np.argmin(np.abs(curve.thresholds - prev)))
    t = curve.thresholds[idx]
    expected = prev - (1 - prev) * t / (1 - t)
    assert curve.nb_all[idx] == pytest.approx(expected, abs=1e-12)
    with pytest.raises(ValueError):
        decision_curve(scores, outcomes, thresholds=[1.0])


def test_decision_curve_perfect_model_hits_prevalence():
    outcomes = np.array([True] * 30 + [False] * 70)
    scores = np.where(outcomes, 0.995, 0.005)
    curve = decision_curve(scores, outcomes)
    assert np.allclose(curve.nb_model, 0.3, atol=1e-12)


def test_risk_strata_single_cutoff_matches_2x2():
    rng = SeededGenerator(213).generator()
    scores = np.round(rng.uniform(0.01, 0.99, size=80), 2)
    outcomes = rng.random(80) < scores
    strata = risk_strata_analysis(scores, outcomes, [0.5])
    called = scores >= 0.5
    conf = Confusion2x2(
        tp=int(np.sum(called & outcomes)),
        fp=int(np.sum(called & ~outcomes)),
        fn=int(np.sum(~called & outcomes)),
        tn=int(np.sum(~called & ~outcomes)),
    )
    lrs = likelihood_ratios(conf)
    upper = strata.strata[1]
    assert upper.dlr.estimate == pytest.approx(lrs["lr_pos"].estimate, rel=1e-12)
    assert upper.n == conf.tp + conf.fp
    assert upper.posttest_risk.estimate == pytest.approx(conf.tp / (conf.tp + conf.fp))


def test_risk_strata_boundary_score_goes_to_upper_stratum():
    strata = risk_strata_analysis([0.2, 0.5, 0.8], [False, True, True], [0.5])
    assert strata.strata[0].n == 1
    assert strata.strata[1].n == 2


def test_risk_strata_counts_and_coherence():
    rng = SeededGenerator(214).generator()
    scores = rng.uniform(0.01, 0.99, size=60)
    outcomes = rng.random(60) < scores
    strata = risk_strata_analysis(scores, outcomes, [0.3, 0.7])
    assert sum(s.n for s in strata.strata) == 60
    pre_odds = Fraction(strata.n_pos, strata.n_neg)
    for s in strata.strata:
        if s.posttest_risk_exact is None or s.dlr_exact is None:
            continue
        post = s.posttest_risk_exact
        if post == 1:
            continue
        assert post / (1 - post) == pre_odds * s.dlr_exact


def test_risk_strata_empty_stratum_reports_none():
    strata = risk_strata_analysis([0.9, 0.95], [True, False], [0.5])
    low = strata.strata[0]
    assert low.n == 0
    assert low.posttest_risk is None
    assert low.dlr is None


def test_risk_strata_validates_cutoffs():
    with pytest.raises(ValueError):
        risk_strata_analysis([0.5], [True], [0.7, 0.3])
    with pytest.raises(ValueError):
        risk_strata_analysis([0.5], [True], [0.0])


def test_recalibration_on_100000_quantised_scores_converges():
    # 100,000 scores at 25% prevalence, rounded to 3 or 4 decimals: an
    # absolute gradient tolerance sits below the rounding in a sum this long,
    # and on this draw the intercept-only fit ran out its 50 iterations.
    rng = np.random.default_rng([104, 2])
    n = 100_000
    outcomes = rng.random(n) < 0.25
    latent = rng.normal(0.0, 1.0, n) + math.sqrt(2.0) * 0.77 * outcomes - 1.3
    raw = np.clip(1.0 / (1.0 + np.exp(-latent)), 0.001, 0.999)
    scores = np.where(rng.random(n) < 0.5, np.round(raw, 4), np.round(raw, 3))
    for mode in CalibrationMode:
        res = fit_recalibration(scores, outcomes, mode=mode)
        assert res.converged
        assert res.iterations < 10


def test_recalibration_stops_when_the_decrement_reaches_its_rounding_floor(monkeypatch):
    # With the tolerance at 0 only the rounding floor can stop the fit: a
    # gain the log likelihood cannot register that has stopped falling.
    monkeypatch.setattr(riskscore, "NEWTON_TOL", 0.0)
    rng = SeededGenerator(215).generator()
    scores = rng.uniform(0.02, 0.98, size=5000)
    outcomes = rng.random(5000) < scores
    for mode in CalibrationMode:
        res = fit_recalibration(scores, outcomes, mode=mode)
        assert res.converged
        assert res.iterations < 10
