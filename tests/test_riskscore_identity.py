"""The risk-score kernels repeat their mask-and-midrank definitions bit for bit.

Each reference below is the direct definition the kernels replaced: a
descending sort for the ROC, per-class midranks by `np.unique` and
`np.add.at` for the Mann-Whitney AUC and DeLong components, a fresh sort for
the calibration bins, and boolean masks over every subject for the threshold
grid, the decision curve and the risk strata. The kernels read all of these
from one stable ascending sort per score vector and must agree to the last
bit, so reports do not change.
"""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from daval.accuracy import CIMethod, Confusion2x2, accuracy_metrics, proportion_ci, ratio_ci_log_method
from daval.riskscore import (
    DEFAULT_DCA_GRID,
    CalibrationBin,
    RiskStrata,
    RiskStratum,
    ThresholdMetrics,
    calibration_plot,
    decision_curve,
    fit_recalibration,
    prevalence_scale,
    risk_strata_analysis,
    roc_curve,
    sort_scores,
    threshold_grid,
)

PROPERTY = settings(max_examples=150, deadline=None)


# ---------------------------------------------------------------- references


def _ref_midrank(x):
    order = np.argsort(x, kind="mergesort")
    ranks = np.empty(len(x), dtype=float)
    ranks[order] = np.arange(1, len(x) + 1)
    _, inverse, counts = np.unique(x, return_inverse=True, return_counts=True)
    sums = np.zeros(len(counts))
    np.add.at(sums, inverse, ranks)
    return sums[inverse] / counts[inverse]


def _ref_roc(scores, outcomes):
    s = np.asarray(scores, dtype=float)
    y = np.asarray(outcomes, dtype=bool)
    n_pos = int(y.sum())
    n_neg = len(y) - n_pos
    order = np.argsort(-s, kind="mergesort")
    s_sorted, y_sorted = s[order], y[order]
    distinct = np.r_[np.diff(s_sorted) != 0, True]
    cum_tp = np.cumsum(y_sorted)[distinct]
    cum_fp = np.cumsum(~y_sorted)[distinct]
    thresholds = np.r_[np.inf, s_sorted[distinct]]
    tpr = np.r_[0.0, cum_tp / n_pos]
    fpr = np.r_[0.0, cum_fp / n_neg]
    r_all = _ref_midrank(s)
    r_pos = _ref_midrank(s[y])
    r_neg = _ref_midrank(s[~y])
    auc = (float(np.sum(r_all[y])) - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
    v10 = (r_all[y] - r_pos) / n_neg
    v01 = 1.0 - (r_all[~y] - r_neg) / n_pos
    if n_pos >= 2 and n_neg >= 2:
        var = float(np.var(v10, ddof=1)) / n_pos + float(np.var(v01, ddof=1)) / n_neg
        auc_se = math.sqrt(max(var, 0.0))
    else:
        auc_se = math.nan
    return thresholds, tpr, fpr, float(auc), auc_se, n_pos, n_neg


def _ref_calibration_plot(scores, outcomes, n_bins):
    s = np.asarray(scores, dtype=float)
    y = np.asarray(outcomes, dtype=float)
    order = np.argsort(s, kind="stable")
    return tuple(
        CalibrationBin(
            mean_predicted=float(np.mean(s[chunk])),
            observed_rate=float(np.mean(y[chunk])),
            n=len(chunk),
        )
        for chunk in np.array_split(order, n_bins)
    )


def _ref_threshold_grid(scores, outcomes, thresholds, level, method):
    s = np.asarray(scores, dtype=float)
    y = np.asarray(outcomes, dtype=bool)
    out = []
    for t in thresholds:
        called = s >= t
        conf = Confusion2x2(
            tp=int(np.sum(called & y)),
            fp=int(np.sum(called & ~y)),
            fn=int(np.sum(~called & y)),
            tn=int(np.sum(~called & ~y)),
        )
        m = accuracy_metrics(conf, level=level, method=method)
        out.append(ThresholdMetrics(threshold=float(t), sensitivity=m.sensitivity, specificity=m.specificity))
    return out


def _ref_decision_curve(scores, outcomes, thresholds):
    s = np.asarray(scores, dtype=float)
    y = np.asarray(outcomes, dtype=bool)
    t = np.asarray(thresholds, dtype=float)
    n = len(s)
    prevalence = float(np.mean(y))
    called = s[None, :] >= t[:, None]
    tp = np.sum(called & y[None, :], axis=1) / n
    fp = np.sum(called & ~y[None, :], axis=1) / n
    weight = t / (1.0 - t)
    nb_model = tp - fp * weight
    nb_all = prevalence - (1.0 - prevalence) * weight
    with np.errstate(divide="ignore", invalid="ignore"):
        snb = nb_model / prevalence if prevalence > 0 else np.full_like(t, np.nan)
    return t, nb_model, nb_all, np.zeros_like(t), snb, prevalence, n


def _ref_risk_strata(scores, outcomes, cutoffs, level, method):
    cuts = [float(c) for c in cutoffs]
    s = np.asarray(scores, dtype=float)
    y = np.asarray(outcomes, dtype=bool)
    n_pos = int(y.sum())
    n_neg = len(y) - n_pos
    edges = [0.0] + cuts + [1.0]
    strata = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        in_stratum = (s >= lo) & (s < hi) if hi < 1.0 else (s >= lo) & (s <= 1.0)
        n_s = int(np.sum(in_stratum))
        pos_s = int(np.sum(in_stratum & y))
        neg_s = n_s - pos_s
        risk = risk_exact = dlr = dlr_exact = None
        if n_s > 0:
            risk = proportion_ci(pos_s, n_s, level=level, method=method)
            risk_exact = Fraction(pos_s, n_s)
            dlr = ratio_ci_log_method(pos_s, n_pos, neg_s, n_neg, level)
            if neg_s > 0:
                dlr_exact = Fraction(pos_s, n_pos) / Fraction(neg_s, n_neg)
        strata.append(RiskStratum(lo, hi, n_s, pos_s, risk, dlr, risk_exact, dlr_exact))
    return RiskStrata(cutoffs=tuple(cuts), strata=tuple(strata), n_pos=n_pos, n_neg=n_neg)


# ---------------------------------------------------------------- comparisons


def _bits(a):
    a = np.asarray(a)
    return a.dtype.str, a.shape, a.tobytes()


def _assert_roc_identical(s, y, view=None):
    roc = roc_curve(s, y, view=view)
    thresholds, tpr, fpr, auc, auc_se, n_pos, n_neg = _ref_roc(s, y)
    assert _bits(roc.thresholds) == _bits(thresholds)
    assert _bits(roc.tpr) == _bits(tpr)
    assert _bits(roc.fpr) == _bits(fpr)
    assert repr(roc.auc) == repr(auc)
    assert repr(roc.auc_se) == repr(auc_se)
    assert (roc.n_pos, roc.n_neg) == (n_pos, n_neg)


def _assert_dca_identical(s, y, thresholds, view=None):
    dca = decision_curve(s, y, thresholds, view=view)
    t, nb_model, nb_all, nb_none, snb, prevalence, n = _ref_decision_curve(s, y, thresholds)
    for got, want in zip(
        (dca.thresholds, dca.nb_model, dca.nb_all, dca.nb_none, dca.snb_model),
        (t, nb_model, nb_all, nb_none, snb),
    ):
        assert _bits(got) == _bits(want)
    assert repr(dca.prevalence) == repr(prevalence)
    assert dca.n == n


def _assert_all_identical(s, y, thresholds, cutoffs, n_bins, view=None):
    level, method = 0.95, CIMethod.CLOPPER_PEARSON
    n_pos = int(np.sum(y))
    if 0 < n_pos < len(y):
        _assert_roc_identical(s, y, view)
        assert repr(risk_strata_analysis(s, y, cutoffs, level, method, view=view)) == repr(
            _ref_risk_strata(s, y, cutoffs, level, method)
        )
    assert repr(calibration_plot(s, y, n_bins, view=view)) == repr(_ref_calibration_plot(s, y, n_bins))
    assert repr(threshold_grid(s, y, thresholds, level, method, view=view)) == repr(
        _ref_threshold_grid(s, y, thresholds, level, method)
    )
    _assert_dca_identical(s, y, thresholds, view)
    _assert_dca_identical(s, y, DEFAULT_DCA_GRID, view)


# ---------------------------------------------------------------- strategies


@st.composite
def quantised_studies(draw, min_size=2, max_size=300):
    """Scores in [0, 1] rounded to 1-4 decimals, random outcomes (one class
    may be missing), and thresholds and cutoffs drawn partly from the scores."""
    decimals = draw(st.integers(1, 4))
    n = draw(st.integers(min_size, max_size))
    raw = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    s = np.round(np.asarray(raw, dtype=float), decimals)
    y = np.asarray(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
    inside = sorted({float(v) for v in s if 0.0 < v < 1.0})
    grid = [0.05, 0.1, 0.5, 0.9]
    thresholds = draw(st.lists(st.sampled_from(inside or grid), min_size=1, max_size=5)) + grid
    cutoffs = sorted(set(draw(st.lists(st.sampled_from(inside or grid), min_size=1, max_size=4))))
    n_bins = draw(st.integers(2, min(n, 12)))
    return s, y, thresholds, cutoffs, n_bins


# ---------------------------------------------------------------- properties


@PROPERTY
@given(quantised_studies())
def test_kernels_match_references_on_quantised_scores(study):
    s, y, thresholds, cutoffs, n_bins = study
    _assert_all_identical(s, y, thresholds, cutoffs, n_bins)
    _assert_all_identical(s, y, thresholds, cutoffs, n_bins, view=sort_scores(s, y))


@PROPERTY
@given(quantised_studies(), st.data())
def test_kernels_match_references_with_a_single_case_in_one_class(study, data):
    s, y, thresholds, cutoffs, n_bins = study
    lone = data.draw(st.integers(0, len(s) - 1))
    y = np.zeros(len(s), dtype=bool) if data.draw(st.booleans()) else np.ones(len(s), dtype=bool)
    y[lone] = not y[lone]
    assert min(int(y.sum()), int((~y).sum())) == 1
    _assert_all_identical(s, y, thresholds, cutoffs, n_bins, view=sort_scores(s, y))


@PROPERTY
@given(st.lists(st.tuples(st.sampled_from([-0.0, 0.0, 0.25, 0.5, 1.0]), st.booleans()), min_size=2, max_size=60))
def test_signed_zeros_share_a_block_with_the_reference_representative(pairs):
    s = np.array([p[0] for p in pairs])
    y = np.array([p[1] for p in pairs])
    assume(0 < y.sum() < len(y))
    _assert_roc_identical(s, y)
    _assert_roc_identical(s, y, sort_scores(s, y))
    n_bins = min(len(s), 3)
    assert repr(calibration_plot(s, y, n_bins)) == repr(_ref_calibration_plot(s, y, n_bins))


def test_signed_zero_block_keeps_the_last_input_as_threshold():
    s = np.array([0.0, 0.5, -0.0, 0.5, 0.0, -0.0])
    y = np.array([True, False, False, True, True, False])
    roc = roc_curve(s, y)
    assert _bits(roc.thresholds) == _bits(_ref_roc(s, y)[0])
    assert math.copysign(1.0, roc.thresholds[-1]) == -1.0


@PROPERTY
@given(
    quantised_studies(),
    st.sampled_from([(0.25, 0.1), (0.4, 0.2), (0.1, 0.6), (0.01, 0.99), (0.99, 0.01)]),
)
def test_prevalence_scaled_view_matches_references(study, prevs):
    s, y, thresholds, cutoffs, n_bins = study
    p = np.clip(s, 0.0005, 0.9995)
    scaled = prevalence_scale(p, *prevs)
    _assert_all_identical(scaled, y, thresholds, cutoffs, n_bins, view=sort_scores(scaled, y))


def _merged_pair():
    """Two distinct scores that prevalence scaling at 0.01 -> 0.99 maps to one value."""
    lo = 0.9
    hi = float(np.nextafter(lo, 1.0))
    scaled = prevalence_scale(np.array([lo, hi]), 0.01, 0.99)
    assert scaled[0] == scaled[1]
    return lo, hi


def test_scores_merged_by_scaling_keep_input_order():
    lo, hi = _merged_pair()
    # The higher score comes first in the input, so the unscaled order lists
    # the merged block's subjects in reverse; the scaled scores' own stable
    # sort lists them in input order.
    p = np.array([0.3, hi, lo])
    y = np.array([False, True, False])
    scaled = prevalence_scale(p, 0.01, 0.99)
    view = sort_scores(scaled, y)
    assert sort_scores(p, y).order.tolist() == [0, 2, 1]
    assert view.order.tolist() == [0, 1, 2]
    # Bins of two split the merged block, so its input order decides the rates.
    _assert_all_identical(scaled, y, [0.5], [0.5], 2, view=view)


def test_recalibration_bins_match_with_a_shared_view():
    rng = np.random.default_rng(11)
    s = np.round(rng.random(500), 2)
    y = rng.random(500) < s
    fit = fit_recalibration(s, y, n_bins=7, view=sort_scores(s, y))
    assert repr(fit.bins) == repr(_ref_calibration_plot(s, y, 7))


# ---------------------------------------------------------------- NaN scores


NAN_SCORES = np.array([0.2, math.nan, 0.7, 0.4])
NAN_OUTCOMES = np.array([False, True, True, False])


def test_roc_curve_refuses_nan_scores():
    with pytest.raises(ValueError, match="NaN"):
        roc_curve(NAN_SCORES, NAN_OUTCOMES)


def test_calibration_plot_refuses_nan_scores():
    with pytest.raises(ValueError, match="NaN"):
        calibration_plot(NAN_SCORES, NAN_OUTCOMES, n_bins=2)


def test_threshold_grid_refuses_nan_scores():
    with pytest.raises(ValueError, match="NaN"):
        threshold_grid(NAN_SCORES, NAN_OUTCOMES, [0.5])


def test_decision_curve_refuses_nan_scores():
    with pytest.raises(ValueError, match="NaN"):
        decision_curve(NAN_SCORES, NAN_OUTCOMES)


def test_risk_strata_analysis_refuses_nan_scores():
    with pytest.raises(ValueError, match="NaN"):
        risk_strata_analysis(NAN_SCORES, NAN_OUTCOMES, [0.5])


def test_fit_recalibration_refuses_nan_scores_before_fitting():
    # A fit on a NaN logit would warn of invalid values; none may be raised.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="NaN"):
            fit_recalibration(NAN_SCORES, NAN_OUTCOMES)
