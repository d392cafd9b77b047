"""Time-to-event estimators: product-limit curve, logrank, proportional hazards."""

import math

import numpy as np
import pytest

from daval.dataset import StudyTable
from daval.resample import SeededGenerator, simulate_survival
from daval.survival import (
    CoxFit,
    MonotoneLikelihoodError,
    added_value_lrt,
    covariate_matrix,
    cox_fit,
    km_estimate,
    km_risk_at,
    logrank,
    survival_arrays,
)
from conftest import pooled, score_record, survival_record


def grid_search_cox_ll(x, times, events, betas):
    """Brute-force Breslow partial likelihood over a coefficient grid."""
    x = np.asarray(x, dtype=float)
    order = np.argsort(times, kind="mergesort")
    t, e, xv = np.asarray(times)[order], np.asarray(events, bool)[order], x[order]
    out = []
    for b in betas:
        ll = 0.0
        for i in range(len(t)):
            if not e[i]:
                continue
            at_risk = t >= t[i]
            ll += b * xv[i] - math.log(np.sum(np.exp(b * xv[at_risk])))
        out.append(ll)
    return np.asarray(out)


def test_km_hand_example():
    curve = km_estimate([1.0, 2.0, 3.0], [True, False, True])
    assert curve.times.tolist() == [1.0, 3.0]
    assert curve.at_risk.tolist() == [3, 1]
    assert curve.events.tolist() == [1, 1]
    assert curve.survival[0] == pytest.approx(2 / 3, abs=1e-12)
    assert curve.survival[1] == pytest.approx(0.0, abs=1e-12)
    # first-step Greenwood: se = S(t1) * sqrt(d1 / (n1 * (n1 - d1)))
    expected_se = (2 / 3) * math.sqrt(1 / (3 * 2))
    assert curve.greenwood_se[0] == pytest.approx(expected_se, rel=1e-12)
    # the curve hits zero: the variance accumulator degenerates
    assert curve.greenwood_se[1] == 0.0
    assert curve.lower[1] == 0.0 and curve.upper[1] == 0.0


def test_km_no_events_is_flat_one():
    curve = km_estimate([1.0, 2.0, 3.0], [False, False, False])
    assert len(curve.times) == 0
    assert curve.survival_at(100.0) == 1.0
    assert curve.max_followup == 3.0


def test_km_censored_subject_stays_at_risk_through_tied_event():
    curve = km_estimate([1.0, 1.0], [True, False])
    assert curve.at_risk.tolist() == [2]
    assert curve.survival[0] == pytest.approx(0.5)


def test_km_equals_empirical_survival_without_censoring():
    for i in range(100):
        rng = SeededGenerator(300).substream(i).generator()
        n = int(rng.integers(3, 40))
        times = np.round(rng.exponential(5.0, size=n), 1)  # rounding forces ties
        curve = km_estimate(times, np.ones(n, dtype=bool))
        for t in curve.times:
            empirical = float(np.mean(times > t))
            assert curve.survival_at(t) == pytest.approx(empirical, abs=1e-12)


def test_km_invariant_under_monotone_time_rescaling():
    rng = SeededGenerator(301).generator()
    times = rng.exponential(2.0, size=50)
    events = rng.random(50) < 0.7
    base = km_estimate(times, events)
    scaled = km_estimate(times * 7.0, events)
    assert np.allclose(scaled.survival, base.survival, atol=0, rtol=0)
    assert np.allclose(scaled.greenwood_se, base.greenwood_se, atol=0, rtol=0)


def test_km_confidence_bands_bracket_the_estimate():
    rng = SeededGenerator(302).generator()
    times = rng.exponential(2.0, size=80)
    events = rng.random(80) < 0.6
    curve = km_estimate(times, events)
    inside = (curve.survival > 0) & (curve.survival < 1)
    assert np.all(curve.lower[inside] < curve.survival[inside])
    assert np.all(curve.upper[inside] > curve.survival[inside])
    assert np.all(curve.lower >= 0.0) and np.all(curve.upper <= 1.0)


def test_km_risk_at_hand_example():
    curve = km_estimate([1.0, 2.0, 3.0], [True, False, True])
    before = km_risk_at(curve, 0.5)
    assert before.risk == 0.0
    assert (before.lower, before.upper) == (0.0, 0.0)
    assert not before.extrapolated

    at_one = km_risk_at(curve, 1.0)
    assert at_one.risk == pytest.approx(1 / 3, abs=1e-12)
    assert at_one.lower <= at_one.risk <= at_one.upper

    beyond = km_risk_at(curve, 10.0)
    assert beyond.extrapolated
    assert beyond.risk == pytest.approx(1.0)
    with pytest.raises(ValueError):
        km_risk_at(curve, -1.0)


def test_km_risk_at_refuses_a_nan_horizon():
    curve = km_estimate([1.0, 2.0, 3.0, 4.0], [True, False, True, True])
    with pytest.raises(ValueError, match="^t must be nonnegative$"):
        km_risk_at(curve, math.nan)


def test_km_risk_at_reads_the_interval_at_the_curves_level():
    times, events = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [True, False, True, True, False, True]
    curve = km_estimate(times, events, level=0.8)
    narrow = km_risk_at(curve, 3.5)
    wide = km_risk_at(km_estimate(times, events, level=0.95), 3.5)
    assert (narrow.lower, narrow.upper) == (1.0 - curve.upper[1], 1.0 - curve.lower[1])
    assert wide.lower < narrow.lower < narrow.risk == wide.risk < narrow.upper < wide.upper


def test_km_risk_monotone_in_horizon():
    rng = SeededGenerator(303).generator()
    times = rng.exponential(3.0, size=60)
    events = rng.random(60) < 0.8
    curve = km_estimate(times, events)
    risks = [km_risk_at(curve, t).risk for t in np.linspace(0, 10, 21)]
    assert risks == sorted(risks)


def test_km_calibration_on_calibrated_simulation():
    records = simulate_survival(2000, 0.5, 0.0, 0.1, SeededGenerator(304))
    times, events = survival_arrays(records)
    curve = km_estimate(times, events)
    median = math.log(2.0) / 0.5
    assert curve.survival_at(median) == pytest.approx(0.5, abs=0.04)


def test_logrank_identical_groups_give_zero():
    rng = SeededGenerator(305).generator()
    times = rng.exponential(1.0, size=30)
    events = rng.random(30) < 0.7
    res = logrank(*pooled([(times, events), (times, events)]))
    assert res.statistic == pytest.approx(0.0, abs=1e-9)
    assert res.p_value == pytest.approx(1.0, abs=1e-6)
    assert res.df == 1

    triple = logrank(*pooled([(times, events)] * 3))
    assert triple.statistic == pytest.approx(0.0, abs=1e-9)
    assert triple.df == 2


def test_logrank_no_events_is_degenerate():
    res = logrank(*pooled([([1.0, 2.0], [False, False]), ([1.5], [False])]))
    assert res.degenerate
    assert res.statistic == 0.0
    assert res.p_value == 1.0


def test_logrank_detects_separated_hazards():
    rng = SeededGenerator(306).generator()
    a_times = rng.exponential(1.0, size=100)
    b_times = rng.exponential(5.0, size=100)
    res = logrank(
        *pooled([(a_times, np.ones(100, bool)), (b_times, np.ones(100, bool))])
    )
    assert res.p_value < 0.01
    assert not res.degenerate


def test_logrank_validates_groups():
    with pytest.raises(ValueError):
        logrank(*pooled([([1.0], [True])]))
    with pytest.raises(ValueError):
        logrank(*pooled([([1.0], [True]), ([], [])]))


def test_cox_zero_covariate_returns_null_fit():
    times = [1.0, 2.0, 3.0, 4.0]
    events = [True, True, False, True]
    fit = cox_fit(np.zeros(4), times, events, names=("flat",))
    assert fit.coefficients["flat"] == 0.0
    assert fit.converged
    assert fit.iterations == 0
    assert fit.log_partial_likelihood == fit.null_log_partial_likelihood


def test_cox_matches_grid_search_on_six_subjects():
    times = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    events = [True, True, False, True, True, True]
    x = np.array([0.8, 0.3, 0.9, -0.4, -0.1, -0.7])
    fit = cox_fit(x, times, events, names=("marker",))
    assert fit.converged

    betas = np.linspace(-5.0, 5.0, 2001)
    lls = grid_search_cox_ll(x, times, events, betas)
    best = betas[int(np.argmax(lls))]
    # refine around the coarse winner
    fine = np.linspace(best - 0.01, best + 0.01, 2001)
    lls_fine = grid_search_cox_ll(x, times, events, fine)
    best_fine = fine[int(np.argmax(lls_fine))]
    assert fit.coefficients["marker"] == pytest.approx(best_fine, abs=1e-4)
    # the fitted likelihood dominates the whole grid
    assert fit.log_partial_likelihood >= float(np.max(lls_fine)) - 1e-10


def test_cox_centering_invariance():
    rng = SeededGenerator(307).generator()
    n = 80
    x = rng.normal(size=n)
    times = rng.exponential(np.exp(-0.6 * x))
    events = np.ones(n, dtype=bool)
    base = cox_fit(x, times, events, names=("m",))
    shifted = cox_fit(x - 3.0, times, events, names=("m",))
    assert shifted.coefficients["m"] == pytest.approx(base.coefficients["m"], abs=1e-10)
    assert shifted.log_partial_likelihood == pytest.approx(
        base.log_partial_likelihood, abs=1e-10
    )


def test_cox_monotone_likelihood_is_reported():
    # covariate perfectly orders the event times: the MLE runs away
    times = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    events = [True] * 6
    x = np.array([6.0, 5.0, 4.0, 3.0, 2.0, 1.0])
    with pytest.raises(MonotoneLikelihoodError):
        cox_fit(x, times, events)


def test_cox_refuses_infinite_covariates():
    # An infinite covariate used to run every step and halving and return a
    # NaN coefficient, unconverged; NaN keeps its own message.
    times, events = [1.0, 2.0, 3.0, 4.0], [True, False, True, True]
    for bad in (math.inf, -math.inf):
        with pytest.raises(ValueError, match="^covariate values must be finite$"):
            cox_fit([[0.5, 1.0], [bad, 2.0], [1.5, 0.0], [2.0, 1.0]], times, events)
    with pytest.raises(ValueError, match="^missing covariate values$"):
        cox_fit([0.5, math.nan, 1.5, math.inf], times, events)


def test_cox_input_validation():
    with pytest.raises(ValueError):
        cox_fit([1.0, float("nan")], [1.0, 2.0], [True, True])
    with pytest.raises(ValueError):
        cox_fit([1.0, 2.0], [1.0, 2.0], [False, False])  # no events
    with pytest.raises(ValueError):
        cox_fit([1.0, 2.0], [1.0], [True])


def test_lrt_nested_identity_and_validation():
    times = [1.0, 2.0, 3.0, 4.0]
    events = [True, True, True, False]
    fit = cox_fit(np.zeros(4), times, events)
    res = added_value_lrt(fit, fit, added_df=1)
    assert res.statistic == 0.0
    assert res.p_value == 1.0
    with pytest.raises(ValueError):
        added_value_lrt(fit, fit, added_df=0)


def test_lrt_detects_strong_covariate():
    hits = 0
    for i in range(10):
        rng = SeededGenerator(308).substream(i).generator()
        n = 200
        x = rng.normal(size=n)
        times = rng.exponential(np.exp(-1.0 * x))
        events = np.ones(n, dtype=bool)
        baseline = cox_fit(np.empty((n, 0)), times, events)
        full = cox_fit(x, times, events, names=("m",))
        res = added_value_lrt(baseline, full, added_df=1)
        hits += res.p_value < 0.01
    assert hits >= 9


def test_lrt_rejects_likelihood_decrease():
    times = [1.0, 2.0, 3.0, 4.0]
    events = [True, True, True, False]
    lo = cox_fit(np.zeros(4), times, events)
    rng = SeededGenerator(309).generator()
    hi = cox_fit(rng.normal(size=4), times, events, names=("m",))
    with pytest.raises(ValueError, match="not nested"):
        added_value_lrt(hi, lo, added_df=1)


def test_lrt_nan_likelihood_gives_nan_p_value():
    # An overflowed fit has a NaN log likelihood; its statistic must not read
    # as maximal significance. pyproject.toml turns any RuntimeWarning into an
    # error, so this also checks the NaN passes through without one.
    def fit(ll):
        return CoxFit(
            coefficients={}, log_partial_likelihood=ll, null_log_partial_likelihood=ll,
            iterations=0, converged=False, ties_method="breslow", n=4, n_events=3,
            tie_fraction=0.0,
        )

    res = added_value_lrt(fit(math.nan), fit(math.nan), added_df=1)
    assert math.isnan(res.statistic)
    assert math.isnan(res.p_value)
    res = added_value_lrt(fit(-5.0), fit(math.nan), added_df=2)
    assert math.isnan(res.statistic) and math.isnan(res.p_value)


def test_cox_tie_fraction_reported():
    fit = cox_fit(
        np.array([0.1, 0.2, 0.3, 0.4]),
        [1.0, 1.0, 2.0, 3.0],
        [True, True, True, False],
    )
    assert fit.tie_fraction == pytest.approx(2 / 3)
    assert fit.ties_method == "breslow"


def test_prognostic_covariate_spreads_predicted_risks():
    records = simulate_survival(400, 0.4, 1.2, 0.2, SeededGenerator(310))
    times, events = survival_arrays(records)
    z = covariate_matrix(records, ["z"])
    fit = cox_fit(z, times, events, names=("z",))
    horizon = 1.0
    curve = km_estimate(times, events)
    base_risk = km_risk_at(curve, horizon).risk
    # crude per-subject risks from the fitted relative hazard
    rel = np.exp(fit.coefficients["z"] * z[:, 0])
    full_risks = 1.0 - (1.0 - base_risk) ** rel
    baseline_risks = np.full(len(records), base_risk)
    edges = np.linspace(0.0, 1.0, 11)
    spread_base = np.count_nonzero(np.histogram(baseline_risks, bins=edges)[0])
    spread_full = np.count_nonzero(np.histogram(np.clip(full_risks, 0, 1), bins=edges)[0])
    assert spread_full > spread_base


def test_survival_arrays_requirements():
    with pytest.raises(ValueError, match="duplicate"):
        survival_arrays(
            StudyTable.from_records([survival_record("s1", 1.0, True), survival_record("s1", 2.0, False)])
        )
    with pytest.raises(ValueError, match="no follow-up"):
        survival_arrays(StudyTable.from_records([score_record("s1", 0.5)]))
    times, events = survival_arrays(
        StudyTable.from_records([survival_record("a", 3.0, True), survival_record("b", 1.0, False)])
    )
    assert times.tolist() == [3.0, 1.0]
    assert events.tolist() == [True, False]


def test_covariate_matrix_errors_on_missing_name():
    records = StudyTable.from_records([
        survival_record("a", 1.0, True, covariates={"age": 60.0}),
        survival_record("b", 2.0, False, covariates={"age": 50.0}),
    ])
    mat = covariate_matrix(records, ["age"])
    assert mat.tolist() == [[60.0], [50.0]]
    with pytest.raises(ValueError, match="marker"):
        covariate_matrix(records, ["marker"])
