"""Cox fits: invariances of the Breslow partial likelihood, and convergence at
any covariate scale.

A fit stops when its Newton decrement is below COX_TOL = 1e-14, or below
what the log likelihood can register (under 1.2e-13 for the |ll| < 1000 drawn
here) once it has stopped falling. It then sits within sqrt(2 * 1.2e-13) of
the optimum in the norm of the information matrix I, so two fits differ by d
with d' I d < 1e-12, the bound checked below. The log partial likelihood may
differ by a relative 1e-10, since reordered or shifted sums change it only by
rounding.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from daval import survival
from daval.survival import MonotoneLikelihoodError, cox_fit

PROPERTY = settings(max_examples=60, deadline=None)
COEF_DISTANCE = 1e-12
LL_REL = 1e-10


def breslow_score(x, times, events, beta):
    """Score U and information I of the Breslow partial likelihood at beta.

    Written apart from daval: risk sets {t >= t_i} are reverse cumulative sums
    over the times sorted ascending, entered at each time's first position.
    """
    times = np.asarray(times, dtype=float)
    x = np.asarray(x, dtype=float).reshape(len(times), -1)
    order = np.argsort(times, kind="stable")
    t, e, x = times[order], np.asarray(events, dtype=bool)[order], x[order]
    eta = x @ np.asarray(beta, dtype=float)
    w = np.exp(eta - eta.max())
    s0 = np.cumsum(w[::-1])[::-1]
    s1 = np.cumsum((w[:, None] * x)[::-1], axis=0)[::-1]
    s2 = np.cumsum((w[:, None, None] * x[:, :, None] * x[:, None, :])[::-1], axis=0)[::-1]
    ev = np.flatnonzero(e)
    at = np.searchsorted(t, t[ev], side="left")
    xbar = s1[at] / s0[at, None]
    u = (x[ev] - xbar).sum(axis=0)
    info = (s2[at] / s0[at, None, None] - xbar[:, :, None] * xbar[:, None, :]).sum(axis=0)
    return u, info


def score_statistic(fit, x, times, events):
    """U' I^-1 U at the fitted coefficients: zero at the optimum, free of scale."""
    u, info = breslow_score(x, times, events, list(fit.coefficients.values()))
    return float(u @ np.linalg.solve(info, u))


def _cohort(seed, n, p):
    """Covariates with effects on the hazard, times rounded so events tie, ~30% censored."""
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, 1.0, (n, p))
    beta = rng.uniform(-1.0, 1.0, p)
    event_times = rng.exponential(1.0, n) / np.exp(x @ beta)
    censor = rng.exponential(3.0, n)
    times = np.ceil(np.minimum(event_times, censor) * 20.0) / 20.0
    return x, times, event_times <= censor


def _fit(x, times, events):
    try:
        fit = cox_fit(x, times, events)
    except MonotoneLikelihoodError:
        assume(False)  # a separated draw has no finite optimum to compare
    assert fit.converged
    return fit


def _assert_same_optimum(fit, other, x, times, events, scale=1.0):
    d = np.array(list(fit.coefficients.values())) - scale * np.array(
        list(other.coefficients.values())
    )
    _, info = breslow_score(x, times, events, list(fit.coefficients.values()))
    assert d @ info @ d < COEF_DISTANCE
    assert other.log_partial_likelihood == pytest.approx(fit.log_partial_likelihood, rel=LL_REL)


_draw = st.tuples(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=20, max_value=150),
    st.integers(min_value=1, max_value=3),
)


@PROPERTY
@given(_draw, st.randoms(use_true_random=False))
def test_cox_invariant_under_subject_permutation(draw, random):
    x, times, events = _cohort(*draw)
    perm = list(range(len(times)))
    random.shuffle(perm)
    fit = _fit(x, times, events)
    permuted = _fit(x[perm], times[perm], events[perm])
    _assert_same_optimum(fit, permuted, x, times, events)


@PROPERTY
@given(_draw, st.lists(st.floats(min_value=-100.0, max_value=100.0), min_size=3, max_size=3))
def test_cox_invariant_under_covariate_shift(draw, shift):
    x, times, events = _cohort(*draw)
    fit = _fit(x, times, events)
    shifted = _fit(x + np.asarray(shift[: x.shape[1]]), times, events)
    _assert_same_optimum(fit, shifted, x, times, events)


@PROPERTY
@given(_draw, st.lists(st.sampled_from([1e-3, 0.37, 2.0, 365.25, 1e3]), min_size=3, max_size=3))
def test_cox_coefficients_rescale_with_covariates(draw, scale):
    x, times, events = _cohort(*draw)
    s = np.asarray(scale[: x.shape[1]])
    fit = _fit(x, times, events)
    scaled = _fit(x * s, times, events)
    _assert_same_optimum(fit, scaled, x, times, events, scale=s)


@pytest.mark.parametrize("centre", [0.0, 5000.0])
def test_cox_converges_on_covariate_with_sd_1000(centre):
    # With the covariate in the thousands, rounding in the gradient is near an
    # absolute 1e-8 test, which then passes only after tens of step-halved
    # iterations; the Newton decrement does not depend on the units.
    rng = np.random.default_rng(11)
    n = 1000
    z = rng.normal(0.0, 1.0, n)
    times = rng.exponential(1.0, n) / np.exp(0.7 * z)
    events = rng.random(n) < 0.8
    x = centre + 1000.0 * z
    fit = cox_fit(x, times, events, names=("big",))
    assert fit.converged
    assert fit.iterations < 10
    assert fit.coefficients["big"] == pytest.approx(
        cox_fit(z, times, events, names=("big",)).coefficients["big"] / 1000.0, rel=1e-6
    )
    assert score_statistic(fit, x, times, events) < 1e-6


@pytest.mark.parametrize("seed", [121, 132])
def test_cox_converges_on_20000_subject_cohort_with_age_in_years(seed):
    # Age in whole years, not centred, and times in whole days, as a
    # prognostic cohort records them. On seed 132 the age-only fit meets a
    # Newton step whose gain (1e-13) is below the rounding of the log
    # likelihood (3e-10): a strict likelihood test in the step-halving
    # rejects it, and a 1e-14 decrement test alone would never stop.
    rng = np.random.default_rng([seed, 1])
    n = 20_000
    site = rng.choice(4, size=n, p=(0.40, 0.30, 0.20, 0.10))
    age = np.clip(np.rint(rng.normal(62.0, 11.0, n)), 30, 95)
    marker = np.round(rng.normal(0.0, 1.0, n), 3)
    log_hazard = 0.035 * (age - 62) + 0.40 * marker + np.array([0.0, 0.15, -0.10, 0.30])[site]
    event_days = rng.exponential(1.0, n) / (2.5e-4 * np.exp(log_hazard))
    censor_days = np.minimum(rng.exponential(2500.0, n), 3650.0)
    times = np.maximum(1.0, np.ceil(np.minimum(event_days, censor_days)))
    events = event_days <= censor_days
    for x in (age[:, None], np.column_stack([age, marker])):
        fit = cox_fit(x, times, events)
        assert fit.converged
        assert fit.iterations < 10
        assert score_statistic(fit, x, times, events) < 1e-6


def test_cox_stops_when_the_decrement_reaches_its_rounding_floor(monkeypatch):
    # With a covariate far from zero in a large study, the decrement can
    # settle into rounding noise above any fixed tolerance (1e-13 to 2e-12
    # with age + 10000 at n = 1e6). With the tolerance at 0 only that floor
    # can stop the fit: a gain ll cannot register that has stopped falling.
    monkeypatch.setattr(survival, "COX_TOL", 0.0)
    x, times, events = _cohort(5, 2000, 2)
    fit = cox_fit(x + 50.0, times, events)
    assert fit.converged
    assert fit.iterations < 10
    assert score_statistic(fit, x, times, events) < 1e-6


def test_cox_refuses_nan_times():
    # A NaN time equals no other time, so it has no place in a risk set.
    with pytest.raises(ValueError, match="NaN"):
        cox_fit([1.0, 2.0, 3.0], [1.0, float("nan"), 2.0], [True, True, False])
