"""The damped-Newton routine behind the Cox and the recalibration fits.

`_newton.newton_ascent` runs both fits. The two loops it replaced are kept
below as references: every result field and every error of `cox_fit` and
`fit_recalibration` must equal theirs bit for bit, on inputs that include
halved steps and fits stopped at the iteration cap. Each way out of the loop
is pinned through both public callers, and a counting wrapper checks that a
fit with no halved step evaluates its objective once per step, plus once at
the start.
"""

from __future__ import annotations

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from daval import riskscore, survival
from daval.riskscore import CalibrationMode, PerfectSeparationError, fit_recalibration
from daval.survival import MonotoneLikelihoodError, _cox_ll_grad_hess, _risk_sweep, cox_fit

PROPERTY = settings(max_examples=150, deadline=None)


def _reference_cox(x, times, events, tol, max_iter, halvings):
    """The Cox fit's own loop before the shared routine; counts halvings."""
    x = np.asarray(x, dtype=float).reshape(len(times), -1)
    t = np.asarray(times, dtype=float)
    e = np.asarray(events, dtype=bool)
    order = np.argsort(t, kind="stable")
    x, t, e = x[order], t[order], e[order]
    sweep = _risk_sweep(t, e)
    p = x.shape[1]
    beta = np.zeros(p)
    ll, grad, info = _cox_ll_grad_hess(beta, x, sweep)
    ll_null = ll
    if p == 0:
        return {}, ll_null, ll_null, 0, True
    converged = False
    iterations = 0
    last_decrement = math.inf
    for iteration in range(1, max_iter + 1):
        if not grad.any():
            converged = True
            iterations = iteration - 1
            break
        try:
            step = np.linalg.solve(info, grad)
        except np.linalg.LinAlgError:
            raise MonotoneLikelihoodError(
                "singular information matrix in Cox fit (flat likelihood direction)"
            ) from None
        decrement = grad @ step / 2
        if decrement < tol or (ll + decrement == ll and decrement >= last_decrement):
            converged = True
            iterations = iteration - 1
            break
        last_decrement = decrement
        slack = 1e-12 * max(1.0, abs(ll))
        scale = 1.0
        for _ in range(40):
            cand = beta + scale * step
            ll_cand, grad_cand, info_cand = _cox_ll_grad_hess(cand, x, sweep)
            if ll_cand >= ll - slack:
                break
            scale *= 0.5
            halvings.append(1)
        beta, ll, grad, info = cand, ll_cand, grad_cand, info_cand
        iterations = iteration
        if np.max(np.abs(beta)) > 20.0:
            raise MonotoneLikelihoodError(
                "coefficient escaped past 20.0 with likelihood still "
                "increasing; a covariate perfectly orders the event times"
            )
    else:
        iterations = max_iter
    names = [f"x{j}" for j in range(p)]
    return (
        {name: float(b) for name, b in zip(names, beta)},
        float(ll),
        float(ll_null),
        iterations,
        converged,
    )


def _reference_logistic(design, y, offset, theta0, tol, max_iter, halvings):
    """`riskscore._newton_logistic` before the shared routine; counts halvings."""
    def log_lik(eta):
        return float(np.sum(y * eta - np.logaddexp(0.0, eta)))

    theta = theta0.astype(float).copy()
    eta = design @ theta + offset
    ll = log_lik(eta)
    last_decrement = math.inf
    for iteration in range(1, max_iter + 1):
        mu = 1.0 / (1.0 + np.exp(-eta))
        grad = design.T @ (y - mu)
        if not grad.any():
            return theta, iteration - 1, True, ll
        w = mu * (1.0 - mu)
        hess = design.T @ (design * w[:, None])
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            raise PerfectSeparationError(
                "singular information matrix during recalibration fit"
            ) from None
        decrement = grad @ step / 2
        if decrement < tol or (ll + decrement == ll and decrement >= last_decrement):
            return theta, iteration - 1, True, ll
        last_decrement = decrement
        slack = 1e-12 * max(1.0, abs(ll))
        scale = 1.0
        for _ in range(30):
            cand = theta + scale * step
            eta_cand = design @ cand + offset
            ll_cand = log_lik(eta_cand)
            if ll_cand >= ll - slack:
                break
            scale *= 0.5
            halvings.append(1)
        theta, eta, ll = cand, eta_cand, ll_cand
        if np.max(np.abs(theta)) > 15.0:
            raise PerfectSeparationError(
                "coefficient escaped past 15.0 with likelihood still "
                "increasing; the outcomes are separated on the score"
            )
    return theta, max_iter, False, ll


def _reference_recalibration(scores, outcomes, mode, tol, max_iter, halvings):
    """`fit_recalibration`'s fields from the old loop, bins left out."""
    s = np.asarray(scores, dtype=float)
    y = np.asarray(outcomes, dtype=float)
    clipped = np.clip(s, 1e-6, 1.0 - 1e-6)
    z = np.log(clipped / (1.0 - clipped))
    if mode is CalibrationMode.INTERCEPT_ONLY:
        theta, iters, converged, ll = _reference_logistic(
            np.ones((len(z), 1)), y, z, np.zeros(1), tol, max_iter, halvings
        )
        return float(theta[0]), 1.0, iters, converged, ll
    theta, iters, converged, ll = _reference_logistic(
        np.column_stack([np.ones_like(z), z]), y, np.zeros_like(z), np.array([0.0, 1.0]),
        tol, max_iter, halvings,
    )
    intercept, slope = float(theta[0]), float(theta[1])
    mu = 1.0 / (1.0 + np.exp(-(intercept + slope * z)))
    if np.max(np.abs(y - mu)) < 1e-6:
        raise PerfectSeparationError(
            "every outcome is fitted exactly; the outcomes are separated on the score"
        )
    return intercept, slope, iters, converged, ll


def _outcome(fn):
    """A fit's result, or its error's type and message.

    The test settings turn RuntimeWarnings into errors; a fit that overflows
    must do so at the same operation as its reference.
    """
    try:
        return fn()
    except (MonotoneLikelihoodError, PerfectSeparationError, RuntimeWarning) as exc:
        return type(exc), str(exc)


def _bits(value):
    """Floats as hex, so results compare bit for bit (NaN equal to NaN)."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {k: _bits(v) for k, v in value.items()}
    if isinstance(value, tuple):
        return tuple(_bits(v) for v in value)
    return value


def _cox_fields(fit):
    return (
        fit.coefficients,
        fit.log_partial_likelihood,
        fit.null_log_partial_likelihood,
        fit.iterations,
        fit.converged,
    )


def _recal_fields(res):
    return res.intercept, res.slope, res.iterations, res.converged, res.log_likelihood


def _cox_both(x, times, events, tol, max_iter):
    halvings = []
    want = _outcome(lambda: _reference_cox(x, times, events, tol, max_iter, halvings))
    with mock.patch.object(survival, "COX_TOL", tol), mock.patch.object(
        survival, "COX_MAX_ITER", max_iter
    ):
        fit = _outcome(lambda: _cox_fields(cox_fit(x, times, events)))
    assert _bits(fit) == _bits(want)
    return want, len(halvings)


def _recal_both(scores, outcomes, mode, tol, max_iter):
    halvings = []
    want = _outcome(
        lambda: _reference_recalibration(scores, outcomes, mode, tol, max_iter, halvings)
    )
    with mock.patch.object(riskscore, "NEWTON_TOL", tol), mock.patch.object(
        riskscore, "NEWTON_MAX_ITER", max_iter
    ):
        res = _outcome(lambda: _recal_fields(fit_recalibration(scores, outcomes, mode=mode)))
    assert _bits(res) == _bits(want)
    return want, len(halvings)


# Each input halves a step. Each fit converges unless capped below its
# caller's iteration limit, except the Cox fit on a covariate in units of
# about 100: its likelihood is monotone, but the coefficient, in those units,
# never reaches the escape bound, so the fit runs all 100 steps.
COX_X = [[13.8], [-4.9], [14.2], [16.5], [14.6], [16.1], [-5.3]]
COX_T = [5, 3, 6, 4, 7, 3, 2]
COX_E = [True, True, False, True, False, False, False]
COX_HALVING = [
    (COX_X, COX_T, COX_E, 100, True),
    (COX_X, COX_T, COX_E, 2, False),
    ([[25.5], [-207.0], [-69.0], [-207.0], [-331.5], [-78.0]], [1, 6, 2, 6, 7, 4],
     [True, True, True, True, True, False], 100, False),
]
SLOPE, LARGE = CalibrationMode.INTERCEPT_AND_SLOPE, CalibrationMode.INTERCEPT_ONLY
RECAL_HALVING = [
    ([1e-5] * 4, [True, False, False, False], LARGE, 50, True),
    ([1e-5] * 4, [True, False, False, False], LARGE, 2, False),
    ([1e-5, 1e-5, 1e-5, 0.001, 0.3], [True, False, False, True, False], SLOPE, 50, True),
]


@pytest.mark.parametrize("x, times, events, max_iter, converged", COX_HALVING)
def test_cox_fit_equals_reference_on_halved_steps(x, times, events, max_iter, converged):
    want, halvings = _cox_both(x, times, events, 1e-14, max_iter)
    assert halvings > 0
    assert want[4] is converged


@pytest.mark.parametrize("scores, outcomes, mode, max_iter, converged", RECAL_HALVING)
def test_recalibration_equals_reference_on_halved_steps(scores, outcomes, mode, max_iter, converged):
    want, halvings = _recal_both(scores, outcomes, mode, 1e-14, max_iter)
    assert halvings > 0
    assert want[3] is converged


def test_escape_after_halved_steps_equals_reference():
    want, halvings = _recal_both(
        [1e-5] * 4 + [0.5], [True, False, False, False, True], SLOPE, 1e-14, 50
    )
    assert halvings > 0
    assert want[0] is PerfectSeparationError


_TOL = st.sampled_from([1e-14, 0.0])


@st.composite
def cox_inputs(draw):
    n = draw(st.integers(2, 30))
    p = draw(st.integers(0, 3))
    times = draw(st.lists(st.integers(1, 8), min_size=n, max_size=n))
    events = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    events[draw(st.integers(0, n - 1))] = True
    unit = draw(st.sampled_from([1e-3, 1.0, 30.0, 1e3]))
    lean = draw(st.floats(-3.0, 3.0))  # ties a covariate to the times: steep likelihoods
    noise = draw(st.lists(st.integers(-5, 5), min_size=n * p, max_size=n * p))
    x = (np.asarray(noise, dtype=float).reshape(n, p) + lean * np.asarray(times)[:, None]) * unit
    return x, times, events


@PROPERTY
@given(cox_inputs(), _TOL, st.sampled_from([1, 2, 3, 100]))
@example(COX_HALVING[0][:3], 1e-14, 100)  # Cox draws seldom halve a step
@example(COX_HALVING[2][:3], 1e-14, 100)
def test_cox_fit_equals_reference_loop(inputs, tol, max_iter):
    _cox_both(*inputs, tol, max_iter)


@st.composite
def recal_inputs(draw):
    n = draw(st.integers(2, 30))
    scores = draw(
        st.lists(
            st.one_of(
                st.sampled_from([0.0, 1e-7, 1e-5, 0.3, 0.5, 0.99999, 1.0]),
                st.floats(0.0, 1.0),
            ),
            min_size=n,
            max_size=n,
        )
    )
    outcomes = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    outcomes[0], outcomes[-1] = True, False
    return scores, outcomes


@PROPERTY
@given(recal_inputs(), st.sampled_from(list(CalibrationMode)), _TOL, st.sampled_from([1, 2, 50]))
def test_recalibration_equals_reference_loop(inputs, mode, tol, max_iter):
    _recal_both(*inputs, mode, tol, max_iter)


def _raises_exactly(error, message, fit):
    with pytest.raises(error) as caught:
        fit()
    assert caught.value.args == (message,)


def test_singular_information_raises_through_both_callers():
    _raises_exactly(
        MonotoneLikelihoodError,
        "singular information matrix in Cox fit (flat likelihood direction)",
        lambda: cox_fit(
            [[1, 2], [2, 4], [3, 6], [4, 8], [5, 10]], [1, 2, 3, 4, 5],
            [True, False, True, True, False],
        ),
    )
    _raises_exactly(
        PerfectSeparationError,
        "singular information matrix during recalibration fit",
        lambda: fit_recalibration([0.3] * 6, [True, False, True, False, False, True], mode=SLOPE),
    )


def test_escaping_coefficient_raises_through_both_callers():
    _raises_exactly(
        MonotoneLikelihoodError,
        "coefficient escaped past 20.0 with likelihood still increasing; "
        "a covariate perfectly orders the event times",
        lambda: cox_fit([6.0, 5.0, 4.0, 3.0, 2.0, 1.0], [1, 2, 3, 4, 5, 6], [True] * 6),
    )
    _raises_exactly(
        PerfectSeparationError,
        "coefficient escaped past 15.0 with likelihood still increasing; "
        "the outcomes are separated on the score",
        lambda: fit_recalibration([0.2, 0.8], [False, True], mode=SLOPE),
    )


def _cohort(seed, n):
    rng = np.random.default_rng(seed)
    age = np.clip(np.rint(rng.normal(62.0, 11.0, n)), 30, 95)
    marker = np.round(rng.normal(0.0, 1.0, n), 3)
    event_days = rng.exponential(1.0, n) / (2.5e-4 * np.exp(0.035 * (age - 62) + 0.4 * marker))
    censor_days = np.minimum(rng.exponential(2500.0, n), 3650.0)
    times = np.maximum(1.0, np.ceil(np.minimum(event_days, censor_days)))
    return np.column_stack([age, marker]), times, event_days <= censor_days


def _scores(seed, n):
    rng = np.random.default_rng(seed)
    outcomes = rng.random(n) < 0.25
    latent = rng.normal(0.0, 1.0, n) + 1.1 * outcomes - 1.3
    return np.round(1.0 / (1.0 + np.exp(-latent)), 3), outcomes


def test_iteration_cap_stops_unconverged_through_both_callers(monkeypatch):
    monkeypatch.setattr(survival, "COX_MAX_ITER", 1)
    monkeypatch.setattr(riskscore, "NEWTON_MAX_ITER", 1)
    fit = cox_fit(*_cohort(5, 300))
    assert (fit.converged, fit.iterations) == (False, 1)
    for mode in CalibrationMode:
        res = fit_recalibration(*_scores(5, 300), mode=mode)
        assert (res.converged, res.iterations) == (False, 1)


def test_cox_fit_with_no_covariates_stops_at_the_start():
    _, times, events = _cohort(7, 200)
    fit = cox_fit(np.empty((200, 0)), times, events)
    assert fit.coefficients == {}
    assert fit.iterations == 0
    assert fit.converged
    assert fit.log_partial_likelihood == fit.null_log_partial_likelihood


def _count_objective_calls(monkeypatch, module):
    """Per fit, (objective evaluations, iterations) through a counting wrapper."""
    fits = []
    routine = module.newton_ascent

    def counting(objective, theta0, start, **options):
        calls = [1]  # the caller's own evaluation at theta0, passed in as start

        def counted(theta):
            calls[0] += 1
            return objective(theta)

        result = routine(counted, theta0, start, **options)
        fits.append((calls[0], result[2]))
        return result

    monkeypatch.setattr(module, "newton_ascent", counting)
    return fits


def test_a_fit_without_halving_evaluates_once_per_step(monkeypatch):
    cox_fits = _count_objective_calls(monkeypatch, survival)
    recal_fits = _count_objective_calls(monkeypatch, riskscore)
    kernel_calls = []
    kernel = survival._cox_ll_grad_hess
    monkeypatch.setattr(
        survival, "_cox_ll_grad_hess", lambda *a: kernel_calls.append(1) or kernel(*a)
    )
    x, times, events = _cohort(5, 2000)
    for columns in (x[:, :1], x):
        want, halvings = _cox_both(columns, times, events, survival.COX_TOL, survival.COX_MAX_ITER)
        assert halvings == 0
    scores, outcomes = _scores(7, 5000)
    for mode in CalibrationMode:
        want, halvings = _recal_both(scores, outcomes, mode, 1e-14, 50)
        assert halvings == 0
    assert len(cox_fits) == len(recal_fits) == 2
    for calls, iterations in cox_fits + recal_fits:
        assert iterations >= 2
        assert calls == 1 + iterations
    # The Cox kernel, which the caller also calls for the start, runs exactly
    # as often as counted (the references hold their own import of it).
    assert len(kernel_calls) == sum(calls for calls, _ in cox_fits)
