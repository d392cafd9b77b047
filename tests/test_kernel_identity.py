"""The array kernels repeat their step-by-step definitions bit for bit.

Each reference below is the plain per-event-time (or per-element) loop that
defines the quantity. The kernels in `daval` compute the same risk sets from
one sort and must agree to the last bit, so reports do not change.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.special import gammaincc

from daval.riskscore import prevalence_scale
from daval.survival import (
    _cox_ll_grad_hess,
    _logrank_score,
    _risk_sweep,
    km_estimate,
    km_risk_at,
    logrank,
)

PROPERTY = settings(max_examples=150, deadline=None)


def _reference_loglog(s, gw_sum, level):
    if s >= 1.0:
        return 1.0, 1.0
    if s <= 0.0:
        return 0.0, 0.0
    z = float(stats.norm.ppf(1 - (1 - level) / 2))
    spread = z * math.sqrt(gw_sum) / abs(math.log(s))
    return s ** math.exp(spread), s ** math.exp(-spread)


def _reference_km(times, events, level):
    """Product-limit loop: two O(n) passes at every event time."""
    t = np.asarray(times, dtype=float)
    e = np.asarray(events, dtype=bool)
    order = np.argsort(t, kind="stable")
    t_sorted, e_sorted = t[order], e[order]
    event_times = np.unique(t_sorted[e_sorted])
    surv, se_, risk, dd, lo_, hi_, sums = [], [], [], [], [], [], []
    s, gw_sum = 1.0, 0.0
    for et in event_times:
        n_at_risk = int(np.sum(t_sorted >= et))
        d = int(np.sum((t_sorted == et) & e_sorted))
        s *= 1.0 - d / n_at_risk
        if n_at_risk > d:
            gw_sum += d / (n_at_risk * (n_at_risk - d))
        else:
            s = 0.0
            gw_sum = math.inf
        se = 0.0 if s <= 0.0 else s * math.sqrt(gw_sum)
        lo, hi = _reference_loglog(s, gw_sum, level)
        surv.append(s)
        se_.append(se)
        risk.append(n_at_risk)
        dd.append(d)
        lo_.append(lo)
        hi_.append(hi)
        sums.append(gw_sum)
    return {
        "times": event_times,
        "survival": np.asarray(surv),
        "greenwood_se": np.asarray(se_),
        "at_risk": np.asarray(risk, dtype=int),
        "events": np.asarray(dd, dtype=int),
        "lower": np.asarray(lo_),
        "upper": np.asarray(hi_),
        "greenwood_sums": np.asarray(sums),
        "max_followup": float(np.max(t_sorted)),
    }


def _reference_logrank(groups):
    """k-group log-rank statistic with O(n) risk-set counts at every event time."""
    k = len(groups)
    times_list = [np.asarray(t, dtype=float) for t, _ in groups]
    events_list = [np.asarray(e, dtype=bool) for _, e in groups]
    all_event_times = np.unique(np.concatenate([t[e] for t, e in zip(times_list, events_list)]))
    if len(all_event_times) == 0:
        return 0.0, 1.0, True
    u = np.zeros(k - 1)
    v = np.zeros((k - 1, k - 1))
    for et in all_event_times:
        n_j = np.array([np.sum(t >= et) for t in times_list], dtype=float)
        d_j = np.array(
            [np.sum((t == et) & e) for t, e in zip(times_list, events_list)], dtype=float
        )
        n_t = n_j.sum()
        d_t = d_j.sum()
        frac = n_j[: k - 1] / n_t
        u += d_j[: k - 1] - d_t * frac
        if n_t > 1:
            scale = d_t * (n_t - d_t) / (n_t - 1)
            v += scale * (np.diag(frac) - np.outer(frac, frac))
    try:
        stat = float(u @ np.linalg.solve(v, u))
    except np.linalg.LinAlgError:
        stat = 0.0 if np.max(np.abs(u)) < 1e-12 else float(u @ np.linalg.pinv(v) @ u)
    stat = max(stat, 0.0)
    return stat, float(gammaincc((k - 1) / 2, stat / 2)), False


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# Times from a small grid so ties between events, censorings and both are common.
_time = st.sampled_from([0.0, -0.0, 0.5, 1.0, 1.0 + 2**-52, 2.0, 3.25, 7.0, 1e6]) | st.floats(
    min_value=0.0, max_value=50.0, allow_nan=False
)
_subjects = st.lists(st.tuples(_time, st.booleans()), min_size=1, max_size=60)


def _check_km(pairs, level):
    times = [t for t, _ in pairs]
    events = [e for _, e in pairs]
    curve = km_estimate(times, events, level=level)
    ref = _reference_km(times, events, level)
    for name in ("times", "survival", "greenwood_se", "at_risk", "events", "lower", "upper",
                 "greenwood_sums"):
        assert _same_bits(getattr(curve, name), ref[name]), name
    assert curve.max_followup == ref["max_followup"]
    assert curve.n == len(times)
    for horizon in (0.0, 1.0, 3.0, 1e7):
        got = km_risk_at(curve, horizon, level=level)
        idx = int(np.searchsorted(ref["times"], horizon, side="right")) - 1
        if idx < 0:
            s, lo, hi = 1.0, 1.0, 1.0
        else:
            s = float(ref["survival"][idx])
            lo, hi = _reference_loglog(s, float(ref["greenwood_sums"][idx]), level)
        assert _same_bits([got.risk, got.lower, got.upper], [1.0 - s, 1.0 - hi, 1.0 - lo])


@PROPERTY
@given(_subjects, st.sampled_from([0.8, 0.9, 0.95, 0.99]))
def test_km_estimate_matches_reference_loop(pairs, level):
    _check_km(pairs, level)


@PROPERTY
@given(st.lists(_time, min_size=1, max_size=40))
def test_km_estimate_all_censored_matches_reference_loop(times):
    _check_km([(t, False) for t in times], 0.95)


def test_km_estimate_large_tied_cohort_matches_reference_loop():
    rng = np.random.default_rng(3)
    times = np.floor(rng.exponential(400.0, 3000))
    events = rng.random(3000) < 0.6
    _check_km(list(zip(times.tolist(), events.tolist())), 0.95)


def test_km_estimate_refuses_nan_times():
    with pytest.raises(ValueError, match="nonnegative"):
        km_estimate([1.0, math.nan], [True, False])


@PROPERTY
@given(st.integers(min_value=2, max_value=5).flatmap(
    lambda k: st.lists(_subjects, min_size=k, max_size=k)
))
def test_logrank_matches_reference_loop(groups):
    groups = [([t for t, _ in g], [e for _, e in g]) for g in groups]
    res = logrank(groups)
    stat, p_value, degenerate = _reference_logrank(groups)
    assert _same_bits([res.statistic, res.p_value], [stat, p_value])
    assert res.degenerate == degenerate
    assert res.df == len(groups) - 1


def test_logrank_refuses_nan_times():
    with pytest.raises(ValueError, match="NaN"):
        logrank([([1.0, 2.0], [True, False]), ([math.nan], [True])])


_open_unit = st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)


@PROPERTY
@given(st.lists(_open_unit, min_size=1, max_size=200), _open_unit, _open_unit)
def test_array_prevalence_scale_matches_scalar_loop(scores, train, target):
    with np.errstate(over="ignore", invalid="ignore"):  # extreme odds ratios give inf/nan
        scaled = prevalence_scale(np.asarray(scores, dtype=float), train, target)
    looped = np.asarray([prevalence_scale(s, train, target) for s in scores], dtype=float)
    assert _same_bits(scaled, looped)


def _reference_logrank_score(n_table, d_table):
    """u and v of the log-rank test, one event time (table row) at a time."""
    k = n_table.shape[1]
    u = np.zeros(k - 1)
    v = np.zeros((k - 1, k - 1))
    for n_j, d_j in zip(n_table, d_table):
        n_t = n_j.sum()
        d_t = d_j.sum()
        frac = n_j[: k - 1] / n_t
        u += d_j[: k - 1] - d_t * frac
        if n_t > 1:
            scale = d_t * (n_t - d_t) / (n_t - 1)
            v += scale * (np.diag(frac) - np.outer(frac, frac))
    return u, v


def _reference_tables(groups):
    """At-risk and event counts per event time and group, counted one time at a time."""
    times_list = [np.asarray(t, dtype=float) for t, _ in groups]
    events_list = [np.asarray(e, dtype=bool) for _, e in groups]
    event_times = np.unique(np.concatenate([t[e] for t, e in zip(times_list, events_list)]))
    n_table = np.array([[np.sum(t >= et) for t in times_list] for et in event_times], dtype=float)
    d_table = np.array(
        [[np.sum((t == et) & e) for t, e in zip(times_list, events_list)] for et in event_times],
        dtype=float,
    )
    return n_table.reshape(-1, len(groups)), d_table.reshape(-1, len(groups))


@PROPERTY
@given(st.integers(min_value=2, max_value=6).flatmap(
    lambda k: st.lists(_subjects, min_size=k, max_size=k)
))
def test_logrank_score_matches_reference_loop(groups):
    groups = [([t for t, _ in g], [e for _, e in g]) for g in groups]
    n_table, d_table = _reference_tables(groups)
    u, v = _logrank_score(n_table, d_table)
    ref_u, ref_v = _reference_logrank_score(n_table, d_table)
    assert _same_bits(u, ref_u)
    assert _same_bits(v, ref_v)


@st.composite
def _count_tables(draw):
    """Event-time x group count tables with someone at risk and some event in each row."""
    k = draw(st.integers(min_value=2, max_value=6))
    rows = draw(st.lists(
        st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=k, max_size=k),
        min_size=1, max_size=30,
    ))
    n_table = np.array([[n + d for n, d in row] for row in rows], dtype=float)
    d_table = np.array([[d for _, d in row] for row in rows], dtype=float)
    d_table[:, 0] = np.maximum(d_table[:, 0], 1.0)
    n_table[:, 0] = np.maximum(n_table[:, 0], d_table[:, 0])
    return n_table, d_table


@PROPERTY
@given(_count_tables())
def test_logrank_score_matches_reference_loop_on_count_tables(tables):
    # Rows with a single subject at risk, groups with none at risk and
    # all-event rows: the v terms of such rows are skipped, 0 or -0.0.
    u, v = _logrank_score(*tables)
    ref_u, ref_v = _reference_logrank_score(*tables)
    assert _same_bits(u, ref_u)
    assert _same_bits(v, ref_v)


def _reference_cox_ll_grad_hess(beta, x, times, events):
    """Breslow log-likelihood, gradient and information, one subject at a time.

    Times are sorted ascending; the sweep adds each tie block from the latest
    time back, then scores the block's events against the full risk set.
    """
    n, p = x.shape
    eta = x @ beta
    w = np.exp(np.clip(eta, -700, 700))
    ll = 0.0
    grad = np.zeros(p)
    info = np.zeros((p, p))
    w_sum = 0.0
    wx_sum = np.zeros(p)
    wxx_sum = np.zeros((p, p))
    i = n - 1
    while i >= 0:
        t_i = times[i]
        j = i
        while j >= 0 and times[j] == t_i:
            j -= 1
        for idx in range(j + 1, i + 1):
            w_sum += w[idx]
            wx_sum += w[idx] * x[idx]
            wxx_sum += w[idx] * np.outer(x[idx], x[idx])
        for idx in range(j + 1, i + 1):
            if events[idx]:
                xbar = wx_sum / w_sum
                ll += float(eta[idx]) - math.log(w_sum)
                grad += x[idx] - xbar
                info += wxx_sum / w_sum - np.outer(xbar, xbar)
        i = j
    return ll, grad, info


def _check_cox_sums(times, events, x, beta):
    t = np.asarray(times, dtype=float)
    e = np.asarray(events, dtype=bool)
    x = np.asarray(x, dtype=float).reshape(len(t), -1)
    beta = np.asarray(beta, dtype=float)
    order = np.argsort(t, kind="stable")
    x, t, e = x[order], t[order], e[order]
    with np.errstate(over="ignore", invalid="ignore"):  # e^700 times 1000^2 overflows in both
        ll, grad, info = _cox_ll_grad_hess(beta, x, _risk_sweep(t, e))
        ref_ll, ref_grad, ref_info = _reference_cox_ll_grad_hess(beta, x, t, e)
    assert _same_bits(ll, ref_ll)
    assert _same_bits(grad, ref_grad)
    assert _same_bits(info, ref_info)


_covariate = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.1, 1e-300, 62.0, 1000.0]) | st.floats(
    min_value=-100.0, max_value=100.0, allow_nan=False
)
_coefficient = st.sampled_from([0.0, -0.0, 0.5]) | st.floats(
    min_value=-3.0, max_value=3.0, allow_nan=False
)


@st.composite
def _cox_inputs(draw, events=st.booleans()):
    p = draw(st.integers(min_value=0, max_value=3))
    rows = draw(st.lists(
        st.tuples(_time, events, st.lists(_covariate, min_size=p, max_size=p)),
        min_size=1, max_size=40,
    ))
    beta = draw(st.lists(_coefficient, min_size=p, max_size=p))
    return [t for t, _, _ in rows], [e for _, e, _ in rows], [x for _, _, x in rows], beta


@PROPERTY
@given(_cox_inputs())
def test_cox_sums_match_reference_loop(inputs):
    _check_cox_sums(*inputs)


@PROPERTY
@given(_cox_inputs(events=st.just(False)), st.data())
def test_cox_sums_with_one_event_match_reference_loop(inputs, data):
    times, events, x, beta = inputs
    events[data.draw(st.integers(min_value=0, max_value=len(events) - 1))] = True
    _check_cox_sums(times, events, x, beta)


@pytest.mark.parametrize("p", [0, 1, 2, 3])
def test_cox_sums_single_subject_match_reference_loop(p):
    _check_cox_sums([3.0], [True], [[-0.0, 2.5, 1e3][:p]], [0.25, -0.0, 1e-3][:p])


def test_cox_sums_large_tied_cohort_match_reference_loop():
    rng = np.random.default_rng(4)
    age = np.rint(rng.normal(62.0, 11.0, 3000))
    marker = rng.normal(0.0, 1.0, 3000)
    times = np.ceil(rng.exponential(300.0, 3000))
    events = rng.random(3000) < 0.6
    _check_cox_sums(times, events, np.column_stack([age, marker]), [0.035, 0.4])
