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

from daval.riskscore import prevalence_scale
from daval.survival import chi_square_sf, km_estimate, km_risk_at, logrank

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
    return stat, chi_square_sf(stat, k - 1), False


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
