"""KM, log-rank and Cox read their risk sets from one tie-block view.

Every survival kernel takes its stable sort and tie blocks from
`riskscore.sort_scores`. These tests count those calls, refuse any other
sort, pin KM's event times to the tie-block rule (a block's time is its last
subject's value in input order, whatever the CPU's sort code does with -0.0
and 0.0) and check the Cox sweep against the descending stable sort it
replaced.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import pooled
from daval import survival
from daval.riskscore import sort_scores
from daval.survival import _cox_sweep, cox_fit, km_estimate, logrank

PROPERTY = settings(max_examples=300, deadline=None)

_time = st.sampled_from([0.0, -0.0, 1.0, 2.5, 7.0]) | st.floats(
    min_value=0.0, max_value=20.0, allow_nan=False
)


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_each_kernel_sorts_once_through_the_view(monkeypatch):
    calls = []

    def counted(times, events):
        calls.append(len(times))
        return sort_scores(times, events)

    def refused(*args, **kwargs):
        raise AssertionError("a survival kernel sorted outside sort_scores")

    monkeypatch.setattr(survival, "sort_scores", counted)
    monkeypatch.setattr(np, "unique", refused)
    monkeypatch.setattr(np, "sort", refused)
    rng = np.random.default_rng(11)
    times = np.floor(rng.exponential(5.0, 200))
    events = rng.random(200) < 0.6
    x = rng.normal(size=(200, 2))

    km_estimate(times, events)
    assert calls == [200]
    calls.clear()
    logrank(*pooled([(times[:80], events[:80]), (times[80:150], events[80:150]), (times[150:], events[150:])]))
    assert calls == [200]
    calls.clear()
    cox_fit(x, times, events)
    assert calls == [200]


def _tie_block_times(times, events):
    """Distinct event times, ascending, each the value of the last subject
    (in input order) whose time equals it, events and censorings alike."""
    distinct = sorted({t for t, e in zip(times, events) if e})
    return np.array(
        [times[max(i for i, t in enumerate(times) if t == et)] for et in distinct], dtype=float
    )


@PROPERTY
@given(st.lists(st.tuples(_time, st.booleans()), min_size=1, max_size=200))
def test_km_times_follow_the_tie_block_rule(pairs):
    times = [t for t, _ in pairs]
    events = [e for _, e in pairs]
    assert _same_bits(km_estimate(times, events).times, _tie_block_times(times, events))


def _descending_sweep(times, events):
    """The sweep as a descending stable sort builds it."""
    order = np.argsort(-times, kind="stable")
    t = times[order]
    ends = np.flatnonzero(np.append(t[1:] != t[:-1], True))
    event_pos = np.flatnonzero(events[order])
    return order, event_pos, ends[np.searchsorted(ends, event_pos)]


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(_time | st.just(math.inf), st.booleans()), min_size=1, max_size=80))
def test_risk_sweep_matches_descending_stable_sort(pairs):
    times = np.array([t for t, _ in pairs], dtype=float)
    events = np.array([e for _, e in pairs], dtype=bool)
    view = sort_scores(times, events)
    sweep = _cox_sweep(view, np.zeros((len(times), 1)))
    order, event_pos, block_end = _descending_sweep(times, events)
    assert view.order[sweep.order].tolist() == order.tolist()
    assert sweep.event_pos.tolist() == event_pos.tolist()
    assert sweep.ends[sweep.event_block].tolist() == block_end.tolist()
