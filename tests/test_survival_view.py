"""One sort per survival block, shared by every curve and fit, bit for bit.

`riskscore.sort_scores` must return exactly numpy's stable argsort, however
it finds it. A report's survival block sorts its times once and hands that
view to the pooled curve, each group curve (the view restricted to the
group's rows), the log-rank test and both Cox fits. KM's vectorised log-log
bounds must equal the scalar interval below, and its Greenwood terms the
integer loop past 2**53. A plan that names a covariate twice is refused
before any analysis runs.
"""

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import pooled
from daval import report, survival
from daval.cli import main as cli_main
from daval.report import PlanError, plan_from_dict
from daval.riskscore import sort_scores
from daval.survival import (
    _loglog_bounds,
    _product_limit,
    km_estimate,
    logrank,
)

DEMO = Path(__file__).resolve().parent.parent / "demo"
PROPERTY = settings(max_examples=150, deadline=None)

_EDGES = [0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, 5e-324, -5e-324, 2.2250738585072014e-308]
_value = st.sampled_from(_EDGES) | st.floats(allow_nan=False)


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def _score_vectors(draw, max_size=3000):
    """Up to max_size values drawn from a small pool (heavy ties), some
    vectors with half their values made distinct."""
    pool = np.array(draw(st.lists(_value, min_size=1, max_size=40)))
    n = draw(st.integers(0, max_size))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    s = pool[rng.integers(0, len(pool), n)]
    if draw(st.booleans()):
        s = np.where(rng.random(n) < 0.5, rng.normal(size=n), s)
    return s


def _assert_is_stable_sort(s):
    v = sort_scores(s, np.zeros(len(s), dtype=bool))
    expected = np.argsort(s, kind="stable")
    assert _same_bits(v.order, expected)
    assert _same_bits(v.s, s[expected])


@PROPERTY
@given(_score_vectors())
def test_sort_scores_is_numpys_stable_argsort(s):
    _assert_is_stable_sort(s)


def test_sort_scores_is_stable_argsort_past_65536_distinct_values():
    rng = np.random.default_rng(28)
    s = rng.integers(0, 10**6, 70_000).astype(float)
    s[rng.random(70_000) < 0.01] = 0.0
    s[rng.random(70_000) < 0.01] = -0.0
    assert 65_536 < len(np.unique(s)) < len(s)
    _assert_is_stable_sort(s)


@st.composite
def _subsets(draw):
    times = np.abs(draw(_score_vectors(max_size=300)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    events = rng.random(len(times)) < 0.6
    rows = np.flatnonzero(rng.random(len(times)) < draw(st.floats(0.0, 1.0)))
    return times, events, rows


@PROPERTY
@given(_subsets())
def test_a_subset_of_the_view_is_the_subsets_sort(case):
    times, events, rows = case
    got = sort_scores(times, events).subset(rows)
    want = sort_scores(times[rows], events[rows])
    for name in ("order", "s", "y", "first", "last", "cum_pos"):
        assert _same_bits(getattr(got, name), getattr(want, name)), name


@PROPERTY
@given(_subsets())
def test_group_curves_from_the_pooled_view_equal_their_own(case):
    times, events, rows = case
    if not len(rows):
        return
    view = sort_scores(times, events)
    got = km_estimate(times[rows], events[rows], level=0.9, view=view.subset(rows))
    want = km_estimate(times[rows], events[rows], level=0.9)
    for name in ("times", "survival", "greenwood_se", "at_risk", "events", "lower", "upper",
                 "greenwood_sums"):
        assert _same_bits(getattr(got, name), getattr(want, name)), name
    assert (got.n, got.max_followup) == (want.n, want.max_followup)


@PROPERTY
@given(_subsets(), st.integers(2, 4))
def test_logrank_on_group_numbers_equals_logrank_on_groups(case, k):
    times, events, _ = case
    if len(times) < k:
        return
    label = np.arange(len(times)) % k
    np.random.default_rng(len(times)).shuffle(label)
    groups = [(times[label == g], events[label == g]) for g in range(k)]
    assert logrank(times, events, label, view=sort_scores(times, events)) == logrank(*pooled(groups))


def test_logrank_on_group_numbers_refuses_a_missing_group():
    times, events = [1.0, 2.0, 3.0], [True, False, True]
    view = sort_scores(times, events)
    with pytest.raises(ValueError, match="empty group"):
        logrank(times, events, np.array([0, 2, 0]), view=view)
    with pytest.raises(ValueError, match="at least 2 groups"):
        logrank(times, events, np.array([0, 0, 0]), view=view)


@pytest.mark.parametrize(
    "times, events, groups, view, message",
    [
        ([1.0, 2.0, 3.0], [True, False], [0, 1, 0], None, "^times, events and groups must be equal-length$"),
        ([1.0, 2.0, 3.0], [True, False, True], [0, 1], None, "^times, events and groups must be equal-length$"),
        ([1.0, math.nan, 3.0], [True, False, True], [0, 1, 0], None, "^times must not be NaN$"),
        ([1.0, 2.0, 3.0], [True, False, True], [0, -1, 1], None, "^group numbers must be nonnegative$"),
        ([1.0, 2.0], [True, False], [0, 1], [1.0, 2.0, 3.0], "^view must hold one entry per subject$"),
    ],
)
def test_logrank_names_each_bad_input(times, events, groups, view, message):
    if view is not None:
        view = sort_scores(view, np.zeros(len(view), dtype=bool))
    with pytest.raises(ValueError, match=message):
        logrank(times, events, groups, view=view)


def _loglog_interval(s, gw_sum, z):
    """The log-log interval of one survival value, step by step."""
    if s >= 1.0:
        return 1.0, 1.0
    if s <= 0.0:
        return 0.0, 0.0
    spread = z * math.sqrt(gw_sum) / abs(math.log(s))
    return s ** math.exp(spread), s ** math.exp(-spread)


_survival = st.sampled_from([0.0, 1.0, 0.5, 1 - 2**-53, 5e-324]) | st.floats(0.0, 1.0)
_sums = st.sampled_from([0.0, math.inf, 5e-324]) | st.floats(0.0, 1e3)


@PROPERTY
@given(st.lists(st.tuples(_survival, _sums), max_size=50), st.floats(0.5, 0.999))
def test_vectorised_loglog_bounds_equal_the_scalar_interval(rows, level):
    s = np.array([r[0] for r in rows], dtype=float)
    g = np.array([r[1] for r in rows], dtype=float)
    z = survival._normal_quantile(level)
    try:
        want = [_loglog_interval(a, b, z) for a, b in zip(s.tolist(), g.tolist())]
    except OverflowError:
        with pytest.raises(OverflowError):
            _loglog_bounds(s, g, z)
        return
    lower, upper = _loglog_bounds(s, g, z)
    assert _same_bits(lower, np.array([w[0] for w in want], dtype=float))
    assert _same_bits(upper, np.array([w[1] for w in want], dtype=float))


def _product_limit_loop(at_risk, events):
    s, gw_sum, surv, sums = 1.0, 0.0, [], []
    for n, d in zip(at_risk, events):
        s *= 1.0 - d / n
        if n > d:
            gw_sum += d / (n * (n - d))
        else:
            s, gw_sum = 0.0, math.inf
        surv.append(s)
        sums.append(gw_sum)
    return np.array(surv), np.array(sums)


@pytest.mark.parametrize(
    "at_risk, events",
    [
        ([12, 9, 5, 2], [1, 3, 1, 2]),
        # n(n-d) past 2**53; in floats, the first row's term rounds twice
        # and lands one ulp off.
        ([279_578_133_713, 2**27 + 5, 2**27, 7], [8, 1, 3, 7]),
    ],
)
def test_product_limit_keeps_the_integer_loop_past_2_53(at_risk, events):
    got = _product_limit(np.array(at_risk, dtype=np.int64), np.array(events, dtype=np.int64))
    want = _product_limit_loop(at_risk, events)
    assert _same_bits(got[0], want[0]) and _same_bits(got[1], want[1])


@pytest.fixture
def survival_block_calls(monkeypatch):
    """Per survival block run: sort_scores calls. np.argsort, np.sort and
    np.unique are refused while a survival block runs, outside sort_scores."""
    blocks, active = [], []  # active: True in a survival block, False in sort_scores

    def counted(*args, **kwargs):
        if active:
            blocks[-1]["sort_scores"] += 1
        active.append(False)
        try:
            return sort_scores(*args, **kwargs)
        finally:
            active.pop()

    for mod in (report, survival):
        monkeypatch.setattr(mod, "sort_scores", counted)
    for name in ("argsort", "sort", "unique"):
        original = getattr(np, name)

        def refused(*args, _original=original, _name=name, **kwargs):
            assert not (active and active[-1]), f"survival called np.{_name} outside sort_scores"
            return _original(*args, **kwargs)

        monkeypatch.setattr(np, name, refused)
    analysis = report.ANALYSES["survival"]

    def run(*args, **kwargs):
        blocks.append({"sort_scores": 0})
        active.append(True)
        try:
            return analysis.run(*args, **kwargs)
        finally:
            active.pop()

    monkeypatch.setitem(report.ANALYSES, "survival", dataclasses.replace(analysis, run=run))
    return blocks


@pytest.mark.parametrize("plan", ["demo", "cohort_10k"])
def test_run_sorts_the_times_once_per_survival_block(tmp_path, survival_block_calls, cohort_10k_plan,
                                                     plan, capsys):
    path = DEMO / "plan.json" if plan == "demo" else cohort_10k_plan
    rc = cli_main(["run", "--plan", str(path), "--out", str(tmp_path / "out")])
    capsys.readouterr()
    assert rc == 0
    assert survival_block_calls == [{"sort_scores": 1}]
    result = json.loads((tmp_path / "out" / "report.json").read_text(encoding="utf-8"))
    block = result["results"]["survival"]
    assert {"groups", "logrank", "cox"} <= set(block)


@pytest.mark.parametrize(
    "params, name",
    [
        ({"baseline_covariates": ["age"], "added_covariates": ["age"]}, "age"),
        ({"baseline_covariates": ["age", "marker", "age"]}, "age"),
        ({"added_covariates": ["marker", "marker"]}, "marker"),
    ],
)
def test_plan_naming_a_covariate_twice_is_refused(params, name):
    raw = {"dataset": "d.csv", "analyses": ["survival"], "params": {"survival": params}}
    with pytest.raises(PlanError, match=rf"^survival covariate '{name}' is named more than once"):
        plan_from_dict(raw)


@pytest.mark.parametrize("command", ["run", "survival"])
def test_cli_naming_a_covariate_twice_exits_one(tmp_path, capsys, command):
    if command == "run":
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({
            "dataset": str(DEMO / "demo.csv"),
            "analyses": ["survival"],
            "params": {"survival": {"baseline_covariates": ["age"], "added_covariates": ["age"]}},
        }), encoding="utf-8")
        argv = ["run", "--plan", str(plan), "--out", str(tmp_path / "out")]
    else:
        argv = ["survival", str(DEMO / "demo.csv"), "--baseline-covariates", "age",
                "--added-covariates", "age"]
    assert cli_main(argv) == 1
    err = capsys.readouterr().err
    assert "error: survival covariate 'age' is named more than once" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()
