"""2x2 accuracy metrics, exact intervals, Bayes updates, and the goal test."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from daval.accuracy import (
    CIMethod,
    Confusion2x2,
    accuracy_metrics,
    confusion_from_records,
    likelihood_ratios,
    posttest_risk,
    power_and_n,
    proportion_ci,
    ratio_ci_log_method,
    test_vs_goal as goal_test,
)
from daval.dataset import Label, StudyTable
from daval.resample import SeededGenerator, bootstrap_ci, simulate_binary_study
from conftest import binary_record, score_record, ungradable_record


def coverage(n, p, level, method):
    """Exact coverage of the interval at (n, p): sum of pmf over covering x."""
    total = 0.0
    for x in range(n + 1):
        ci = proportion_ci(x, n, level=level, method=method)
        if ci.lower <= p <= ci.upper:
            total += math.comb(n, x) * p**x * (1 - p) ** (n - x)
    return total


def test_confusion_from_records_tally():
    records = (
        [binary_record(f"a{i}", Label.POSITIVE, Label.POSITIVE) for i in range(2)]
        + [binary_record("b0", Label.NEGATIVE, Label.POSITIVE)]
        + [binary_record(f"c{i}", Label.NEGATIVE, Label.NEGATIVE) for i in range(3)]
        + [binary_record("d0", Label.POSITIVE, Label.NEGATIVE)]
    )
    conf = confusion_from_records(StudyTable.from_records(records))
    assert (conf.tp, conf.fp, conf.fn, conf.tn) == (2, 1, 1, 3)
    assert conf.total == 7
    assert conf.n_positive == 3
    assert conf.n_negative == 4


def test_confusion_rejects_ungradable_and_score_outputs():
    with pytest.raises(ValueError, match="triage"):
        confusion_from_records(StudyTable.from_records([ungradable_record("s1", Label.POSITIVE)]))
    with pytest.raises(ValueError, match="binary"):
        confusion_from_records(StudyTable.from_records([score_record("s1", 0.5, truth=Label.POSITIVE)]))
    with pytest.raises(ValueError, match="truth"):
        confusion_from_records(StudyTable.from_records([binary_record("s1", None, Label.POSITIVE)]))


def test_sensitivity_point_estimate():
    m = accuracy_metrics(Confusion2x2(tp=8, fp=0, fn=2, tn=0))
    assert m.sensitivity.estimate == pytest.approx(0.8)
    assert m.specificity is None  # no non-diseased cases


def test_zero_denominator_metrics_are_none_not_crash():
    m = accuracy_metrics(Confusion2x2(tp=0, fp=1, fn=0, tn=9))
    assert m.sensitivity is None
    assert m.specificity.estimate == pytest.approx(0.9)
    assert m.npv.estimate == pytest.approx(1.0)
    with pytest.raises(ValueError):
        accuracy_metrics(Confusion2x2(0, 0, 0, 0))


def test_label_swap_symmetry():
    conf = Confusion2x2(tp=17, fp=4, fn=3, tn=26)
    swapped = Confusion2x2(tp=conf.tn, fp=conf.fn, fn=conf.fp, tn=conf.tp)
    m, ms = accuracy_metrics(conf), accuracy_metrics(swapped)
    assert ms.sensitivity == m.specificity
    assert ms.specificity == m.sensitivity
    assert ms.ppv == m.npv
    assert ms.npv == m.ppv


def test_clopper_pearson_zero_successes_closed_form():
    ci = proportion_ci(0, 10)
    assert ci.lower == 0.0
    # exact closed form: upper solves (1-u)^10 = alpha/2
    assert ci.upper == pytest.approx(1.0 - 0.025 ** (1 / 10), abs=1e-12)
    assert ci.upper == pytest.approx(0.3085, abs=1e-3)


def test_clopper_pearson_all_successes_closed_form():
    ci = proportion_ci(10, 10)
    assert ci.upper == 1.0
    assert ci.lower == pytest.approx(0.025 ** (1 / 10), abs=1e-12)


def test_interval_contains_point_estimate_and_narrows_with_n():
    wide = proportion_ci(8, 10)
    narrow = proportion_ci(80, 100)
    for ci in (wide, narrow):
        assert ci.lower <= ci.estimate <= ci.upper
    assert (narrow.upper - narrow.lower) < (wide.upper - wide.lower)


def test_wilson_interval_stays_inside_unit_interval():
    for x, n in [(0, 5), (5, 5), (1, 40), (39, 40)]:
        ci = proportion_ci(x, n, method=CIMethod.WILSON)
        assert 0.0 <= ci.lower <= ci.upper <= 1.0


def test_invalid_proportion_inputs_raise():
    with pytest.raises(ValueError):
        proportion_ci(5, 0)
    with pytest.raises(ValueError):
        proportion_ci(-1, 10)
    with pytest.raises(ValueError):
        proportion_ci(11, 10)
    with pytest.raises(ValueError):
        proportion_ci(5, 10, level=1.0)


def test_clopper_pearson_coverage_at_n20_never_below_nominal():
    for p in np.arange(0.05, 0.951, 0.05):
        assert coverage(20, float(p), 0.95, CIMethod.CLOPPER_PEARSON) >= 0.95


def test_wilson_coverage_characterization():
    # The score interval undershoots pointwise at small n and extreme p; these
    # frozen values document the floor the aggregate acceptance bound rests on.
    assert coverage(10, 0.05, 0.95, CIMethod.WILSON) == pytest.approx(0.91386, abs=2e-4)
    assert coverage(20, 0.05, 0.95, CIMethod.WILSON) == pytest.approx(0.92452, abs=2e-4)
    assert coverage(30, 0.05, 0.95, CIMethod.WILSON) == pytest.approx(0.93922, abs=2e-4)


def test_likelihood_ratios_worked_example():
    conf = Confusion2x2(tp=8, fp=1, fn=2, tn=9)
    lrs = likelihood_ratios(conf)
    assert lrs["lr_pos"].estimate == pytest.approx(8.0)
    assert lrs["lr_neg"].estimate == pytest.approx(2 / 9)
    assert not lrs["lr_pos"].degenerate
    assert lrs["lr_pos"].lower > 0
    assert lrs["lr_pos"].upper > lrs["lr_pos"].estimate


def test_likelihood_ratio_zero_false_positives_degenerates():
    lrs = likelihood_ratios(Confusion2x2(tp=8, fp=0, fn=2, tn=10))
    assert math.isinf(lrs["lr_pos"].estimate)
    assert lrs["lr_pos"].degenerate
    assert lrs["lr_pos"].lower == 0.0
    assert math.isinf(lrs["lr_pos"].upper)


def test_ratio_zero_numerator_degenerates_to_zero():
    ci = ratio_ci_log_method(0, 10, 3, 10)
    assert ci.estimate == 0.0
    assert ci.degenerate


def test_log_method_se_formula():
    # halfwidth on the log scale is z * sqrt(1/a - 1/n1 + 1/b - 1/n2)
    ci = ratio_ci_log_method(8, 10, 1, 10)
    se = math.sqrt(1 / 8 - 1 / 10 + 1 / 1 - 1 / 10)
    assert math.log(ci.upper / ci.estimate) == pytest.approx(1.959963984540054 * se, rel=1e-9)
    assert math.log(ci.estimate / ci.lower) == pytest.approx(1.959963984540054 * se, rel=1e-9)


def test_log_method_tracks_bootstrap_on_simulated_study():
    table = simulate_binary_study(200, 0.4, 0.8, 0.9, SeededGenerator(101))
    records = table.to_records()
    conf = confusion_from_records(table)
    lr_ci = likelihood_ratios(conf)["lr_pos"]

    def stat(sample):
        c = confusion_from_records(StudyTable.from_records(sample))
        if c.tp == 0 or c.fp == 0 or c.n_positive == 0 or c.n_negative == 0:
            raise ValueError("degenerate resample")
        return (c.tp / c.n_positive) / (c.fp / c.n_negative)

    boot = bootstrap_ci(stat, records, replicates=1000, level=0.95, gen=SeededGenerator(102))
    # the two intervals agree within Monte Carlo error on the log scale
    assert abs(math.log(lr_ci.lower / boot.lower)) < 0.35
    assert abs(math.log(lr_ci.upper / boot.upper)) < 0.35
    assert max(lr_ci.lower, boot.lower) < min(lr_ci.upper, boot.upper)


def test_posttest_risk_worked_examples():
    assert posttest_risk(0.1, 9.0) == pytest.approx(0.5)
    assert posttest_risk(0.5, 3.0) == pytest.approx(0.75)
    assert posttest_risk(0.3, 1.0) == pytest.approx(0.3)  # LR 1 changes nothing
    assert posttest_risk(0.2, math.inf) == 1.0


def test_posttest_risk_is_exact_on_rationals():
    post = posttest_risk(Fraction(1, 10), Fraction(9))
    assert post == Fraction(1, 2)
    assert isinstance(post, Fraction)


def test_posttest_risk_validates_inputs():
    with pytest.raises(ValueError):
        posttest_risk(0.0, 2.0)
    with pytest.raises(ValueError):
        posttest_risk(1.0, 2.0)
    with pytest.raises(ValueError):
        posttest_risk(0.5, 0.0)


def test_ppv_is_bayes_update_of_prevalence_exhaustively():
    # over all small tables with defined margins and a finite positive LR,
    # updating the exact prevalence by the exact LR reproduces the exact PPV
    for tp, fp, fn, tn in itertools.product(range(5), repeat=4):
        n_pos, n_neg = tp + fn, fp + tn
        if n_pos == 0 or n_neg == 0 or tp == 0 or fp == 0:
            continue
        total = n_pos + n_neg
        pretest = Fraction(n_pos, total)
        lr = Fraction(tp, n_pos) / Fraction(fp, n_neg)
        assert posttest_risk(pretest, lr) == Fraction(tp, tp + fp)


def test_goal_test_all_successes():
    res = goal_test(10, 10, 0.5)
    assert res.p_value == pytest.approx(0.5**10, rel=1e-12)
    assert res.reject


def test_goal_test_even_split_is_not_significant():
    res = goal_test(5, 10, 0.5)
    assert res.p_value == pytest.approx(638 / 1024, rel=1e-12)
    assert not res.reject


def test_goal_test_critical_count_is_sharp():
    res = goal_test(20, 25, 0.8, alpha=0.05)
    c = res.critical_count
    # c rejects, c - 1 does not
    assert goal_test(c, 25, 0.8, alpha=0.05).reject
    assert not goal_test(c - 1, 25, 0.8, alpha=0.05).reject
    # exact type I error at the boundary stays within alpha
    sf = sum(math.comb(25, k) * 0.8**k * 0.2 ** (25 - k) for k in range(c, 26))
    assert sf <= 0.05


def test_rejection_set_matches_lower_bound_duality_n25():
    # one-sided exact test at alpha vs the lower endpoint of the level
    # 1 - 2*alpha two-sided exact interval
    for x in range(26):
        reject = goal_test(x, 25, 0.8, alpha=0.05).reject
        lower = proportion_ci(x, 25, level=0.90).lower
        assert reject == (lower > 0.8)


def test_power_requires_assumed_above_goal():
    with pytest.raises(ValueError):
        power_and_n(0.8, 0.8)
    with pytest.raises(ValueError):
        power_and_n(0.8, 0.7)


def test_power_single_digit_n_for_easy_alternative():
    res = power_and_n(0.5, 0.99, alpha=0.05, target_power=0.8)
    assert res.sample_size <= 9
    assert res.power >= 0.8
    # independent enumeration oracle: first n whose exact test has power >= 0.8
    def exact_power(n):
        c = next(
            c
            for c in range(n + 2)
            if sum(math.comb(n, k) * 0.5**n for k in range(c, n + 1)) <= 0.05
        )
        return sum(
            math.comb(n, k) * 0.99**k * 0.01 ** (n - k) for k in range(c, n + 1)
        )
    oracle_n = next(n for n in range(1, 50) if exact_power(n) >= 0.8)
    assert res.sample_size == oracle_n


def test_required_n_never_grows_with_stronger_truth():
    sizes = [
        power_and_n(0.8, truth).sample_size for truth in (0.85, 0.90, 0.95, 0.99)
    ]
    assert sizes == sorted(sizes, reverse=True)


def test_power_type_one_error_bounded():
    res = power_and_n(0.7, 0.9)
    n, c = res.sample_size, res.critical_count
    type_one = sum(math.comb(n, k) * 0.7**k * 0.3 ** (n - k) for k in range(c, n + 1))
    assert type_one <= res.alpha
