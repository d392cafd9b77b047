"""Quality-triage 3x2 table: per-row Bayes metrics and worst-case bounds."""

import itertools
from fractions import Fraction

import pytest

from daval.accuracy import accuracy_metrics
from daval.dataset import Label, StudyTable
from daval.qc import (
    ROW_NAMES,
    TriageConfusion,
    row_metrics,
    triage_report,
    triage_table,
    ungradable_proportion,
    worst_case,
)
from conftest import score_record, triage_records, ungradable_record


DEMO_CELLS = (40, 5, 5, 10, 85, 5)


def test_triage_table_from_records():
    tri = triage_table(StudyTable.from_records(triage_records(*DEMO_CELLS)))
    assert (tri.a, tri.b, tri.c, tri.d, tri.e, tri.f) == DEMO_CELLS
    assert tri.total == 150
    assert tri.n_positive == 50
    assert tri.n_negative == 100


def test_triage_table_requires_truth_and_rejects_scores():
    with pytest.raises(ValueError, match="truth"):
        triage_table(StudyTable.from_records([ungradable_record("s1", None)]))
    with pytest.raises(ValueError, match="[Ss]core"):
        triage_table(StudyTable.from_records([score_record("s1", 0.5, truth=Label.POSITIVE)]))


def test_gradable_collapse_matches_binary_module():
    tri = TriageConfusion(*DEMO_CELLS)
    grad = tri.gradable_confusion()
    assert (grad.tp, grad.fn, grad.fp, grad.tn) == (40, 5, 10, 85)
    report = triage_report(tri)
    metrics = accuracy_metrics(grad)
    assert report.gradable_sensitivity == metrics.sensitivity
    assert report.gradable_specificity == metrics.specificity


def test_row_metrics_worked_example():
    rows = {r.name: r for r in row_metrics(TriageConfusion(*DEMO_CELLS))}
    pos, neg, ung = rows["positive"], rows["negative"], rows["ungradable"]

    assert pos.posttest_risk.estimate == pytest.approx(0.8)
    assert pos.posttest_risk_exact == Fraction(4, 5)
    assert pos.likelihood_ratio.estimate == pytest.approx(8.0)
    assert pos.likelihood_ratio_exact == Fraction(8)

    assert ung.posttest_risk.estimate == pytest.approx(0.5)
    assert ung.likelihood_ratio.estimate == pytest.approx(2.0)
    assert ung.likelihood_ratio_exact == Fraction(2)

    assert neg.posttest_risk_exact == Fraction(5, 90)
    assert neg.likelihood_ratio_exact == Fraction(5, 50) / Fraction(85, 100)


def test_worst_case_worked_example():
    worst = worst_case(TriageConfusion(*DEMO_CELLS))
    assert worst.sensitivity_exact == Fraction(4, 5)
    assert worst.specificity_exact == Fraction(85, 100)
    assert worst.pretest_risk_exact == Fraction(1, 3)
    assert worst.sensitivity.estimate == pytest.approx(0.8)
    assert worst.specificity.estimate == pytest.approx(0.85)
    assert worst.pretest_risk.estimate == pytest.approx(1 / 3)


def test_worst_case_never_exceeds_gradable_only_metrics():
    for cells in itertools.product(range(4), repeat=6):
        tri = TriageConfusion(*cells)
        if tri.n_positive == 0 or tri.n_negative == 0:
            continue
        worst = worst_case(tri)
        grad = tri.gradable_confusion()
        if grad.n_positive > 0:
            assert worst.sensitivity_exact <= Fraction(grad.tp, grad.n_positive)
        if grad.n_negative > 0:
            assert worst.specificity_exact <= Fraction(grad.tn, grad.n_negative)


def test_ungradable_proportion():
    ci = ungradable_proportion(TriageConfusion(*DEMO_CELLS))
    assert ci.estimate == pytest.approx(10 / 150)
    assert ci.numerator == 10
    assert ci.denominator == 150

    none_dropped = ungradable_proportion(TriageConfusion(4, 1, 0, 2, 9, 0))
    assert none_dropped.estimate == 0.0
    assert none_dropped.lower == 0.0

    all_dropped = ungradable_proportion(TriageConfusion(0, 0, 3, 0, 0, 7))
    assert all_dropped.estimate == 1.0
    assert all_dropped.upper == 1.0


def test_empty_row_has_none_metrics_but_report_still_builds():
    tri = TriageConfusion(4, 1, 0, 2, 9, 0)  # no ungradables at all
    rows = {r.name: r for r in row_metrics(tri)}
    ung = rows["ungradable"]
    assert ung.diseased == 0 and ung.healthy == 0
    assert ung.posttest_risk is None
    assert ung.likelihood_ratio is None
    report = triage_report(tri)
    assert len(report.rows) == 3


def test_lr_exact_absent_when_row_has_no_healthy_cases():
    tri = TriageConfusion(3, 1, 2, 0, 9, 1)  # positive row: 3 diseased, 0 healthy
    rows = {r.name: r for r in row_metrics(tri)}
    assert rows["positive"].likelihood_ratio_exact is None
    assert rows["positive"].posttest_risk_exact == Fraction(1)


def test_row_metrics_requires_both_margins():
    with pytest.raises(ValueError):
        row_metrics(TriageConfusion(0, 0, 0, 1, 2, 3))
    with pytest.raises(ValueError):
        worst_case(TriageConfusion(1, 2, 3, 0, 0, 0))


def test_posttest_odds_coherence_small_sweep():
    # post-test odds = pre-test odds * row LR, exactly, for every defined row
    for cells in itertools.product(range(4), repeat=6):
        tri = TriageConfusion(*cells)
        if tri.n_positive == 0 or tri.n_negative == 0:
            continue
        pre_odds = Fraction(tri.n_positive, tri.n_negative)
        for row in row_metrics(tri):
            if row.likelihood_ratio_exact is None or row.posttest_risk_exact is None:
                continue
            post = row.posttest_risk_exact
            if post == 1:
                continue
            assert post / (1 - post) == pre_odds * row.likelihood_ratio_exact


def test_law_of_total_probability_is_exact():
    tri = TriageConfusion(*DEMO_CELLS)
    pretest = Fraction(tri.n_positive, tri.total)
    acc = Fraction(0)
    for row in row_metrics(tri):
        weight = Fraction(row.diseased + row.healthy, tri.total)
        acc += weight * row.posttest_risk_exact
    assert acc == pretest


def test_lr_weighted_by_row_rate_among_healthy_sums_to_one():
    tri = TriageConfusion(*DEMO_CELLS)
    acc = Fraction(0)
    for row in row_metrics(tri):
        acc += row.likelihood_ratio_exact * Fraction(row.healthy, tri.n_negative)
    assert acc == 1


def test_worst_case_complement_identity():
    # failures among diseased split exactly into false negatives and dropouts
    for cells in [(40, 5, 5, 10, 85, 5), (3, 2, 1, 1, 2, 3), (1, 0, 2, 2, 1, 0)]:
        tri = TriageConfusion(*cells)
        worst = worst_case(tri)
        miss = Fraction(tri.b + tri.c, tri.n_positive)
        assert worst.sensitivity_exact + miss == 1


def test_row_names_are_stable():
    assert ROW_NAMES == ("positive", "negative", "ungradable")
    tri = TriageConfusion(*DEMO_CELLS)
    assert tri.row("positive") == (40, 10)
    assert tri.row("negative") == (5, 85)
    assert tri.row("ungradable") == (5, 5)
    with pytest.raises(KeyError):
        tri.row("borderline")


def test_negative_cell_rejected():
    with pytest.raises(ValueError):
        TriageConfusion(-1, 0, 0, 1, 1, 1)
