"""The QC triage rows, the gradable-only pair and both tallies repeat their
direct definitions bit for bit.

Each reference below is the definition the shared code replaced: the
per-row loop of `qc.row_metrics`, the two conditional intervals of
`qc.triage_report`'s gradable-only pair, and the boolean-mask counts of
`triage_table` and `confusion_from_records`. Both modules now read these
from `accuracy`'s row kernel, interval rule and label x truth tally, and
must agree field by field: floats by repr (to the last bit, NaN equal to
NaN, -0.0 apart from 0.0), fractions and counts by ==.
"""

import dataclasses
from fractions import Fraction

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from daval.accuracy import CIMethod, Confusion2x2, confusion_from_records, proportion_ci, ratio_ci_log_method
from daval.dataset import Label, OutputKind, StudyTable
from daval.qc import ROW_NAMES, TriageConfusion, TriageRow, row_metrics, triage_report, triage_table
from conftest import binary_record, ungradable_record

PROPERTY = settings(max_examples=150, deadline=None)
LEVELS = st.sampled_from([0.5, 0.8, 0.9, 0.95, 0.99, 0.999])
METHODS = st.sampled_from(list(CIMethod))


# ---------------------------------------------------------------- references


def _ref_row_metrics(tri, level, method):
    rows = []
    for name in ROW_NAMES:
        diseased, healthy = tri.row(name)
        row_total = diseased + healthy
        risk = risk_exact = None
        if row_total > 0:
            risk = proportion_ci(diseased, row_total, level=level, method=method)
            risk_exact = Fraction(diseased, row_total)
        lr = lr_exact = None
        if row_total > 0:
            lr = ratio_ci_log_method(diseased, tri.n_positive, healthy, tri.n_negative, level)
            if healthy > 0:
                lr_exact = Fraction(diseased, tri.n_positive) / Fraction(healthy, tri.n_negative)
        rows.append(TriageRow(name, diseased, healthy, risk, lr, risk_exact, lr_exact))
    return tuple(rows)


def _ref_gradable_pair(tri, level, method):
    grad = tri.gradable_confusion()
    sens = proportion_ci(grad.tp, grad.n_positive, level=level, method=method) if grad.n_positive > 0 else None
    spec = proportion_ci(grad.tn, grad.n_negative, level=level, method=method) if grad.n_negative > 0 else None
    return sens, spec


def _ref_triage_cells(table):
    diseased = table.truth == 1
    (a, d), (b, e), (c, f) = (
        (int(np.count_nonzero(row & diseased)), int(np.count_nonzero(row & ~diseased)))
        for row in (table.label == 1, table.label == 0, table.is_kind(OutputKind.UNGRADABLE))
    )
    return a, b, c, d, e, f


def _ref_confusion(table):
    called, diseased = table.label == 1, table.truth == 1
    return Confusion2x2(
        tp=int(np.count_nonzero(called & diseased)),
        fp=int(np.count_nonzero(called & ~diseased)),
        fn=int(np.count_nonzero(~called & diseased)),
        tn=int(np.count_nonzero(~called & ~diseased)),
    )


# ---------------------------------------------------------------- comparison


def _assert_same(got, want):
    assert type(got) is type(want)
    if dataclasses.is_dataclass(got):
        for field in dataclasses.fields(got):
            _assert_same(getattr(got, field.name), getattr(want, field.name))
    elif isinstance(got, tuple):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            _assert_same(g, w)
    elif isinstance(got, float):
        assert repr(got) == repr(want)
    else:
        assert got == want


# ---------------------------------------------------------------- strategies


@st.composite
def triage_cells(draw):
    """Six cells (a, b, c, d, e, f) with both truth classes present; each row
    may be emptied, or lose its healthy or its diseased cell."""
    cells = draw(st.lists(st.one_of(st.integers(0, 3), st.integers(0, 40)), min_size=6, max_size=6))
    for diseased, healthy in ((0, 3), (1, 4), (2, 5)):
        fate = draw(st.sampled_from(["keep", "empty", "no healthy", "no diseased"]))
        if fate in ("empty", "no diseased"):
            cells[diseased] = 0
        if fate in ("empty", "no healthy"):
            cells[healthy] = 0
    assume(sum(cells[:3]) > 0 and sum(cells[3:]) > 0)
    return TriageConfusion(*cells)


ROW_SPECS = [
    (Label.POSITIVE, Label.POSITIVE),
    (Label.POSITIVE, Label.NEGATIVE),
    (Label.POSITIVE, None),
    (Label.NEGATIVE, Label.POSITIVE),
    (Label.NEGATIVE, Label.NEGATIVE),
    (Label.NEGATIVE, None),
]


def _table(specs):
    return StudyTable.from_records(
        binary_record(f"s{i}", truth, label) if label is not None else ungradable_record(f"s{i}", truth)
        for i, (truth, label) in enumerate(specs)
    )


# ---------------------------------------------------------------- properties


@PROPERTY
@given(triage_cells(), LEVELS, METHODS)
def test_row_metrics_match_the_per_row_loop(tri, level, method):
    _assert_same(row_metrics(tri, level=level, method=method), _ref_row_metrics(tri, level, method))


@PROPERTY
@given(triage_cells(), LEVELS, METHODS)
def test_triage_report_matches_the_per_row_loop_and_gradable_pair(tri, level, method):
    rep = triage_report(tri, level=level, method=method)
    _assert_same(rep.rows, _ref_row_metrics(tri, level, method))
    _assert_same((rep.gradable_sensitivity, rep.gradable_specificity), _ref_gradable_pair(tri, level, method))


def test_empty_rows_rows_without_healthy_cases_and_an_empty_gradable_class():
    tri = TriageConfusion(a=3, b=0, c=0, d=0, e=5, f=0)
    rows = row_metrics(tri)
    _assert_same(rows, _ref_row_metrics(tri, 0.95, CIMethod.CLOPPER_PEARSON))
    assert rows[0].likelihood_ratio_exact is None and rows[0].likelihood_ratio.degenerate
    assert rows[2].posttest_risk is None and rows[2].likelihood_ratio is None
    tri = TriageConfusion(a=0, b=0, c=4, d=1, e=2, f=0)
    rep = triage_report(tri, method=CIMethod.WILSON)
    assert rep.gradable_sensitivity is None
    _assert_same((rep.gradable_sensitivity, rep.gradable_specificity), _ref_gradable_pair(tri, 0.95, CIMethod.WILSON))


@PROPERTY
@given(st.lists(st.sampled_from(ROW_SPECS), max_size=40))
def test_triage_table_matches_the_mask_counts(specs):
    table = _table(specs)
    tri = triage_table(table)
    assert (tri.a, tri.b, tri.c, tri.d, tri.e, tri.f) == _ref_triage_cells(table)


@PROPERTY
@given(st.lists(st.sampled_from([s for s in ROW_SPECS if s[1] is not None]), max_size=40))
def test_confusion_from_records_matches_the_mask_counts(specs):
    table = _table(specs)
    _assert_same(confusion_from_records(table), _ref_confusion(table))
