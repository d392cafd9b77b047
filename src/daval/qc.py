"""Quality-control failure triage: the three-row confusion analysis.

The device output is cross-classified against truth in a 3x2 table whose rows
are Positive / Negative / Ungradable, quantifying how much a signal QC
algorithm that discards cases influences the reported accuracy. Each row gets
a post-test risk and a diagnostic likelihood ratio; the bottom line is the
worst-case scenario where every ungradable case counts as a classification
failure.

Point estimates on integer tables are carried as exact fractions alongside
their float/CI form, so Bayes-coherence identities can be checked without
rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .accuracy import (
    CIMethod,
    Confusion2x2,
    ProportionCI,
    RatioCI,
    proportion_ci,
    ratio_ci_log_method,
)
from .dataset import OutputKind, StudyTable, first_row

__all__ = [
    "TriageConfusion",
    "TriageRow",
    "TriageReport",
    "triage_table",
    "row_metrics",
    "worst_case",
    "ungradable_proportion",
    "triage_report",
]

ROW_NAMES = ("positive", "negative", "ungradable")


@dataclass(frozen=True)
class TriageConfusion:
    """Six-cell table: rows Positive/Negative/Ungradable x columns truth Positive/Negative.

    a = (device Positive, truth Positive), b = (Negative, Positive),
    c = (Ungradable, Positive), d = (Positive, Negative),
    e = (Negative, Negative), f = (Ungradable, Negative).
    """

    a: int
    b: int
    c: int
    d: int
    e: int
    f: int

    def __post_init__(self) -> None:
        if min(self.a, self.b, self.c, self.d, self.e, self.f) < 0:
            raise ValueError("triage cells must be nonnegative")

    @property
    def total(self) -> int:
        return self.a + self.b + self.c + self.d + self.e + self.f

    @property
    def n_positive(self) -> int:
        return self.a + self.b + self.c

    @property
    def n_negative(self) -> int:
        return self.d + self.e + self.f

    def row(self, name: str) -> tuple[int, int]:
        """(diseased, healthy) counts for a row name."""
        return {
            "positive": (self.a, self.d),
            "negative": (self.b, self.e),
            "ungradable": (self.c, self.f),
        }[name]

    def gradable_confusion(self) -> Confusion2x2:
        """Collapse to the 2x2 table of gradable cases only."""
        return Confusion2x2(tp=self.a, fn=self.b, fp=self.d, tn=self.e)


def triage_table(table: StudyTable) -> TriageConfusion:
    """Partition a table's rows into the six triage cells.

    Score outputs are rejected: a continuous score must be thresholded into a
    binary call upstream before QC triage applies.
    """
    no_truth = table.truth == -1
    score = table.is_kind(OutputKind.SCORE)
    i = first_row(no_truth | score)
    if i >= 0:
        if no_truth[i]:
            raise ValueError(f"record {table.subject_id[i]!r} lacks a truth label")
        raise ValueError(
            f"record {table.subject_id[i]!r} has a score output; threshold scores before triage"
        )
    diseased = table.truth == 1
    (a, d), (b, e), (c, f) = (
        (int(np.count_nonzero(row & diseased)), int(np.count_nonzero(row & ~diseased)))
        for row in (table.label == 1, table.label == 0, table.is_kind(OutputKind.UNGRADABLE))
    )
    return TriageConfusion(a=a, b=b, c=c, d=d, e=e, f=f)


@dataclass(frozen=True)
class TriageRow:
    """One row of the triage analysis.

    post-test risk = diseased / (diseased + healthy) in the row;
    likelihood ratio = P(row | diseased) / P(row | healthy).
    Either is None when its denominator is zero (row reported, not dropped).
    The ``*_exact`` fields carry the unrounded rational point estimates.
    """

    name: str
    diseased: int
    healthy: int
    posttest_risk: ProportionCI | None
    likelihood_ratio: RatioCI | None
    posttest_risk_exact: Fraction | None
    likelihood_ratio_exact: Fraction | None


def row_metrics(
    tri: TriageConfusion,
    level: float = 0.95,
    method: CIMethod = CIMethod.CLOPPER_PEARSON,
) -> tuple[TriageRow, ...]:
    """Post-test risk and likelihood ratio for each of the three rows."""
    if tri.n_positive == 0 or tri.n_negative == 0:
        raise ValueError("row metrics need both diseased and non-diseased cases")
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
        rows.append(
            TriageRow(
                name=name,
                diseased=diseased,
                healthy=healthy,
                posttest_risk=risk,
                likelihood_ratio=lr,
                posttest_risk_exact=risk_exact,
                likelihood_ratio_exact=lr_exact,
            )
        )
    return tuple(rows)


@dataclass(frozen=True)
class WorstCase:
    """Bottom line with every ungradable case counted as a failure."""

    sensitivity: ProportionCI
    specificity: ProportionCI
    pretest_risk: ProportionCI
    sensitivity_exact: Fraction
    specificity_exact: Fraction
    pretest_risk_exact: Fraction


def worst_case(
    tri: TriageConfusion,
    level: float = 0.95,
    method: CIMethod = CIMethod.CLOPPER_PEARSON,
) -> WorstCase:
    """Worst-case sensitivity a/(a+b+c), specificity e/(d+e+f), pre-test risk.

    Treating ungradables as failures can only lower both metrics relative to
    the gradable-only 2x2.
    """
    if tri.n_positive == 0 or tri.n_negative == 0:
        raise ValueError("worst case needs both diseased and non-diseased cases")
    return WorstCase(
        sensitivity=proportion_ci(tri.a, tri.n_positive, level=level, method=method),
        specificity=proportion_ci(tri.e, tri.n_negative, level=level, method=method),
        pretest_risk=proportion_ci(tri.n_positive, tri.total, level=level, method=method),
        sensitivity_exact=Fraction(tri.a, tri.n_positive),
        specificity_exact=Fraction(tri.e, tri.n_negative),
        pretest_risk_exact=Fraction(tri.n_positive, tri.total),
    )


def ungradable_proportion(
    tri: TriageConfusion,
    level: float = 0.95,
    method: CIMethod = CIMethod.CLOPPER_PEARSON,
) -> ProportionCI:
    """Proportion of low-quality dropouts (c+f)/total with CI."""
    if tri.total == 0:
        raise ValueError("empty triage table")
    return proportion_ci(tri.c + tri.f, tri.total, level=level, method=method)


@dataclass(frozen=True)
class TriageReport:
    """Full triage analysis: per-row metrics, worst case, dropout rate, and the
    gradable-only 2x2 metrics juxtaposed for the sensitivity analysis."""

    table: TriageConfusion
    rows: tuple[TriageRow, ...]
    worst: WorstCase
    ungradable: ProportionCI
    gradable_sensitivity: ProportionCI | None
    gradable_specificity: ProportionCI | None


def triage_report(
    tri: TriageConfusion,
    level: float = 0.95,
    method: CIMethod = CIMethod.CLOPPER_PEARSON,
) -> TriageReport:
    rows = row_metrics(tri, level=level, method=method)
    worst = worst_case(tri, level=level, method=method)
    grad = tri.gradable_confusion()
    grad_sens = (
        proportion_ci(grad.tp, grad.n_positive, level=level, method=method)
        if grad.n_positive > 0
        else None
    )
    grad_spec = (
        proportion_ci(grad.tn, grad.n_negative, level=level, method=method)
        if grad.n_negative > 0
        else None
    )
    return TriageReport(
        table=tri,
        rows=rows,
        worst=worst,
        ungradable=ungradable_proportion(tri, level=level, method=method),
        gradable_sensitivity=grad_sens,
        gradable_specificity=grad_spec,
    )
