"""Agreement between continuous methods and precision variance components.

Bland-Altman limits of agreement (with normal-approximation intervals around
the limits), Deming errors-in-variables regression with a known error-variance
ratio, and a subject x condition x replicate variance-component analysis
yielding repeatability and reproducibility SD and %CV.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import reduce
from itertools import chain
from operator import add
from typing import Mapping, Sequence

import numpy as np

from .accuracy import _normal_quantile
from .dataset import OutputKind, StudyTable, first_row

__all__ = [
    "AgreementResult",
    "DemingFit",
    "PrecisionComponents",
    "bland_altman",
    "deming",
    "precision_cells",
    "variance_components",
    "variance_components_from_cells",
]

LOA_MULTIPLIER = 1.96


@dataclass(frozen=True)
class AgreementResult:
    mean_difference: float
    sd_difference: float
    loa_lower: float
    loa_upper: float
    loa_ci_halfwidth: float
    n: int


def bland_altman(
    x: Sequence[float],
    y: Sequence[float],
    level: float = 0.95,
    loa_multiplier: float = LOA_MULTIPLIER,
) -> AgreementResult:
    """Limits of agreement for paired differences d = x - y.

    The limits are mean(d) +/- loa_multiplier * sd(d) (sample sd). The
    returned halfwidth is the normal-approximation interval around each
    limit: z(level) * sd * sqrt(1/n + m^2 / (2(n-1))).
    """
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    if xa.shape != ya.shape or xa.ndim != 1:
        raise ValueError("x and y must be equal-length 1-d sequences")
    n = len(xa)
    if n < 2:
        raise ValueError("need at least 2 pairs for a difference sd")
    if not 0.0 < level < 1.0:
        raise ValueError("level must be in (0, 1)")
    d = xa - ya
    mean = float(np.mean(d))
    sd = float(np.std(d, ddof=1))
    z = _normal_quantile(level)
    halfwidth = z * sd * math.sqrt(1.0 / n + loa_multiplier**2 / (2.0 * (n - 1)))
    return AgreementResult(
        mean_difference=mean,
        sd_difference=sd,
        loa_lower=mean - loa_multiplier * sd,
        loa_upper=mean + loa_multiplier * sd,
        loa_ci_halfwidth=halfwidth,
        n=n,
    )


@dataclass(frozen=True)
class DemingFit:
    slope: float
    intercept: float
    lam: float
    n: int


def deming(x: Sequence[float], y: Sequence[float], lam: float | None = None) -> DemingFit:
    """Errors-in-variables line fit with known error-variance ratio ``lam``.

    Closed form: slope = [s_yy - lam*s_xx + sqrt((s_yy - lam*s_xx)^2 +
    4*lam*s_xy^2)] / (2*s_xy), intercept through the means. ``lam`` is a
    property of the measurement systems, not estimable from single
    replicates, so leaving it unset falls back to 1 with a warning.
    """
    if lam is None:
        warnings.warn(
            "error-variance ratio not supplied; defaulting to 1 (orthogonal fit)",
            stacklevel=2,
        )
        lam = 1.0
    if lam <= 0:
        raise ValueError("lam must be positive")
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    if xa.shape != ya.shape or xa.ndim != 1:
        raise ValueError("x and y must be equal-length 1-d sequences")
    n = len(xa)
    if n < 3:
        raise ValueError("need at least 3 pairs")
    s_xx = float(np.var(xa, ddof=1))
    s_yy = float(np.var(ya, ddof=1))
    s_xy = float(np.cov(xa, ya, ddof=1)[0, 1])
    if s_xx == 0.0:
        raise ValueError("x has no spread")
    if s_xy == 0.0:
        if s_yy == lam * s_xx:
            raise ValueError("orientation undefined: zero covariance with s_yy = lam*s_xx")
        if s_yy > lam * s_xx:
            raise ValueError("zero covariance with dominant y variance: vertical fit has no finite slope")
        slope = 0.0
    else:
        disc = s_yy - lam * s_xx
        slope = (disc + math.sqrt(disc * disc + 4.0 * lam * s_xy * s_xy)) / (2.0 * s_xy)
    intercept = float(np.mean(ya)) - slope * float(np.mean(xa))
    return DemingFit(slope=slope, intercept=intercept, lam=float(lam), n=n)


@dataclass(frozen=True)
class PrecisionComponents:
    grand_mean: float
    repeatability_sd: float
    between_condition_sd: float
    reproducibility_sd: float
    cv_repeatability: float | None
    cv_reproducibility: float | None
    n_subjects: int
    df_repeatability: int
    df_condition: int
    negative_component_clipped: bool


# Record fields a precision condition may name.
_CONDITION_FIELDS = ("subject_id", "site_id", "operator_id", "device_unit_id", "replicate_index")


def precision_cells(
    table: StudyTable,
    condition_fields: Sequence[str] = ("operator_id", "device_unit_id"),
) -> dict[tuple[str, tuple], list[float]]:
    """Group Score outputs into (subject, condition) cells of replicate values.

    The condition key is the tuple of the named record fields; a missing
    field value contributes "?" so partially annotated studies still group
    deterministically.
    """
    if not len(table):
        return {}
    # The first row's output kind is checked before the field names are.
    i = first_row(~table.is_kind(OutputKind.SCORE))
    unknown = [f for f in condition_fields if f not in _CONDITION_FIELDS]
    if unknown and i != 0:
        raise ValueError(f"unknown condition field {unknown[0]!r}")
    if i >= 0:
        raise ValueError(
            f"precision analysis needs Score outputs, got {table.kind_at(i).value!r} "
            f"for subject {table.subject_id[i]!r}"
        )
    columns = [getattr(table, f) for f in condition_fields]
    conditions = zip(*columns) if columns else [()] * len(table)
    cells: dict[tuple[str, tuple], list[float]] = {}
    for subject, cond, value in zip(table.subject_id, conditions, table.score.tolist()):
        cells.setdefault((subject, tuple("?" if v is None else v for v in cond)), []).append(value)
    return cells


def variance_components_from_cells(
    cells: Mapping[tuple[str, tuple], Sequence[float]],
) -> PrecisionComponents:
    """Method-of-moments nested ANOVA pooled across subjects.

    Per subject: the within-cell mean square estimates the repeatability
    variance; the between-condition mean square minus it, over the unbalanced
    replication factor n0 = (N - sum(r_j^2)/N) / (m - 1), estimates the
    condition component. Components pool across subjects weighted by their
    degrees of freedom, negative estimates clip to zero (flagged), and
    reproducibility is the root of the summed components.

    Cell statistics come in blocks: the values lie in one flat array, subject
    by subject, and the cells of each replicate count r form one (k, r) block
    whose row means and within-cell sums of squares take one numpy call each.
    An empty cell or a non-finite value raises ValueError naming its cell.
    """
    if not cells:
        raise ValueError("no measurements")
    by_subject: dict[str, list[tuple[str, tuple]]] = {}
    for key in cells:
        by_subject.setdefault(key[0], []).append(key)
    keys = [key for group in by_subject.values() for key in group]
    sizes = [len(cells[key]) for key in keys]
    if 0 in sizes:
        raise ValueError(f"cell {keys[sizes.index(0)]!r} is empty")
    flat = np.fromiter(chain.from_iterable(cells[key] for key in keys), dtype=float, count=sum(sizes))
    finite = np.isfinite(flat)
    starts = np.cumsum(sizes) - sizes
    if not finite.all():
        bad = int(np.searchsorted(starts, np.argmin(finite), side="right")) - 1
        raise ValueError(f"cell {keys[bad]!r} holds a non-finite value")
    cell_means, cell_ss, size_of = np.empty(len(keys)), np.empty(len(keys)), np.asarray(sizes)
    for r in set(sizes):
        rows = np.flatnonzero(size_of == r)
        block = flat[starts[rows, None] + np.arange(r)]
        cell_means[rows] = mu = np.mean(block, axis=1)
        cell_ss[rows] = np.sum((block - mu[:, None]) ** 2, axis=1)
    cell_means, cell_ss = cell_means.tolist(), cell_ss.tolist()

    ss_within_total = 0.0
    df_within_total = 0
    cond_weighted = 0.0
    df_cond_total = 0
    clipped = False

    first = 0
    for conditions in by_subject.values():
        m = len(conditions)
        counts, means = sizes[first : first + m], cell_means[first : first + m]
        # A one-value cell's sum of squares is +0.0, so adding it changes nothing.
        ss_within = reduce(add, cell_ss[first : first + m], 0.0)
        df_within = sum(counts) - m
        first += m
        ss_within_total += ss_within
        df_within_total += df_within

        if m >= 2:
            n_total = sum(counts)
            # Left folds: since Python 3.12 the builtin sum compensates float sums.
            subject_mean = reduce(add, (c * mu for c, mu in zip(counts, means)), 0.0) / n_total
            ss_between = reduce(add, (c * (mu - subject_mean) ** 2 for c, mu in zip(counts, means)), 0.0)
            df_between = m - 1
            ms_between = ss_between / df_between
            n0 = (n_total - sum(c * c for c in counts) / n_total) / df_between
            ms_within = ss_within / df_within if df_within > 0 else 0.0
            var_cond = (ms_between - ms_within) / n0
            if var_cond < 0.0:
                var_cond = 0.0
                clipped = True
            cond_weighted += df_between * var_cond
            df_cond_total += df_between

    if df_within_total == 0:
        raise ValueError("no replicated cell: repeatability variance is not estimable")
    var_repeat = ss_within_total / df_within_total
    var_cond_pooled = cond_weighted / df_cond_total if df_cond_total > 0 else 0.0
    repeat_sd = math.sqrt(var_repeat)
    cond_sd = math.sqrt(var_cond_pooled)
    repro_sd = math.sqrt(var_repeat + var_cond_pooled)
    grand_mean = float(np.mean(flat))
    cv_rep = 100.0 * repeat_sd / abs(grand_mean) if grand_mean != 0.0 else None
    cv_repro = 100.0 * repro_sd / abs(grand_mean) if grand_mean != 0.0 else None
    return PrecisionComponents(
        grand_mean=grand_mean,
        repeatability_sd=repeat_sd,
        between_condition_sd=cond_sd,
        reproducibility_sd=repro_sd,
        cv_repeatability=cv_rep,
        cv_reproducibility=cv_repro,
        n_subjects=len(by_subject),
        df_repeatability=df_within_total,
        df_condition=df_cond_total,
        negative_component_clipped=clipped,
    )


def variance_components(
    table: StudyTable,
    condition_fields: Sequence[str] = ("operator_id", "device_unit_id"),
) -> PrecisionComponents:
    """Repeatability/reproducibility components from a table's replicated score rows."""
    return variance_components_from_cells(precision_cells(table, condition_fields))
