"""Validation of continuous risk-score outputs.

Calibration: logistic recalibration fit on logit(score) by Newton iteration
(intercept-only for calibration-in-the-large, intercept+slope for the shrinkage
check), quantile-binned calibration plot data, and Bayes prevalence scaling.
Discrimination: empirical ROC curve, Mann-Whitney AUC with the midrank tie
convention, and the DeLong structural-component variance. Clinical utility:
decision curves (net benefit and standardized net benefit) and risk-stratum
post-test risks with diagnostic likelihood ratios. The kernels read one
stable sort of the scores (`sort_scores`), which a caller may share as ``view``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Sequence

import numpy as np

from ._newton import newton_ascent
from .accuracy import (
    CIMethod,
    ProportionCI,
    RatioCI,
    _interval,
    _normal_quantile,
    _table_row,
)

__all__ = [
    "PerfectSeparationError",
    "CalibrationMode",
    "CalibrationBin",
    "CalibrationResult",
    "RocCurve",
    "ThresholdMetrics",
    "DecisionCurve",
    "RiskStratum",
    "RiskStrata",
    "fit_recalibration",
    "calibration_plot",
    "prevalence_scale",
    "roc_curve",
    "auc_ci",
    "threshold_grid",
    "decision_curve",
    "risk_strata_analysis",
]

SCORE_CLIP_EPS = 1e-6
NEWTON_TOL = 1e-14  # Newton decrement at which a fit stops (see _newton.newton_ascent)
NEWTON_MAX_ITER = 50
SEPARATION_BOUND = 15.0
SEPARATION_RESIDUAL_EPS = 1e-6


class PerfectSeparationError(RuntimeError):
    """The recalibration likelihood is monotone (perfectly separated data)."""


class CalibrationMode(Enum):
    INTERCEPT_ONLY = "large"
    INTERCEPT_AND_SLOPE = "slope"


@dataclass(frozen=True)
class CalibrationBin:
    mean_predicted: float
    observed_rate: float
    n: int


@dataclass(frozen=True)
class CalibrationResult:
    intercept: float
    slope: float
    constrained: CalibrationMode
    converged: bool
    iterations: int
    log_likelihood: float
    bins: tuple[CalibrationBin, ...]
    n_clipped: int


def fit_recalibration(
    scores: Sequence[float],
    outcomes: Sequence[bool],
    mode: CalibrationMode = CalibrationMode.INTERCEPT_AND_SLOPE,
    n_bins: int = 10,
    *, view: SortedScores | None = None,
) -> CalibrationResult:
    """Logistic recalibration of outcomes on logit(score).

    INTERCEPT_ONLY constrains the slope to 1 and the fitted intercept is the
    calibration-in-the-large; INTERCEPT_AND_SLOPE frees both. Scores are
    clipped to [eps, 1-eps] before the logit (clipped count reported); a
    slope fit on scores whose clipped logits are all equal raises ValueError.
    The fit takes damped Newton steps (``_newton.newton_ascent`` states the
    stopping and step-halving rule); a singular information matrix, or a
    coefficient escaping past SEPARATION_BOUND, raises PerfectSeparationError.
    """
    s = np.asarray(scores, dtype=float)
    y = np.asarray(outcomes, dtype=float)
    if s.shape != y.shape or s.ndim != 1 or len(s) == 0:
        raise ValueError("scores and outcomes must be equal-length 1-d sequences")
    if np.isnan(s).any():
        raise ValueError("scores must not be NaN")
    if np.any((s < 0.0) | (s > 1.0)):
        raise ValueError("scores must lie in [0, 1]")
    if np.all(y == y[0]):
        raise ValueError("all outcomes identical; recalibration is undefined")

    clipped = np.clip(s, SCORE_CLIP_EPS, 1.0 - SCORE_CLIP_EPS)
    n_clipped = int(np.sum(clipped != s))
    z = np.log(clipped / (1.0 - clipped))

    if mode is CalibrationMode.INTERCEPT_ONLY:
        design, offset, theta0 = np.ones((len(z), 1)), z, np.zeros(1)
    elif np.all(z == z[0]):
        # Not separation: a constant score carries no slope information.
        raise ValueError("scores have no spread; the recalibration slope is undefined")
    else:
        design = np.column_stack([np.ones_like(z), z])
        offset, theta0 = np.zeros_like(z), np.array([0.0, 1.0])

    def objective(theta):
        # Each n-vector is dropped once used. With fewer alive at once, glibc
        # malloc keeps the freed memory instead of returning it to the system
        # and faulting it back in on the next call: at n = 1e5 a fit took
        # 4,700 page faults with all of them alive, and 30 like this.
        eta = design @ theta + offset
        ll = float(np.sum(y * eta - np.logaddexp(0.0, eta)))  # stable log(1 + e^eta)
        # exp(-eta) overflows only for a step the halving or the bound check
        # then rejects: within the bound |eta| <= 15 (1 + logit(1 - eps)).
        with np.errstate(over="ignore"):
            mu = 1.0 / (1.0 + np.exp(-eta))
        del eta
        grad = design.T @ (y - mu)
        w = mu * (1.0 - mu)
        del mu
        return ll, grad, design.T @ (design * w[:, None])

    theta, ll, iters, converged = newton_ascent(
        objective, theta0, objective(theta0),
        tol=NEWTON_TOL, max_iter=NEWTON_MAX_ITER, max_halvings=30, bound=SEPARATION_BOUND,
        error=PerfectSeparationError,
        singular="singular information matrix during recalibration fit",
        escaped="the outcomes are separated on the score",
    )
    intercept, slope = float(theta[0]), 1.0
    if mode is CalibrationMode.INTERCEPT_AND_SLOPE:
        slope = float(theta[1])
        # The in-loop coefficient bound only catches runaways; a gradient that
        # dies just under the bound with every outcome fitted exactly is the
        # same monotone likelihood and must not return silent huge slopes.
        mu = 1.0 / (1.0 + np.exp(-(intercept + slope * z)))
        if np.max(np.abs(y - mu)) < SEPARATION_RESIDUAL_EPS:
            raise PerfectSeparationError(
                "every outcome is fitted exactly; the outcomes are separated on the score"
            )

    bins = calibration_plot(scores, outcomes, n_bins=min(n_bins, len(s)), view=view)
    return CalibrationResult(
        intercept=intercept,
        slope=slope,
        constrained=mode,
        converged=converged,
        iterations=iters,
        log_likelihood=ll,
        bins=bins,
        n_clipped=n_clipped,
    )


@dataclass(frozen=True)
class SortedScores:
    """One stable ascending sort of a score (or survival time) vector, as the
    kernels read it. Tied scores keep their input order: a tie block's last
    position holds the tied subject with the highest input index."""

    order: np.ndarray  # stable ascending argsort of the scores
    s: np.ndarray  # scores in that order
    y: np.ndarray  # outcomes (bool) in that order
    first: np.ndarray  # first sorted position of each tie block
    last: np.ndarray  # last sorted position of each tie block
    cum_pos: np.ndarray  # cum_pos[i]: positives among the first i sorted subjects

    def subset(self, rows: np.ndarray) -> SortedScores:
        """The view of the subjects ``rows`` (ascending input indices),
        numbered by their place in ``rows``. It needs no sort: a stable sort
        restricted to a subset is that subset's stable sort."""
        place = np.full(len(self.order), -1)
        place[rows] = np.arange(len(rows))
        order = place[self.order]
        keep = order >= 0
        return _blocks(order[keep], self.s[keep], self.y[keep])


def _blocks(order: np.ndarray, s_sorted: np.ndarray, y_sorted: np.ndarray) -> SortedScores:
    """The view of a sort: its tie blocks and positive counts."""
    steps = s_sorted[1:] != s_sorted[:-1]
    return SortedScores(
        order=order,
        s=s_sorted,
        y=y_sorted,
        first=np.flatnonzero(np.r_[len(order) > 0, steps]),
        last=np.flatnonzero(np.r_[steps, len(order) > 0]),
        cum_pos=np.concatenate(([0], np.cumsum(y_sorted))),
    )


def sort_scores(scores: Sequence[float], outcomes: Sequence[bool]) -> SortedScores:
    """Sort scores (or survival times) once for the kernels; NaN is refused.

    The order is exactly ``np.argsort(scores, kind="stable")``. An unstable
    argsort (numpy's fastest) finds the tie blocks; one sort of the distinct
    int64 keys ``block * n + index`` then orders each block by input index.
    """
    s = np.asarray(scores, dtype=float)
    y = np.asarray(outcomes, dtype=bool)
    if s.shape != y.shape or s.ndim != 1:
        raise ValueError("scores and outcomes must be equal-length 1-d sequences")
    if np.isnan(s).any():
        raise ValueError("scores must not be NaN")
    order = np.argsort(s)
    s_sorted = s[order]
    steps = s_sorted[1:] != s_sorted[:-1]
    if not steps.all():
        # Blocks keep their sorted positions, so a key less its block's
        # offset is the index at that position.
        offset = np.concatenate(([0], np.cumsum(steps, dtype=np.int64))) * len(s)
        keys = offset + order
        keys.sort()
        order = keys - offset
        s_sorted = s[order]  # a block mixing -0.0 and 0.0 now shows them in input order
    return _blocks(order, s_sorted, y[order])


def calibration_plot(
    scores: Sequence[float], outcomes: Sequence[bool], n_bins: int = 10, *, view: SortedScores | None = None
) -> tuple[CalibrationBin, ...]:
    """Equal-count (quantile) bins of mean predicted risk vs observed event rate.

    Records tied on score keep their input order, so bin membership is
    deterministic.
    """
    v = view if view is not None else sort_scores(scores, outcomes)
    n = len(v.s)
    if n == 0:
        raise ValueError("empty dataset")
    if n_bins < 2:
        raise ValueError("n_bins must be >= 2")
    if n_bins > n:
        raise ValueError(f"n_bins={n_bins} exceeds dataset size {n}")
    return tuple(
        CalibrationBin(
            mean_predicted=float(np.mean(s_chunk)),
            observed_rate=float(np.mean(y_chunk)),
            n=len(s_chunk),
        )
        for s_chunk, y_chunk in zip(np.array_split(v.s, n_bins), np.array_split(v.y, n_bins))
    )


def _check_open_unit(value, name: str) -> None:
    if not (np.all(np.greater(value, 0)) and np.all(np.less(value, 1))):
        raise ValueError(f"{name} must lie strictly inside (0, 1)")


def prevalence_scale(p, train_prev, target_prev):
    """Bayes adjustment of a predicted probability to a new prevalence.

    p' = p*r / (p*r + (1-p)) with r the target/train odds ratio. Strictly
    increasing in p, the identity map when prevalences agree, and exactly
    invertible by swapping the prevalences. Pure arithmetic, so exact
    rational inputs stay exact; numpy arrays broadcast elementwise.
    """
    _check_open_unit(p, "p")
    _check_open_unit(train_prev, "train_prev")
    _check_open_unit(target_prev, "target_prev")
    r = (target_prev / (1 - target_prev)) / (train_prev / (1 - train_prev))
    return p * r / (p * r + (1 - p))


@dataclass(frozen=True)
class RocCurve:
    thresholds: np.ndarray  # descending, starts at +inf for the (0, 0) anchor
    tpr: np.ndarray
    fpr: np.ndarray
    auc: float
    auc_se: float
    n_pos: int
    n_neg: int

    def trapezoid_auc(self) -> float:
        widths = np.diff(self.fpr)
        heights = (self.tpr[1:] + self.tpr[:-1]) / 2.0
        return float(np.sum(widths * heights))


def roc_curve(
    scores: Sequence[float], outcomes: Sequence[bool], *, view: SortedScores | None = None
) -> RocCurve:
    """Empirical ROC over all distinct thresholds (rule: score >= t is positive).

    AUC is the Mann-Whitney statistic with half credit for ties, which equals
    the trapezoidal area under the empirical curve; its standard error comes
    from the DeLong structural components.
    """
    v = view if view is not None else sort_scores(scores, outcomes)
    n = len(v.s)
    n_pos = int(v.cum_pos[-1])
    n_neg = n - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("ROC needs at least one positive and one negative case")

    first, last = v.first, v.last
    pos_below = v.cum_pos[first]
    pos_tied = v.cum_pos[last + 1] - pos_below
    neg_below = first - pos_below
    neg_tied = last + 1 - first - pos_tied
    # Thresholds descend through the tie blocks, each shown by its last
    # subject in input order (this keeps the sign of a -0.0/0.0 block).
    thresholds = np.r_[np.inf, v.s[last[::-1]]]
    tpr = np.r_[0.0, (n_pos - pos_below[::-1]) / n_pos]
    fpr = np.r_[0.0, (n_neg - neg_below[::-1]) / n_neg]

    # Mann-Whitney AUC and DeLong components via the midrank identity:
    # sum_j psi(x_i, y_j) = (combined midrank of x_i) - (within-class midrank).
    # A block at sorted positions first..last has combined midrank
    # (first + last + 2) / 2; the difference is the other class below it plus
    # half of that class in it, an exact half-integer (Sun & Xu 2014).
    midrank = (first + last + 2) / 2
    auc = (float(np.sum(pos_tied * midrank)) - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
    counts = last + 1 - first
    components = np.where(
        v.y,
        np.repeat((neg_below + neg_tied / 2) / n_neg, counts),
        np.repeat(1.0 - (pos_below + pos_tied / 2) / n_pos, counts),
    )
    by_subject = np.empty(n)
    by_subject[v.order] = components  # v10 of each positive, v01 of each negative
    y = np.asarray(outcomes, dtype=bool)
    v10, v01 = by_subject[y], by_subject[~y]
    if n_pos >= 2 and n_neg >= 2:
        var = float(np.var(v10, ddof=1)) / n_pos + float(np.var(v01, ddof=1)) / n_neg
        auc_se = math.sqrt(max(var, 0.0))
    else:
        auc_se = math.nan
    return RocCurve(
        thresholds=thresholds,
        tpr=tpr,
        fpr=fpr,
        auc=float(auc),
        auc_se=auc_se,
        n_pos=n_pos,
        n_neg=n_neg,
    )


def auc_ci(roc: RocCurve, level: float = 0.95) -> tuple[float, float]:
    """Normal interval on AUC with the DeLong standard error, truncated to [0, 1]."""
    if roc.n_pos < 2 or roc.n_neg < 2:
        raise ValueError("DeLong interval needs >= 2 cases in each class")
    if not 0.0 < level < 1.0:
        raise ValueError("level must be in (0, 1)")
    z = _normal_quantile(level)
    return (max(0.0, roc.auc - z * roc.auc_se), min(1.0, roc.auc + z * roc.auc_se))


@dataclass(frozen=True)
class ThresholdMetrics:
    threshold: float
    sensitivity: ProportionCI | None
    specificity: ProportionCI | None


def threshold_grid(
    scores: Sequence[float],
    outcomes: Sequence[bool],
    thresholds: Sequence[float],
    level: float = 0.95,
    method: CIMethod = CIMethod.CLOPPER_PEARSON,
    *, view: SortedScores | None = None,
) -> list[ThresholdMetrics]:
    """Sensitivity/specificity with CIs at each clinically relevant threshold."""
    if len(thresholds) == 0:
        raise ValueError("empty threshold list")
    for t in thresholds:
        if not 0.0 < t < 1.0:
            raise ValueError(f"threshold {t} outside (0, 1)")
    v = view if view is not None else sort_scores(scores, outcomes)
    n = len(v.s)
    if n == 0:
        raise ValueError("empty confusion table")
    n_pos = int(v.cum_pos[-1])
    n_neg = n - n_pos
    below = np.searchsorted(v.s, np.asarray(thresholds, dtype=float))  # called negative
    return [
        ThresholdMetrics(
            float(t), _interval(n_pos - fn, n_pos, level, method), _interval(k - fn, n_neg, level, method)
        )
        for t, k, fn in zip(thresholds, below.tolist(), v.cum_pos[below].tolist())
    ]


DEFAULT_DCA_GRID = tuple(round(0.01 * k, 2) for k in range(1, 100))


@dataclass(frozen=True)
class DecisionCurve:
    thresholds: np.ndarray
    nb_model: np.ndarray
    nb_all: np.ndarray
    nb_none: np.ndarray
    snb_model: np.ndarray
    prevalence: float
    n: int


def decision_curve(
    scores: Sequence[float],
    outcomes: Sequence[bool],
    thresholds: Sequence[float] = DEFAULT_DCA_GRID,
    *, view: SortedScores | None = None,
) -> DecisionCurve:
    """Net benefit across risk-tolerance thresholds.

    nb_model(t) = TP(t)/n - FP(t)/n * t/(1-t) with the score >= t rule;
    nb_all applies the same formula treating everyone as positive; nb_none is
    identically zero; snb divides by prevalence.
    """
    t = np.asarray(thresholds, dtype=float)
    if len(t) == 0:
        raise ValueError("empty threshold list")
    if np.any((t <= 0.0) | (t >= 1.0)):
        raise ValueError("decision-curve thresholds must lie strictly inside (0, 1)")
    v = view if view is not None else sort_scores(scores, outcomes)
    n = len(v.s)
    if n == 0:
        raise ValueError("empty dataset")
    n_pos = int(v.cum_pos[-1])
    prevalence = n_pos / n
    below = np.searchsorted(v.s, t)  # called negative at each threshold
    true_pos = n_pos - v.cum_pos[below]
    tp = true_pos / n
    fp = (n - below - true_pos) / n
    weight = t / (1.0 - t)
    nb_model = tp - fp * weight
    nb_all = prevalence - (1.0 - prevalence) * weight
    nb_none = np.zeros_like(t)
    with np.errstate(divide="ignore", invalid="ignore"):
        snb = nb_model / prevalence if prevalence > 0 else np.full_like(t, np.nan)
    return DecisionCurve(
        thresholds=t,
        nb_model=nb_model,
        nb_all=nb_all,
        nb_none=nb_none,
        snb_model=snb,
        prevalence=prevalence,
        n=n,
    )


@dataclass(frozen=True)
class RiskStratum:
    lower: float
    upper: float
    n: int
    n_diseased: int
    posttest_risk: ProportionCI | None
    dlr: RatioCI | None
    posttest_risk_exact: Fraction | None
    dlr_exact: Fraction | None


@dataclass(frozen=True)
class RiskStrata:
    cutoffs: tuple[float, ...]
    strata: tuple[RiskStratum, ...]
    n_pos: int
    n_neg: int


def risk_strata_analysis(
    scores: Sequence[float],
    outcomes: Sequence[bool],
    cutoffs: Sequence[float],
    level: float = 0.95,
    method: CIMethod = CIMethod.CLOPPER_PEARSON,
    *, view: SortedScores | None = None,
) -> RiskStrata:
    """Post-test risk and stratum-specific DLR across score strata.

    Cutoffs partition [0, 1] into [0, c1), [c1, c2), ..., [ck, 1]; a score
    equal to a cutoff belongs to the upper stratum. The stratum DLR is
    P(stratum | diseased) / P(stratum | healthy). Empty strata are reported
    with undefined metrics rather than dropped.
    """
    cuts = [float(c) for c in cutoffs]
    if not cuts:
        raise ValueError("at least one cutoff required")
    if any(not 0.0 < c < 1.0 for c in cuts) or sorted(set(cuts)) != cuts:
        raise ValueError("cutoffs must be strictly ascending inside (0, 1)")
    v = view if view is not None else sort_scores(scores, outcomes)
    n_pos = int(v.cum_pos[-1])
    n_neg = len(v.s) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("strata analysis needs both diseased and healthy cases")

    edges = [0.0] + cuts + [1.0]
    # Stratum i runs from the first score >= edges[i] to the first score
    # >= edges[i + 1]; the top stratum ends after the last score <= 1.
    bounds = np.append(np.searchsorted(v.s, edges[:-1]), np.searchsorted(v.s, 1.0, side="right"))
    strata = tuple(
        RiskStratum(lo, hi, n_s, pos_s, *_table_row(pos_s, n_s - pos_s, n_pos, n_neg, level, method))
        for lo, hi, n_s, pos_s in zip(
            edges[:-1], edges[1:], np.diff(bounds).tolist(), np.diff(v.cum_pos[bounds]).tolist()
        )
    )
    return RiskStrata(cutoffs=tuple(cuts), strata=strata, n_pos=n_pos, n_neg=n_neg)
