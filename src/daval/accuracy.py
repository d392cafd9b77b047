"""Binary diagnostic accuracy: 2x2 metrics, exact intervals, and study power.

Estimates are paired with confidence intervals (Clopper-Pearson exact by
default, Wilson score by flag), likelihood ratios use the log-method normal
interval, and performance-goal testing plus power/sample-size are exact
binomial computations with no normal approximation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.special import betainc, betaincinv, ndtri

from .dataset import OutputKind, StudyTable, first_row

__all__ = [
    "CIMethod",
    "Confusion2x2",
    "ProportionCI",
    "RatioCI",
    "AccuracyMetrics",
    "GoalTestResult",
    "PowerResult",
    "confusion_from_records",
    "accuracy_metrics",
    "proportion_ci",
    "ratio_ci_log_method",
    "likelihood_ratios",
    "posttest_risk",
    "test_vs_goal",
    "power_and_n",
]


class CIMethod(Enum):
    CLOPPER_PEARSON = "cp"
    WILSON = "wilson"


@dataclass(frozen=True)
class Confusion2x2:
    """Cross-classification of binary device output against the reference standard."""

    tp: int
    fp: int
    fn: int
    tn: int

    def __post_init__(self) -> None:
        if min(self.tp, self.fp, self.fn, self.tn) < 0:
            raise ValueError("confusion counts must be nonnegative")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn

    @property
    def n_positive(self) -> int:
        return self.tp + self.fn

    @property
    def n_negative(self) -> int:
        return self.fp + self.tn


@dataclass(frozen=True)
class ProportionCI:
    estimate: float
    lower: float
    upper: float
    level: float
    method: CIMethod
    numerator: int
    denominator: int

    def __post_init__(self) -> None:
        if not self.lower - 1e-12 <= self.estimate <= self.upper + 1e-12:
            raise ValueError("interval must contain the point estimate")


@dataclass(frozen=True)
class RatioCI:
    """Ratio estimate with log-method interval.

    Zero cells make the log-method undefined; those cases keep the honest
    0 or +inf point estimate, widen the interval to the trivial [0, inf),
    and set ``degenerate`` so callers must handle them explicitly.
    """

    estimate: float
    lower: float
    upper: float
    level: float
    degenerate: bool = False


@dataclass(frozen=True)
class AccuracyMetrics:
    """Per-metric CIs; a metric whose denominator is zero is None (undefined)."""

    sensitivity: ProportionCI | None
    specificity: ProportionCI | None
    ppv: ProportionCI | None
    npv: ProportionCI | None


@dataclass(frozen=True)
class GoalTestResult:
    p_value: float
    reject: bool
    critical_count: int
    x: int
    n: int
    goal: float
    alpha: float


@dataclass(frozen=True)
class PowerResult:
    alpha: float
    power: float
    critical_count: int
    sample_size: int
    goal: float
    assumed_true: float


def confusion_from_records(table: StudyTable) -> Confusion2x2:
    """Tally a table's rows with truth and binary output into a 2x2 table.

    Ungradable or score outputs are rejected: score outputs belong to the
    risk-score analyses, and ungradable cases must go through the QC triage
    table so they are not silently dropped from accuracy estimates.
    """
    no_truth = table.truth == -1
    not_binary = ~table.is_kind(OutputKind.BINARY)
    i = first_row(no_truth | not_binary)
    if i >= 0:
        if no_truth[i]:
            raise ValueError(f"record {table.subject_id[i]!r} lacks a truth label")
        raise ValueError(
            f"record {table.subject_id[i]!r} has {table.kind_at(i).value} output; "
            "2x2 accuracy requires binary outputs (route ungradables to qc triage)"
        )
    called, diseased = table.label == 1, table.truth == 1
    return Confusion2x2(
        tp=int(np.count_nonzero(called & diseased)),
        fp=int(np.count_nonzero(called & ~diseased)),
        fn=int(np.count_nonzero(~called & diseased)),
        tn=int(np.count_nonzero(~called & ~diseased)),
    )


def _normal_quantile(level: float) -> float:
    """Two-sided standard normal critical value for a confidence level."""
    return float(ndtri(1 - (1 - level) / 2))


def proportion_ci(
    x: int,
    n: int,
    level: float = 0.95,
    method: CIMethod = CIMethod.CLOPPER_PEARSON,
) -> ProportionCI:
    """Two-sided confidence interval for a binomial proportion x/n.

    Clopper-Pearson bounds are the exact beta quantiles
    lower = B(alpha/2; x, n-x+1), upper = B(1-alpha/2; x+1, n-x), with
    lower = 0 at x = 0 and upper = 1 at x = n. Wilson is the score interval.
    """
    if n <= 0:
        raise ValueError("n must be >= 1")
    if not 0 <= x <= n:
        raise ValueError(f"x={x} outside [0, {n}]")
    if not 0.0 < level < 1.0:
        raise ValueError("level must be in (0, 1)")
    alpha = 1.0 - level
    p_hat = x / n
    if method is CIMethod.CLOPPER_PEARSON:
        lower = 0.0 if x == 0 else float(betaincinv(x, n - x + 1, alpha / 2))
        upper = 1.0 if x == n else float(betaincinv(x + 1, n - x, 1 - alpha / 2))
    elif method is CIMethod.WILSON:
        z = _normal_quantile(level)
        denom = 1 + z * z / n
        center = (p_hat + z * z / (2 * n)) / denom
        half = z * math.sqrt(p_hat * (1 - p_hat) / n + z * z / (4 * n * n)) / denom
        lower, upper = max(0.0, center - half), min(1.0, center + half)
    else:
        raise ValueError(f"unknown CI method {method}")
    return ProportionCI(
        estimate=p_hat,
        lower=lower,
        upper=upper,
        level=level,
        method=method,
        numerator=x,
        denominator=n,
    )


def accuracy_metrics(
    conf: Confusion2x2,
    level: float = 0.95,
    method: CIMethod = CIMethod.CLOPPER_PEARSON,
) -> AccuracyMetrics:
    """Sensitivity, specificity, PPV, NPV with per-metric intervals."""
    if conf.total == 0:
        raise ValueError("empty confusion table")

    def metric(x: int, n: int) -> ProportionCI | None:
        if n == 0:
            return None
        return proportion_ci(x, n, level=level, method=method)

    return AccuracyMetrics(
        sensitivity=metric(conf.tp, conf.tp + conf.fn),
        specificity=metric(conf.tn, conf.tn + conf.fp),
        ppv=metric(conf.tp, conf.tp + conf.fp),
        npv=metric(conf.tn, conf.tn + conf.fn),
    )


def ratio_ci_log_method(
    num_x: int, num_n: int, den_x: int, den_n: int, level: float = 0.95
) -> RatioCI:
    """CI for a ratio of two independent proportions (num_x/num_n) / (den_x/den_n).

    Log-method: se(log R) = sqrt(1/num_x - 1/num_n + 1/den_x - 1/den_n).
    A zero numerator or denominator cell yields the degenerate 0 / +inf
    estimate with the trivial interval, never a continuity correction.
    """
    if num_n <= 0 or den_n <= 0:
        raise ValueError("ratio margins must be nonempty")
    if not 0.0 < level < 1.0:
        raise ValueError("level must be in (0, 1)")
    if den_x == 0:
        estimate = math.inf if num_x > 0 else math.nan
        return RatioCI(estimate=estimate, lower=0.0, upper=math.inf, level=level, degenerate=True)
    if num_x == 0:
        return RatioCI(estimate=0.0, lower=0.0, upper=math.inf, level=level, degenerate=True)
    estimate = (num_x / num_n) / (den_x / den_n)
    se = math.sqrt(1 / num_x - 1 / num_n + 1 / den_x - 1 / den_n)
    z = _normal_quantile(level)
    return RatioCI(
        estimate=estimate,
        lower=estimate * math.exp(-z * se),
        upper=estimate * math.exp(z * se),
        level=level,
    )


def likelihood_ratios(conf: Confusion2x2, level: float = 0.95) -> dict[str, RatioCI]:
    """LR+ = sens/(1-spec) and LR- = (1-sens)/spec with log-method intervals."""
    if conf.n_positive == 0 or conf.n_negative == 0:
        raise ValueError("likelihood ratios need both diseased and non-diseased cases")
    return {
        "lr_pos": ratio_ci_log_method(conf.tp, conf.n_positive, conf.fp, conf.n_negative, level),
        "lr_neg": ratio_ci_log_method(conf.fn, conf.n_positive, conf.tn, conf.n_negative, level),
    }


def posttest_risk(pretest, lr):
    """Bayes update: post-test probability from pre-test probability and LR.

    post-odds = pre-odds * LR, returned as a probability. Works with exact
    rational inputs as well as floats (pure arithmetic, no transcendentals).
    """
    if not 0 < pretest < 1:
        raise ValueError("pretest probability must be in (0, 1)")
    if not lr > 0:
        raise ValueError("likelihood ratio must be positive")
    if isinstance(lr, float) and math.isinf(lr):
        return 1.0
    odds = pretest / (1 - pretest) * lr
    return odds / (1 + odds)


def _sf_at_least(x: np.ndarray, n: np.ndarray, p: float) -> np.ndarray:
    """P(X >= x) for X ~ Binomial(n, p), exact, element by element.

    For 0 < x <= n this is the regularized incomplete beta I_p(x, n - x + 1),
    the function scipy's binomial survival function evaluates.
    """
    return np.where(x <= 0, 1.0, np.where(x > n, 0.0, betainc(x, n - x + 1, p)))


def _critical_counts(n: np.ndarray, goal: float, alpha: float) -> np.ndarray:
    """Smallest c per n with P(X >= c | p=goal) <= alpha; n+1 where no count rejects."""
    # Start near the answer: q is the Cornish-Fisher (1 - alpha) quantile of
    # X, and P(X >= c) ~ P(N > c - 0.5) puts c near q + 0.5. -ndtri(alpha)
    # stays finite where ndtri(1 - alpha) would not (alpha below 1e-16).
    z = -ndtri(alpha)
    q = n * goal + z * np.sqrt(n * goal * (1 - goal)) + (z * z - 1) * (1 - 2 * goal) / 6
    c = np.clip(np.ceil(q + 0.5), 0, n + 1).astype(np.int64)
    # The answer has P(X >= c - 1) > alpha >= P(X >= c), so the exact tail
    # alone settles c; the start only sets the number of passes. Each pass
    # reads both tails of the elements still moving in one call and steps
    # them by one. The tail is 1 below 0 and 0 above n, so c stays in [0, n + 1].
    i = np.arange(n.size)
    while i.size:
        tail = _sf_at_least(np.concatenate((c[i] - 1, c[i])), np.tile(n[i], 2), goal)
        step = (tail[i.size :] > alpha).astype(np.int64) - (tail[: i.size] <= alpha)
        c[i] += step
        i = i[step != 0]
    return c


def test_vs_goal(
    x: int, n: int, goal: float, alpha: float = 0.05
) -> GoalTestResult:
    """Exact one-sided binomial test of H0: p <= goal against H1: p > goal.

    p = P(X >= x | p = goal); reject iff p <= alpha. The rejection region
    coincides with "one-sided (1 - alpha) Clopper-Pearson lower bound > goal".
    """
    if not 0 <= x <= n or n <= 0:
        raise ValueError("need 0 <= x <= n with n >= 1")
    if not 0.0 < goal < 1.0:
        raise ValueError("goal must be in (0, 1)")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    one_n = np.array([n])
    p_value = float(_sf_at_least(np.array([x]), one_n, goal)[0])
    return GoalTestResult(
        p_value=p_value,
        reject=p_value <= alpha,
        critical_count=int(_critical_counts(one_n, goal, alpha)[0]),
        x=x,
        n=n,
        goal=goal,
        alpha=alpha,
    )


def power_and_n(
    goal: float,
    assumed_true: float,
    alpha: float = 0.05,
    target_power: float = 0.8,
    max_n: int = 100_000,
) -> PowerResult:
    """Smallest n whose exact test reaches the target power at ``assumed_true``.

    Power at each n is P(X >= c_n | p = assumed_true) with c_n the exact
    critical count. Exact binomial power is not monotone in n, so the first
    crossing in n = 1, 2, ... is taken. The scan evaluates blocks of
    consecutive n, 128 at first and doubling after each block, with a few
    array calls into scipy per block, and returns the first crossing of the
    first block that has one.
    """
    if not 0.0 < goal < 1.0 or not 0.0 < assumed_true < 1.0:
        raise ValueError("goal and assumed_true must be in (0, 1)")
    if assumed_true <= goal:
        raise ValueError("assumed_true must exceed the performance goal")
    if not 0.0 < alpha < 1.0 or not 0.0 < target_power < 1.0:
        raise ValueError("alpha and target_power must be in (0, 1)")
    start, size = 1, 128
    while start <= max_n:
        n = np.arange(start, min(start + size, max_n + 1), dtype=np.int64)
        c = _critical_counts(n, goal, alpha)
        power = _sf_at_least(c, n, assumed_true)
        hits = np.flatnonzero((c <= n) & (power >= target_power))
        if hits.size:
            i = hits[0]
            return PowerResult(
                alpha=alpha,
                power=float(power[i]),
                critical_count=int(c[i]),
                sample_size=int(n[i]),
                goal=goal,
                assumed_true=assumed_true,
            )
        start, size = start + size, 2 * size
    raise ValueError(f"no n <= {max_n} reaches power {target_power}")
