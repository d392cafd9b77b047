"""Time-to-event validation of prognostic outputs.

Kaplan-Meier product-limit estimation with Greenwood variance and log-log
confidence intervals, risk read-off and calibration checks at a horizon,
the k-group log-rank test, Cox partial-likelihood fitting with Breslow tie
handling, and likelihood ratio tests for added biomarkers.

Chi-square tail probabilities come from a local regularized incomplete gamma
(power series below the a+1 crossover, modified Lentz continued fraction
above) so no external distribution tables are involved.

Censoring convention: event=False means right-censored at `time`; a censoring
tied with an event at the same instant is treated as happening after it, so
the censored subject still counts as at risk for that event.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np
from scipy import stats

from .dataset import StudyTable, ValidationRecord, first_row

__all__ = [
    "MonotoneLikelihoodError",
    "KMCurve",
    "KMRiskAt",
    "KMCalibration",
    "LogrankResult",
    "CoxFit",
    "LrtResult",
    "HistogramPair",
    "chi_square_sf",
    "km_estimate",
    "km_risk_at",
    "km_calibration_check",
    "logrank",
    "cox_fit",
    "added_value_lrt",
    "predicted_risk_histograms",
    "survival_arrays",
    "covariate_matrix",
]

COX_TOL = 1e-8
COX_MAX_ITER = 100
COX_COEF_BOUND = 20.0
_GAMMA_EPS = 1e-15
_GAMMA_MAX_ITER = 10_000


class MonotoneLikelihoodError(RuntimeError):
    """A Cox coefficient is unbounded (partial likelihood is monotone)."""


def _lower_gamma_series(a: float, x: float) -> float:
    """Regularized lower incomplete gamma P(a, x) by power series (x < a + 1)."""
    term = 1.0 / a
    total = term
    for n in range(1, _GAMMA_MAX_ITER):
        term *= x / (a + n)
        total += term
        if abs(term) < abs(total) * _GAMMA_EPS:
            break
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))


def _upper_gamma_cf(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x) by modified Lentz (x >= a + 1)."""
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b if b != 0.0 else 1.0 / tiny
    h = d
    for i in range(1, _GAMMA_MAX_ITER):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _GAMMA_EPS:
            break
    return h * math.exp(-x + a * math.log(x) - math.lgamma(a))


def chi_square_sf(x: float, df: float) -> float:
    """Upper tail P(X >= x) for a chi-square variable with ``df`` degrees of freedom."""
    if df <= 0:
        raise ValueError("df must be positive")
    if x <= 0.0:
        return 1.0
    a = df / 2.0
    half = x / 2.0
    if half < a + 1.0:
        q = 1.0 - _lower_gamma_series(a, half)
    else:
        q = _upper_gamma_cf(a, half)
    return min(1.0, max(0.0, q))


@dataclass(frozen=True)
class KMCurve:
    times: np.ndarray  # distinct event times, ascending
    survival: np.ndarray
    greenwood_se: np.ndarray
    at_risk: np.ndarray
    events: np.ndarray
    lower: np.ndarray  # log-log CI at `level`
    upper: np.ndarray
    level: float
    max_followup: float
    greenwood_sums: np.ndarray = field(repr=False)  # cumulative d/(n(n-d))
    n: int = 0

    def survival_at(self, t: float) -> float:
        idx = int(np.searchsorted(self.times, t, side="right")) - 1
        return 1.0 if idx < 0 else float(self.survival[idx])


def _normal_quantile(level: float) -> float:
    """Two-sided standard normal critical value for a confidence level."""
    return float(stats.norm.ppf(1 - (1 - level) / 2))


def _loglog_interval(s: float, gw_sum: float, z: float) -> tuple[float, float]:
    if s >= 1.0:
        return 1.0, 1.0
    if s <= 0.0:
        return 0.0, 0.0
    spread = z * math.sqrt(gw_sum) / abs(math.log(s))
    return s ** math.exp(spread), s ** math.exp(-spread)


def km_estimate(
    times: Sequence[float], events: Sequence[bool], level: float = 0.95
) -> KMCurve:
    """Product-limit survival estimate with Greenwood variance and log-log CIs."""
    t = np.asarray(times, dtype=float)
    e = np.asarray(events, dtype=bool)
    if t.shape != e.shape or t.ndim != 1 or len(t) == 0:
        raise ValueError("times and events must be equal-length nonempty sequences")
    if not np.all(t >= 0):  # also refuses NaN, which has no place in a risk set
        raise ValueError("times must be nonnegative")
    if not 0.0 < level < 1.0:
        raise ValueError("level must be in (0, 1)")

    n = len(t)
    order = np.argsort(t, kind="stable")
    t_sorted, e_sorted = t[order], e[order]
    # Risk sets from the one sort: n_at_risk(et) = #{t >= et}, d(et) = events at et.
    event_times, event_counts = np.unique(t_sorted[e_sorted], return_counts=True)
    at_risk = n - np.searchsorted(t_sorted, event_times, side="left")
    z = _normal_quantile(level)

    out_surv, out_se, out_lo, out_hi, out_sums = [], [], [], [], []
    s = 1.0
    gw_sum = 0.0
    # A scalar recurrence in `math` keeps every float identical to the
    # step-by-step product-limit definition.
    for n_at_risk, d in zip(at_risk.tolist(), event_counts.tolist()):
        s *= 1.0 - d / n_at_risk
        if n_at_risk > d:
            gw_sum += d / (n_at_risk * (n_at_risk - d))
        else:
            s = 0.0
            gw_sum = math.inf
        se = 0.0 if s <= 0.0 else s * math.sqrt(gw_sum)
        lo, hi = _loglog_interval(s, gw_sum, z)
        out_surv.append(s)
        out_se.append(se)
        out_lo.append(lo)
        out_hi.append(hi)
        out_sums.append(gw_sum)

    return KMCurve(
        times=event_times,
        survival=np.asarray(out_surv),
        greenwood_se=np.asarray(out_se),
        at_risk=at_risk,
        events=event_counts,
        lower=np.asarray(out_lo),
        upper=np.asarray(out_hi),
        level=level,
        max_followup=float(t_sorted[-1]),
        greenwood_sums=np.asarray(out_sums),
        n=n,
    )


@dataclass(frozen=True)
class KMRiskAt:
    time: float
    risk: float
    lower: float
    upper: float
    extrapolated: bool


def km_risk_at(curve: KMCurve, t: float, level: float = 0.95) -> KMRiskAt:
    """Cumulative event risk 1 - S(t) with its interval at the horizon t.

    The interval comes from the log-log bounds at the latest event time at or
    before t; horizons beyond the observed follow-up are flagged, not refused.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    idx = int(np.searchsorted(curve.times, t, side="right")) - 1
    if idx < 0:
        s, lo, hi = 1.0, 1.0, 1.0
    else:
        s = float(curve.survival[idx])
        lo, hi = _loglog_interval(
            s, float(curve.greenwood_sums[idx]), _normal_quantile(level)
        )
    return KMRiskAt(
        time=float(t),
        risk=1.0 - s,
        lower=1.0 - hi,
        upper=1.0 - lo,
        extrapolated=t > curve.max_followup,
    )


@dataclass(frozen=True)
class KMCalibration:
    mean_predicted: float
    observed: float
    difference: float  # positive means over-prediction


def km_calibration_check(
    predicted_risks: Sequence[float], curve: KMCurve, t: float
) -> KMCalibration:
    """Group mean predicted risk at horizon t against the observed 1 - S(t)."""
    p = np.asarray(predicted_risks, dtype=float)
    if len(p) == 0:
        raise ValueError("empty group")
    if np.any((p < 0.0) | (p > 1.0)):
        raise ValueError("predicted risks must lie in [0, 1]")
    observed = km_risk_at(curve, t).risk
    mean_pred = float(np.mean(p))
    return KMCalibration(
        mean_predicted=mean_pred, observed=observed, difference=mean_pred - observed
    )


@dataclass(frozen=True)
class LogrankResult:
    statistic: float
    df: int
    p_value: float
    degenerate: bool


def logrank(groups: Sequence[tuple[Sequence[float], Sequence[bool]]]) -> LogrankResult:
    """Observed-minus-expected chi-square comparison of k survival curves.

    Uses the full hypergeometric covariance of the first k-1 group event
    counts; a study with no events at all is degenerate and reported with
    statistic 0 rather than an error.
    """
    k = len(groups)
    if k < 2:
        raise ValueError("need at least 2 groups")
    times_list, events_list = [], []
    for times, events in groups:
        t = np.asarray(times, dtype=float)
        e = np.asarray(events, dtype=bool)
        if len(t) == 0:
            raise ValueError("empty group")
        if t.shape != e.shape:
            raise ValueError("times and events must be equal-length")
        if np.any(np.isnan(t)):
            raise ValueError("times must not be NaN")
        times_list.append(t)
        events_list.append(e)

    all_event_times = np.unique(
        np.concatenate([t[e] for t, e in zip(times_list, events_list)])
    )
    if len(all_event_times) == 0:
        return LogrankResult(statistic=0.0, df=k - 1, p_value=1.0, degenerate=True)

    # Event-time x group tables of at-risk counts #{t >= et} and event counts,
    # read off each group's sorted times.
    n_table = np.empty((len(all_event_times), k))
    d_table = np.empty((len(all_event_times), k))
    for j, (t, e) in enumerate(zip(times_list, events_list)):
        t_sorted = np.sort(t)
        ev_sorted = np.sort(t[e])
        n_table[:, j] = len(t) - np.searchsorted(t_sorted, all_event_times, side="left")
        d_table[:, j] = np.searchsorted(
            ev_sorted, all_event_times, side="right"
        ) - np.searchsorted(ev_sorted, all_event_times, side="left")

    u = np.zeros(k - 1)
    v = np.zeros((k - 1, k - 1))
    for n_j, d_j in zip(n_table, d_table):
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
        if np.max(np.abs(u)) < 1e-12:
            stat = 0.0
        else:
            stat = float(u @ np.linalg.pinv(v) @ u)
    stat = max(stat, 0.0)
    return LogrankResult(
        statistic=stat,
        df=k - 1,
        p_value=chi_square_sf(stat, k - 1),
        degenerate=False,
    )


@dataclass(frozen=True)
class CoxFit:
    coefficients: dict[str, float]
    log_partial_likelihood: float
    null_log_partial_likelihood: float
    iterations: int
    converged: bool
    ties_method: str
    n: int
    n_events: int
    tie_fraction: float  # share of events tied with another event


def _cox_ll_grad_hess(
    beta: np.ndarray, x: np.ndarray, times: np.ndarray, events: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray]:
    """Breslow partial log-likelihood with gradient and information matrix.

    One backward sweep over times accumulates the risk-set sums; tied events
    share the full risk set at their common time.
    """
    n, p = x.shape
    eta = x @ beta
    # Guard exp against overflow while the bound check in the caller is pending.
    w = np.exp(np.clip(eta, -700, 700))
    ll = 0.0
    grad = np.zeros(p)
    info = np.zeros((p, p))
    w_sum = 0.0
    wx_sum = np.zeros(p)
    wxx_sum = np.zeros((p, p))
    i = n - 1  # times are sorted ascending; sweep from the latest
    while i >= 0:
        t_i = times[i]
        j = i
        while j >= 0 and times[j] == t_i:
            j -= 1
        for idx in range(j + 1, i + 1):
            w_sum += w[idx]
            wx_sum += w[idx] * x[idx]
            wxx_sum += w[idx] * np.outer(x[idx], x[idx])
        for idx in range(j + 1, i + 1):
            if events[idx]:
                xbar = wx_sum / w_sum
                ll += float(eta[idx]) - math.log(w_sum)
                grad += x[idx] - xbar
                info += wxx_sum / w_sum - np.outer(xbar, xbar)
        i = j
    return ll, grad, info


def cox_fit(
    covariates: Sequence[Sequence[float]] | np.ndarray,
    times: Sequence[float],
    events: Sequence[bool],
    names: Sequence[str] | None = None,
) -> CoxFit:
    """Newton maximization of the Breslow-ties Cox partial likelihood.

    Step-halving keeps the log partial likelihood nondecreasing; a coefficient
    escaping past COX_COEF_BOUND while the likelihood still climbs raises
    MonotoneLikelihoodError instead of returning a silently huge estimate.
    """
    x = np.asarray(covariates, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    t = np.asarray(times, dtype=float)
    e = np.asarray(events, dtype=bool)
    n = len(t)
    if x.shape[0] != n or e.shape[0] != n or n == 0:
        raise ValueError("covariates, times and events must agree in length")
    if np.any(np.isnan(x)):
        raise ValueError("missing covariate values")
    n_events = int(e.sum())
    if n_events == 0:
        raise ValueError("no events: partial likelihood is empty")
    p = x.shape[1]
    if names is None:
        names = [f"x{j}" for j in range(p)]
    if len(names) != p:
        raise ValueError("names must match the covariate count")

    order = np.argsort(t, kind="stable")
    x, t, e = x[order], t[order], e[order]

    event_times, counts = np.unique(t[e], return_counts=True)
    tied = int(counts[counts >= 2].sum())
    tie_fraction = tied / n_events

    beta = np.zeros(p)
    ll, grad, info = _cox_ll_grad_hess(beta, x, t, e)
    ll_null = ll
    if p == 0:
        return CoxFit(
            coefficients={},
            log_partial_likelihood=ll_null,
            null_log_partial_likelihood=ll_null,
            iterations=0,
            converged=True,
            ties_method="breslow",
            n=n,
            n_events=n_events,
            tie_fraction=tie_fraction,
        )
    converged = False
    iterations = 0
    for iteration in range(1, COX_MAX_ITER + 1):
        if np.max(np.abs(grad)) < COX_TOL:
            converged = True
            iterations = iteration - 1
            break
        try:
            step = np.linalg.solve(info, grad)
        except np.linalg.LinAlgError:
            raise MonotoneLikelihoodError(
                "singular information matrix in Cox fit (flat likelihood direction)"
            ) from None
        scale = 1.0
        for _ in range(40):
            cand = beta + scale * step
            ll_cand, grad_cand, info_cand = _cox_ll_grad_hess(cand, x, t, e)
            if ll_cand >= ll - 1e-12:
                break
            scale *= 0.5
        beta, ll, grad, info = cand, ll_cand, grad_cand, info_cand
        iterations = iteration
        if np.max(np.abs(beta)) > COX_COEF_BOUND:
            raise MonotoneLikelihoodError(
                f"coefficient escaped past {COX_COEF_BOUND} with likelihood still "
                "increasing; a covariate perfectly orders the event times"
            )
    else:
        iterations = COX_MAX_ITER
    if not converged and np.max(np.abs(grad)) < COX_TOL:
        converged = True

    return CoxFit(
        coefficients={name: float(b) for name, b in zip(names, beta)},
        log_partial_likelihood=float(ll),
        null_log_partial_likelihood=float(ll_null),
        iterations=iterations,
        converged=converged,
        ties_method="breslow",
        n=n,
        n_events=n_events,
        tie_fraction=tie_fraction,
    )


@dataclass(frozen=True)
class LrtResult:
    statistic: float
    df: int
    p_value: float


def added_value_lrt(baseline: CoxFit, full: CoxFit, added_df: int) -> LrtResult:
    """Likelihood ratio test for covariates added to a nested baseline fit."""
    if added_df < 1:
        raise ValueError("added_df must be >= 1")
    stat = 2.0 * (full.log_partial_likelihood - baseline.log_partial_likelihood)
    if stat < -1e-8:
        raise ValueError(
            "full model has lower likelihood than baseline: models are not nested "
            "on the same records, or a fit did not converge"
        )
    stat = max(stat, 0.0)
    return LrtResult(statistic=stat, df=added_df, p_value=chi_square_sf(stat, added_df))


@dataclass(frozen=True)
class HistogramPair:
    edges: np.ndarray
    baseline_counts: np.ndarray
    full_counts: np.ndarray


def predicted_risk_histograms(
    baseline_risks: Sequence[float], full_risks: Sequence[float], n_bins: int
) -> HistogramPair:
    """Histograms of predicted risks on shared [0, 1] bin edges."""
    if n_bins < 1:
        raise ValueError("n_bins must be >= 1")
    b = np.asarray(baseline_risks, dtype=float)
    f = np.asarray(full_risks, dtype=float)
    for arr in (b, f):
        if np.any((arr < 0.0) | (arr > 1.0)):
            raise ValueError("risks must lie in [0, 1]")
    edges = np.linspace(0.0, 1.0, n_bins + 1)
    b_counts, _ = np.histogram(b, bins=edges)
    f_counts, _ = np.histogram(f, bins=edges)
    return HistogramPair(edges=edges, baseline_counts=b_counts, full_counts=f_counts)


def survival_arrays(
    records: StudyTable | Iterable[ValidationRecord],
) -> tuple[np.ndarray, np.ndarray]:
    """Times and event indicators from records, one row per subject.

    Duplicate subject ids are rejected: repeated follow-up intervals describe
    recurrent-event data, which this model does not cover.
    """
    table = StudyTable.of(records)
    missing = first_row(table.event == -1)
    duplicate = -1
    if len(set(table.subject_id)) < len(table):
        seen: set[str] = set()
        for duplicate, subject in enumerate(table.subject_id):
            if subject in seen:
                break
            seen.add(subject)
    if missing >= 0 and (duplicate < 0 or missing <= duplicate):
        raise ValueError(f"subject {table.subject_id[missing]!r} has no follow-up data")
    if duplicate >= 0:
        raise ValueError(
            f"duplicate subject {table.subject_id[duplicate]!r}: recurrent-event data "
            "is not supported"
        )
    if not len(table):
        raise ValueError("no records")
    return np.array(table.time), table.event == 1


def covariate_matrix(
    records: StudyTable | Sequence[ValidationRecord], names: Sequence[str]
) -> np.ndarray:
    """Covariate columns by name, erroring on any missing value."""
    table = StudyTable.of(records)
    matrix = np.empty((len(table), len(names)))
    for j, name in enumerate(names):
        matrix[:, j] = table.covariate(name)
    missing = np.isnan(matrix)
    i = first_row(missing.any(axis=1))
    if i >= 0:
        name = names[first_row(missing[i])]
        raise ValueError(f"subject {table.subject_id[i]!r} lacks covariate {name!r}")
    return matrix
