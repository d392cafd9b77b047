"""Time-to-event validation of prognostic outputs.

Kaplan-Meier product-limit estimation with Greenwood variance and log-log
confidence intervals, risk read-off at a horizon, the k-group log-rank test,
Cox partial-likelihood fitting with Breslow tie handling, and likelihood
ratio tests for added biomarkers.

Chi-square p-values are scipy's regularized upper incomplete gamma,
P(X >= x) = Q(df / 2, x / 2); a NaN statistic gets a NaN p-value.

Censoring convention: event=False means right-censored at `time`; a censoring
tied with an event at the same instant is treated as happening after it, so
the censored subject still counts as at risk for that event.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.special import gammaincc

from ._newton import newton_ascent
from .accuracy import _normal_quantile
from .dataset import StudyTable, first_row

__all__ = [
    "MonotoneLikelihoodError",
    "KMCurve",
    "KMRiskAt",
    "LogrankResult",
    "CoxFit",
    "LrtResult",
    "km_estimate",
    "km_risk_at",
    "logrank",
    "cox_fit",
    "added_value_lrt",
    "survival_arrays",
    "covariate_matrix",
]

COX_TOL = 1e-14  # Newton decrement at which a fit stops (see _newton.newton_ascent)
COX_MAX_ITER = 100
COX_COEF_BOUND = 20.0


class MonotoneLikelihoodError(RuntimeError):
    """A Cox coefficient is unbounded (partial likelihood is monotone)."""


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


def _loop_sums(terms: np.ndarray) -> np.ndarray:
    """Running totals along axis 0 of ``total = 0.0; total += term``, bit for bit.

    ``cumsum`` adds in the loop's order; its first total is the first term
    itself, where the loop's is ``0.0 + term``, which turns -0.0 into 0.0.
    """
    terms = np.array(terms, dtype=float)
    terms[:1] += 0.0
    return np.cumsum(terms, axis=0, out=terms)


def _loop_sum(terms: np.ndarray) -> np.ndarray:
    """Final total of ``_loop_sums``: 0.0 for no terms."""
    sums = _loop_sums(terms)
    return sums[-1] if len(sums) else np.zeros(sums.shape[1:])


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

    u, v = _logrank_score(n_table, d_table)
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
        p_value=float(gammaincc((k - 1) / 2, stat / 2)),
        degenerate=False,
    )


def _logrank_score(n_table: np.ndarray, d_table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Observed-minus-expected events u and their covariance v, first k-1 groups.

    Each event time adds d_j - d * n_j / n to u and, when more than one
    subject is at risk, d (n - d) / (n - 1) * (diag(f) - f f') with f = n_j / n
    to v. The terms are summed over event times in ascending order, as a loop
    over the rows of the at-risk and event tables would add them.
    """
    k = n_table.shape[1]
    n_t = n_table.sum(axis=1)
    d_t = d_table.sum(axis=1)
    frac = n_table[:, : k - 1] / n_t[:, None]
    u = _loop_sum(d_table[:, : k - 1] - d_t[:, None] * frac)
    keep = n_t > 1
    n_t, d_t, frac = n_t[keep], d_t[keep], frac[keep]
    scale = d_t * (n_t - d_t) / (n_t - 1)
    v = np.zeros((k - 1, k - 1))
    for a in range(k - 1):
        for b in range(a, k - 1):
            diag = frac[:, a] if a == b else 0.0
            v[a, b] = v[b, a] = _loop_sum(scale * (diag - frac[:, a] * frac[:, b]))
    return u, v


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


@dataclass(frozen=True)
class _RiskSweep:
    """The backward sweep over times sorted ascending, as index arrays.

    The sweep adds tie blocks to the risk set from the latest time back, each
    block in ascending index order, and scores a block's events, in the same
    order, once the whole block is in.
    """

    order: np.ndarray  # subjects in the order the sweep adds them
    event_pos: np.ndarray  # positions in `order` of the events, in scoring order
    block_end: np.ndarray  # per event, position in `order` of its block's last subject


def _risk_sweep(times: np.ndarray, events: np.ndarray) -> _RiskSweep:
    order = np.argsort(-times, kind="stable")
    t = times[order]
    ends = np.flatnonzero(np.append(t[1:] != t[:-1], True))
    event_pos = np.flatnonzero(events[order])
    return _RiskSweep(
        order=order,
        event_pos=event_pos,
        block_end=ends[np.searchsorted(ends, event_pos)],
    )


def _cox_ll_grad_hess(
    beta: np.ndarray, x: np.ndarray, sweep: _RiskSweep
) -> tuple[float, np.ndarray, np.ndarray]:
    """Breslow partial log-likelihood with gradient and information matrix.

    ``x`` is sorted by ascending time, and ``sweep`` comes from those times.
    The risk-set sums S0, S1 and S2 are running sums in the sweep's order,
    read at each event's tie block end, so tied events share the full risk
    set at their common time (Therneau & Grambsch 2000, section 3.3). Every
    sum adds its terms in the order of the one-subject-at-a-time sweep, so
    the results equal it bit for bit.
    """
    p = x.shape[1]
    eta = x @ beta
    # Guard exp against overflow while the Newton loop's bound check is pending.
    w = np.exp(np.clip(eta, -700, 700))[sweep.order]
    xs = x[sweep.order]
    at, ev = sweep.block_end, sweep.event_pos
    s0 = _loop_sums(w)[at]
    log_s0 = np.fromiter(map(math.log, s0.tolist()), dtype=float, count=len(s0))
    ll = float(_loop_sum(eta[sweep.order[ev]] - log_s0))
    grad = np.zeros(p)
    info = np.zeros((p, p))
    xbar = [_loop_sums(w * xs[:, a])[at] / s0 for a in range(p)]
    for a in range(p):
        grad[a] = _loop_sum(xs[ev, a] - xbar[a])
        for b in range(a, p):
            s2 = _loop_sums(w * (xs[:, a] * xs[:, b]))[at]
            info[a, b] = info[b, a] = _loop_sum(s2 / s0 - xbar[a] * xbar[b])
    return ll, grad, info


def cox_fit(
    covariates: Sequence[Sequence[float]] | np.ndarray,
    times: Sequence[float],
    events: Sequence[bool],
    names: Sequence[str] | None = None,
) -> CoxFit:
    """Newton maximization of the Breslow-ties Cox partial likelihood.

    Damped Newton steps from beta = 0 (``_newton.newton_ascent`` states the
    stopping and step-halving rule). A singular information matrix, or a
    coefficient escaping past COX_COEF_BOUND while the likelihood still
    climbs, raises MonotoneLikelihoodError instead of returning a silently
    huge estimate. Covariates must be finite.
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
    if np.any(np.isinf(x)):
        raise ValueError("covariate values must be finite")
    if np.any(np.isnan(t)):
        raise ValueError("times must not be NaN")
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
    sweep = _risk_sweep(t, e)

    event_times, counts = np.unique(t[e], return_counts=True)
    tied = int(counts[counts >= 2].sum())
    tie_fraction = tied / n_events

    beta0 = np.zeros(p)
    start = _cox_ll_grad_hess(beta0, x, sweep)
    beta, ll, iterations, converged = newton_ascent(
        lambda beta: _cox_ll_grad_hess(beta, x, sweep), beta0, start,
        tol=COX_TOL, max_iter=COX_MAX_ITER, max_halvings=40, bound=COX_COEF_BOUND,
        error=MonotoneLikelihoodError,
        singular="singular information matrix in Cox fit (flat likelihood direction)",
        escaped="a covariate perfectly orders the event times",
    )

    return CoxFit(
        coefficients={name: float(b) for name, b in zip(names, beta)},
        log_partial_likelihood=float(ll),
        null_log_partial_likelihood=float(start[0]),
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
    p_value = float(gammaincc(added_df / 2, stat / 2))
    return LrtResult(statistic=stat, df=added_df, p_value=p_value)


def survival_arrays(table: StudyTable) -> tuple[np.ndarray, np.ndarray]:
    """Times and event indicators from a table, one row per subject.

    Duplicate subject ids are rejected: repeated follow-up intervals describe
    recurrent-event data, which this model does not cover.
    """
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


def covariate_matrix(table: StudyTable, names: Sequence[str]) -> np.ndarray:
    """Covariate columns by name, erroring on any missing value."""
    matrix = np.empty((len(table), len(names)))
    for j, name in enumerate(names):
        matrix[:, j] = table.covariate(name)
    missing = np.isnan(matrix)
    i = first_row(missing.any(axis=1))
    if i >= 0:
        name = names[first_row(missing[i])]
        raise ValueError(f"subject {table.subject_id[i]!r} lacks covariate {name!r}")
    return matrix
