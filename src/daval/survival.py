"""Time-to-event validation of prognostic outputs.

Kaplan-Meier product-limit estimation with Greenwood variance and log-log
confidence intervals, risk read-off at a horizon, the k-group log-rank test,
Cox partial-likelihood fitting with Breslow tie handling, and likelihood
ratio tests for added biomarkers.

Chi-square p-values are scipy's regularized upper incomplete gamma,
P(X >= x) = Q(df / 2, x / 2); a NaN statistic gets a NaN p-value.

Censoring convention: event=False means right-censored at `time`; a censoring
tied with an event at the same instant is treated as happening after it, so
the censored subject still counts as at risk for that event. Risk sets come
from the tie blocks of one stable sort of the times (`riskscore.sort_scores`),
which a caller may share as ``view``: a report sorts its times once for every
curve, the log-rank test and both Cox fits. Each kernel takes one input form:
`logrank` takes every subject's time, event and group number, `km_risk_at`
reads the curve's own bounds, and a Cox fit builds one `_RiskSweep`. KM and
Cox terms are computed once per tie block. KM's log-log bounds and Cox's
log S0 call libm's `log`, `exp` and `pow`, as the step-by-step definitions
do, and equal them bit for bit; Cox's weights exp(eta) still come from
numpy's `np.exp`, whose last bits depend on the CPU's SIMD path.
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
from .riskscore import SortedScores, sort_scores

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
    times: np.ndarray  # event times, ascending; each its tie block's last value in input order
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


def _loglog_bounds(s: np.ndarray, gw_sums: np.ndarray, z: float) -> tuple[np.ndarray, np.ndarray]:
    """Log-log bounds s ** exp(+-z sqrt(gw) / |log s|) of each row, 1 where
    s >= 1 and 0 where s <= 0: libm's log, exp and pow mapped over the rows
    with 0 < s < 1, never numpy's SIMD loops."""
    lower = (s >= 1.0).astype(float)
    upper = lower.copy()
    mid = np.flatnonzero(~((s >= 1.0) | (s <= 0.0)))
    if len(mid):
        s_mid = s[mid].tolist()
        log_s = np.fromiter(map(math.log, s_mid), dtype=float, count=len(mid))
        spread = z * np.sqrt(gw_sums[mid]) / np.abs(log_s)
        lower[mid] = list(map(pow, s_mid, map(math.exp, spread.tolist())))
        upper[mid] = list(map(pow, s_mid, map(math.exp, (-spread).tolist())))
    return lower, upper


def _product_limit(at_risk: np.ndarray, events: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The survival and cumulative Greenwood sums at each event time, bit for bit
    the loop ``s *= 1.0 - d / n``, ``gw += d / (n * (n - d))``, which sets
    s = 0 and gw = inf once every subject at risk has the event.

    ``n`` and ``d`` convert to floats exactly. So does ``n * (n - d)`` below
    2**53; past that the terms are divided as Python integers, as the loop does.
    """
    n, d = at_risk.astype(float), events.astype(float)
    survival = np.multiply.accumulate(1.0 - d / n)
    terms = np.full(len(n), math.inf)
    alive = np.flatnonzero(at_risk > events)
    if len(alive) and int(at_risk[0]) ** 2 >= 2**53:
        pairs = zip(at_risk[alive].tolist(), events[alive].tolist())
        terms[alive] = [d_j / (n_j * (n_j - d_j)) for n_j, d_j in pairs]
    else:
        terms[alive] = d[alive] / (n[alive] * (n[alive] - d[alive]))
    return survival, _loop_sums(terms)


def km_estimate(
    times: Sequence[float], events: Sequence[bool], level: float = 0.95,
    *, view: SortedScores | None = None,
) -> KMCurve:
    """Product-limit survival estimate with Greenwood variance and log-log CIs.

    ``view`` is ``riskscore.sort_scores(times, events)`` when the caller has it.
    """
    t = np.asarray(times, dtype=float)
    e = np.asarray(events, dtype=bool)
    if t.shape != e.shape or t.ndim != 1 or len(t) == 0:
        raise ValueError("times and events must be equal-length nonempty sequences")
    if not np.all(t >= 0):  # also refuses NaN, which has no place in a risk set
        raise ValueError("times must be nonnegative")
    if not 0.0 < level < 1.0:
        raise ValueError("level must be in (0, 1)")

    v = view if view is not None else sort_scores(t, e)
    # Each tie block with events: n_at_risk = #{t >= its time}, d = its events.
    d = v.cum_pos[v.last + 1] - v.cum_pos[v.first]
    hit = d > 0
    event_counts, at_risk = d[hit], len(t) - v.first[hit]
    survival, gw_sums = _product_limit(at_risk, event_counts)
    se = np.zeros(len(survival))
    alive = survival > 0.0
    se[alive] = survival[alive] * np.sqrt(gw_sums[alive])
    lower, upper = _loglog_bounds(survival, gw_sums, _normal_quantile(level))

    return KMCurve(
        times=v.s[v.last[hit]],
        survival=survival,
        greenwood_se=se,
        at_risk=at_risk,
        events=event_counts,
        lower=lower,
        upper=upper,
        level=level,
        max_followup=float(v.s[-1]),
        greenwood_sums=gw_sums,
        n=len(t),
    )


@dataclass(frozen=True)
class KMRiskAt:
    time: float
    risk: float
    lower: float
    upper: float
    extrapolated: bool


def km_risk_at(curve: KMCurve, t: float) -> KMRiskAt:
    """Cumulative event risk 1 - S(t) with its interval at the horizon t.

    The interval is the curve's own log-log bounds, at ``curve.level``, at the
    latest event time at or before t; horizons beyond the observed follow-up
    are flagged, not refused.
    """
    if not t >= 0:  # also refuses NaN
        raise ValueError("t must be nonnegative")
    idx = int(np.searchsorted(curve.times, t, side="right")) - 1
    if idx < 0:
        s, lo, hi = 1.0, 1.0, 1.0
    else:
        s, lo, hi = (float(a[idx]) for a in (curve.survival, curve.lower, curve.upper))
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


def logrank(
    times: Sequence[float], events: Sequence[bool], groups: Sequence[int],
    *, view: SortedScores | None = None,
) -> LogrankResult:
    """Observed-minus-expected chi-square comparison of k survival curves.

    ``groups`` is each subject's group number 0..k-1, as in R's
    ``survdiff(Surv(time, status) ~ group)``; every number must name at least
    one subject. Uses the full hypergeometric covariance of the first k-1
    group event counts; a study with no events at all is degenerate and
    reported with statistic 0 rather than an error. ``view`` is
    ``riskscore.sort_scores(times, events)`` when the caller has it.
    """
    t = np.asarray(times, dtype=float)
    e = np.asarray(events, dtype=bool)
    label = np.asarray(groups, dtype=np.intp)
    if not t.shape == e.shape == label.shape or t.ndim != 1:
        raise ValueError("times, events and groups must be equal-length")
    if np.isnan(t).any():
        raise ValueError("times must not be NaN")
    if (label < 0).any():
        raise ValueError("group numbers must be nonnegative")
    sizes = np.bincount(label)
    k = len(sizes)
    if k < 2:
        raise ValueError("need at least 2 groups")
    if not sizes.all():
        raise ValueError("empty group")
    if view is None:
        view = sort_scores(t, e)
    elif view.order.shape != t.shape:
        raise ValueError("view must hold one entry per subject")
    if not view.cum_pos[-1]:
        return LogrankResult(statistic=0.0, df=k - 1, p_value=1.0, degenerate=True)

    # Event time x group counts: a subject counts in the row of the last event
    # time at or before its own, so #{t >= et} sums a row and every later row.
    hit = view.cum_pos[view.last + 1] > view.cum_pos[view.first]
    row = np.repeat(np.cumsum(hit) - 1, view.last - view.first + 1)
    cell, size = row * k + label[view.order], int(hit.sum()) * k
    counts = np.bincount(cell[row >= 0], minlength=size).reshape(-1, k)
    d_table = np.bincount(cell[view.y], minlength=size).reshape(-1, k)
    n_table = np.cumsum(counts[::-1], axis=0)[::-1]
    u, v = _logrank_score(n_table.astype(float), d_table.astype(float))
    try:
        stat = float(u @ np.linalg.solve(v, u))
    except np.linalg.LinAlgError:
        stat = 0.0 if np.max(np.abs(u)) < 1e-12 else float(u @ np.linalg.pinv(v) @ u)
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
    """One Cox fit's backward sweep over a view's tie blocks, built once.

    The sweep adds tie blocks to the risk set from the latest time back, each
    block in ascending sorted position, and scores a block's events, in the
    same order, once the whole block is in. Positions index the times sorted
    ascending, which is also the row order of the fit's ``x``.
    """

    order: np.ndarray  # sorted positions, in the order the sweep adds them
    event_pos: np.ndarray  # positions in `order` of the events, in scoring order
    ends: np.ndarray  # per block with events, position in `order` of its last subject
    event_block: np.ndarray  # per event, its block's index into `ends`
    xs: np.ndarray  # x in sweep order
    at_events: np.ndarray  # x at the events, in scoring order
    products: tuple  # (a, b, xs[:, a] * xs[:, b]) for each column pair a <= b


def _cox_sweep(v: SortedScores, x: np.ndarray) -> _RiskSweep:
    """The sweep over ``v``'s tie blocks, with ``x`` (rows in ``v``'s sorted
    order) as every Newton step reads it."""
    n = len(v.s)
    # Reversing the tie blocks moves block b from sorted positions
    # first[b]..last[b] to sweep positions n-1-last[b]..n-1-first[b];
    # at[p] is the sorted position at sweep position p.
    size = (v.last - v.first + 1)[::-1]
    at = np.arange(n) + np.repeat((v.first + v.last - (n - 1))[::-1], size)
    d = (v.cum_pos[v.last + 1] - v.cum_pos[v.first])[::-1]
    hit = d > 0
    event_pos = np.flatnonzero(v.y[at])
    xs = x[at]
    pairs = [(a, b) for a in range(x.shape[1]) for b in range(a, x.shape[1])]
    return _RiskSweep(
        order=at,
        event_pos=event_pos,
        ends=(n - 1 - v.first)[::-1][hit],
        event_block=np.repeat(np.arange(int(hit.sum())), d[hit]),
        xs=xs,
        at_events=xs[event_pos],
        products=tuple((a, b, xs[:, a] * xs[:, b]) for a, b in pairs),
    )


def _cox_ll_grad_hess(
    beta: np.ndarray, x: np.ndarray, sweep: _RiskSweep
) -> tuple[float, np.ndarray, np.ndarray]:
    """Breslow partial log-likelihood with gradient and information matrix.

    ``x`` is sorted by ascending time and ``sweep`` is ``_cox_sweep(view, x)``.
    The risk-set sums S0, S1 and S2 are running sums in the sweep's order,
    read at each tie block's end, so tied events share the full risk set at
    their common time (Therneau & Grambsch 2000, section 3.3). log S0, S1/S0
    and S2/S0 are computed once per block and taken per event. Every sum adds
    its terms in the order of the one-subject-at-a-time sweep, so the results
    equal it bit for bit.
    """
    p = x.shape[1]
    ends, block = sweep.ends, sweep.event_block
    eta = x @ beta
    # Guard exp against overflow while the Newton loop's bound check is pending.
    w = np.exp(np.clip(eta, -700, 700))[sweep.order]
    s0 = _loop_sums(w)[ends]
    log_s0 = np.fromiter(map(math.log, s0.tolist()), dtype=float, count=len(s0))
    ll = float(_loop_sum(eta[sweep.order[sweep.event_pos]] - log_s0[block]))
    grad = np.zeros(p)
    info = np.zeros((p, p))
    xbar = [_loop_sums(w * sweep.xs[:, a])[ends] / s0 for a in range(p)]
    for a in range(p):
        grad[a] = _loop_sum(sweep.at_events[:, a] - xbar[a][block])
    for a, b, product in sweep.products:
        s2 = _loop_sums(w * product)[ends]
        info[a, b] = info[b, a] = _loop_sum((s2 / s0 - xbar[a] * xbar[b])[block])
    return ll, grad, info


def cox_fit(
    covariates: Sequence[Sequence[float]] | np.ndarray,
    times: Sequence[float],
    events: Sequence[bool],
    names: Sequence[str] | None = None,
    *, view: SortedScores | None = None,
) -> CoxFit:
    """Newton maximization of the Breslow-ties Cox partial likelihood.

    Damped Newton steps from beta = 0 (``_newton.newton_ascent`` states the
    stopping and step-halving rule). A singular information matrix, or a
    coefficient escaping past COX_COEF_BOUND while the likelihood still
    climbs, raises MonotoneLikelihoodError instead of returning a silently
    huge estimate. Covariates must be finite. ``view`` is
    ``riskscore.sort_scores(times, events)`` when the caller has it.
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

    v = view if view is not None else sort_scores(t, e)
    x = x[v.order]
    sweep = _cox_sweep(v, x)
    d = v.cum_pos[v.last + 1] - v.cum_pos[v.first]

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
        tie_fraction=int(d[d >= 2].sum()) / n_events,
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
